"""Unit tests for CSV/JSON export helpers."""

import csv
import io
import json

import pytest

from repro.analysis import (
    TextTable,
    save_json_records,
    save_table_csv,
    table_to_csv,
    table_to_records,
)


@pytest.fixture
def table():
    table = TextTable(title="demo", headers=("name", "sigma", "note"))
    table.add_row("a", 1.5, None)
    table.add_row("b", 2.0, "x")
    return table


class TestTableExport:
    def test_csv_round_trip(self, table):
        text = table_to_csv(table)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["name", "sigma", "note"]
        assert rows[1] == ["a", "1.5", ""]
        assert rows[2] == ["b", "2.0", "x"]

    def test_save_csv(self, table, tmp_path):
        path = save_table_csv(table, tmp_path / "out.csv")
        assert path.exists()
        assert "sigma" in path.read_text()

    def test_records(self, table):
        records = table_to_records(table)
        assert records[0] == {"name": "a", "sigma": 1.5, "note": None}
        assert len(records) == 2


class TestJsonExport:
    def test_save_json(self, table, tmp_path):
        path = save_json_records(table_to_records(table), tmp_path / "out.json")
        loaded = json.loads(path.read_text())
        assert loaded == [
            {"name": "a", "sigma": 1.5, "note": None},
            {"name": "b", "sigma": 2.0, "note": "x"},
        ]

    def test_json_handles_numpy_scalars(self, tmp_path):
        import numpy as np

        path = save_json_records([{"value": np.float64(1.5)}], tmp_path / "np.json")
        assert json.loads(path.read_text()) == [{"value": 1.5}]


class TestEngineTableExport:
    """The engine's run table is what the experiment drivers export."""

    @pytest.fixture
    def run(self, g2):
        from repro.battery import BatterySpec
        from repro.engine import run_experiments
        from repro.scheduling import SchedulingProblem

        problems = [
            SchedulingProblem(graph=g2, deadline=75.0, battery=BatterySpec(beta=0.273), name="G2@75"),
            SchedulingProblem(graph=g2, deadline=40.0, battery=BatterySpec(beta=0.273), name="G2@40"),
        ]
        return run_experiments(problems, ["iterative", "all-fastest"])

    def test_records_contain_every_cell(self, run):
        records = table_to_records(run.to_table())
        assert [(r["problem"], r["algorithm"]) for r in records] == [
            ("G2@75", "iterative"),
            ("G2@75", "all-fastest"),
            ("G2@40", "iterative"),
            ("G2@40", "all-fastest"),
        ]
        ok = records[0]
        assert ok["status"] == "ok"
        assert ok["sigma"] == run.result_for("G2@75", "iterative").cost

    def test_failed_cell_exports_error_and_null_sigma(self, run, tmp_path):
        failed = [result for result in run.results if not result.ok]
        assert failed  # the iterative scheduler refuses a deadline below every makespan
        path = save_json_records(table_to_records(run.to_table()), tmp_path / "run.json")
        loaded = {(r["problem"], r["algorithm"]): r for r in json.loads(path.read_text())}
        for result in failed:
            record = loaded[(result.problem_name, result.algorithm)]
            assert record["sigma"] is None
            assert record["status"] == result.error

    def test_csv_has_one_row_per_job(self, run, tmp_path):
        path = save_table_csv(run.to_table(), tmp_path / "run.csv")
        rows = list(csv.reader(io.StringIO(path.read_text())))
        assert rows[0] == ["problem", "algorithm", "sigma", "makespan", "status"]
        assert len(rows) == 1 + len(run.results)
