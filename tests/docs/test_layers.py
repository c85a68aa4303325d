"""The layer DAG of ``docs/architecture.md`` is what the imports do.

Every package ``__init__`` re-exports lazily and the CLI imports inside each
command's handler, so importing a layer loads only the layers it imports at
module level.  Each layer's modules are imported in a fresh interpreter
and the set of other layers that loaded is compared with the documented
table; the table itself must be acyclic.
"""

from __future__ import annotations

import json
import pkgutil
import re
from pathlib import Path

import pytest

import repro

from ..conftest import run_python

ROOT = Path(__file__).resolve().parents[2]
ARCHITECTURE = ROOT / "docs" / "architecture.md"
LAYERS = sorted(info.name for info in pkgutil.iter_modules(repro.__path__))
ROW = re.compile(r"^\| `(\w+)` \| (.*) \|$")


def documented_dag():
    """``{layer: {layers it loads}}`` from the table in docs/architecture.md."""
    lines = ARCHITECTURE.read_text(encoding="utf-8").splitlines()
    start = lines.index("| layer | loads |") + 2
    dag = {}
    for line in lines[start:]:
        match = ROW.match(line)
        if match is None:
            return dag
        dag[match.group(1)] = set(re.findall(r"`(\w+)`", match.group(2)))
    return dag


def loaded_layers(code: str):
    """The ``repro`` layers loaded after running ``code`` in a fresh interpreter."""
    out = run_python(
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules "
        "if m.startswith('repro.')})))"
    )
    return set(json.loads(out.splitlines()[-1]))


def test_the_table_names_every_layer_once_and_is_acyclic():
    dag = documented_dag()
    assert sorted(dag) == LAYERS
    placed = set()
    while len(placed) < len(dag):
        ready = {layer for layer, below in dag.items() if below <= placed} - placed
        assert ready, f"the layers {sorted(set(dag) - placed)} form a cycle"
        placed |= ready


@pytest.mark.parametrize("layer", LAYERS)
def test_a_layer_loads_only_the_layers_the_table_lists(layer):
    code = (
        "import importlib, pkgutil\n"
        f"module = importlib.import_module('repro.{layer}')\n"
        "for info in pkgutil.walk_packages(getattr(module, '__path__', []), "
        "module.__name__ + '.'):\n"
        "    importlib.import_module(info.name)"
    )
    assert loaded_layers(code) - {layer} == documented_dag()[layer]


def test_import_repro_loads_no_submodule():
    assert loaded_layers("import repro") == set()


@pytest.mark.parametrize(
    "package", [info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg]
)
def test_a_package_init_loads_only_itself(package):
    assert loaded_layers(f"import repro.{package}") == {package}


@pytest.mark.parametrize(
    "command, unused",
    [
        ("table2", {"engine", "sim", "scenarios"}),
        ("table3", {"engine", "sim", "scenarios"}),
        ("figures", {"engine", "sim", "scenarios"}),
        ("table4", {"sim", "scenarios"}),
    ],
)
def test_a_paper_command_loads_only_the_layers_it_runs(command, unused):
    code = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main([{command!r}]) == 0"
    )
    assert not loaded_layers(code) & unused
