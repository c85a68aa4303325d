"""Which package functions the traced run wraps, and the per-layer metrics.

Each entry wraps a public function or method at the boundary of one layer.
A function that no longer exists is skipped, and the metrics that depend on
it are left out of the report rather than reported as zero or as a failure.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time

from tracing import Tracer, layer_of

__all__ = ["ALGORITHMS", "LAYERS", "POLICIES", "install", "layer_metrics", "unit_of"]

#: Default suite algorithms (registry names) and simulation policies.
ALGORITHMS = ("iterative", "dp-energy+greedy", "last-task-first", "best-uniform")
POLICIES = ("static-replay", "greedy-energy", "deadline-slack", "battery-reactive")
#: Layers of the self-time rollup; ``bench`` is time no wrapped layer covers.
LAYERS = ("scenarios", "engine", "algo", "core", "scheduling", "battery", "sim", "bench")


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _class(module_name: str, name: str):
    return getattr(_module(module_name), name, None)


def install(tracer: Tracer) -> set:
    """Install every wrapper; returns the span/counter names actually wired."""
    wired = set()
    counts, values, samples = tracer.counts, tracer.values, tracer.samples

    def method(module_name, cls_name, attr, make, name):
        cls = _class(module_name, cls_name)
        if cls is not None and tracer.patch_method(cls, attr, make):
            wired.add(name)

    def function(module_name, attr, make, name):
        if _module(module_name) is not None and tracer.patch_function(
            module_name, attr, make
        ):
            wired.add(name)

    def span(name, after=None, rows=None):
        return lambda fn: tracer.traced(name, fn, after=after, rows=rows)

    # -- core: the paper algorithm ------------------------------------
    def solution_stats(args, kwargs, solution):
        for iteration in solution.iterations:
            counts["core.iterations"] += 1
            for record in iteration.windows.records:
                counts["core.windows"] += 1
                counts["core.windows.feasible"] += bool(record.feasible)

    def dpf_veto(args, kwargs, result):
        counts["core.dpf.vetoes"] += math.isinf(result[2])

    method("repro.core.iterative", "BatteryAwareScheduler", "solve",
           span("core.solve", after=solution_stats), "core.solve")
    function("repro.core.windows", "evaluate_windows", span("core.windows"), "core.windows")
    function("repro.core.choose", "choose_design_points", span("core.choose"), "core.choose")
    function("repro.core.choose", "calculate_dpf", span("core.dpf", after=dpf_veto), "core.dpf")
    function("repro.core.choose", "promote_until_feasible", span("core.promote"), "core.promote")
    method("repro.core.matrices", "SequencedMatrices", "total_time",
           lambda fn: tracer.counted("core.total_time", fn), "core.total_time")

    # -- engine ------------------------------------------------------------
    def run_stats(args, kwargs, run):
        counts["engine.cache.hits"] += run.cache_hits
        counts["engine.cache.misses"] += run.cache_misses
        results = getattr(run, "results", None)
        if results is not None:  # offline jobs: executed minus unique keys
            counts["engine.offline.duplicate_jobs"] += (
                run.executed + run.skipped - len({r.key for r in results})
            )

    function("repro.engine.api", "run_jobs", span("engine.run", after=run_stats), "engine.run")
    function("repro.engine.simjobs", "run_simulation_jobs",
             span("engine.run", after=run_stats), "engine.run")

    def algorithms(get_algorithm):
        def wrapped(name):
            runner = get_algorithm(name)
            return tracer.traced(f"engine.algo.{name}", runner)

        return wrapped

    function("repro.engine.executors", "get_algorithm", algorithms, "engine.algo")
    method("repro.engine.jobs", "Job", "key", span("engine.key"), "engine.key")
    method("repro.engine.simjobs", "SimulationJob", "key", span("engine.key"), "engine.key")
    for attr in ("append", "append_many"):
        method("repro.engine.store", "ResultStore", attr,
               span("engine.store.append"), "engine.store.append")
    method("repro.engine.store", "ResultStore", "load", span("engine.store.load"),
           "engine.store.load")

    def pool(run):
        def wrapped(executor, jobs, progress=None, **kwargs):
            jobs = list(jobs)
            started = time.perf_counter()

            def on_done(done, total, result):
                elapsed = getattr(result, "elapsed_s", 0.0) or 0.0
                samples["engine.pool.wait_s"].append(time.perf_counter() - started - elapsed)
                if progress is not None:
                    progress(done, total, result)

            row = tracer.begin("engine.pool")
            try:
                results = run(executor, jobs, progress=on_done, **kwargs)
            finally:
                tracer.end(row)
            values["engine.pool.busy_s"] += sum(
                getattr(r, "elapsed_s", 0.0) or 0.0 for r in results
            )
            values["engine.pool.capacity_s"] += min(executor.max_workers, len(jobs)) * (
                time.perf_counter() - started
            )
            return results

        wrapped.__wrapped__ = run
        return wrapped

    method("repro.engine.executors", "ParallelExecutor", "run", pool, "engine.pool")

    def simjob_label(item, *args, **kwargs):
        lanes = getattr(item, "jobs", (item,))  # a batch, or one job
        counts[f"sim.lanes.{lanes[0].policy}"] += len(lanes)
        return f"engine.simjob.{lanes[0].policy}"

    for attr in ("execute_simulation_job", "execute_simulation_batch"):
        function("repro.engine.simjobs", attr, span(simjob_label), "engine.simjob")

    # -- scenarios, scheduling, battery -------------------------------------
    method("repro.scenarios.spec", "ScenarioSpec", "build_problem",
           span("scenarios.build_problem"), "scenarios.build_problem")
    function("repro.scheduling.evaluator", "evaluate_schedule",
             span("scheduling.evaluate_schedule"), "scheduling.evaluate_schedule")

    import numpy as np

    method("repro.battery.kernels", "ScheduleKernelMixin", "_contributions",
           span("battery.charge", rows=lambda a, k: int(np.size(a[1]))), "battery.charge")
    battery = _module("repro.battery")
    base = getattr(battery, "BatteryModel", None)
    for value in list(vars(battery).values()) if battery is not None else ():
        if isinstance(value, type) and base is not None and issubclass(value, base) \
                and value is not base:
            method(value.__module__, value.__name__, "apparent_charge",
                   span("battery.charge", rows=lambda a, k: len(a[1])), "battery.charge")

    # -- sim -------------------------------------------------------------------
    for module_name, cls_name in (("repro.sim.runtime", "Simulator"),
                                  ("repro.sim.batch", "BatchSimulator")):
        method(module_name, cls_name, "__init__", span("sim.init"), "sim.init")
    method("repro.sim.runtime", "Simulator", "run", span("sim.run"), "sim.run")
    method("repro.sim.batch", "BatchSimulator", "run", span("sim.batch"), "sim.batch")
    function("repro.sim.schedulers", "make_policy", span("sim.init"), "sim.init")
    return wired


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("frac", "rate", "utilization", "coverage", "overhead")):
        return "ratio"
    return "count"


def _metric_name(name: str) -> str:
    return name.replace("+", "-")


def layer_metrics(summary, parent, wired, traced_wall, extra):
    """Per-layer metrics from a merged tracer summary.

    ``summary`` covers the traced process and its pool workers, ``parent``
    only the traced process; ``traced_wall`` is that process's pass time
    (coverage is the share of it inside wrapped layers).  Span times are
    raw seconds.
    """
    spans, counts, values, samples = (
        summary["spans"], summary["counts"], summary["values"], summary["samples"]
    )

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def group(required, entries):
        if required in wired:
            m.update(entries)

    group("core.solve", {
        "core.solve.calls": calls("core.solve"),
        "core.solve.self_s": self_s("core.solve"),
        "core.iterations.per_solve": ratio(counts.get("core.iterations", 0), calls("core.solve")),
        "core.windows.feasible_frac": ratio(
            counts.get("core.windows.feasible", 0), counts.get("core.windows", 0)
        ),
    })
    group("core.choose", {"core.choose.calls": calls("core.choose")})
    group("core.dpf", {
        "core.dpf.calls": calls("core.dpf"),
        "core.dpf.self_s": self_s("core.dpf"),
        "core.dpf.veto_frac": ratio(counts.get("core.dpf.vetoes", 0), calls("core.dpf")),
    })
    group("core.total_time", {"core.total_time.calls": counts.get("core.total_time", 0)})
    group("engine.algo", {
        f"engine.algo_s.{_metric_name(a)}": total_s(f"engine.algo.{a}") for a in ALGORITHMS
    })
    group("engine.run", {
        "engine.run.self_s": self_s("engine.run"),
        "engine.cache.hit_rate": ratio(
            counts.get("engine.cache.hits", 0),
            counts.get("engine.cache.hits", 0) + counts.get("engine.cache.misses", 0),
        ),
        "engine.offline.duplicate_jobs": counts.get("engine.offline.duplicate_jobs", 0),
    })
    group("engine.key", {"engine.key.calls": calls("engine.key"),
                         "engine.key.self_s": self_s("engine.key")})
    group("engine.store.append", {
        "engine.store.append_s": total_s("engine.store.append"),
        "engine.store.bytes": extra.get("store_bytes", 0.0),
    })
    group("engine.store.load", {"engine.store.load_s": total_s("engine.store.load")})
    waits = samples.get("engine.pool.wait_s", [])
    group("engine.pool", {
        "engine.pool.utilization": ratio(
            values.get("engine.pool.busy_s", 0.0), values.get("engine.pool.capacity_s", 0.0)
        ),
        "engine.pool.wait_ms.p50": statistics.median(waits) * 1e3 if waits else 0.0,
    })
    group("scenarios.build_problem", {
        "scenarios.build_problem.calls": calls("scenarios.build_problem"),
        "scenarios.build_problem.self_s": self_s("scenarios.build_problem"),
    })
    group("scheduling.evaluate_schedule", {
        "scheduling.evaluate_schedule.calls": calls("scheduling.evaluate_schedule"),
        "scheduling.evaluate_schedule.self_s": self_s("scheduling.evaluate_schedule"),
    })
    group("battery.charge", {
        "battery.charge.calls": calls("battery.charge"),
        "battery.charge.rows": counts.get("battery.charge.rows", 0),
        "battery.charge.self_s": self_s("battery.charge"),
    })
    m["sim.reps"] = extra.get("sim_reps", 0.0)
    m["sim.events"] = extra.get("sim_events", 0.0)
    group("sim.init", {"sim.init.self_s": self_s("sim.init")})
    group("sim.run", {"sim.run.self_s": self_s("sim.run")})
    group("sim.batch", {"sim.batch.self_s": self_s("sim.batch")})
    group("engine.simjob", {
        f"sim.rep_ms.{p}": ratio(total_s(f"engine.simjob.{p}"), counts.get(f"sim.lanes.{p}", 0))
        * 1e3
        for p in POLICIES
    })

    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, (_, seconds, _) in spans.items():
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = by_layer[layer]
    uncovered = parent["spans"].get("bench.pass", (0, 0.0, 0.0))[1]
    m["bench.coverage"] = 1.0 - ratio(uncovered, traced_wall)
    m["bench.traced_wall_s"] = traced_wall
    return m
