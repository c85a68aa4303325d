"""One benchmark pass in a fresh interpreter: set up, run, check, report.

``run.py`` starts this from the checkout root with ``PYTHONPATH=src``::

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --workdir DIR

``MODE`` is ``setup`` (import and build the inputs only), ``pass`` (also run
one timed pass and check it) or ``trace`` (the same pass with the layer
wrappers of ``layers.py`` installed).  Every pass runs in its own process, so
no pass can reuse memos, caches or built problems warmed by an earlier one.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    from hostspeed import Sampler

    with Sampler() as sampler:
        return _run(args, sampler)


def _run(args, sampler) -> int:
    started = time.perf_counter()
    import repro  # noqa: F401  (the import is part of set-up time)
    import repro.engine  # noqa: F401
    import repro.experiments  # noqa: F401

    imported = time.perf_counter()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        import layers
        from tracing import Tracer

        tracer = Tracer(args.workdir)
        wired = layers.install(tracer)
        tracer.follow_forks()
    inputs = workload.setup(args.seed, args.workdir)
    set_up = time.perf_counter()
    if args.mode == "setup":
        import numpy

        sampler.stop()
        print(json.dumps({
            "import_s": sampler.normalise(started, imported),
            "setup_s": sampler.normalise(started, set_up),
            "probe_ms": sampler.probe_s() * 1e3,
            "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
        }))
        return 0

    if tracer is not None:
        row = tracer.begin("bench.pass")
    try:
        outcome = workload.run(inputs)
    finally:
        if tracer is not None:
            tracer.end(row)
            tracer.uninstall()  # the checks below stay out of the trace
    sampler.stop()
    wall_s = sampler.normalise(outcome.started, outcome.ended)
    raw_wall_s = outcome.ended - outcome.started
    op_ms = [sampler.normalise(begin, end) * 1e3 for begin, end in outcome.op_spans]
    workload.check(inputs, outcome)
    if outcome.sized_ms:
        size_ms = [(n, ms * wall_s / raw_wall_s) for n, ms in outcome.sized_ms]
    elif outcome.op_group:
        groups = {}
        for group, n, ms in zip(outcome.op_group, outcome.op_n, op_ms):
            groups[group] = (n, groups.get(group, (n, 0.0))[1] + ms)
        size_ms = list(groups.values())
    else:
        size_ms = list(zip(outcome.op_n, op_ms))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The largest reaped child: the pool workers on suite-parallel.
    rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = dict(
        import_s=sampler.normalise(started, imported),
        setup_s=sampler.normalise(started, set_up),
        probe_ms=sampler.probe_s() * 1e3,
        wall_s=wall_s,
        raw_wall_s=raw_wall_s,
        op_ms=op_ms,
        size_ms=size_ms,
        op_aligned=outcome.op_aligned,
        fit_by_size=outcome.fit_by_size,
        attempted=outcome.attempted,
        failed=outcome.failed,
        digest=outcome.digest,
        problems=outcome.problems[:20],
        extra=outcome.extra,
        rss_mb=rss_kb / 1024.0,
    )
    if tracer is not None:
        tracer.write(os.path.join(os.path.dirname(args.workdir), f"{args.workload}-spans.jsonl"))
        report["trace"] = {
            "merged": tracer.merged(),
            "parent": tracer.summary(),
            "wired": sorted(wired),
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
