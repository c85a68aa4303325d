"""The repository benchmark: four workloads over the ``repro`` package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # table of every workload

Workloads: ``solve-scaling``, ``suite-catalogue``, ``simulate-mc`` and
``suite-parallel`` (see ``perfbench/README.md``).  Each pass runs in a fresh
interpreter (``worker.py``); passes repeat, closed loop, until ``--seconds``
is used up.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics of one extra
traced pass.  The exit code is non-zero, and no result is printed, when the
package sources are missing or a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS, scaling_exponent  # noqa: E402

#: End-to-end metrics (name -> unit); every one is lower-is-better.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "scaling_exp": "exponent",
    "peak_rss_mb": "MB",
}
#: Set-up-only interpreters per run, after one untimed warm-up.
SETUP_PROBES = 5
#: A run may take 180 s; leave room for the traced pass and reporting.
HARD_LIMIT_S = 170.0
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as _handle:
    DEFAULT_SEED = json.load(_handle)["seeds"]["default"]
#: Workloads whose outputs must equal another workload's.
SAME_OUTPUTS = {"suite-parallel": "suite-catalogue"}


class BenchError(RuntimeError):
    """A pass could not run; the benchmark exits without a result."""


def _env():
    env = dict(os.environ)
    env.pop("REPRO_KERNEL_BACKEND", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(workload, seed, mode, workdir, env, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the pass could start")
    # A session of its own, so a timed-out pass is killed with its pool workers.
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
         "--mode", mode, "--workdir", workdir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} pass timed out after {timeout:.0f} s") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass failed (exit {proc.returncode}):\n{stderr[-3000:]}")
    return json.loads(lines[-1])


def _quantiles(values):
    """(p50, p90) of the samples."""
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def _op_samples(passes):
    """Per-operation medians over passes, or every pass's samples pooled.

    Operations of aligned workloads repeat in the same order in every pass,
    so each contributes its median; completion-order samples are pooled.
    """
    lists = [p["op_ms"] for p in passes]
    if passes[0]["op_aligned"]:
        return [statistics.median(ops) for ops in zip(*lists)]
    return [ms for ops in lists for ms in ops]


def _recorded_digest(workload, seed):
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(SAME_OUTPUTS.get(workload, workload), {}).get(str(seed))


def measure(workload, seed, seconds, trace, workdir, env, deadline, log):
    """All passes of one run; returns (result dict, digest, host fingerprint)."""
    _worker(workload, seed, "setup", workdir, env, deadline)  # warm-up, untimed
    start = time.monotonic()
    probes = [_worker(workload, seed, "setup", workdir, env, deadline)
              for _ in range(SETUP_PROBES)]
    passes = []
    while True:
        began = time.monotonic()
        passes.append(_worker(workload, seed, "pass", workdir, env, deadline))
        per_pass = time.monotonic() - began
        if time.monotonic() - start + per_pass > seconds:
            break
    traced = _worker(workload, seed, "trace", workdir, env, deadline) if trace else None

    problems = []
    digests = {p["digest"] for p in passes}
    expected = _recorded_digest(workload, seed)
    if len(digests) != 1:
        problems.append(f"passes disagree: digests {sorted(digests)}")
    digest = passes[0]["digest"]
    if expected is not None and digest != expected:
        problems.append(f"digest {digest} != recorded {expected} for seed {seed}")
    if traced is not None and traced["digest"] != digest:
        problems.append(f"traced digest {traced['digest']} != untraced {digest}")
    for p in passes + ([traced] if traced else []):
        problems.extend(p["problems"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if problems and failed == 0:
        failed = attempted  # a pass-level check failed: no output can be trusted
    for line in problems[:20]:
        log(f"check failed: {line}")

    host = {
        "nproc": os.cpu_count() or 1,
        **probes[0]["versions"],
        "probe_ms": statistics.median(p["probe_ms"] for p in probes + passes),
    }
    walls = [p["wall_s"] for p in passes]
    if traced is None:
        p50, p90 = _quantiles(_op_samples(passes))
        # Operation i has the same size n in every pass.
        sizes = [(points[0][0], statistics.median(ms for _, ms in points))
                 for points in zip(*(p["size_ms"] for p in passes))]
        metrics = {
            "setup_s": statistics.median([p["setup_s"] for p in probes + passes]),
            "wall_s": statistics.median(walls),
            "op_ms.p50": p50,
            "op_ms.p90": p90,
            "scaling_exp": scaling_exponent(sizes, passes[0]["fit_by_size"]),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        units = END_TO_END
    else:
        info = traced["trace"]
        metrics = layers.layer_metrics(
            info["merged"], info["parent"], set(info["wired"]), traced["raw_wall_s"],
            traced["extra"],
        )
        metrics["bench.trace_overhead"] = traced["wall_s"] / statistics.median(walls)
        metrics["bench.raw_wall_s"] = statistics.median(p["raw_wall_s"] for p in passes)
        metrics["cli.import_s"] = statistics.median(p["import_s"] for p in probes + passes)
        metrics["bench.failed_frac"] = failed / attempted if attempted else 1.0
        metrics["host.nproc"] = os.cpu_count() or 1
        metrics["host.probe_ms"] = host["probe_ms"]
        units = {}
    log(f"{workload} seed={seed}: {len(passes)} passes, {len(probes)} set-up probes, "
        f"{attempted} ops, {failed} failed, digest {digest}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name) or layers.unit_of(name)}
            for name, value in metrics.items()
        },
    }
    return result, digest, host


def _record(workload, seed, digest):
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    table.setdefault(workload, {})[str(seed)] = digest
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digest as the reference for its seed")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    def log(line):
        print(line, file=sys.stderr, flush=True)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        log("src/repro not found: run from the root of a repro checkout")
        return 2
    os.makedirs(".perfbench", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=".perfbench")
    env = _env()
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            deadline = time.monotonic() + HARD_LIMIT_S
            results[name], digest, host = measure(
                name, args.seed, args.seconds, args.trace == 1, workdir, env, deadline, log
            )
            if args.record:
                _record(name, args.seed, digest)
    except BenchError as exc:
        log(f"benchmark aborted: {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("host: " + " ".join(f"{key}={value}" for key, value in host.items()))
    for name, result in results.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:.4f}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
