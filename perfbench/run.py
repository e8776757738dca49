"""sphtile benchmark: end-to-end timings per workload, or per-layer spans.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 25 --trace 0

Every iteration is a fresh single-threaded interpreter (``worker.py``)
with the BLAS thread count pinned to 1, because a user pays import and
every lazy cache on each ``sphtile`` call.  The load is a closed loop:
one caller, each iteration starts after the previous one ends.  A run is
made of rounds of two iterations and keeps starting rounds until the next
one would end more than half a round past ``--seconds``; it runs at least
one.  Before each
iteration a probe interpreter only imports the package; more probes top
the set-up samples up to ``MIN_SETUP_SAMPLES``.  Untraced runs report
times corrected for the machine's speed (``speed.py``) and print the raw
times above the result line.  With ``--trace 1`` each round is one
untraced and one traced iteration, neither corrected, and the run reports
the per-layer metrics of the traced ones and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out FILE``
also writes the environment, every op record and the per-iteration
metrics to FILE.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402

WORKER = HERE / "worker.py"
WORKLOADS = ("verify-all", "family-sweep", "algebra", "export")
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ok/attempted",
}
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args: list) -> tuple:
    """Run the worker once; return (its JSON result, its set-up time raw
    and corrected for machine speed)."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], env=_child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker {args[0]} exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux
    raw = result["setup_done"] - start
    return result, (raw, raw * speed.factor(result["setup_kernel_s"]))


def _quantile(samples: list, pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if Path(".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "blas_threads": THREAD_ENV,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  ops=None, min_setups: int = MIN_SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the result object plus its details.

    ``ops`` restricts every iteration to those op names (the self-tests
    use it to stay fast).
    """
    deadline = time.perf_counter() + seconds
    setups, plain, traced = [], [], []
    while True:
        # a round is a pair of untraced iterations, whose op orders are each
        # other's reverse, or an untraced and a traced one
        started = time.perf_counter()
        for want_trace in (False, trace):
            # probes spread over the run see the same machine load as the iterations
            setups.append(_spawn(["probe"])[1])
            kind = traced if want_trace else plain
            spec = {"workload": workload, "seed": seed, "iteration": len(kind),
                    "trace": want_trace, "ops": ops, "corrected": not trace}
            result, setup = _spawn(["run", json.dumps(spec)])
            setups.append(setup)
            kind.append(result)
        # stop unless the next round would end by half a round past the deadline
        now = time.perf_counter()
        if now + (now - started) / 2 > deadline:
            break
    while len(setups) < min_setups:
        setups.append(_spawn(["probe"])[1])

    done = plain + traced
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done)
    samples = [ms for r in plain for _, ms, status in r["ops"] if status == "ok"]
    if trace:
        metrics = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = (
            metrics["trace.wall_s"] - statistics.median(r["wall_s"] for r in plain)
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(corrected for _, corrected in setups),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "op_ms.p50": _quantile(samples, 50) if samples else 0.0,
            "op_ms.p90": _quantile(samples, 90) if samples else 0.0,
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] / 1024 for r in plain),
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS
    env = environment(seed)
    env["numpy"] = done[0]["numpy"]
    return {
        "result": {
            "correct": all(r["wrong"] == 0 for r in done),
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        },
        "environment": env,
        "workload": workload,
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "op_samples": len(samples),
        "setup_samples": setups,
        "raw": {
            "setup_s": statistics.median(raw for raw, _ in setups),
            "wall_s": statistics.median(r["raw_wall_s"] for r in plain),
            "speed_samples": sum(r["speed_samples"] for r in plain),
        },
        "iteration_results": done,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full results to this file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not Path("src/sphtile/cli.py").is_file():
        print("run.py: no src/sphtile here; run it from the root of a sphtile checkout",
              file=sys.stderr)
        return 2
    try:
        run = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result = run["result"]
    print("environment " + json.dumps(run["environment"], sort_keys=True))
    print(f"workload {args.workload}: iterations {run['iterations']}, "
          f"op samples {run['op_samples']}, setup samples {len(run['setup_samples'])}")
    print(f"failed_ratio {result['failed']}/{result['attempted']}")
    if not args.trace:
        raw = run["raw"]
        print(f"uncorrected: setup_s {raw['setup_s']:.6g} s, wall_s {raw['wall_s']:.6g} s "
              f"({raw['speed_samples']} speed samples)")
    failures = {(name, status) for r in run["iteration_results"]
                for name, _, status in r["ops"] if status != "ok"}
    for name, status in sorted(failures):
        print(f"failed op {name}: {status}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(run, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
