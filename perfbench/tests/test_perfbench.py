"""Fast self-tests of the benchmark, on reduced op lists.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# cheap ops that still reach every layer the full workload reaches
REDUCED = {
    "verify-all": ["T", "prism(5)", "hosohedron(3)", "dihedron(4)"],
    "family-sweep": ["prism(12)", "dihedron(400)", "hosohedron(400)"],
    "algebra": ["enumerate:19", "solve:3,4,4,5", "family:7", "snub:5", "groebner"],
    "export": ["C", "antiprism(6)", "prism(12)"],
}


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _units(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(at_root, workload):
    out = run.run_benchmark(workload, seed=3, seconds=0, trace=False,
                            ops=REDUCED[workload], min_setups=1)
    res = out["result"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == _units("end_to_end")
    assert res["correct"] and res["failed"] == 0
    # seconds=0 still runs one round: two iterations, the second reversed
    assert res["attempted"] == 2 * len(REDUCED[workload])
    assert out["raw"]["speed_samples"] > 0
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert out["environment"]["seed"] == 3
    assert out["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(at_root, workload):
    out = run.run_benchmark(workload, seed=4, seconds=0, trace=True,
                            ops=REDUCED[workload], min_setups=1)
    metrics = out["result"]["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _units("per_layer")
    assert out["iterations"] == {"untraced": 1, "traced": 1}
    self_times = [m["value"] for k, m in metrics.items() if k.endswith(".self_s")]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= metrics["trace.wall_s"]["value"]
    assert metrics["trace.spans"]["value"] > 0


def test_verify_all_layers_nest(at_root):
    out = run.run_benchmark("verify-all", seed=5, seconds=0, trace=True,
                            ops=["T", "C"], min_setups=1)
    m = {k: v["value"] for k, v in out["result"]["metrics"].items()}
    assert m["cli.verify_entry.calls"] == 2
    assert m["tilemap.validate.calls"] == 2
    # the first validate in a process enumerates the size-19 candidate set
    assert m["vertexcomb.enumerate_candidate_types.calls"] == 1
    assert m["vertexcomb.useful_ratio.enumerated"] == 184
    assert m["vertexcomb.useful_ratio.looked_up"] == 2
    assert m["cli.verify_entry.s"] >= m["embedder.realize.s"] + m["tilemap.validate.s"]


def _reference():
    return json.loads(worker.REFERENCE.read_text())


def test_wrong_json_digest_is_a_failed_op():
    ref = _reference()
    ref["export"]["C"]["json"] = "0" * 64
    r = worker.run_iteration("export", 0, 0, ops=["C", "T"], reference=ref)
    assert (r["attempted"], r["failed"], r["wrong"]) == (2, 1, 1)
    status = {name: s for name, _, s in r["ops"]}
    assert status["C"] == "JSON digest differs" and status["T"] == "ok"


def test_wrong_enumeration_digest_is_a_failed_op():
    ref = _reference()
    ref["enumerate"]["19"]["triangle_free"][1] = "0" * 64
    r = worker.run_iteration("algebra", 0, 0, ops=["enumerate:19"], reference=ref)
    assert (r["failed"], r["wrong"]) == (1, 1)


def test_op_without_reference_is_a_failed_op():
    ref = _reference()
    del ref["export"]["T"]
    r = worker.run_iteration("export", 0, 0, ops=["T"], reference=ref)
    assert (r["failed"], r["wrong"]) == (1, 1)
    assert r["ops"][0][2].startswith("check raised KeyError")


def test_raising_op_is_failed_but_not_wrong():
    r = worker.run_iteration("export", 0, 0, ops=["no-such-entry", "T"])
    assert (r["attempted"], r["failed"], r["wrong"]) == (2, 1, 0)
    status = {name: s for name, _, s in r["ops"]}
    assert status["no-such-entry"].startswith("error: UnknownName")


def test_corrected_times_scale_the_raw_ones():
    r = worker.run_iteration("export", 0, 0, ops=["T", "C"], corrected=True)
    assert r["speed_samples"] > 0 and r["raw_wall_s"] > 0
    assert all(ms > 0 for _, ms, _ in r["ops"]) and all(ms > 0 for ms in r["raw_ms"])
    # one factor for the whole iteration, near one op's own
    ratio = r["wall_s"] / r["raw_wall_s"]
    assert all(0.5 * ratio < ms / raw < 2 * ratio
               for (_, ms, _), raw in zip(r["ops"], r["raw_ms"]))
    plain = worker.run_iteration("export", 0, 0, ops=["T"])
    assert plain["wall_s"] == plain["raw_wall_s"] and plain["speed_samples"] == 0


def test_speed_factor_is_the_reference_over_the_kernel_time():
    assert speed.factor([speed.KERNEL_REF_S]) == pytest.approx(1.0)
    assert speed.factor([2 * speed.KERNEL_REF_S, 2 * speed.KERNEL_REF_S]) == pytest.approx(0.5)
    meter = speed.Speedometer()
    meter.samples = [(1.0, 1e-3), (2.0, 4e-3)]
    assert meter.factor_between(1.9, 2.1) == pytest.approx(speed.KERNEL_REF_S / 4e-3)
    # no sample inside the window: the nearest one
    assert meter.factor_between(1.3, 1.35) == pytest.approx(speed.KERNEL_REF_S / 1e-3)


def test_seed_only_permutes_the_ops():
    a = worker.ordered_ops("export", 1, 0)
    assert a == worker.ordered_ops("export", 1, 0)
    b = worker.ordered_ops("export", 2, 0)
    assert a != b and sorted(a) == sorted(b) == sorted(worker.op_names("export"))
    assert worker.ordered_ops("export", 1, 1) == a[::-1]
    assert worker.ordered_ops("export", 1, 2) not in (a, a[::-1])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:],
           "--workload", "export", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
