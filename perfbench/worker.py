"""One benchmark iteration in a fresh, single-threaded interpreter.

Run from the checkout root with ``src`` on ``PYTHONPATH`` (``run.py`` does
this for every iteration)::

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py run '{"workload": "export", "seed": 1, ...}'
    python3 perfbench/worker.py record     # rewrite perfbench/reference.json

``sphtile.cli`` is imported before anything else, so the timestamp taken
right after it marks the end of set-up.  Both modes then time the speed
kernel of ``speed.py`` a few times, to correct the set-up time.  ``run``
executes every op of one workload in a seed-permuted order, times each
op, checks its outputs against ``reference.json`` and prints one JSON
line.  Untraced iterations sample the speed kernel while they run and
report each time both raw and corrected for machine speed.  A check that
fails marks the op failed and wrong; an op that raises is failed but not
wrong.  The seed only orders the ops: the library sees catalog names and
sizes.
"""

import time

import sphtile.cli  # noqa: F401  (set-up ends when this import is done)

SETUP_DONE = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from sphtile import algsolve, catalog, cli, embedder, tilemap, vertexcomb  # noqa: E402

import speed  # noqa: E402

REFERENCE = Path(__file__).with_name("reference.json")

# the pinned tolerances of the acceptance suite
ANGLE_TOL = 1e-9
AREA_TOL = 1e-8
CLOSURE_TOL = 1e-7
EDGE_TOL = 1e-9
EMBEDDED_AREA_TOL = 1e-6
SPHERE_TOL = 1e-12
SOLUTION_TOL = 1e-9
FOUR_PI = 4.0 * math.pi

VERIFY_CHECKS = {
    "angle_sums", "area", "census", "companion", "dehn_sommerville",
    "embedding_closure", "euler", "structure",
}

FAMILY_SWEEP = (
    [f"{kind}({n})" for kind in ("prism", "antiprism") for n in (12, 24, 32)]
    + [f"{kind}({n})" for kind in ("dihedron", "hosohedron") for n in (400, 1600)]
)

NAMED_TYPES = (
    (3, 4, 4, 5), (4, 6, 8), (4, 6, 10), (3, 4, 6), (3, 4, 10), (3, 6, 6),
    (3, 8, 8), (5, 6, 6), (3, 5, 5), (3, 4, 4, 4), (3, 3, 4, 4), (3, 3, 3, 5),
    (3, 3, 3, 3, 4), (3, 3, 3, 3, 5),
)
FAMILY_SIZES = range(5, 33)


def family_types(m: int) -> tuple:
    """The prism and antiprism vertex types at face size m."""
    return (4, 4, m), (3, 3, 3, m)


def _type_key(t) -> str:
    return ",".join(map(str, t))


def op_names(workload: str) -> list:
    """Every op of one iteration of ``workload``, in canonical order."""
    if workload == "verify-all":
        return catalog.all_entries()
    if workload == "family-sweep":
        return list(FAMILY_SWEEP)
    if workload == "algebra":
        # the prism and antiprism systems of one size form one op; as single
        # ops the 90th percentile fell on the Groebner check alone
        return (
            ["enumerate:19", "enumerate:28"]
            + ["solve:" + _type_key(t) for t in NAMED_TYPES]
            + [f"family:{m}" for m in FAMILY_SIZES]
            + ["snub:4", "snub:5", "groebner"]
        )
    if workload == "export":
        return catalog.names() + [
            f"{kind}({n})"
            for kind in ("prism", "antiprism", "dihedron", "hosohedron")
            for n in (6, 12)
        ]
    raise ValueError(f"unknown workload {workload!r}")


def ordered_ops(workload: str, seed: int, iteration: int, ops=None) -> list:
    """The ops of one iteration in the order the seed gives them.

    Iterations come in pairs, the second running the first one's order
    reversed.  Some costs fall on whichever op comes first (an lru-cached
    ``make`` that another entry reuses, the candidate set shared by
    prism(n) and antiprism(n)); within a pair every two ops meet in both
    orders, so the pooled op times depend little on the seed.
    """
    names = list(op_names(workload) if ops is None else ops)
    random.Random(f"{workload}:{seed}:{iteration // 2}").shuffle(names)
    return names[::-1] if iteration % 2 else names


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _types_digest(types) -> str:
    # the same lines `sphtile enumerate` prints
    return _digest("".join(",".join(map(str, t)) + "\n" for t in types).encode())


def _angles(assign) -> dict:
    return {str(m): a for m, a in sorted(assign.angles.items())}


def _angle_problems(got: dict, want: dict, what: str) -> list:
    if set(got) != set(want):
        return [f"{what}: sizes {sorted(got)} != {sorted(want)}"]
    return [
        f"{what}: angle {m} off by {abs(got[m] - want[m]):.3e}"
        for m in want
        if not abs(got[m] - want[m]) <= SOLUTION_TOL
    ]


# -- ops: each returns its outputs; the matching check runs untimed ----------


def _do_verify(name):
    return cli.verify_entry(name, tol=ANGLE_TOL)


def _check_verify(name, rep, ref):
    doc = rep.as_dict()
    failing = sorted(k for k, c in doc["checks"].items() if not c["passed"])
    problems = [f"check {k} failed" for k in failing]
    if set(doc["checks"]) != VERIFY_CHECKS:
        problems.append(f"checks {sorted(doc['checks'])}")
    if not doc["pass"] and not failing:
        problems.append("entry does not pass")
    return problems


def _do_family(name):
    t = catalog.make(name)
    rep = tilemap.validate(
        t.map, t.angles, tol=ANGLE_TOL, area_tol=AREA_TOL,
        expected=catalog.expected_census(name), name=name,
    )
    emb = embedder.realize(t.map, t.angles, closure_tol=CLOSURE_TOL)
    area = embedder.total_area(t.map, emb)
    return rep, emb, area


def _check_family(name, out, ref):
    rep, emb, area = out
    problems = [f"check {k} failed" for k in rep.failures()]
    if not emb.closure_error <= CLOSURE_TOL:
        problems.append(f"closure error {emb.closure_error:.3e}")
    if not emb.edge_error <= EDGE_TOL:
        problems.append(f"edge error {emb.edge_error:.3e}")
    if not abs(area - FOUR_PI) <= EMBEDDED_AREA_TOL:
        problems.append(f"embedded area off by {abs(area - FOUR_PI):.3e}")
    return problems


def _do_algebra(op):
    kind, _, arg = op.partition(":")
    if kind == "enumerate":
        types = vertexcomb.enumerate_candidate_types(int(arg))
        return types, vertexcomb.with_triangle(types), vertexcomb.triangle_free(types)
    if kind == "solve":
        return [algsolve.solve_vertex_system(tuple(int(m) for m in arg.split(",")))]
    if kind == "family":
        return [algsolve.solve_vertex_system(t) for t in family_types(int(arg))]
    if kind == "snub":
        return algsolve.solve_snub(int(arg))
    if kind == "groebner":
        return algsolve.verify_groebner_candidates()
    raise ValueError(f"unknown algebra op {op!r}")


def _check_algebra(op, out, ref):
    kind, _, arg = op.partition(":")
    if kind == "enumerate":
        problems = []
        for part, types in zip(("all", "with_triangle", "triangle_free"), out):
            want = ref["enumerate"][arg][part]
            if [len(types), _types_digest(types)] != want:
                problems.append(f"{part}: {len(types)} types, digest differs from {want}")
        return problems
    if kind in ("solve", "family"):
        types = family_types(int(arg)) if kind == "family" else [arg.split(",")]
        problems = []
        for t, sols in zip(types, out):
            key = _type_key(t)
            convex = [s for s in sols if s.monotone_convex()]
            if len(convex) != 1:
                problems.append(f"{key}: {len(convex)} monotone-convex solutions")
            else:
                problems += _angle_problems(_angles(convex[0]), ref["solve"][key], key)
        return problems
    if kind == "snub":
        return _angle_problems(_angles(out), ref["snub"][arg], op)
    if len(out.surviving) != 1:
        return [f"{len(out.surviving)} surviving candidates"]
    return []


def _do_export(name):
    t = catalog.make(name)
    emb = embedder.realize(t.map, t.angles)
    obj = embedder.export_obj(t.map, emb, arc_steps=16, include_faces=True)
    data = embedder.export_json(t.map, t.angles, emb, name=name)
    back = embedder.load_json(data)
    same = tilemap.isomorphic(t.map, back[1])
    return t, emb, obj, data, back, same


def _check_export(name, out, ref):
    t, emb, obj, data, (name2, _, assign2, positions2), same = out
    want = ref["export"][name]
    problems = []
    if not same:
        problems.append("round trip is not isomorphic")
    if name2 != name:
        problems.append(f"round trip name {name2!r}")
    if dict(assign2.angles) != dict(t.angles.angles) or assign2.edge != t.angles.edge:
        problems.append("round trip angles differ")
    if positions2 is None or sorted(positions2) != sorted(emb.positions) or any(
        not np.array_equal(positions2[v], emb.positions[v]) for v in emb.positions
    ):
        problems.append("round trip positions differ")
    pts = np.array(
        [line.split()[1:] for line in obj.decode().splitlines() if line.startswith("v ")],
        dtype=float,
    )
    off = float(np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)))
    if not off <= SPHERE_TOL:
        problems.append(f"OBJ point {off:.3e} off the unit sphere")
    # no OBJ digest is stored for entries whose OBJ export failed when recorded
    if want["obj"] is not None and _digest(obj) != want["obj"]:
        problems.append("OBJ digest differs")
    if _digest(data) != want["json"]:
        problems.append("JSON digest differs")
    return problems


OPS = {
    "verify-all": (_do_verify, _check_verify),
    "family-sweep": (_do_family, _check_family),
    "algebra": (_do_algebra, _check_algebra),
    "export": (_do_export, _check_export),
}


def run_iteration(workload, seed, iteration, trace=False, ops=None, reference=None,
                  corrected=False):
    """Run one iteration in this process and return its result record.

    With ``corrected`` the speed kernel is sampled while the ops run; op
    records and ``wall_s`` are then corrected for machine speed, and
    ``raw_ms`` and ``raw_wall_s`` keep the raw times.  Otherwise the two
    are the same.
    """
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    do, check = OPS[workload]
    names = ordered_ops(workload, seed, iteration, ops)
    if trace:
        from spans import Tracer

        tracer = Tracer()
    else:
        tracer = None
    meter = speed.Speedometer() if corrected else None
    records, raw_ms = [], []
    op_layers = {}
    failed = wrong = 0
    with tracer or contextlib.nullcontext(), meter or contextlib.nullcontext():
        start = time.perf_counter()
        stolen0 = meter.stolen if meter else 0.0
        for name in names:
            if tracer is not None:
                first = len(tracer.spans)
            t0 = time.perf_counter()
            s0 = meter.stolen if meter else 0.0
            try:
                out = do(name)
            except Exception as exc:  # a raising op is a failed op, not a crash
                records.append([name, None, f"error: {type(exc).__name__}: {exc}"])
                raw_ms.append(None)
                failed += 1
                continue
            t1 = time.perf_counter()
            ms = (t1 - t0 - ((meter.stolen - s0) if meter else 0.0)) * 1e3
            raw_ms.append(ms)
            if meter is not None:
                ms *= meter.factor_between(t0, t1)
            if tracer is not None:
                op_layers[name] = {
                    k: v for k, v in tracer.span_times(first).items() if k.endswith(".s") and v
                }
            try:
                problems = check(name, out, reference)
            except Exception as exc:  # e.g. no reference output for this op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                wrong += 1
            records.append([name, ms, "; ".join(problems) or "ok"])
        end = time.perf_counter()
    raw_wall = end - start - ((meter.stolen - stolen0) if meter else 0.0)
    result = {
        "workload": workload,
        "attempted": len(names),
        "failed": failed,
        "wrong": wrong,
        "wall_s": raw_wall * meter.factor_between(start, end) if meter else raw_wall,
        "raw_wall_s": raw_wall,
        "ops": records,
        "raw_ms": raw_ms,
        "speed_samples": len(meter.samples) if meter else 0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["op_layers"] = op_layers
    return result


def record_reference() -> dict:
    """Reference outputs of the current program, as stored in reference.json."""
    ref = {"enumerate": {}, "solve": {}, "snub": {}, "export": {}}
    for n in (19, 28):
        parts = _do_algebra(f"enumerate:{n}")
        ref["enumerate"][str(n)] = {
            part: [len(types), _types_digest(types)]
            for part, types in zip(("all", "with_triangle", "triangle_free"), parts)
        }
    for t in NAMED_TYPES + sum((family_types(m) for m in FAMILY_SIZES), ()):
        convex = [s for s in algsolve.solve_vertex_system(t) if s.monotone_convex()]
        if len(convex) != 1:
            raise RuntimeError(f"{t}: {len(convex)} monotone-convex solutions")
        ref["solve"][_type_key(t)] = _angles(convex[0])
    for m in (4, 5):
        ref["snub"][str(m)] = _angles(algsolve.solve_snub(m))
    for name in op_names("export"):
        t = catalog.make(name)
        emb = embedder.realize(t.map, t.angles)
        try:
            obj = _digest(embedder.export_obj(t.map, emb, arc_steps=16, include_faces=True))
        except IndexError:
            obj = None
        data = embedder.export_json(t.map, t.angles, emb, name=name)
        ref["export"][name] = {"obj": obj, "json": _digest(data)}
    return ref


def main(argv) -> int:
    mode = argv[1] if len(argv) > 1 else ""
    if mode == "probe":
        print(json.dumps({"setup_done": SETUP_DONE, "setup_kernel_s": speed.setup_samples()}))
        return 0
    if mode == "run" and len(argv) == 3:
        spec = json.loads(argv[2])
        kernel_s = speed.setup_samples()
        result = run_iteration(
            spec["workload"], spec["seed"], spec["iteration"],
            trace=spec["trace"], ops=spec.get("ops"), corrected=spec.get("corrected", False),
        )
        result["setup_done"] = SETUP_DONE
        result["setup_kernel_s"] = kernel_s
        print(json.dumps(result))
        return 0
    if mode == "record":
        REFERENCE.write_text(json.dumps(record_reference(), indent=1, sort_keys=True) + "\n")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
