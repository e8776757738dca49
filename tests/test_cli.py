import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import time
from fractions import Fraction

import pytest

from sphtile import catalog, cli, embedder, tilemap
from sphtile.algsolve import AngleAssignment


# a path below a file, which no directory can be made for
UNWRITABLE = os.path.join(os.devnull, "out")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    names = [line.split("\t")[0] for line in out.splitlines()]
    assert code == 0
    assert "eD" in names and "J83" in names and "hosohedron(12)" in names
    code, out, _ = run(capsys, "catalog", "list", "--family", "platonic")
    assert [l.split("\t")[0] for l in out.splitlines()] == ["T", "C", "O", "D", "I"]


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "J5")
    assert code == 0
    assert "v=15 e=25 f=12" in out
    assert "3.4.10 x10" in out
    code, out, _ = run(capsys, "catalog", "show", "T", "--json")
    doc = json.loads(out)
    assert doc["name"] == "T" and len(doc["faces"]) == 4


def test_unknown_name_exit_code(capsys):
    code, _, err = run(capsys, "catalog", "show", "J99")
    assert code == 2
    assert "unknown" in err


def test_verify_single_and_report(tmp_path, capsys):
    report = tmp_path / "rep.json"
    code, out, _ = run(capsys, "verify", "eD", "--report", str(report))
    assert code == 0
    assert "pass  eD" in out
    doc = json.loads(report.read_text())
    assert doc["pass"] is True
    entry = doc["entries"][0]
    assert entry["name"] == "eD"
    assert set(entry["checks"]) == {
        "euler", "dehn_sommerville", "angle_sums", "area",
        "census", "companion", "structure", "embedding_closure",
    }


def test_verify_report_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "J37", "--report", str(a))
    run(capsys, "verify", "J37", "--report", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_all(capsys):
    code, out, _ = run(capsys, "verify", "--all")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("pass")]
    assert len(lines) > 50
    assert out.splitlines()[-1].endswith("entries pass")


def test_verify_failure_exit_code(capsys):
    # a tolerance below double precision forces residual failures
    code, out, _ = run(capsys, "verify", "bD", "--tol", "1e-18")
    assert code == 1
    assert "FAIL" in out


def test_verify_failure_names_check_and_witness(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise embedder.ClosureFailure("boom")

    monkeypatch.setattr(embedder, "realize", boom)
    report = tmp_path / "r.json"
    code, out, _ = run(capsys, "verify", "T", "--report", str(report))
    assert code == 1
    assert "FAIL  T  [embedding_closure: boom]" in out
    entry = json.loads(report.read_text())["entries"][0]
    assert entry["pass"] is False
    assert entry["checks"]["embedding_closure"] == {"passed": False, "residual": None}


def test_verify_failure_line_carries_closure_witness(capsys, monkeypatch):
    realize = embedder.realize
    bad = AngleAssignment({4: 2.2}, 1.3)
    monkeypatch.setattr(embedder, "realize", lambda t, assign, **kw: realize(t, bad, **kw))
    code, out, _ = run(capsys, "verify", "C")
    assert code == 1
    assert (
        "FAIL  C  [embedding_closure: closure error 5.749e-01 at vertex 4 (face 1) "
        "exceeds 1.0e-07]" in out
    )


def _nudged_cube(by):
    """A change to the cube's embedding: vertex 0 moved by ``by`` along x,
    with no stored angles."""

    def change(emb):
        points = emb.points.copy()
        points[0] += [by, 0.0, 0.0]
        return dataclasses.replace(emb, points=points)

    return change


@pytest.mark.parametrize(
    "change, failing",
    [
        # the edge gate, 1e-9: an edge error just above it, and just inside
        (lambda emb: dataclasses.replace(emb, edge_error=2e-9), ["embedding_closure"]),
        (lambda emb: dataclasses.replace(emb, edge_error=5e-10), []),
        # the embedded-area gate, 1e-6: one corner moved, so the area measured
        # from the positions is off by 1.1e-4 (far outside), 1.06e-6 (just
        # outside) or 5.3e-7 (just inside)
        (_nudged_cube(1e-4), ["embedding_closure"]),
        (_nudged_cube(1e-6), ["embedding_closure"]),
        (_nudged_cube(5e-7), []),
    ],
    ids=["edge_error", "within-edge", "embedded_area", "just-outside-area", "within-area"],
)
def test_each_embedding_gate_fails_verify_alone(monkeypatch, change, failing):
    realize = embedder.realize
    monkeypatch.setattr(embedder, "realize", lambda *args, **kw: change(realize(*args, **kw)))
    # every other check passes: only the embedding gate sees the change
    assert cli.verify_entry("C").failures() == failing


def test_verify_command_gates_at_its_default_tol(capsys, monkeypatch):
    # without --tol the command's edge gate is 1e-9: an edge error of 2e-9
    # fails the embedding check, and exits 1
    realize = embedder.realize
    monkeypatch.setattr(
        embedder, "realize",
        lambda *args, **kw: dataclasses.replace(realize(*args, **kw), edge_error=2e-9),
    )
    code, out, _ = run(capsys, "verify", "C")
    assert code == 1
    assert "FAIL  C  [embedding_closure" in out


@pytest.mark.parametrize("by, failing", [(5e-11, ["area"]), (1e-11, [])], ids=["area", "within-area"])
def test_area_gate_of_verify(monkeypatch, by, failing):
    # validate's area gate, 1e-8 in verify: prism(400)'s 400-gon angle
    # nudged by ``by`` puts the total area 4e-8 (outside) or 8e-9 (inside)
    # off, with every vertex's angle sum within 1e-9 and the embedding's
    # checks passed
    make = catalog.make

    def nudged(name):
        t = make(name)
        angles = {**t.angles.angles, 400: t.angles.angle(400) + by}
        return t._replace(angles=AngleAssignment(angles, t.angles.edge))

    monkeypatch.setattr(catalog, "make", nudged)
    rep = cli.verify_entry("prism(400)")
    assert rep.failures() == failing
    assert rep.checks["area"].residual == pytest.approx(800 * by, rel=1e-3)


@pytest.mark.parametrize(
    "by, residual, detail",
    [
        # the closure gate, 1e-7: realize raises past it
        (2e-8, None, "closure error 1.652e-07 at vertex 4 (face 1) exceeds 1.0e-07"),
        # inside it (closure 8.3e-8), the edge error of 5.7e-8 fails the edge gate
        (1e-8, 8.26e-8, ""),
    ],
    ids=["closure", "within-closure"],
)
def test_closure_gate_of_verify(monkeypatch, by, residual, detail):
    # the cube embedded with its square angle off by ``by``; validate sees
    # the catalog's angles, so only the embedding check can fail
    realize = embedder.realize
    cube = catalog.make("C").angles
    bad = AngleAssignment({4: cube.angle(4) + by}, cube.edge)
    monkeypatch.setattr(embedder, "realize", lambda t, assign, **kw: realize(t, bad, **kw))
    rep = cli.verify_entry("C")
    assert rep.failures() == ["embedding_closure"]
    check = rep.checks["embedding_closure"]
    assert check.detail == detail
    assert check.residual == (None if residual is None else pytest.approx(residual, rel=1e-3))


def test_report_view_folds_component_checks():
    rep = tilemap.ValidationReport(name="X")
    rep.add("euler", True, 0.0)
    rep.add("degree_sum", True, 0.5)
    rep.add("face_sum", True, 0.0)
    rep.add("degrees", True)
    rep.add("vertex_feasibility", True)
    rep.add("convexity", False, 2.0)
    doc = rep.as_dict()
    assert doc == {
        "name": "X",
        "pass": False,
        "checks": {
            "euler": {"passed": True, "residual": "0"},
            "dehn_sommerville": {"passed": True, "residual": None},
            "structure": {"passed": False, "residual": None},
        },
    }


@pytest.mark.parametrize("name", ["eD", "hosohedron(5)", "dihedron(5)"])
def test_every_check_lies_in_one_report_group(name):
    # a check outside every group could fail "pass" while staying invisible
    rep = cli.verify_entry(name)
    for key in rep.checks:
        owners = [g for g, members in tilemap.REPORT_GROUPS.items() if key in members]
        assert len(owners) == 1, (key, owners)
    assert set(rep.as_dict()["checks"]) == set(tilemap.REPORT_GROUPS)
    # and every member of every group is checked
    assert set(rep.checks) == set(itertools.chain(*tilemap.REPORT_GROUPS.values()))


def test_enumerate_triangle_free_matches_oracle(capsys):
    code, out, _ = run(capsys, "enumerate", "--triangle-free")
    got = [tuple(int(x) for x in l.split(",")) for l in out.splitlines()]
    oracle = sorted(
        combo
        for d in (3, 4, 5)
        for combo in itertools.combinations_with_replacement(range(4, 20), d)
        if sum(Fraction(m - 2, m) for m in combo) < 2
    )
    assert got == oracle


def test_enumerate_with_triangle_degree5(capsys):
    code, out, _ = run(capsys, "enumerate", "--with-triangle")
    got = [tuple(int(x) for x in l.split(",")) for l in out.splitlines()]
    assert [t for t in got if len(t) == 5] == [
        (3, 3, 3, 3, 3), (3, 3, 3, 3, 4), (3, 3, 3, 3, 5)
    ]


def test_solve_prints_reference_angles(capsys):
    code, out, _ = run(capsys, "solve", "--type", "3,4,4,5")
    assert code == 0
    assert "0.342951" in out and "0.516810" in out and "0.623427" in out


def test_solve_admissible_type_without_solution(capsys):
    # 3,3,6 solves only in the planar limit, which is no spherical vertex
    for spec in ("3,3,7", "3,3,6"):
        code, out, err = run(capsys, "solve", "--type", spec)
        assert code == 0
        assert out.strip() == "no solution"
        assert not err


def test_solve_keeps_the_bisected_edge_of_a_huge_face(capsys):
    # the edge is about 6.3e-9, whose cosine rounds within 1e-15 of 1: an
    # edge read back from the square's angle would be refused as planar
    code, out, err = run(capsys, "solve", "--type", "4,4,1000000000")
    assert code == 0 and not err
    assert out.count("solution ") == 1
    edge = float(out.split("edge = ")[1].split()[0])
    assert edge == pytest.approx(2 * math.pi * 1e-9, rel=1e-9)


# 4.4.m at m = 5e15: the all-convex excess increases in the edge, yet its
# rounded values change sign three times
@pytest.mark.parametrize(
    "spec", ["4,4,10000000000000000", "3,3,3,1000000000000000000000", "4,4,5000000000000000"]
)
def test_solve_face_size_beyond_double_precision(capsys, spec):
    code, out, err = run(capsys, "solve", "--type", spec)
    assert code == 2 and not out
    assert f"face size {spec.rsplit(',', 1)[1]} is too large" in err


def test_solve_bad_type(capsys):
    code, _, err = run(capsys, "solve", "--type", "3,x")
    assert code == 2


def test_export_obj_and_json(tmp_path, capsys):
    out_obj = tmp_path / "cube.obj"
    code, _, _ = run(capsys, "export", "C", "--format", "obj", "--out", str(out_obj), "--arc-steps", "4")
    assert code == 0
    text = out_obj.read_text()
    assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 8 + 12 * 3
    out_json = tmp_path / "cube.json"
    code, _, _ = run(capsys, "export", "C", "--format", "json", "--out", str(out_json))
    doc = json.loads(out_json.read_text())
    assert len(doc["positions"]) == 8


def test_export_hosohedron_obj_with_faces(tmp_path, capsys):
    out_obj = tmp_path / "hoso.obj"
    code, _, _ = run(capsys, "export", "hosohedron(6)", "--format", "obj", "--out", str(out_obj), "--faces")
    assert code == 0
    lines = out_obj.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("f ")) == 12
    for l in lines:
        if l.startswith("v "):
            x, y, z = (float(c) for c in l.split()[1:])
            assert abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-12


def test_export_takes_the_largest_arc_steps(tmp_path, capsys):
    # the CLI's bound on --arc-steps is export_obj's
    out_obj = tmp_path / "t.obj"
    steps = str(embedder.MAX_ARC_STEPS)
    code, _, _ = run(capsys, "export", "T", "--format", "obj", "--out", str(out_obj), "--arc-steps", steps)
    assert code == 0
    text = out_obj.read_text()
    assert sum(1 for l in text.splitlines() if l.startswith("v ")) == 4 + 6 * (embedder.MAX_ARC_STEPS - 1)


@pytest.mark.parametrize("argv", [
    ["verify", "prism(2)"],
    ["verify", "prism(100001)"],
    ["verify", "prism(03)"],
    ["catalog", "show", "prism(1)"],
    ["solve", "--type", "3,3"],
    ["solve", "--type", "4,4,4,4"],
    ["solve", "--type", "4,4," + "9" * 400],
    ["derive", "eD", "--dim", "x"],
    ["derive", "eD", "--rot", "2q"],
    ["enumerate", "--max-size", "2"],
    ["enumerate", "--max-size", "10001"],
    ["export", "C", "--format", "obj", "--out", "unused.obj", "--arc-steps", "0"],
    ["export", "C", "--format", "obj", "--out", "unused.obj", "--arc-steps", "1025"],
    ["verify", "T", "--tol", "0"],
    ["verify"],
    ["enumerate", "--max-size", "x"],
    ["verify", "T", "--tol", "abc"],
    ["derive", "C"],
    ["export", "C", "--format", "obj", "--out", UNWRITABLE],
    ["catalog", "dump", "--out", UNWRITABLE],
    ["verify", "T", "--report", UNWRITABLE],
    ["verify", "T", "--tol", "inf"],
    ["solve", "--type", "3,4,4,5", "--all-roots"],
    ["verify", "T", "--tol", "-1"],
    ["enumerate", "--max-size", "3.5"],
], ids=" ".join)
def test_usage_errors_exit_2_without_traceback(capsys, argv):
    # argparse rejects bad values by raising SystemExit(2); any other
    # exception escaping main would print a traceback
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err
    if UNWRITABLE in argv:
        assert err.startswith(f"sphtile: cannot write {UNWRITABLE}: ")


def test_derive_recipes(capsys):
    code, out, _ = run(capsys, "derive", "eD", "--dim", "1")
    assert code == 0 and "isomorphic to: J76" in out
    code, out, _ = run(capsys, "derive", "eD", "--rot", "2n")
    assert code == 0 and "isomorphic to: J74" in out
    code, out, _ = run(capsys, "derive", "eD", "--dim", "2o")
    assert code == 0 and "isomorphic to: J80" in out
    code, out, _ = run(capsys, "derive", "eD", "--dim", "3", "--rot", "1")
    assert code == 2  # more sites than fit
    code, _, err = run(capsys, "derive", "eD", "--rot", "2")
    assert code == 2 and "qualifier" in err  # ambiguous pair needs o/n
    for argv in (
        ["--dim", "1n"], ["--dim", "3o"], ["--dim", "1o", "--rot", "1n"],
        ["--dim", "2", "--rot", "0o"], ["--dim", "0o", "--rot", "2"],
    ):
        code, _, err = run(capsys, "derive", "eD", *argv)
        assert code == 2 and "qualifier" in err, argv  # no pair, two relations, or a zero count


def test_catalog_dump_matches_manifest_file(tmp_path, capsys):
    out = tmp_path / "manifest.json"
    code, _, _ = run(capsys, "catalog", "dump", "--out", str(out))
    assert code == 0
    import pathlib

    golden = pathlib.Path(__file__).resolve().parent.parent / "catalog_manifest.json"
    assert out.read_text() == golden.read_text()
    # without --out the same text goes to stdout
    code, printed, _ = run(capsys, "catalog", "dump")
    assert code == 0 and printed == golden.read_text()


# values just inside and just outside each option's range, and a few that
# are not numbers at all
_NAMES = [
    "T", "C", "prism(3)", "prism(2)", "antiprism(100001)", "dihedron(3)", "hosohedron(3)", "X",
]
_ARGV = {
    "enumerate": [
        ["--max-size", v] for v in ("2", "3", "4", "28", "10000", "10001", "-1", "3.5", "x")
    ] + [["--with-triangle"], ["--triangle-free"], []],
    "solve": [
        ["--type", v]
        for v in (
            "3,4,4,5", "4,4,7", "3,3,6", "3,3", "4,4,4,4", "2,4,4", "0,4,4", "-3,4,4", "3,x", "",
            "4,4,1000000000", "4,4,5000000000000000", "4,4," + "9" * 400,
        )
    ],
    "derive": [
        ["eD", flag, v]
        for flag in ("--dim", "--rot")
        for v in ("0", "1", "2", "2o", "2n", "3", "4", "-1", "1o", "0n", "x")
    ],
    "export": [
        [name, "--format", fmt, "--arc-steps", v, *faces]
        for name in _NAMES
        for fmt in ("obj", "json")
        for v in ("0", "1", "8", "1024", "1025", "-1", "x")
        for faces in ([], ["--faces"])
    ],
    "verify": [
        [name, "--tol", v]
        for name in _NAMES
        for v in ("1e-9", "5e-324", "1e300", "0", "-1", "-0.0", "nan", "inf", "abc")
    ],
}


def test_every_argv_exits_0_1_or_2_without_traceback(tmp_path):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    argvs = st.sampled_from(sorted(_ARGV)).flatmap(
        lambda cmd: st.sampled_from(_ARGV[cmd]).map(lambda rest: [cmd, *rest])
    )

    @hyp.settings(max_examples=100, deadline=None, database=None)
    @hyp.given(argvs)
    def check(argv):
        if argv[0] == "export":
            argv = argv + ["--out", str(tmp_path / "out")]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                code = exc.code
        assert time.perf_counter() - start < 10.0, argv
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv
        assert (code == 2) == bool(err.getvalue()), argv

    check()
