"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Tolerances are fixed here and nowhere else."""

import itertools
import math
from fractions import Fraction

import pytest

from sphtile import algsolve as alg
from sphtile import catalog as cat
from sphtile import embedder as em
from sphtile import sphkernel as sk
from sphtile import tilemap as tm
from sphtile import vertexcomb as vc

PI = math.pi
TWO_PI = 2 * PI
SQ2 = math.sqrt(2.0)
SQ5 = math.sqrt(5.0)
SQ33 = math.sqrt(33.0)


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_catalog_validation():
    entries = cat.all_entries()
    assert len(cat.PLATONIC) == 5
    assert len(cat.ARCHIMEDEAN) == 13
    assert len(cat.JOHNSON) == 25
    for name in entries:
        t = cat.make(name)
        rep = tm.validate(
            t.map,
            t.angles,
            tol=1e-9,
            area_tol=1e-8,
            expected=cat.expected_census(name),
            name=name,
        )
        assert rep.overall_pass, (name, rep.failures())
    # J19's octagon is forced by the handshake identity
    c = tm.census(cat.make("J19").map)
    assert 2 * c.e == sum(m * k for m, k in c.face_counts.items()) == 72
    assert c.face_counts[8] == 1
    _report(1, f"{len(entries)} catalog entries validate with golden censuses")


def test_criterion_2_groebner_reproduction():
    sols = alg.solve_vertex_system((3, 4, 4, 5))
    admissible = [s for s in sols if s.monotone_convex()]
    assert len(sols) == 1 and len(admissible) == 1
    s = admissible[0]
    assert s.angles[3] / PI == pytest.approx(0.342951, abs=1e-6)
    assert s.angles[4] / PI == pytest.approx(0.516810, abs=1e-6)
    assert s.angles[5] / PI == pytest.approx(0.623427, abs=1e-6)
    rep = alg.verify_groebner_candidates()
    assert len(rep.candidates) == 4
    assert rep.surviving == (1,)
    for cand, ref in zip(rep.candidates, alg.REFERENCE_CANDIDATES_3445):
        assert cand.x3 == pytest.approx(ref[0], abs=1e-9)
        assert cand.x4 == pytest.approx(ref[1], abs=1e-9)
        assert cand.x5 == pytest.approx(ref[2], abs=1e-9)
    _report(2, "degree-4 system solved; 4 exact candidates filtered to the second")


def test_criterion_3_derived_sizes():
    ed = cat.make("eD").angles
    a3, a4, a5 = ed.angles[3], ed.angles[4], ed.angles[5]
    assert sk.solve_companion_size(3, a3, a4 + a5) == pytest.approx(10.0, abs=1e-9)
    assert sk.solve_companion_size(4, a4, a3 + a4) == pytest.approx(10.0, abs=1e-9)
    assert sk.solve_companion_size(3, a3, a4 + a5 - a3) == pytest.approx(8.093977, abs=1e-5)
    assert sk.solve_companion_size(3, a3, 2 * a4) == pytest.approx(13.551639, abs=1e-5)

    s = alg.solve_vertex_system((3, 3, 5, 7))[0]
    b3 = s.angles[3]
    b4 = sk.solve_companion_angle(3, b3, 4)[0]
    assert b4 / PI == pytest.approx(0.5041121622358487, rel=1e-5)
    bn = TWO_PI - 2 * b3 - b4
    assert bn / PI == pytest.approx(0.8244831229792959, rel=1e-5)
    n = sk.solve_companion_size(3, b3, bn)
    assert n == pytest.approx(10.56076889342715, rel=1e-5)
    _report(3, "companion sizes 10, 8.093977, 13.551639 and 10.560769 reproduced")


def test_criterion_4_closed_forms():
    tol = 1e-12

    def acot(x):
        return math.atan(1.0 / x)

    # truncation family: solved angles against closed forms
    rows = {
        (3, 6, 6): (4 * acot(math.sqrt(11.0)), math.acos(7.0 / 11.0)),
        (3, 8, 8): (4 * acot(math.sqrt(7 + 4 * SQ2)), math.acos((3 + 8 * SQ2) / 17)),
        (4, 6, 6): (4 * acot(SQ5), math.acos(4.0 / 5.0)),
        (3, 10, 10): (4 * acot(math.sqrt(9 + 2 * SQ5)), math.acos((24 + 15 * SQ5) / 61)),
        (5, 6, 6): (
            4 * math.atan(math.sqrt((17 + 6 * SQ5) / 109)),
            math.acos((80 + 9 * SQ5) / 109),
        ),
    }
    for vtype, (small_angle, edge) in rows.items():
        s = alg.solve_vertex_system(vtype)
        assert len(s) == 1, vtype
        small = min(vtype)
        assert s[0].angles[small] == pytest.approx(small_angle, abs=tol), vtype
        assert s[0].edge == pytest.approx(edge, abs=tol), vtype

    bc = alg.solve_vertex_system((4, 6, 8))[0]
    assert math.cos(bc.angles[4]) == pytest.approx((SQ2 - 2) / 12, abs=tol)
    assert math.cos(bc.angles[6]) == pytest.approx((SQ2 - 6) / 8, abs=tol)
    assert math.cos(bc.angles[8]) == pytest.approx(-(6 * SQ2 + 1) / 12, abs=tol)
    assert bc.edge == pytest.approx(math.acos((71 + 12 * SQ2) / 97), abs=tol)

    bd = alg.solve_vertex_system((4, 6, 10))[0]
    assert math.cos(bd.angles[4]) == pytest.approx((2 * SQ5 - 5) / 30, abs=tol)
    assert math.cos(bd.angles[6]) == pytest.approx((2 * SQ5 - 15) / 20, abs=tol)
    assert math.cos(bd.angles[10]) == pytest.approx(-(9 + 5 * SQ5) / 24, abs=tol)
    assert bd.edge == pytest.approx(math.acos((179 + 24 * SQ5) / 241), abs=tol)

    sc = alg.solve_snub(4)
    inner = 19 / 21 + (4528 - 336 * SQ33) ** (1 / 3) / 21 + (4528 + 336 * SQ33) ** (1 / 3) / 21
    assert sc.angles[3] == pytest.approx(2 * acot(math.sqrt(inner)), abs=tol)
    assert sc.edge == pytest.approx(
        math.acos((-1 + (566 - 42 * SQ33) ** (1 / 3) + (566 + 42 * SQ33) ** (1 / 3)) / 21),
        abs=tol,
    )

    sd = alg.solve_snub(5)
    xi = alg.snub_dodecahedron_cos()
    assert xi == pytest.approx(0.471575629621941, abs=tol)
    assert math.cos(sd.angles[3]) == pytest.approx(xi, abs=tol)
    assert sd.edge == pytest.approx(math.acos(xi / (1 - xi)), abs=tol)
    _report(4, "all closed-form angle and edge expressions matched to 1e-12")


def test_criterion_5_operator_identities():
    j19 = cat.make("J19")
    sub = cat.cupola_subdivide(j19, cat.faces_of_size(j19.map, 8)[0], phase=0)
    assert tm.isomorphic(sub.map, cat.make("eC").map)

    j4 = cat.make("J4")
    sub = cat.prism_subdivide(j4, cat.faces_of_size(j4.map, 8)[0])
    assert tm.isomorphic(sub.map, j19.map)

    j11 = cat.make("J11")
    sub = cat.pyramid_subdivide(j11, cat.faces_of_size(j11.map, 5)[0])
    assert tm.isomorphic(sub.map, cat.make("I").map)

    tt = cat.make("tT")
    assert tm.isomorphic(cat.shrink_all(tt.map, 3), cat.make("T").map)

    family = ["eD"] + [f"J{i}" for i in range(72, 84)]
    forms = {name: cat.make(name).map.canonical_form for name in family}
    assert len(set(forms.values())) == len(family)
    for name, recipe in cat._ED_RECIPES.items():
        derived = cat.derive_from_ed(
            dim=recipe.get("dim", 0),
            rot=recipe.get("rot", 0),
            dim_rel=recipe.get("dim_rel"),
            rot_rel=recipe.get("rot_rel"),
        )
        assert derived.map.canonical_form == forms[name], name
    _report(5, "subdivision/shrink identities and the 12 cupola recipes hold")


def test_criterion_6_enumeration_oracle():
    oracle = sorted(
        combo
        for degree in (3, 4, 5)
        for combo in itertools.combinations_with_replacement(range(3, 20), degree)
        if sum(Fraction(1, 1) - Fraction(2, m) for m in combo) < 2
    )
    got = vc.enumerate_candidate_types(19)
    assert got == oracle
    deg5 = [t for t in got if len(t) == 5 and 3 in t]
    assert deg5 == [(3, 3, 3, 3, 3), (3, 3, 3, 3, 4), (3, 3, 3, 3, 5)]
    _report(6, f"enumeration equals the brute-force oracle ({len(got)} types)")


def test_criterion_7_embedding():
    entries = cat.all_entries()
    for name in entries:
        t = cat.make(name)
        emb = em.realize(t.map, t.angles, closure_tol=1e-7)
        assert emb.closure_error < 1e-7, name
        assert emb.edge_error < 1e-9, name
        assert em.total_area(t.map, emb) == pytest.approx(4 * PI, abs=1e-6), name
    _report(7, f"all {len(entries)} entries embed within tolerance")


def test_criterion_8_property_suites():
    # angle monotone in size at fixed edge
    for m in range(3, 12):
        for n in range(m + 1, 13):
            x = 0.9 * TWO_PI / n
            am, an = sk.angle_from_edge(m, x), sk.angle_from_edge(n, x)
            if am < PI - 1e-9 and an < PI - 1e-9:
                assert am < an

    # companion symmetry and concave mirror
    for m in range(3, 9):
        alpha_m = (1 - 2 / m) * PI + 0.3
        for n in range(3, 9):
            for alpha_n in sk.solve_companion_angle(m, alpha_m, n):
                assert abs(sk.companion_residual(n, alpha_n, m, alpha_m)) < 1e-9
                assert (
                    abs(sk.companion_residual(m, TWO_PI - alpha_m, n, TWO_PI - alpha_n))
                    < 1e-9
                )

    # shrink/truncate inverse pair
    tc = cat.make("tC").map
    shrunk = cat.shrink(tc, cat.faces_of_size(tc, 3)[0])
    new_vertex = [
        v for v in range(shrunk.num_vertices)
        if sorted(shrunk.vertex_face_sizes[v]) == [7, 7, 7]
    ][0]
    assert tm.isomorphic(cat.truncate(shrunk, new_vertex), tc)

    # subdivide/diminish inverse pair on a convex decagon
    ed = cat.make("eD")
    site = cat._canonical_sites(ed.map, cat.find_cupola_sites(ed.map))[0]
    dim = cat.diminish_cupola(ed, site)
    decagon = cat.faces_of_size(dim.map, 10)[0]
    rebuilt = {
        tm.isomorphic(cat.cupola_subdivide(dim, decagon, phase=p).map, ed.map)
        for p in (0, 1)
    }
    assert True in rebuilt

    # homogeneity classification
    strong = set(cat.PLATONIC) | set(cat.ARCHIMEDEAN) | {"J37"}
    strong |= {f"prism({n})" for n in range(3, 13)}
    strong |= {f"antiprism({n})" for n in range(3, 13)}
    weak_only = {"J27", "J34", "J72", "J73", "J74", "J75"}
    for name in strong:
        assert tm.homogeneity(cat.make(name).map) == "strong", name
    for name in weak_only:
        assert tm.homogeneity(cat.make(name).map) == "weak-only", name
    for name in ("J1", "J5", "J11", "J76", "J83"):
        assert tm.homogeneity(cat.make(name).map) == "none", name
    _report(8, "monotonicity, companion, inverse-pair and homogeneity properties hold")
