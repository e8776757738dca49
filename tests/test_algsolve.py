import math
from fractions import Fraction

import pytest

from sphtile import algsolve as alg
from sphtile import catalog
from sphtile import sphkernel as sk

PI = math.pi
TWO_PI = 2 * PI
SQ5 = math.sqrt(5.0)
SQ33 = math.sqrt(33.0)


# --------------------------------------------------------------------------
# polynomials and root isolation
# --------------------------------------------------------------------------


def test_polynomial_basics():
    p = alg.Polynomial.from_coeffs([-1, 0, 1])  # x^2 - 1
    assert p.degree == 2
    assert p(2.0) == 3.0
    assert p.eval_exact(Fraction(1, 2)) == Fraction(-3, 4)
    assert p.derivative().coeffs == (Fraction(0), Fraction(2))
    assert alg.Polynomial.from_coeffs([0, 0, 0]).is_zero()


def test_isolate_roots_simple():
    p = alg.Polynomial.from_coeffs([-1, 0, 1])
    assert alg.isolate_roots(p, 0.0, 2.0) == pytest.approx([1.0], abs=1e-14)
    assert alg.isolate_roots(p, -2.0, 2.0) == pytest.approx([-1.0, 1.0], abs=1e-14)


def test_isolate_roots_multiplicity_reported_once():
    # (x - 1)^2 (x - 3)
    p = alg.Polynomial.from_coeffs([-3, 7, -5, 1])
    roots = alg.isolate_roots(p, 0.0, 4.0)
    assert roots == pytest.approx([1.0, 3.0], abs=1e-12)


def test_isolate_roots_close_pair():
    # (x - 0.5)(x - 0.500001) resolved as two roots
    a, b = Fraction(1, 2), Fraction(500001, 1000000)
    p = alg.Polynomial.from_coeffs([a * b, -(a + b), 1])
    roots = alg.isolate_roots(p, 0.0, 1.0)
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.5, abs=1e-12)
    assert roots[1] == pytest.approx(0.500001, abs=1e-12)


def test_degree4_system_univariate_roots():
    # roots of the eliminated univariate in (0, 1) written in closed form
    expected = sorted(
        [
            math.sqrt((11 - 4 * SQ5) / 20),
            math.sqrt(3) / 2,
            math.sqrt((11 + 4 * SQ5) / 20),
        ]
    )
    got = alg.isolate_roots(alg.GROEBNER_UNIVARIATE_Y4, 1e-9, 1 - 1e-12)
    assert got == pytest.approx(expected, abs=1e-13)


def test_snub_dodecahedron_sextic_root():
    xi = alg.snub_dodecahedron_cos()
    assert xi == pytest.approx(0.471575629621941, abs=1e-13)
    assert alg.SNUB_DODECAHEDRON_SEXTIC(xi) == pytest.approx(0.0, abs=1e-12)
    # the sextic has another root in (0, 1) that the snub system rejects
    roots01 = alg.isolate_roots(alg.SNUB_DODECAHEDRON_SEXTIC, 0.0, 1.0)
    assert len(roots01) == 2


# --------------------------------------------------------------------------
# vertex systems
# --------------------------------------------------------------------------


def test_system_3445_unique_admissible():
    sols = alg.solve_vertex_system((3, 4, 4, 5))
    assert len(sols) == 1
    s = sols[0]
    assert s.angles[3] / PI == pytest.approx(0.342951, abs=1e-6)
    assert s.angles[4] / PI == pytest.approx(0.516810, abs=1e-6)
    assert s.angles[5] / PI == pytest.approx(0.623427, abs=2e-6)
    # exact closed forms
    assert math.cos(s.angles[3]) == pytest.approx((5 + 2 * SQ5) / 20, abs=1e-12)
    assert math.cos(s.angles[4]) == pytest.approx((2 * SQ5 - 5) / 10, abs=1e-12)
    assert math.cos(s.angles[5]) == pytest.approx((5 - 9 * SQ5) / 40, abs=1e-12)
    assert s.max_companion_residual() < 1e-9
    assert s.monotone_convex()
    assert s.edge == pytest.approx(math.acos((19 + 8 * SQ5) / 41), abs=1e-12)


def test_system_3357():
    sols = alg.solve_vertex_system((3, 3, 5, 7))
    assert len(sols) == 1
    s = sols[0]
    assert s.angles[3] / PI == pytest.approx(0.3357023573924277, abs=1e-7)
    assert s.angles[5] / PI == pytest.approx(0.6056764771694325, abs=1e-7)
    assert s.angles[7] / PI == pytest.approx(0.7229188642174295, abs=1e-7)
    # the returned angles satisfy the system to machine precision
    assert abs(2 * s.angles[3] + s.angles[5] + s.angles[7] - TWO_PI) < 1e-12
    assert s.max_companion_residual() < 1e-12


def test_system_triangular_prism():
    sols = alg.solve_vertex_system((3, 4, 4))
    assert len(sols) == 1
    a3 = 4 * math.atan(1 / math.sqrt(7))
    assert sols[0].angles[3] == pytest.approx(a3, abs=1e-12)
    assert sols[0].angles[4] == pytest.approx(PI - a3 / 2, abs=1e-12)


def test_system_single_size():
    sols = alg.solve_vertex_system((3, 3, 3, 3, 3))
    assert len(sols) == 1
    assert sols[0].angles[3] == pytest.approx(2 * PI / 5, abs=1e-15)
    # four squares sum to 2*pi only in the plane: inadmissible
    with pytest.raises(sk.DomainError):
        alg.solve_vertex_system((4, 4, 4, 4))


def test_system_3344_and_3355():
    s = alg.solve_vertex_system((3, 3, 4, 4))
    assert len(s) == 1
    assert math.cos(s[0].angles[3]) == pytest.approx(1 / 3, abs=1e-12)
    s = alg.solve_vertex_system((3, 3, 5, 5))
    assert len(s) == 1
    assert math.cos(s[0].angles[3]) == pytest.approx(1 / SQ5, abs=1e-12)


def test_system_3356_continuation_rejects_integer_size():
    # the angle system itself has one genuine solution; following the
    # derivation pipeline onward forces a non-integral companion size,
    # which is what rules this vertex type out of any tiling
    sols = alg.solve_vertex_system((3, 3, 5, 6))
    assert len(sols) == 1
    s = sols[0]
    a3 = s.angles[3]
    a4 = sk.solve_companion_angle(3, a3, 4)[0]
    q = sk.solve_companion_size(3, a3, TWO_PI - 2 * a3 - a4)
    assert abs(q - round(q)) > 1e-3


def _angle_sum_sign_changes(t, samples=4000):
    # independent oracle on the one-unknown form: every face shares the
    # edge x, so scan sum c_i*alpha(m_i, x) - 2*pi over (0, 2*pi/max m],
    # all convex and with each size of count 1 reflex in turn
    top = TWO_PI / max(t)
    xs = [top * i / samples for i in range(1, samples + 1)]
    changes = 0
    for reflex in [None] + [m for m in sorted(set(t)) if t.count(m) == 1]:
        vals = []
        for x in xs:
            total = sum(sk.angle_from_edge(m, x) for m in t) - TWO_PI
            if reflex is not None:
                total += TWO_PI - 2 * sk.angle_from_edge(reflex, x)
            vals.append(total)
        changes += sum(1 for a, b in zip(vals, vals[1:]) if (a < 0) != (b < 0))
    return changes


def test_sign_change_oracle_sees_solved_types():
    assert _angle_sum_sign_changes((3, 4, 4)) == 1
    assert _angle_sum_sign_changes((3, 3, 5, 7)) >= 1


@pytest.mark.parametrize("t", [(3, 3, 7), (3, 3, 19), (3, 4, 12), (3, 4, 19)])
def test_admissible_types_without_solution_return_empty(t):
    # no branch of the angle sum changes sign on (0, 2*pi/max m]: the only
    # roots lie at or below the planar angles, which are no spherical polygons
    assert _angle_sum_sign_changes(t) == 0
    assert alg.solve_vertex_system(t) == []


def test_degenerate_3_3_6_returns_empty():
    # with the hexagon reflex the angle sum is exactly 2*pi only in the
    # planar limit x -> 0, which the solver excludes
    assert alg.solve_vertex_system((3, 3, 6)) == []


@pytest.mark.parametrize("t", [(3, 3, 4), (3, 4, 6), (3, 5, 10)])
def test_hemisphere_end_counted_once(t):
    # J1, J3 and J6 tiles: the largest face is a hemisphere, angle exactly
    # pi, at the end x = 2*pi/max m of the edge interval
    sols = alg.solve_vertex_system(t)
    assert len(sols) == 1
    assert sols[0].angles[max(t)] == math.pi
    assert alg._hemisphere_end(t)


@pytest.mark.parametrize(
    "t",
    [(3, 3, 5), (3, 3, 6), (3, 4, 5), (3, 4, 7), (3, 5, 9), (3, 5, 11), (4, 4, 6), (3, 6, 6),
     (3, 3, 3, 4)],
)
def test_hemisphere_end_rejects_neighbouring_types(t):
    # one size off a hemisphere type, a repeated largest size, or three
    # other faces: the other angles do not sum to pi at x = 2*pi/max m
    assert not alg._hemisphere_end(t)


def test_cyclotomic_polynomials():
    assert alg._cyclotomic(1).coeffs == (-1, 1)
    assert alg._cyclotomic(12).coeffs == (1, 0, -1, 0, 1)
    assert alg._cyclotomic(30).coeffs == (1, 1, 0, -1, -1, -1, 0, 1, 1)


# the named types of the benchmark's ``algebra`` workload
ALGEBRA_TYPES = (
    (3, 4, 4, 5), (4, 6, 8), (4, 6, 10), (3, 4, 6), (3, 4, 10), (3, 6, 6),
    (3, 8, 8), (5, 6, 6), (3, 5, 5), (3, 4, 4, 4), (3, 3, 4, 4), (3, 3, 3, 5),
    (3, 3, 3, 3, 4), (3, 3, 3, 3, 5),
)
FAMILY_TYPES = tuple((4, 4, m) for m in range(3, 13)) + tuple((3, 3, 3, m) for m in range(3, 13))


@pytest.mark.parametrize("t", ALGEBRA_TYPES + FAMILY_TYPES, ids=lambda t: ",".join(map(str, t)))
def test_edge_solver_matches_multistart(t):
    # oracle: the kept multistart Newton solver, 16^k starts in 2k unknowns
    new, old = alg.solve_vertex_system(t), alg._multistart_angles(t)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.sizes == b.sizes
        for m in a.sizes:
            assert a.angles[m] == pytest.approx(b.angles[m], abs=1e-12)


@pytest.mark.parametrize("kind, t", [("prism", (4, 4)), ("antiprism", (3, 3, 3))])
def test_catalog_families_match_edge_solver(kind, t):
    for m in range(3, 13):
        want = [s for s in alg.solve_vertex_system(t + (m,)) if s.monotone_convex()]
        assert len(want) == 1
        got = catalog.make(f"{kind}({m})").angles
        assert got.sizes == want[0].sizes
        for size in got.sizes:
            assert got.angles[size] == pytest.approx(want[0].angles[size], abs=1e-12)


def test_monotone_flag_on_synthetic_violation():
    bad = alg.AngleAssignment({3: 1.9, 4: 1.8}, 1.0)
    assert not bad.monotone_convex()


def test_determinism():
    a = alg.solve_vertex_system((3, 4, 4, 5))
    b = alg.solve_vertex_system((3, 4, 4, 5))
    assert [s.angles for s in a] == [s.angles for s in b]
    assert [s.edge for s in a] == [s.edge for s in b]


def test_cross_validation_companion_size_ten():
    s = alg.solve_vertex_system((3, 4, 4, 5))[0]
    a3, a4, a5 = s.angles[3], s.angles[4], s.angles[5]
    assert sk.solve_companion_size(3, a3, a4 + a5) == pytest.approx(10.0, abs=1e-9)
    assert sk.solve_companion_size(4, a4, a3 + a4) == pytest.approx(10.0, abs=1e-9)


# --------------------------------------------------------------------------
# snub systems
# --------------------------------------------------------------------------


def test_snub_cube_closed_form():
    s = alg.solve_snub(4)
    inner = (
        19.0 / 21.0
        + (4528.0 - 336.0 * SQ33) ** (1 / 3) / 21.0
        + (4528.0 + 336.0 * SQ33) ** (1 / 3) / 21.0
    )
    a3 = 2.0 * math.atan(1.0 / math.sqrt(inner))
    assert s.angles[3] == pytest.approx(a3, abs=1e-12)
    assert s.angles[4] == pytest.approx(TWO_PI - 4 * a3, abs=1e-12)
    x = math.acos((-1 + (566 - 42 * SQ33) ** (1 / 3) + (566 + 42 * SQ33) ** (1 / 3)) / 21)
    assert s.edge == pytest.approx(x, abs=1e-12)
    # edge consistency between the two sizes
    assert sk.edge_from_angle(4, s.angles[4]) == pytest.approx(s.edge, abs=1e-12)


def test_snub_dodecahedron_closed_form():
    s = alg.solve_snub(5)
    xi = alg.snub_dodecahedron_cos()
    assert math.cos(s.angles[3]) == pytest.approx(xi, abs=1e-12)
    assert s.edge == pytest.approx(math.acos(xi / (1 - xi)), abs=1e-12)
    assert sk.edge_from_angle(5, s.angles[5]) == pytest.approx(s.edge, abs=1e-12)


def test_snub_is_the_vertex_system_solution():
    for m in (4, 5):
        sols = alg.solve_vertex_system((3, 3, 3, 3, m))
        assert [s.angles for s in sols] == [alg.solve_snub(m).angles]


def test_snub_rejects_other_sizes():
    with pytest.raises(sk.DomainError):
        alg.solve_snub(6)


# --------------------------------------------------------------------------
# exact-basis verification of the {3,4,4,5} system
# --------------------------------------------------------------------------


def test_groebner_candidates():
    rep = alg.verify_groebner_candidates()
    assert len(rep.candidates) == 4
    assert rep.basis_residual_max < 1e-9
    # the reconstructed triples match the closed forms row by row
    for cand, ref in zip(rep.candidates, alg.REFERENCE_CANDIDATES_3445):
        assert cand.x3 == pytest.approx(ref[0], abs=1e-9)
        assert cand.x4 == pytest.approx(ref[1], abs=1e-9)
        assert cand.x5 == pytest.approx(ref[2], abs=1e-9)
    # exactly the second row passes both admissibility filters
    assert rep.surviving == (1,)
    flags = [(c.ordered_ok, c.sum_ok) for c in rep.candidates]
    assert flags[1] == (True, True)
    for i in (0, 2, 3):
        assert not (flags[i][0] and flags[i][1])


def test_groebner_rejected_rows_evaluated_directly():
    # oracle: evaluate both filter predicates on each closed-form row
    for i, (x3, x4, x5) in enumerate(alg.REFERENCE_CANDIDATES_3445):
        rep = alg.verify_groebner_candidates()
        c = rep.candidates[i]
        a3, a4, a5 = c.angles
        assert c.ordered_ok == (a3 < a4 < a5)
        assert c.sum_ok == (abs(a3 + 2 * a4 + a5 - TWO_PI) < 1e-8)


def test_groebner_matches_newton_solver():
    rep = alg.verify_groebner_candidates()
    survivor = rep.candidates[rep.surviving[0]]
    s = alg.solve_vertex_system((3, 4, 4, 5))[0]
    assert math.cos(s.angles[3]) == pytest.approx(survivor.x3, abs=1e-11)
    assert math.cos(s.angles[4]) == pytest.approx(survivor.x4, abs=1e-11)
    assert math.cos(s.angles[5]) == pytest.approx(survivor.x5, abs=1e-11)
