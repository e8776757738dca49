import functools
import itertools
import math
import random
import signal
from fractions import Fraction
from typing import Sequence

import numpy as np
import pytest

from sphtile import algsolve as alg
from sphtile import catalog
from sphtile import sphkernel as sk
from sphtile import vertexcomb as vcomb
from sphtile.algsolve import AngleAssignment, _vertex_type
from sphtile.sphkernel import DomainError, NoSolution, planar_angle

PI = math.pi
TWO_PI = 2 * PI
SQ5 = math.sqrt(5.0)
SQ33 = math.sqrt(33.0)
#: the three roots of GROEBNER_UNIVARIATE_Y4 in (0, 1), pinned to the bit
Y4_ROOTS_HEX = ["0x1.484c33c709a25p-2", "0x1.bb67ae8584caap-1", "0x1.ff494347942e0p-1"]
#: each {3,4,4,5} Groebner candidate, pinned to the bit in reference-row order:
#: (x3, x4, x5, y3, y4, y5) and then the angles (a3, a4, a5)
GROEBNER_CANDIDATES_HEX = [
    (
        ("0x1.b06d1d20090c0p-6", "-0x1.e4f92e2dff6f4p-1", "0x1.419853f3bf5cap-1",
         "0x1.ffd256efbb497p-1", "0x1.484c33c709a25p-2", "-0x1.8e65c827ae179p-1"),
        ("0x1.8b5dcd62c14b1p+0", "0x1.685956f7abf99p+1", "0x1.590ea0382956cp+2"),
    ),
    (
        ("0x1.e4f92e2e0066cp-2", "-0x1.b06d1d1ff9940p-5", "-0x1.8330a7e77eba0p-2",
         "0x1.c2efe18ba1800p-1", "0x1.ff494347942e0p-1", "0x1.d9fd050f9b346p-1"),
        ("0x1.13d1755201032p+0", "0x1.9fa4b9f885b4cp+0", "0x1.f563ebcdfdadap+0"),
    ),
    (
        ("0x1.ffffffffff800p-3", "-0x1.0000000000400p-1", "-0x1.ed5336963eefap-1",
         "-0x1.efbdeb14f4f90p-1", "0x1.bb67ae8584caap-1", "-0x1.120a13d232880p-2"),
        ("0x1.3dc3b1c13da0bp+2", "0x1.0c152382d7443p+1", "0x1.b4cd2a88e18f7p+1"),
    ),
    (
        ("0x1.ffffffffff800p-3", "-0x1.0000000000400p-1", "0x1.6d5336963eef2p-1",
         "0x1.efbdeb14f4e0cp-1", "0x1.bb67ae8584caap-1", "0x1.66b8e12bdba93p-1"),
        ("0x1.51700e0c14c03p+0", "0x1.0c152382d7443p+1", "0x1.8d7471f333750p-1"),
    ),
]
#: the largest |basis polynomial| over the four candidates, pinned to the bit
GROEBNER_RESIDUAL_HEX = "0x1.0000000000000p-43"


# --------------------------------------------------------------------------
# polynomials and root isolation
# --------------------------------------------------------------------------


def test_polynomial_basics():
    p = alg.Polynomial.from_coeffs([-1, 0, 1])  # x^2 - 1
    assert p.degree == 2
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
    assert [r.hex() for r in got] == Y4_ROOTS_HEX


def test_snub_dodecahedron_sextic_root():
    xi = alg.snub_dodecahedron_cos()
    assert xi == pytest.approx(0.471575629621941, abs=1e-13)
    assert alg.SNUB_DODECAHEDRON_SEXTIC.eval_exact(Fraction(xi)) == pytest.approx(0, abs=1e-12)
    # the sextic has another root in (0, 1) that the snub system rejects
    roots01 = alg.isolate_roots(alg.SNUB_DODECAHEDRON_SEXTIC, 0.0, 1.0)
    assert len(roots01) == 2
    assert xi == roots01[1] and xi.hex() == "0x1.e2e4b8cb44730p-2"


def _within(seconds, fn, *args):
    """fn(*args), failing with TimeoutError instead of hanging past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _product(*factors):
    """Product of polynomials given as ascending coefficient lists."""
    c = [Fraction(1)]
    for f in factors:
        out = [Fraction(0)] * (len(c) + len(f) - 1)
        for i, a in enumerate(c):
            for j, b in enumerate(f):
                out[i + j] += a * b
        c = out
    return alg.Polynomial.from_coeffs(c)


def _poly_from_roots(*roots):
    """Monic polynomial with the given rational roots, repeats kept."""
    return _product(*([-r, 1] for r in roots))


@pytest.mark.parametrize("p, lo, hi, want", [
    (_poly_from_roots(0, 0), 0.0, 0.0, [0.0]),  # lo == hi on a double root
    (_poly_from_roots(0), 0.5, 0.5, []),
    # roots on both ends and on the first midpoint
    (_poly_from_roots(-1, 0, 1), -1.0, 1.0, [-1.0, 0.0, 1.0]),
    # two roots 2^-45 apart, both dyadic midpoints of [0, 1]
    (_poly_from_roots(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 2**45)), 0.0, 1.0,
     [0.5, 0.5 + 2.0**-45]),
], ids=["double-root-point", "point-no-root", "ends-and-midpoint", "pair-2^-45"])
def test_isolate_roots_degenerate_inputs(p, lo, hi, want):
    assert _within(5, alg.isolate_roots, p, lo, hi) == want


def _oracle_cases():
    """Both production polynomials and 100 seeded ones with awkward intervals.

    The seeded ones multiply rational linear factors (some repeated, many
    with dyadic roots that land on bisection midpoints) by irreducible
    quadratics with and without real roots.  Intervals include lo == hi,
    roots on an endpoint and wide dyadic ones.
    """
    cases = [
        (alg.SNUB_DODECAHEDRON_SEXTIC, 0.0, 1.0),
        (alg.GROEBNER_UNIVARIATE_Y4, 1e-9, 1.0 - 1e-12),
    ]
    rng = random.Random(20261018)
    for _ in range(100):
        roots = []
        for _ in range(rng.randint(1, 4)):
            r = Fraction(rng.randint(-16, 16), rng.choice([1, 2, 3, 4, 5, 8, 16, 1024]))
            roots += [r] * rng.choice([1, 1, 2])
        factors = [[-r, 1] for r in roots]
        for _ in range(rng.randint(0, 2)):
            s, k = Fraction(rng.randint(-4, 4), 2), rng.choice([2, 3, 5, -1, -2])
            # (x - s)^2 - k: irrational roots s +- sqrt(k), or none for k < 0
            factors.append([s * s - k, -2 * s, 1])
        p = _product(*factors)
        r = float(rng.choice(roots))
        lo, hi = rng.choice([(r, r), (r, r + 1.0), (r - 1.0, r), (-16.0, 16.0), (-1.0, 1.0), (0.0, 1.0)])
        cases.append((p, lo, hi))
    return cases


def test_isolate_roots_matches_sympy_real_roots():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for p, lo, hi in _oracle_cases():
        got = _within(5, alg.isolate_roots, p, lo, hi)
        exact = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
        want = [
            float(v) for v in (w.evalf(40) for w in exact.sqf_part().real_roots())
            if sympy.Rational(lo) <= v <= sympy.Rational(hi)
        ]
        assert len(got) == len(want), (p, lo, hi, got, want)
        for g, w in zip(got, want):
            assert abs(g - w) <= max(math.ulp(w), 1e-17), (p, lo, hi, g, w)


@pytest.mark.parametrize(
    "lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)]
)
def test_isolate_roots_rejects_a_bound_that_is_not_finite(lo, hi):
    p = alg.Polynomial.from_coeffs([-1, 1])
    name = "lo" if lo != lo or lo == -math.inf else "hi"
    with pytest.raises(ValueError, match=f"bound {name} must be finite") as info:
        alg.isolate_roots(p, lo, hi)
    assert info.type is ValueError


def test_integer_signs_are_the_exact_rational_signs():
    # each chain member scaled to integer coefficients, evaluated at a
    # dyadic num / den and times den**degree, has the sign of its exact
    # rational value: at both bounds and 200 seeded dyadic points between
    rng = random.Random(20261019)
    for p, lo, hi in _oracle_cases():
        chain = alg._sturm_chain(p.squarefree_part())
        integer = alg._integer_chain(chain)
        a, b = Fraction(lo), Fraction(hi)
        steps = (Fraction(rng.randrange(2**20 + 1), 2**20) for _ in range(200))
        points = [a, b] + [a + (b - a) * s for s in steps]
        for x in points:
            num, den = x.as_integer_ratio()
            assert den & (den - 1) == 0  # dyadic
            for q, coeffs in zip(chain, integer):
                exact = q.eval_exact(x)
                scaled = alg._scaled_value(coeffs, num, den)
                assert (scaled > 0) - (scaled < 0) == (exact > 0) - (exact < 0), (p, q, x)


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


def test_accepted_gates_candidates_from_both_sides():
    # the two 1e-9 gates of _accepted on the type 3.3.4.4.  A candidate on
    # the edge moved by h keeps the companion relation and misses the angle
    # sum by 2.45 h; one with the triangle angle raised and the square angle
    # lowered by d keeps the sum and misses the companion relation by 2.83 d
    (exact,) = alg.solve_vertex_system((3, 3, 4, 4))
    x = exact.edge

    def moved_edge(h):
        return {m: sk.angle_from_edge(m, x + h) for m in (3, 4)}, x + h

    def shifted(d):
        return {3: exact.angles[3] + d, 4: exact.angles[4] - d}, x

    inside = [moved_edge(3e-10), shifted(3e-10)]
    kept = alg._accepted([3, 4], [2, 2], [moved_edge(1e-9), shifted(1e-9)] + inside)
    assert sorted((a.edge, a.angles[3]) for a in kept) == sorted((e, a[3]) for a, e in inside)


def test_vertex_type_takes_integral_floats():
    # other non-integral sizes are rows of REJECTED_INPUTS in test_public_api
    assert alg.solve_vertex_system((4.0, 4, 5)) == alg.solve_vertex_system((4, 4, 5))
    with pytest.raises(DomainError, match="face size"):
        _vertex_type((3, 4, 4, 5.9))


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


@pytest.mark.parametrize("t", sorted(alg._HEMISPHERE_TYPES))
def test_hemisphere_end_counted_once(t):
    # J1, J3 and J6 tiles: the largest face is a hemisphere, angle exactly
    # pi, at the end x = 2*pi/max m of the edge interval
    sols = alg.solve_vertex_system(t)
    assert len(sols) == 1
    assert sols[0].angles[max(t)] == math.pi


@pytest.mark.parametrize(
    "t",
    [(3, 3, 5), (3, 3, 6), (3, 4, 5), (3, 4, 7), (3, 5, 9), (3, 5, 11), (4, 4, 6), (3, 6, 6),
     (3, 3, 3, 4)],
)
def test_hemisphere_end_rejects_neighbouring_types(t):
    # one size off a hemisphere type, a repeated largest size, or three
    # other faces: the other angles do not sum to pi at x = 2*pi/max m
    assert t not in alg._HEMISPHERE_TYPES
    assert all(s.angles[max(t)] != math.pi for s in alg.solve_vertex_system(t))


def test_hemisphere_types_are_the_classification():
    # the hemisphere equation cos(2*pi/M) = 1 + cos(2*pi/a) + cos(2*pi/b)
    # holds on exactly the three listed types among all candidates with
    # sizes up to 60, and misses every other one by far more than rounding
    hits, misses = set(), []
    for t in vcomb.enumerate_candidate_types(60):
        if len(t) != 3 or t[1] == t[2]:
            continue
        a, b, big = t
        residual = abs(1 + math.cos(TWO_PI / a) + math.cos(TWO_PI / b) - math.cos(TWO_PI / big))
        if residual < 1e-12:
            hits.add(t)
        else:
            misses.append(residual)
    assert hits == alg._HEMISPHERE_TYPES
    assert min(misses) > 1e-3


# the named types of the benchmark's ``algebra`` workload
ALGEBRA_TYPES = (
    (3, 4, 4, 5), (4, 6, 8), (4, 6, 10), (3, 4, 6), (3, 4, 10), (3, 6, 6),
    (3, 8, 8), (5, 6, 6), (3, 5, 5), (3, 4, 4, 4), (3, 3, 4, 4), (3, 3, 3, 5),
    (3, 3, 3, 3, 4), (3, 3, 3, 3, 5),
)
FAMILY_SIZES = (*range(3, 17), 50, 400)
FAMILY_TYPES = tuple((4, 4, m) for m in FAMILY_SIZES) + tuple((3, 3, 3, m) for m in FAMILY_SIZES)


@functools.lru_cache(maxsize=None)
def _multistart_angles(t: Sequence[int]) -> list[AngleAssignment]:
    """The former library solver: damped multistart Newton, an oracle here.

    Solves the angle-sum equation together with every pairwise companion
    relation by damped multistart Newton on (cos a_i, sin a_i) with
    unit-circle constraints, from 16^k starts in 2k unknowns, then filters
    to angles in (0, 2*pi) with angle sum exactly 2*pi, deduplicates,
    polishes and passes the library's gate ``alg._accepted``.  The line
    search is batched: each step evaluates the full step of every active
    start in one ``residuals`` call and the eight halvings of the starts it
    did not improve in one more, and each start takes its first improving
    factor.  Its monotone-convex solutions are, bit for bit, the pinned
    prism and antiprism angles of ``catalog._PINNED_FAMILY_ANGLES``.
    """
    # multistart grid points per face size
    grid_points = 16
    # damped Newton iterations of the multistart
    max_iter = 200
    # solutions closer than this in every angle are one solution
    dedup_tol = 1e-9
    # square Newton iterations of polish_angles
    polish_iterations = 60

    def polish_angles(sizes, counts, alphas):
        """Square Newton in angle space: angle sum + shared-edge consistency.

        Returns None if the iteration leaves the valid angle domain.
        """
        k = len(sizes)
        cm = [math.cos(TWO_PI / m) for m in sizes]
        a = list(alphas)

        def d_implied(i):
            ca, sa = math.cos(a[i]), math.sin(a[i])
            return -sa * (2.0 + 2.0 * cm[i]) / (1.0 - ca) ** 2

        for _ in range(polish_iterations):
            if any(not (1e-9 < v < TWO_PI - 1e-9) or math.cos(v) > 1.0 - 1e-12 for v in a):
                return None
            f = [sum(c * x for c, x in zip(counts, a)) - TWO_PI]
            for i in range(1, k):
                f.append(sk.edge_cosine(sizes[i], a[i]) - sk.edge_cosine(sizes[0], a[0]))
            if max(abs(v) for v in f) < 1e-15:
                break
            jac = np.zeros((k, k))
            jac[0, :] = counts
            for i in range(1, k):
                jac[i, i] = d_implied(i)
                jac[i, 0] = -d_implied(0)
            try:
                step = np.linalg.solve(jac, np.array(f))
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                return None
            a = [ai - si for ai, si in zip(a, step)]
        return a

    entries = _vertex_type(t)
    sizes = sorted(set(entries))
    counts = [entries.count(m) for m in sizes]
    k = len(sizes)

    cm = np.array([math.cos(TWO_PI / m) for m in sizes])
    pairs = list(itertools.combinations(range(k), 2))
    n_eq = k + len(pairs) + 2

    def residuals(v):
        x, y = v[:, :k], v[:, k:]
        out = np.empty((v.shape[0], n_eq))
        out[:, :k] = x * x + y * y - 1.0
        for col, (i, j) in enumerate(pairs):
            ai = 1.0 + x[:, i] + 2.0 * cm[i]
            aj = 1.0 + x[:, j] + 2.0 * cm[j]
            out[:, k + col] = (1.0 - x[:, j]) * ai - (1.0 - x[:, i]) * aj
        z = x + 1j * y
        prod = np.ones(v.shape[0], dtype=complex)
        for i in range(k):
            prod *= z[:, i] ** counts[i]
        out[:, -2] = prod.real - 1.0
        out[:, -1] = prod.imag
        return out

    def jacobian(v):
        n = v.shape[0]
        x, y = v[:, :k], v[:, k:]
        jac = np.zeros((n, n_eq, 2 * k))
        for i in range(k):
            jac[:, i, i] = 2.0 * x[:, i]
            jac[:, i, k + i] = 2.0 * y[:, i]
        for col, (i, j) in enumerate(pairs):
            ai = 1.0 + x[:, i] + 2.0 * cm[i]
            aj = 1.0 + x[:, j] + 2.0 * cm[j]
            jac[:, k + col, i] = (1.0 - x[:, j]) + aj
            jac[:, k + col, j] = -ai - (1.0 - x[:, i])
        z = x + 1j * y
        zsafe = np.where(np.abs(z) < 1e-9, 1e-9, z)
        prod = np.ones(n, dtype=complex)
        for i in range(k):
            prod *= z[:, i] ** counts[i]
        for i in range(k):
            dzi = counts[i] * prod / zsafe[:, i]
            jac[:, -2, i] = dzi.real
            jac[:, -1, i] = dzi.imag
            jac[:, -2, k + i] = (1j * dzi).real
            jac[:, -1, k + i] = (1j * dzi).imag
        return jac

    axes = [
        np.linspace(planar_angle(m), TWO_PI, grid_points + 2)[1:-1] for m in sizes
    ]
    grids = np.meshgrid(*axes, indexing="ij")
    alpha0 = np.stack([g.ravel() for g in grids], axis=1)
    v = np.concatenate([np.cos(alpha0), np.sin(alpha0)], axis=1)

    f = residuals(v)
    norm = np.max(np.abs(f), axis=1)
    alive = np.ones(v.shape[0], dtype=bool)
    lam = 1e-12
    # the backtracking factors after the full step: 1/2, 1/4, ..., 1/256
    halvings = 0.5 ** np.arange(1, 9)
    for _ in range(max_iter):
        idx = np.nonzero(alive & (norm > 1e-13))[0]
        if idx.size == 0:
            break
        jac = jacobian(v[idx])
        jt = np.transpose(jac, (0, 2, 1))
        h = jt @ jac + lam * np.eye(2 * k)
        grad = jt @ f[idx][:, :, None]
        try:
            step = -np.linalg.solve(h, grad)[:, :, 0]
        except np.linalg.LinAlgError:
            step = -np.linalg.solve(h + 1e-8 * np.eye(2 * k), grad)[:, :, 0]
        # line search: the full step for every active row in one call, then
        # all eight halvings for the rows it did not improve in a second;
        # each row takes its first improving factor
        trial = v[idx] + step
        trial_f = residuals(trial)
        trial_norm = np.max(np.abs(trial_f), axis=1)
        better = trial_norm < norm[idx]
        rows = idx[better]
        v[rows], f[rows], norm[rows] = trial[better], trial_f[better], trial_norm[better]
        failed = ~better
        rows = idx[failed]
        if rows.size == 0:
            continue
        trial = (v[rows] + halvings[:, None, None] * step[failed]).reshape(-1, 2 * k)
        trial_f = residuals(trial)
        trial_norm = np.max(np.abs(trial_f), axis=1)
        better = trial_norm.reshape(halvings.size, rows.size) < norm[rows]
        improved = better.any(axis=0)
        cols = np.nonzero(improved)[0]
        pick = np.argmax(better[:, cols], axis=0) * rows.size + cols
        taken = rows[cols]
        v[taken], f[taken], norm[taken] = trial[pick], trial_f[pick], trial_norm[pick]
        alive[rows[~improved]] = False

    conv = v[norm < 1e-11]
    alphas = np.mod(np.arctan2(conv[:, k:], conv[:, :k]), TWO_PI)
    dropped = (
        np.any(alphas < 1e-9, axis=1)
        | np.any(alphas > TWO_PI - 1e-9, axis=1)
        | (np.abs(alphas @ counts - TWO_PI) > 1e-6)
    )
    sols = alphas[~dropped].tolist()

    sols.sort()
    unique = []
    for s in sols:
        if not unique or max(abs(a - b) for a, b in zip(s, unique[-1])) > dedup_tol:
            unique.append(s)

    candidates = []
    for s in unique:
        # np.float64 angles, as always: from Python 3.12 on, sum() adds exact
        # floats with compensation, which would move the first residual
        polished = polish_angles(sizes, counts, np.array(s))
        if polished is not None and all(1e-9 < a < TWO_PI - 1e-9 for a in polished):
            # the edge from the smallest face, dropped when it is no polygon
            angles = dict(zip(sizes, polished))
            try:
                candidates.append((angles, AngleAssignment.from_angles(angles).edge))
            except DomainError:
                pass
    return alg._accepted(sizes, counts, candidates)


@pytest.mark.parametrize(
    "t", ALGEBRA_TYPES + FAMILY_TYPES, ids=lambda t: ",".join(map(str, t))
)
def test_edge_solver_matches_multistart(t):
    # oracle: the former multistart Newton solver, 16^k starts in 2k unknowns
    new, old = alg.solve_vertex_system(t), _multistart_angles(t)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.sizes == b.sizes
        for m in a.sizes:
            assert a.angles[m] == pytest.approx(b.angles[m], abs=1e-12)


def _hex(assign):
    return [(m, float(a).hex()) for m, a in assign.angles.items()], assign.edge.hex()


def test_pinned_family_angles_are_the_multistart_bits():
    # the table covers exactly the family members of all_entries() that are
    # no Platonic solid, and each entry is the multistart's monotone-convex
    # solution to the last bit, its edge derived from the angles as before
    members = {
        catalog._member(name) for name in catalog.all_entries()
        if catalog.family_of(name) in ("prism", "antiprism")
    }
    assert set(catalog._PINNED_FAMILY_ANGLES) == members - {("prism", 4), ("antiprism", 3)}
    for (kind, m), angles in catalog._PINNED_FAMILY_ANGLES.items():
        t = (4, 4, m) if kind == "prism" else (3, 3, 3, m)
        (want,) = [s for s in _multistart_angles(t) if s.monotone_convex()]
        assert _hex(AngleAssignment.from_angles(angles)) == _hex(want), (kind, m)
        assert _hex(catalog.make(f"{kind}({m})").angles) == _hex(want), (kind, m)


@pytest.mark.parametrize("kind, t", [("prism", (4, 4)), ("antiprism", (3, 3, 3))])
def test_catalog_families_match_edge_solver(kind, t):
    for m in range(3, 41):
        want = [s for s in alg.solve_vertex_system(t + (m,)) if s.monotone_convex()]
        assert len(want) == 1
        got = catalog.make(f"{kind}({m})").angles
        assert got.sizes == want[0].sizes
        if m > 12:
            # past the pinned members the catalog calls the edge solver
            assert _hex(got) == _hex(want[0]), m
        for size in got.sizes:
            assert got.angles[size] == pytest.approx(want[0].angles[size], abs=1e-12)


@pytest.mark.parametrize("t", [(4, 4), (3, 3, 3)])
@pytest.mark.parametrize("m", [10**16, 10**21])
def test_face_size_beyond_double_precision_is_a_domain_error(t, m):
    # the angle sum differs from 2*pi by about 2*pi/m, below its rounding
    with pytest.raises(DomainError, match=f"face size {m} is too large"):
        alg.solve_vertex_system(t + (m,))


def test_antiprism_type_keeps_its_one_root_where_the_prism_type_is_refused():
    # at m = 5e15 the rounded all-convex excess of 4.4.m changes sign three
    # times (a DomainError); that of 3.3.3.m still changes sign once
    assert len(alg.solve_vertex_system((3, 3, 3, 5 * 10**15))) == 1


def _dict_excess_solve(t):
    """``solve_vertex_system`` with its former excess, an oracle of its bits.

    The excess is the sum c * ``_branch_angles`` (one ``angle_from_edge``
    call per size, every check included) minus 2*pi, fed to the same scan,
    bisection and acceptance as the library's per-size constants.
    """
    entries = _vertex_type(t)
    sizes = sorted(set(entries))
    counts = [entries.count(m) for m in sizes]
    if len(sizes) == 1:
        m, alpha = sizes[0], TWO_PI / len(entries)
        return alg._accepted(sizes, counts, [({m: alpha}, sk.edge_from_angle(m, alpha))])
    top = TWO_PI / sizes[-1]
    grid = [top * i / alg._SCAN_POINTS for i in range(1, alg._SCAN_POINTS + 1)]
    hemisphere = entries in alg._HEMISPHERE_TYPES
    roots = [(top, None)] if hemisphere else []
    planar = sum(Fraction(c * (m - 2), m) for m, c in zip(sizes, counts)) - 2
    for reflex in [None] + [m for m, c in zip(sizes, counts) if c == 1]:

        def excess(x, reflex=reflex):
            angles = alg._branch_angles(sizes, x, reflex)
            return sum(c * angles[m] for m, c in zip(sizes, counts)) - TWO_PI

        points = [(x, excess(x)) for x in grid]
        if hemisphere and reflex in (None, sizes[-1]):
            points.pop()
        limit = planar if reflex is None else planar + Fraction(4, reflex)
        if limit:
            points.insert(0, (0.0, float(limit)))
        found = [
            alg._bisect(excess, x0, x1, v0 < 0)
            for (x0, v0), (x1, v1) in zip(points, points[1:])
            if (v0 < 0) != (v1 < 0)
        ]
        if 0.0 in found or (reflex is None and len(found) > 1):
            raise DomainError(f"face size {sizes[-1]} is too large")
        roots += [(x, reflex) for x in found]
    return alg._accepted(
        sizes, counts, ((alg._branch_angles(sizes, x, reflex), x) for x, reflex in roots)
    )


def test_solver_bits_equal_the_dict_excess_oracle():
    types = vcomb.enumerate_candidate_types(28) + [
        t + (m,) for t in ((4, 4), (3, 3, 3)) for m in (33, 10**3, 10**5, 10**8, 10**12)
    ]
    for t in types:
        got, want = alg.solve_vertex_system(t), _dict_excess_solve(t)
        assert list(map(_hex, got)) == list(map(_hex, want)), t


@pytest.mark.parametrize("t", [(4, 4, 5 * 10**15), (3, 3, 3, 10**16)])
def test_solver_and_dict_excess_oracle_refuse_the_same_sizes(t):
    for solve in (alg.solve_vertex_system, _dict_excess_solve):
        with pytest.raises(DomainError, match="too large"):
            solve(t)


def test_certified_solver_bits_equal_the_dict_excess_oracle():
    # the sizes where the all-convex branch certifies least: the hemisphere
    # roots at the top, and the families from 3 on and up to 10**15 (the two
    # refused sizes are the test above)
    types = sorted(alg._HEMISPHERE_TYPES) + [
        t + (m,) for t in ((4, 4), (3, 3, 3))
        for m in (*range(3, 200), *(10**k for k in range(3, 16)))
    ]
    for t in types:
        got, want = alg.solve_vertex_system(t), _dict_excess_solve(t)
        assert list(map(_hex, got)) == list(map(_hex, want)), t


def test_all_convex_excess_is_within_a_quarter_margin_of_its_exact_value():
    # the lemma of alg._certified: the computed excess is within eps of
    # F~(x) = sum c * 2*acos(sqrt(1 - cos(p_m)**2 / cos(x/2)**2)) - fl(2*pi),
    # p_m = fl(pi/m), which strictly increases on (0, 2*pi/M]; checked at the
    # scan grid, next to the top, near zero and at seeded random edges
    mp = pytest.importorskip("mpmath")
    rng = random.Random(35)
    types = vcomb.enumerate_candidate_types(28) + [
        t + (m,) for t in ((4, 4), (3, 3, 3))
        for m in (*range(29, 41), *(10**k for k in range(2, 16)), 5 * 10**15)
    ]
    exact = {}
    worst = 0.0
    with mp.workdps(40):
        for t in types:
            sizes = sorted(set(t))
            if len(sizes) == 1:
                continue
            counts = [t.count(m) for m in sizes]
            top = TWO_PI / sizes[-1]
            edges = [top * i / alg._SCAN_POINTS for i in range(1, alg._SCAN_POINTS)]
            edges += [top, math.nextafter(top, 0.0), top * (1 - 2.0**-30)]
            edges += [top * 2.0**-k for k in (10, 30, 59)]
            edges += [top * rng.random() for _ in range(4)]
            for x in edges:
                # the library's excess: a plain running sum (sum() compensates
                # from Python 3.12 on)
                half, got = x / 2.0, 0.0
                for m, c in zip(sizes, counts):
                    got += c * sk._convex_angle(m, math.pi / m, x, half, math.cos(half))
                got -= TWO_PI
                for m in sizes:
                    if (m, x) not in exact:
                        ratio = (mp.cos(mp.mpf(math.pi / m)) / mp.cos(mp.mpf(x) / 2)) ** 2
                        exact[m, x] = 2 * mp.acos(mp.sqrt(1 - ratio))
                want = sum(c * exact[m, x] for m, c in zip(sizes, counts)) - mp.mpf(TWO_PI)
                worst = max(worst, float(abs(got - want)))
    assert worst <= alg._MARGIN / 4


def _skipped_reflex_sizes(t):
    """The sizes of count 1 whose reflex branch the solver skips: the other
    faces fill half a turn at their planar angles, sum c * (1 - 2/m) >= 1."""
    entries = sorted(t)
    return [
        r for r in set(entries) if entries.count(r) == 1
        and sum(Fraction(m - 2, m) for m in entries) - Fraction(r - 2, r) >= 1
    ]


def test_skipped_reflex_branches_have_no_root():
    # on a skipped branch the other faces' convex angles always sum to more
    # than the reflex face's convex angle, so 2*pi is never met: checked at
    # the scan's grid edges and at a denser sample, without the solver
    types = vcomb.enumerate_candidate_types(28) + [
        t + (m,) for t in ((4, 4), (3, 3, 3)) for m in (33, 10**3, 10**5, 10**8, 10**12)
    ]
    skipped = 0
    for t in types:
        top = TWO_PI / max(t)
        grid = [top * i / alg._SCAN_POINTS for i in range(1, alg._SCAN_POINTS + 1)]
        edges = grid + [top * i / 1000 for i in range(1, 1000)]
        for r in _skipped_reflex_sizes(t):
            skipped += 1
            rest = list(t)
            rest.remove(r)
            for x in edges:
                others = sum(sk.angle_from_edge(m, x) for m in rest)
                assert others > sk.angle_from_edge(r, x), (t, r, x)
    assert skipped == 463 + 10


#: distinct edges one solve of 4.4.m or 3.3.3.m (m = 5..32) may evaluate:
#: the certified all-convex branch takes 23 to 27, the plain scan and
#: bisection about 80, and a scanned reflex branch would add 32 more
FAMILY_SOLVE_EDGES = 40


@pytest.mark.parametrize("kind, t", [("prism", (4, 4)), ("antiprism", (3, 3, 3))])
def test_prism_and_antiprism_types_scan_one_branch(monkeypatch, kind, t):
    # the reflex m-gon branch is skipped, so each evaluated edge is evaluated
    # once per size, on the all-convex branch only, and few edges are
    calls = []

    def recording(m, pi_m, x, half, cos_half):
        calls.append((m, x))
        return convex_angle(m, pi_m, x, half, cos_half)

    convex_angle = alg._convex_angle
    monkeypatch.setattr(alg, "_convex_angle", recording)
    for m in range(5, 33):
        calls.clear()
        assert _skipped_reflex_sizes(t + (m,)) == [m]
        alg.solve_vertex_system(t + (m,))
        edges = {x for _, x in calls}
        assert sorted(calls) == sorted((size, x) for x in edges for size in (t[0], m)), (kind, m)
        assert len(edges) <= FAMILY_SOLVE_EDGES, (kind, m, len(edges))


def _family_edge_error(kind, m, edge):
    """Relative error of ``edge`` against the closed-form family edge, in 50 digits.

    prism:     cos x = cos^2(pi/m) / (1 + sin^2(pi/m))
    antiprism: cos x = 1 - 2 sin^2(pi/m) / (1 + sin^2(pi/m) - sin^2(pi/2m))

    Both read 1 - cos x = 2 s / d with s = sin^2(pi/m), so x is taken as
    2 asin(sqrt(s / d)), never as acos of a cosine near 1.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        s = mp.sin(mp.pi / m) ** 2
        d = 1 + s if kind == "prism" else 1 + s - mp.sin(mp.pi / (2 * m)) ** 2
        x = 2 * mp.asin(mp.sqrt(s / d))
        return float(abs(mp.mpf(edge) - x) / x)


FAMILY_ORACLE_SIZES = (*range(3, 41), 50, 100, 200, 400)


@pytest.mark.parametrize("kind, t", [("prism", (4, 4)), ("antiprism", (3, 3, 3))])
def test_family_edges_match_closed_form(kind, t):
    for m in FAMILY_ORACLE_SIZES + tuple(10**k for k in range(3, 9)):
        sols = [s for s in alg.solve_vertex_system(t + (m,)) if s.monotone_convex()]
        assert len(sols) == 1, m
        assert _family_edge_error(kind, m, sols[0].edge) <= 1e-14, m


@pytest.mark.parametrize("kind", ["prism", "antiprism"])
def test_catalog_family_edges_match_closed_form(kind):
    # the pinned members up to m = 12 take acos of an edge cosine from their
    # angles (worst 2.8e-15, antiprism(10)); every larger member is
    # solve_vertex_system's bisected edge, held to the same bound above
    for m in FAMILY_ORACLE_SIZES:
        edge = catalog.make(f"{kind}({m})").angles.edge
        assert _family_edge_error(kind, m, edge) <= 1e-14, m


def test_every_solution_is_monotone_convex():
    # a convex regular polygon's angle grows with its size at one edge, so
    # no solution of a vertex system breaks the size-angle ordering
    sols = [s for t in vcomb.enumerate_candidate_types(28) for s in alg.solve_vertex_system(t)]
    assert sols and all(s.monotone_convex() for s in sols)


def test_every_type_has_at_most_one_solution():
    # the premise of _one_solution, the pick rule of the catalog families
    # and the snubs: a type's angles are its one solution
    types = vcomb.enumerate_candidate_types(28) + [
        t + (m,) for t in ((4, 4), (3, 3, 3)) for m in (33, 10**5, 10**12)
    ]
    assert [t for t in types if len(alg.solve_vertex_system(t)) > 1] == []


@pytest.mark.parametrize("count", [0, 2])
def test_one_solution_names_the_count(count):
    sols = alg.solve_vertex_system((3, 4, 4, 5)) * count
    with pytest.raises(NoSolution, match=rf"^prism\(7\): {count} solutions, not one$"):
        alg._one_solution(sols, "prism(7)")
    one = alg.solve_vertex_system((3, 4, 4, 5))
    assert alg._one_solution(one, "J76") is one[0]


# the named entries' hardest types, the three hemisphere types and 3.3.7,
# which has no solution
EXACT_COUNT_TYPES = [
    (3, 3, 4), (3, 4, 6), (3, 5, 10), (4, 4, 7), (3, 4, 4, 5), (3, 4, 8), (3, 4, 10),
    (3, 3, 3, 3, 5), (3, 3, 7),
]


def _exact_edges(t):
    """The edges of the vertex type t's solutions, from one exact polynomial.

    With u = 1/cos(x/2), the right triangle centre - edge midpoint - vertex
    of an m-gon gives sin(alpha_m/2) = k_m*u, k_m = cos(pi/m), and
    w_m = cos(alpha_m/2) = +-sqrt(1 - k_m^2*u^2), negative for a reflex
    face.  The angle sum 2*pi makes prod (w_m + i*k_m*u)^c_m = -1, so its
    imaginary part vanishes.  Resultants against w_m^2 - 1 + k_m^2*u^2 and
    against the minimal polynomial of cos(pi/m) leave one polynomial in u
    with rational coefficients.  Each real root of its squarefree part in
    (1, 1/cos(pi/M)] is a solution when the all-convex branch, or a branch
    with one reflex face of count 1, sums to 2*pi there at 50 digits.  A
    root at the end, where the M-gon is pi and reads as both, counts once.
    """
    sp = pytest.importorskip("sympy")
    mpmath = pytest.importorskip("mpmath")
    u = sp.Symbol("u")
    sizes = sorted(set(t))
    counts = [t.count(m) for m in sizes]
    w = {m: sp.Symbol(f"w{m}") for m in sizes}
    k = {m: sp.Symbol(f"k{m}") for m in sizes}
    re, im = sp.Integer(1), sp.Integer(0)
    for m, c in zip(sizes, counts):
        for _ in range(c):
            re, im = sp.expand(re * w[m] - im * k[m] * u), sp.expand(re * k[m] * u + im * w[m])
    p = im
    for m in sizes:
        p = sp.resultant(p, w[m] ** 2 - 1 + k[m] ** 2 * u**2, w[m])
        p = sp.resultant(p, sp.minimal_polynomial(sp.cos(sp.pi / m), k[m]), k[m])
    squarefree = sp.Poly(sp.sqf_part(p), u)
    top = 1 / sp.cos(sp.pi / sizes[-1])
    edges = []
    for root in sp.real_roots(squarefree):
        if not 1 < root <= top:
            continue
        with mpmath.workdps(50):
            r, two_pi = mpmath.mpf(str(sp.N(root, 50))), 2 * mpmath.pi
            half = {m: mpmath.asin(min(1, mpmath.cos(mpmath.pi / m) * r)) for m in sizes}
            convex = sum(2 * c * half[m] for m, c in zip(sizes, counts))
            reflex = [convex + two_pi - 4 * half[m] for m, c in zip(sizes, counts) if c == 1]
            if any(abs(b - two_pi) < 1e-20 for b in [convex, *reflex]):
                edges.append(float(2 * mpmath.acos(1 / r)))
    return edges


@pytest.mark.parametrize("t", EXACT_COUNT_TYPES, ids=lambda t: ".".join(map(str, t)))
def test_solution_count_and_edges_match_the_exact_polynomial_oracle(t):
    # the solver's count, read from 32 samples per branch, is the exact one
    want = _exact_edges(t)
    got = sorted(s.edge for s in alg.solve_vertex_system(t))
    assert len(got) == len(want), t
    for x, y in zip(got, want):
        assert x == pytest.approx(y, abs=1e-12), t


def test_monotone_flag_on_synthetic_violation():
    bad = alg.AngleAssignment({3: 1.9, 4: 1.8}, 1.0)
    assert not bad.monotone_convex()


def test_determinism():
    a = alg.solve_vertex_system((3, 4, 4, 5))
    b = alg.solve_vertex_system((3, 4, 4, 5))
    assert [s.angles for s in a] == [s.angles for s in b]
    assert [s.edge for s in a] == [s.edge for s in b]


# at eD's edge the decagon closes a vertex convex as 4.5.10 (J76's decagon)
# and reflex as 3.4.10 (J5's cupola base)
@pytest.mark.parametrize(
    "t, entry, decagon",
    [((3, 4, 4, 5), "eD", None), ((4, 5, 10), "J76", 0.8598), ((3, 4, 10), "J5", 1.1402)],
)
def test_ed_edge_types_have_their_catalog_angles(t, entry, decagon):
    (s,) = alg.solve_vertex_system(t)
    assert s.edge == pytest.approx(catalog.make("eD").angles.edge, abs=1e-12)
    want = catalog.make(entry).angles.angles
    for m in set(t):
        assert s.angles[m] == pytest.approx(want[m], abs=1e-12), m
    if decagon is not None:
        assert s.angles[10] / PI == pytest.approx(decagon, abs=5e-5)


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
    assert [r.hex() for r in rep.y4_roots] == Y4_ROOTS_HEX
    # every float of every candidate, and the residual, pinned to the bit
    got = [
        (tuple(v.hex() for v in (c.x3, c.x4, c.x5, c.y3, c.y4, c.y5)), tuple(a.hex() for a in c.angles))
        for c in rep.candidates
    ]
    assert got == GROEBNER_CANDIDATES_HEX
    assert rep.basis_residual_max.hex() == GROEBNER_RESIDUAL_HEX
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


# --------------------------------------------------------------------------
# the records: immutability, repr
# --------------------------------------------------------------------------


def test_angle_assignment_fields_are_read_only():
    a = AngleAssignment({3: 1.0}, 2.0)
    for field in ("angles", "edge"):
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))


def test_angle_assignment_keeps_a_read_only_copy_of_its_angles():
    source = {3: 1.0, 4: 2.0}
    a = AngleAssignment(source, 0.5)
    source[3] = 9.0
    assert a.angles == {3: 1.0, 4: 2.0}
    with pytest.raises(TypeError):
        a.angles[3] = 9.0


def test_angle_assignment_replace_and_make_copy_the_angles_too():
    a = AngleAssignment({3: 1.0, 4: 2.0}, 0.5)
    replaced = {5: 3.0}
    b = a._replace(angles=replaced)
    replaced[5] = 9.0
    assert b.angles == {5: 3.0} and b.edge == 0.5 and a.angles == {3: 1.0, 4: 2.0}
    with pytest.raises(TypeError):
        b.angles[5] = 9.0
    c = AngleAssignment._make([replaced, 0.25])
    replaced[5] = 1.0
    assert c.angles == {5: 9.0}
    with pytest.raises(TypeError):
        c.angles[5] = 1.0


def test_algsolve_record_reprs_start_with_class_and_first_field():
    assert repr(AngleAssignment({3: 1.0}, 2.0)).startswith("AngleAssignment(angles=")
    assert repr(alg.Polynomial.from_coeffs([1, 2])).startswith("Polynomial(coeffs=(Fraction(1, 1)")
    report = alg.verify_groebner_candidates()
    assert repr(report).startswith("GroebnerReport(candidates=(GroebnerCandidate(x3=")
