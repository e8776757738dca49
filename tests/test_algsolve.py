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
from sphtile.sphkernel import DomainError, planar_angle

PI = math.pi
TWO_PI = 2 * PI
SQ5 = math.sqrt(5.0)
SQ33 = math.sqrt(33.0)
#: the three roots of GROEBNER_UNIVARIATE_Y4 in (0, 1), pinned to the bit
Y4_ROOTS_HEX = ["0x1.484c33c709a25p-2", "0x1.bb67ae8584caap-1", "0x1.ff494347942e0p-1"]


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
    assert [r.hex() for r in got] == Y4_ROOTS_HEX


def test_snub_dodecahedron_sextic_root():
    xi = alg.snub_dodecahedron_cos()
    assert xi == pytest.approx(0.471575629621941, abs=1e-13)
    assert alg.SNUB_DODECAHEDRON_SEXTIC(xi) == pytest.approx(0.0, abs=1e-12)
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


def _sequential_multistart_angles(t: Sequence[int]) -> list[AngleAssignment]:
    """``alg._multistart_angles`` before its line search was batched.

    Each step tries the factors 1, 1/2, ..., 1/256 in turn, one
    ``residuals`` call per factor on the rows still failing, and the
    converged rows are filtered one at a time.  The bit-for-bit oracle of
    the batched version.
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

        def implied_cos(i):
            ca = math.cos(a[i])
            return (1.0 + ca + 2.0 * cm[i]) / (1.0 - ca)

        def d_implied(i):
            ca, sa = math.cos(a[i]), math.sin(a[i])
            return -sa * (2.0 + 2.0 * cm[i]) / (1.0 - ca) ** 2

        for _ in range(polish_iterations):
            if any(not (1e-9 < v < TWO_PI - 1e-9) or math.cos(v) > 1.0 - 1e-12 for v in a):
                return None
            f = [sum(c * x for c, x in zip(counts, a)) - TWO_PI]
            for i in range(1, k):
                f.append(implied_cos(i) - implied_cos(0))
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
    for _ in range(max_iter):
        act = alive & (norm > 1e-13)
        idx = np.nonzero(act)[0]
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
        remaining = idx.copy()
        factor = 1.0
        improved_any = np.zeros(idx.size, dtype=bool)
        local = np.arange(idx.size)
        for _ in range(9):
            trial = v[remaining] + factor * step[local]
            trial_f = residuals(trial)
            trial_norm = np.max(np.abs(trial_f), axis=1)
            better = trial_norm < norm[remaining]
            take = np.nonzero(better)[0]
            rows = remaining[take]
            v[rows] = trial[take]
            f[rows] = trial_f[take]
            norm[rows] = trial_norm[take]
            improved_any[local[take]] = True
            keep = ~better
            remaining = remaining[keep]
            local = local[keep]
            if remaining.size == 0:
                break
            factor *= 0.5
        alive[idx[~improved_any]] = False

    good = norm < 1e-11
    sols = []
    for row in np.nonzero(good)[0]:
        x, y = v[row, :k], v[row, k:]
        alphas = np.mod(np.arctan2(y, x), TWO_PI)
        if np.any(alphas < 1e-9) or np.any(alphas > TWO_PI - 1e-9):
            continue
        if abs(float(np.dot(counts, alphas)) - TWO_PI) > 1e-6:
            continue
        sols.append(tuple(alphas))

    sols.sort()
    unique = []
    for s in sols:
        if not unique or max(abs(a - b) for a, b in zip(s, unique[-1])) > dedup_tol:
            unique.append(s)

    out = []
    for s in unique:
        polished = polish_angles(sizes, counts, s)
        if polished is None or any(not (1e-9 < a < TWO_PI - 1e-9) for a in polished):
            continue
        try:
            assign = AngleAssignment.from_angles(dict(zip(sizes, polished)))
        except DomainError:
            # the smallest face sits at or below its planar angle: no
            # spherical polygon
            continue
        if assign.max_companion_residual() > 1e-9:
            continue
        if abs(sum(c * a for c, a in zip(counts, polished)) - TWO_PI) > 1e-9:
            continue
        out.append(assign)
    out.sort(key=lambda a: tuple(a.angles[m] for m in sizes))
    return out


def _bits(sols):
    return [
        ([(m, a.hex(), type(a)) for m, a in s.angles.items()], s.edge.hex(), type(s.edge))
        for s in sols
    ]


@pytest.mark.parametrize(
    "t", ALGEBRA_TYPES + FAMILY_TYPES, ids=lambda t: ",".join(map(str, t))
)
def test_edge_solver_matches_multistart(t):
    # oracle: the kept multistart Newton solver, 16^k starts in 2k unknowns,
    # which itself returns the bits of its sequential line search
    new, old = alg.solve_vertex_system(t), alg._multistart_angles(t)
    assert _bits(old) == _bits(_sequential_multistart_angles(t))
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.sizes == b.sizes
        for m in a.sizes:
            assert a.angles[m] == pytest.approx(b.angles[m], abs=1e-12)


def _first_batched_solve_singular(monkeypatch, solver, t):
    solve = np.linalg.solve
    failed = []

    def fail_first_batched(a, b):
        if a.ndim == 3 and not failed:
            failed.append(a.shape[0])
            raise np.linalg.LinAlgError("singular")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", fail_first_batched)
    out = solver(t)
    monkeypatch.undo()
    assert failed == [16 ** len(set(t))]
    return out


def test_multistart_singular_fallback_matches_sequential(monkeypatch):
    # the first step's batched solve fails, so that step regularises the
    # whole active batch by 1e-8; both line searches still agree bitwise
    got = _first_batched_solve_singular(monkeypatch, alg._multistart_angles, (4, 4, 6))
    want = _first_batched_solve_singular(monkeypatch, _sequential_multistart_angles, (4, 4, 6))
    assert len(got) == 1
    assert _bits(got) == _bits(want)


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
    assert [r.hex() for r in rep.y4_roots] == Y4_ROOTS_HEX
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
