"""Solving the angle systems of tilings by regular polygons.

Given a vertex type (a multiset of face sizes), the angles of a tiling
realising it must satisfy the angle sum 2*pi at the vertex together with
the pairwise companion relation of :mod:`sphtile.sphkernel`: all faces
share one edge length x.  ``solve_vertex_system`` solves the system in
that one unknown, bracketing and bisecting the angle sum as a function
of x on each convex/reflex branch and reading a hemisphere root at the
end of the interval from the type; it is the public angle solver, and
``solve_snub`` is its 3.3.3.3.m case.  The former multistart Newton
solver survives only as ``_multistart_angles``, whose bits the catalog's
prism and antiprism angles keep until the benchmark reference that pins
them is re-recorded.

The module also carries exact golden data for the hardest case, the
degree-4 type {3,4,4,5}: the reduced Groebner basis of its polynomial
system and the four closed-form candidate solutions, used as an
independent check of the solver rather than as the solver.

``Polynomial`` implements exact rational univariate polynomials with
Sturm-sequence real root isolation, used both for the Groebner check and
for the snub-dodecahedron sextic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import vertexcomb
from .sphkernel import (
    TWO_PI,
    DomainError,
    NoSolution,
    angle_from_edge,
    companion_residual,
    edge_cosine,
    edge_from_angle,
    planar_angle,
)

__all__ = [
    "AngleAssignment",
    "Polynomial",
    "isolate_roots",
    "solve_vertex_system",
    "solve_snub",
    "verify_groebner_candidates",
    "snub_dodecahedron_cos",
    "GroebnerReport",
    "GroebnerCandidate",
]


# --------------------------------------------------------------------------
# angle assignments
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AngleAssignment:
    """Interior angle per face size, plus the common edge length.

    The pair determines the metric data of a tiling: every m-gon in an
    edge-to-edge tiling by regular polygons is congruent, so one angle per
    size suffices.
    """

    angles: Mapping[int, float]
    edge: float

    def __post_init__(self):
        object.__setattr__(self, "angles", MappingProxyType(dict(self.angles)))

    @classmethod
    def from_angles(cls, angles: Mapping[int, float]) -> "AngleAssignment":
        """Build an assignment, deriving the edge from the smallest size."""
        sizes = sorted(angles)
        if not sizes:
            raise ValueError("empty angle assignment")
        if sizes[0] == 2:
            return cls(angles, math.pi)
        return cls(angles, edge_from_angle(sizes[0], angles[sizes[0]]))

    @property
    def sizes(self) -> tuple:
        return tuple(sorted(self.angles))

    def angle(self, m: int) -> float:
        try:
            return self.angles[m]
        except KeyError:
            raise vertexcomb.MissingAngle(m) from None

    def max_companion_residual(self) -> float:
        worst = 0.0
        for m, n in itertools.combinations(self.sizes, 2):
            if m == 2 or n == 2:
                continue
            worst = max(worst, abs(companion_residual(m, self.angles[m], n, self.angles[n])))
        return worst

    def max_edge_residual(self) -> float:
        """Largest |cos(edge implied by a member) - cos(edge)|."""
        cx = math.cos(self.edge)
        worst = 0.0
        for m, alpha in self.angles.items():
            if m == 2:
                continue
            worst = max(worst, abs(edge_cosine(m, alpha) - cx))
        return worst

    def monotone_convex(self) -> bool:
        """Whether strictly convex members are angle-ordered by face size."""
        convex = [(m, a) for m, a in sorted(self.angles.items()) if a < math.pi - 1e-12 and m >= 3]
        return all(a < b for (_, a), (_, b) in zip(convex, convex[1:]))


# --------------------------------------------------------------------------
# exact univariate polynomials and root isolation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial with exact rational coefficients, ascending."""

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, seq: Sequence) -> "Polynomial":
        c = [Fraction(v) for v in seq]
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial.from_coeffs(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def _divmod(self, other: "Polynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.coeffs[-1]
        while len(rem) - 1 >= d and any(rem):
            k = len(rem) - 1 - d
            q = rem[-1] / lead
            quo[k] = q
            for i, c in enumerate(other.coeffs):
                rem[k + i] -= q * c
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                break
        return Polynomial.from_coeffs(quo), Polynomial.from_coeffs(rem)

    def squarefree_part(self) -> "Polynomial":
        g = _poly_gcd(self, self.derivative())
        if g.degree <= 0:
            return self
        quo, _ = self._divmod(g)
        return quo


def _poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero():
        _, r = a._divmod(b)
        a, b = b, r
    if a.is_zero():
        return a
    lead = a.coeffs[-1]
    return Polynomial.from_coeffs([c / lead for c in a.coeffs])


def _sturm_chain(p: Polynomial) -> list:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        _, r = chain[-2]._divmod(chain[-1])
        if r.is_zero():
            break
        chain.append(Polynomial.from_coeffs([-c for c in r.coeffs]))
    return [q for q in chain if not q.is_zero()]


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q.eval_exact(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_roots(p: Polynomial, lo: float, hi: float) -> list[float]:
    """All distinct real roots of p in [lo, hi], each to below 1e-17 absolute.

    Sturm counts on the squarefree part split [lo, hi] at midpoints until
    each half-open piece (a, b] holds one root; an exact bisection then
    narrows that piece below 1e-17.  Every decision is an exact
    ``Fraction`` sign, so roots closer than any float tolerance are still
    told apart.  Multiple roots are reported once.
    """
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if lo > hi:
        raise ValueError("empty interval")
    g = p.squarefree_part()
    if g.degree == 0:
        return []
    chain = _sturm_chain(g)
    a0 = Fraction(lo)
    roots = {float(a0)} if g.eval_exact(a0) == 0 else set()
    stack = [(a0, Fraction(hi))]
    while stack:
        a, b = stack.pop()
        # V(a) - V(b) counts the roots in (a, b]
        n = _sign_variations(chain, a) - _sign_variations(chain, b)
        if n > 1:
            mid = (a + b) / 2
            stack += [(a, mid), (mid, b)]
        elif n == 1:
            # the one root is b, or lies in (a, b) where g(b) != 0 fixes its side
            gb = g.eval_exact(b)
            while gb != 0 and b - a >= Fraction(1, 10**17):
                mid = (a + b) / 2
                gm = g.eval_exact(mid)
                if gm == 0 or (gm > 0) == (gb > 0):
                    b, gb = mid, gm
                else:
                    a = mid
            roots.add(float(b) if gb == 0 else float((a + b) / 2))
    return sorted(roots)


# --------------------------------------------------------------------------
# vertex-type angle systems
# --------------------------------------------------------------------------

#: sampled edges per branch in the sign-change scan of ``solve_vertex_system``
_SCAN_POINTS = 32


def _vertex_type(t: Sequence[int]) -> tuple:
    """The sorted entries of ``t``; ``DomainError`` unless it is admissible."""
    entries = tuple(sorted(int(m) for m in t))
    if not vertexcomb.admissible(entries):
        raise DomainError(
            f"vertex type {entries} is not admissible: it needs 3-5 entries of "
            "size >= 3 with sum (1 - 2/m) < 2"
        )
    return entries


#: the vertex types that close with their largest face a hemisphere, the
#: tiles of J1, J3 and J6.  At the edge x = 2*pi/M the M-gon's angle is
#: exactly pi, so the other faces sum to pi.  Each exceeds its planar angle,
#: at least pi/3, and is convex there, so the type is one M-gon and exactly
#: two faces a <= b < M (another M-gon would be pi itself).  With
#: cos(alpha) = (cos x - 1 - 2*cos(2*pi/m)) / (1 + cos x), their angles sum
#: to pi exactly when
#:
#:     cos(2*pi/M) = 1 + cos(2*pi/a) + cos(2*pi/b).
#:
#: The left side is below 1.  The right side is at least 1 unless a = 3
#: and b <= 5 (cos(2*pi/m) is negative only at m = 3, and at least 1/2 from
#: m = 6 on); there it is 0, 1/2 or cos(pi/5), giving M = 4, 6 or 10.
_HEMISPHERE_TYPES = frozenset({(3, 3, 4), (3, 4, 6), (3, 5, 10)})


def _branch_angles(sizes, x: float, reflex) -> dict:
    """Angle per size at edge x, the ``reflex`` size (if any) reflex."""
    angles = {m: angle_from_edge(m, x) for m in sizes}
    if reflex is not None:
        angles[reflex] = TWO_PI - angles[reflex]
    return angles


def _bisect(f, lo: float, hi: float, lo_negative: bool) -> float:
    """The sign change of f on [lo, hi], bisected down to adjacent floats."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if (f(mid) < 0) == lo_negative:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _accepted(sizes, counts, candidates) -> list[AngleAssignment]:
    """The candidate angle dicts that solve the type, sorted: both solvers' gate.

    Drops a candidate whose smallest face is no spherical polygon, or that
    misses a companion relation or the angle sum 2*pi by more than 1e-9.
    """
    out = []
    for angles in candidates:
        try:
            assign = AngleAssignment.from_angles(angles)
        except DomainError:
            continue
        if assign.max_companion_residual() > 1e-9:
            continue
        if abs(sum(c * assign.angles[m] for m, c in zip(sizes, counts)) - TWO_PI) > 1e-9:
            continue
        out.append(assign)
    out.sort(key=lambda a: tuple(a.angles[m] for m in sizes))
    return out


def _only_monotone_convex(sols, what: str) -> AngleAssignment:
    """The one monotone-convex solution of ``sols``; ``NoSolution`` unless exactly one."""
    convex = [s for s in sols if s.monotone_convex()]
    if len(convex) != 1:
        raise NoSolution(f"{what}: {len(convex)} monotone-convex solutions")
    return convex[0]


def solve_vertex_system(t: Sequence[int]) -> list[AngleAssignment]:
    """All angle assignments realising the vertex type ``t``.

    Every face shares one edge length x, so the type (m_1^c_1 ... m_k^c_k)
    is one equation, sum c_i * alpha(m_i, x) = 2*pi on (0, 2*pi/M] with M
    the largest size and ``angle_from_edge`` giving the convex angle.  One
    branch takes every face convex, and one more per size of count 1 takes
    that face reflex (2*pi - alpha); two reflex faces exceed 2*pi.  Each
    branch is sampled at ``_SCAN_POINTS`` edges and every sign change is
    bisected in x to the last bit.  The open end x -> 0 is excluded: a
    branch's value there is an exact rational multiple of pi, and a branch
    that vanishes there (the planar limit) gets no bracket from it.  A root
    at x = 2*pi/M puts the M-gon at exactly pi; it is read from the type,
    one of the three ``_HEMISPHERE_TYPES``, and counted once.  Every
    solution passes the companion and angle-sum checks to 1e-9.  Solutions
    come sorted by their angles; an empty list when none exists.
    Deterministic.
    """
    entries = _vertex_type(t)
    sizes = sorted(set(entries))
    counts = [entries.count(m) for m in sizes]
    if len(sizes) == 1:
        return _accepted(sizes, counts, [{sizes[0]: TWO_PI / len(entries)}])

    top = TWO_PI / sizes[-1]
    grid = [top * i / _SCAN_POINTS for i in range(1, _SCAN_POINTS + 1)]
    hemisphere = entries in _HEMISPHERE_TYPES
    roots = [(top, None)] if hemisphere else []
    # the all-convex sum at the planar limit, minus 2*pi, in units of pi
    planar = sum(Fraction(c * (m - 2), m) for m, c in zip(sizes, counts)) - 2
    for reflex in [None] + [m for m, c in zip(sizes, counts) if c == 1]:

        def excess(x, reflex=reflex):
            angles = _branch_angles(sizes, x, reflex)
            return sum(c * angles[m] for m, c in zip(sizes, counts)) - TWO_PI

        points = [(x, excess(x)) for x in grid]
        if hemisphere and reflex in (None, sizes[-1]):
            points.pop()  # the exact root counted above
        limit = planar if reflex is None else planar + Fraction(4, reflex)
        if limit:
            points.insert(0, (0.0, float(limit)))
        for (x0, v0), (x1, v1) in zip(points, points[1:]):
            if (v0 < 0) != (v1 < 0):
                roots.append((_bisect(excess, x0, x1, v0 < 0), reflex))

    return _accepted(sizes, counts, (_branch_angles(sizes, x, reflex) for x, reflex in roots))


def _multistart_angles(t: Sequence[int]) -> list[AngleAssignment]:
    """The former solver: damped multistart Newton, kept for the catalog families.

    ``catalog._family_angles`` takes the prism and antiprism angles from
    here, because their last bits, which depend on which start of a root's
    cluster sorts first, are pinned twice: ``perfbench/reference.json``
    pins the export bytes of prism(6), prism(12), antiprism(6) and
    antiprism(12), and ``tests/test_golden_bytes.py`` the report and export
    bytes of all 18 family members of ``all_entries()``.  It agrees with
    ``solve_vertex_system`` within 1e-12 up to m = 400; delete it when both
    are re-recorded.

    Solves the angle-sum equation together with every pairwise companion
    relation by damped multistart Newton on (cos a_i, sin a_i) with
    unit-circle constraints, then filters to angles in (0, 2*pi) with
    angle sum exactly 2*pi, deduplicates and polishes.  The line search is
    batched: each step evaluates the full step of every active start in
    one ``residuals`` call and the eight halvings of the starts it did not
    improve in one more, and each start takes its first improving factor.
    Rows never interact except through the singular-batch fallback, so
    every start computes what a start-at-a-time line search would.
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
                f.append(edge_cosine(sizes[i], a[i]) - edge_cosine(sizes[0], a[0]))
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
            candidates.append(dict(zip(sizes, polished)))
    return _accepted(sizes, counts, candidates)


def solve_snub(m: int) -> AngleAssignment:
    """Angles of the snub vertex type 3.3.3.3.m, for m = 4 or 5.

    The single monotone-convex solution of ``solve_vertex_system`` on
    (3, 3, 3, 3, m): the snub cube for m = 4, the snub dodecahedron for
    m = 5.
    """
    if m not in (4, 5):
        raise DomainError(f"snub type requires m in {{4, 5}}, got {m}")
    return _only_monotone_convex(solve_vertex_system((3, 3, 3, 3, m)), f"snub type 3.3.3.3.{m}")


# --------------------------------------------------------------------------
# golden data for the {3,4,4,5} system
# --------------------------------------------------------------------------

# Variables of the polynomial system, in order: y3, y4, y5, x3, x4, x5
# with x_i = cos(a_i), y_i = sin(a_i).  Monomials are exponent tuples.
_V = {"y3": 0, "y4": 1, "y5": 2, "x3": 3, "x4": 4, "x5": 5}


def _mono(coeff, **powers):
    expo = [0] * 6
    for name, e in powers.items():
        expo[_V[name]] = e
    return tuple(expo), coeff


GROEBNER_BASIS_3445 = tuple(
    dict(monos)
    for monos in (
        # univariate in y4
        [_mono(1600, y4=11), _mono(-2960, y4=9), _mono(1484, y4=7), _mono(-123, y4=5)],
        [
            _mono(2400, y4=10),
            _mono(-3840, y4=8),
            _mono(1326, y4=6),
            _mono(-160, y4=5, y5=1),
            _mono(153, y4=4),
            _mono(120, y4=3, y5=1),
        ],
        [
            _mono(-24000, y4=10),
            _mono(42000, y4=8),
            _mono(-18020, y4=6),
            _mono(-1, y4=4),
            _mono(-4, y4=2),
            _mono(-8, x4=1),
            _mono(8),
        ],
        [
            _mono(-24000, y4=10),
            _mono(42000, y4=8),
            _mono(-18020, y4=6),
            _mono(-1, y4=4),
            _mono(-4, y4=2),
            _mono(-16, x3=1),
            _mono(16),
        ],
        [
            _mono(-4800, y4=10),
            _mono(8880, y4=8),
            _mono(-4452, y4=6),
            _mono(-31, y4=4),
            _mono(140, y4=2),
            _mono(160, y4=1, y5=1),
            _mono(-80, x5=1),
            _mono(80),
        ],
        [
            _mono(-800, y4=9),
            _mono(1440, y4=7),
            _mono(-642, y4=5),
            _mono(-16, y4=4, y5=1),
            _mono(5, y4=3),
            _mono(4, y4=2, y5=1),
            _mono(2, y5=1),
            _mono(4, y4=1),
            _mono(2, y3=1),
        ],
        [
            _mono(-4800, y4=10),
            _mono(8880, y4=8),
            _mono(-3652, y4=6),
            _mono(-631, y4=4),
            _mono(-480, y4=3, y5=1),
            _mono(80, y5=2),
            _mono(280, y4=2),
            _mono(320, y4=1, y5=1),
        ],
    )
)

#: the basis's first row, which holds y4 alone
_ROW_Y4 = GROEBNER_BASIS_3445[0]
GROEBNER_UNIVARIATE_Y4 = Polynomial.from_coeffs(
    [_ROW_Y4.get((0, k, 0, 0, 0, 0), 0) for k in range(1 + max(e[1] for e in _ROW_Y4))]
)

_S5 = math.sqrt(5.0)

#: the four candidate (cos a3, cos a4, cos a5) triples of the {3,4,4,5} system
REFERENCE_CANDIDATES_3445 = (
    ((5.0 - 2.0 * _S5) / 20.0, -(5.0 + 2.0 * _S5) / 10.0, (5.0 + 9.0 * _S5) / 40.0),
    ((5.0 + 2.0 * _S5) / 20.0, (2.0 * _S5 - 5.0) / 10.0, (5.0 - 9.0 * _S5) / 40.0),
    (0.25, -0.5, -(3.0 * _S5 + 1.0) / 8.0),
    (0.25, -0.5, (3.0 * _S5 - 1.0) / 8.0),
)

#: snub-dodecahedron sextic: cos(a3) is one of its roots
SNUB_DODECAHEDRON_SEXTIC = Polynomial.from_coeffs([1, 0, -24, -24, 64, 128, 64])


def snub_dodecahedron_cos() -> float:
    """The sextic root in (0, 1) that solves the snub system for m = 5."""
    best, best_res = None, math.inf
    for r in isolate_roots(SNUB_DODECAHEDRON_SEXTIC, 0.0, 1.0):
        a3 = math.acos(r)
        am = TWO_PI - 4.0 * a3
        if not 0.0 < am < TWO_PI:
            continue
        res = abs(companion_residual(3, a3, 5, am))
        if res < best_res:
            best, best_res = r, res
    if best is None or best_res > 1e-9:
        raise NoSolution("no sextic root matches the snub system")
    return best


def _eval_monomials(poly: Mapping, values: dict) -> float:
    total = 0.0
    for expo, coeff in poly.items():
        term = float(coeff)
        for var, e in zip(range(6), expo):
            if e:
                term *= values[var] ** e
        total += term
    return total


def _coeffs_in_var(poly: Mapping, var: int, values: dict) -> list[float]:
    """Collapse a multivariate polynomial to coefficients in one variable."""
    out: dict[int, float] = {}
    for expo, coeff in poly.items():
        term = float(coeff)
        for v, e in zip(range(6), expo):
            if v == var or not e:
                continue
            term *= values[v] ** e
        out[expo[var]] = out.get(expo[var], 0.0) + term
    top = max(out) if out else 0
    return [out.get(i, 0.0) for i in range(top + 1)]


@dataclass(frozen=True)
class GroebnerCandidate:
    x3: float
    x4: float
    x5: float
    y3: float
    y4: float
    y5: float
    angles: tuple
    ordered_ok: bool
    sum_ok: bool

    @property
    def selected(self) -> bool:
        return self.ordered_ok and self.sum_ok


@dataclass(frozen=True)
class GroebnerReport:
    candidates: tuple
    surviving: tuple
    y4_roots: tuple
    basis_residual_max: float


def verify_groebner_candidates() -> GroebnerReport:
    """Reconstruct the {3,4,4,5} candidates from the embedded basis.

    Back-substitutes through the reduced basis starting from the roots of
    its univariate member, checks every basis polynomial vanishes at each
    candidate, matches the candidates against the exact reference triples,
    and applies the two admissibility filters (angle ordering and angle
    sum).  Exactly one candidate must survive.
    """
    basis = GROEBNER_BASIS_3445
    y4_roots = tuple(isolate_roots(GROEBNER_UNIVARIATE_Y4, 1e-9, 1.0 - 1e-12))

    raw = []
    for y4 in y4_roots:
        vals = {_V["y4"]: y4}
        lin = _coeffs_in_var(basis[1], _V["y5"], vals)
        if len(lin) >= 2 and abs(lin[1]) > 1e-9:
            y5s = [-lin[0] / lin[1]]
        else:
            quad = _coeffs_in_var(basis[6], _V["y5"], vals)
            disc = quad[1] * quad[1] - 4.0 * quad[2] * quad[0]
            disc = max(disc, 0.0)
            y5s = sorted(
                [(-quad[1] - math.sqrt(disc)) / (2.0 * quad[2]),
                 (-quad[1] + math.sqrt(disc)) / (2.0 * quad[2])]
            )
        for y5 in y5s:
            vals2 = dict(vals)
            vals2[_V["y5"]] = y5
            for poly, var in ((basis[2], _V["x4"]), (basis[3], _V["x3"]), (basis[4], _V["x5"]), (basis[5], _V["y3"])):
                lin = _coeffs_in_var(poly, var, vals2)
                vals2[var] = -lin[0] / lin[1]
            raw.append(vals2)

    worst = 0.0
    for vals in raw:
        for poly in basis:
            worst = max(worst, abs(_eval_monomials(poly, vals)))
    if worst > 1e-7:
        raise RuntimeError(f"basis residual {worst} too large at a candidate")

    # order candidates to match the reference rows
    ordered = []
    used = set()
    for ref in REFERENCE_CANDIDATES_3445:
        best_i, best_d = None, math.inf
        for i, vals in enumerate(raw):
            if i in used:
                continue
            d = max(
                abs(vals[_V["x3"]] - ref[0]),
                abs(vals[_V["x4"]] - ref[1]),
                abs(vals[_V["x5"]] - ref[2]),
            )
            if d < best_d:
                best_i, best_d = i, d
        if best_i is None or best_d > 1e-9:
            raise RuntimeError("reconstructed candidates do not match reference triples")
        used.add(best_i)
        ordered.append(raw[best_i])

    candidates = []
    for vals in ordered:
        a3 = math.atan2(vals[_V["y3"]], vals[_V["x3"]]) % TWO_PI
        a4 = math.atan2(vals[_V["y4"]], vals[_V["x4"]]) % TWO_PI
        a5 = math.atan2(vals[_V["y5"]], vals[_V["x5"]]) % TWO_PI
        candidates.append(
            GroebnerCandidate(
                x3=vals[_V["x3"]],
                x4=vals[_V["x4"]],
                x5=vals[_V["x5"]],
                y3=vals[_V["y3"]],
                y4=vals[_V["y4"]],
                y5=vals[_V["y5"]],
                angles=(a3, a4, a5),
                ordered_ok=a3 < a4 < a5,
                sum_ok=abs(a3 + 2.0 * a4 + a5 - TWO_PI) < 1e-8,
            )
        )

    surviving = tuple(i for i, c in enumerate(candidates) if c.selected)
    if len(surviving) != 1:
        raise RuntimeError(f"expected exactly one surviving candidate, got {surviving}")
    return GroebnerReport(
        candidates=tuple(candidates),
        surviving=surviving,
        y4_roots=y4_roots,
        basis_residual_max=worst,
    )
