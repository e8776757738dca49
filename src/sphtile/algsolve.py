"""Solving the angle systems of tilings by regular polygons.

Given a vertex type (a multiset of face sizes), the angles of a tiling
realising it must satisfy the angle sum 2*pi at the vertex together with
the pairwise companion relation of :mod:`sphtile.sphkernel`: all faces
share one edge length x.  ``solve_vertex_system`` solves the system in
that one unknown, bracketing and bisecting the angle sum as a function
of x on the all-convex branch and on each reflex branch that can hold a
root (a rational test on the planar angles skips the others), and
reading a hemisphere root at the end of the interval from the type; it
is the public angle solver, and ``solve_snub`` is its 3.3.3.3.m case.

The module also carries exact golden data for the hardest case, the
degree-4 type {3,4,4,5}: the reduced Groebner basis of its polynomial
system and the four closed-form candidate solutions, used as an
independent check of the solver rather than as the solver.

``Polynomial`` implements exact rational univariate polynomials with
Sturm-sequence real root isolation, its signs decided on integers, used
both for the Groebner check and for the snub-dodecahedron sextic.
``AngleAssignment``, ``Polynomial``, ``GroebnerCandidate`` and
``GroebnerReport`` are NamedTuples: they compare and hash by their fields,
and their fields are read-only.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import vertexcomb
from .sphkernel import (
    TWO_PI,
    DomainError,
    NoSolution,
    _check_size,
    _convex_angle,
    _shown,
    angle_from_edge,
    companion_residual,
    edge_cosine,
    edge_from_angle,
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


class _AngleFields(NamedTuple):
    angles: Mapping[int, float]
    edge: float


class AngleAssignment(_AngleFields):
    """Interior angle per face size, plus the common edge length.

    The pair determines the metric data of a tiling: every m-gon in an
    edge-to-edge tiling by regular polygons is congruent, so one angle per
    size suffices.  ``angles`` is a read-only copy of the mapping given.
    The edge is a geodesic length in (0, pi], pi the meridian of a
    hosohedron; any other value, nan and inf among them, raises
    ``DomainError`` (a non-number ``TypeError``), so no assignment, one read
    by ``load_json`` included, carries an edge that no check can compare.
    """

    __slots__ = ()

    def __new__(cls, angles: Mapping[int, float], edge: float):
        if not 0.0 < edge <= math.pi:
            raise DomainError(f"edge must lie in (0, pi], got {_shown(edge)}")
        return super().__new__(cls, MappingProxyType(dict(angles)), edge)

    @classmethod
    def _make(cls, iterable) -> "AngleAssignment":
        return cls(*iterable)

    @classmethod
    def from_angles(cls, angles: Mapping[int, float]) -> "AngleAssignment":
        """Build an assignment, deriving the edge from the smallest size
        (``edge_from_angle``; pi for a digon); ``DomainError`` for an empty
        mapping or a smallest size with no edge."""
        sizes = sorted(angles)
        if not sizes:
            raise DomainError("empty angle assignment")
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


class Polynomial(NamedTuple):
    """Univariate polynomial with exact rational coefficients, ascending."""

    coeffs: tuple

    @classmethod
    def from_coeffs(cls, seq: Sequence) -> "Polynomial":
        """The polynomial of ``seq``, ascending; ``DomainError`` unless each
        coefficient is a finite rational that ``Fraction`` reads (nan and
        inf are not)."""
        try:
            c = [Fraction(v) for v in seq]
        except (ValueError, OverflowError):  # nan, inf, or no number
            raise DomainError("every coefficient must be a finite rational") from None
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

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


def _integer_chain(chain) -> list:
    """Each member times the lcm of its denominators: integer coefficients, descending.

    The scale is positive, so every member keeps its signs.
    """
    out = []
    for q in chain:
        scale = math.lcm(*(c.denominator for c in q.coeffs))
        out.append(tuple(c.numerator * (scale // c.denominator) for c in reversed(q.coeffs)))
    return out


def _scaled_value(coeffs, num: int, den: int) -> int:
    """den**deg * q(num / den), for q of descending integer ``coeffs`` and den > 0.

    Horner on the homogenised polynomial: an exact integer with the sign
    of q(num / den).
    """
    acc = coeffs[0]
    power = den
    for c in coeffs[1:]:
        acc = acc * num + c * power
        power *= den
    return acc


def _sign_variations(chain, num: int, den: int) -> int:
    """Sign changes along an integer chain at num / den, zeros skipped."""
    count = last = 0
    for coeffs in chain:
        v = _scaled_value(coeffs, num, den)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return count


def isolate_roots(p: Polynomial, lo: float, hi: float) -> list[float]:
    """All distinct real roots of p in [lo, hi], each to below 1e-17 absolute.

    Sturm counts on the squarefree part split [lo, hi] at midpoints until
    each half-open piece (a, b] holds one root; an exact bisection then
    narrows that piece below 1e-17.  Every point visited is the rational
    num / den, den the bounds' common denominator times a power of two,
    and every decision the sign of an exact integer: the chain member
    scaled to integer coefficients, evaluated at num / den and multiplied
    by den**degree.  Both scales are positive, so the signs are those of
    the rational values, and roots closer than any float tolerance are
    still told apart.  Multiple roots are reported once.  A bound that no
    finite double holds (nan, inf, 10**400), the zero polynomial and
    lo > hi raise ``ValueError``.
    """
    for name, bound in (("lo", lo), ("hi", hi)):
        if not abs(bound) <= sys.float_info.max:
            raise ValueError(f"bound {name} must be finite within a double, got {_shown(bound)}")
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if lo > hi:
        raise ValueError("empty interval")
    g = p.squarefree_part()
    if g.degree == 0:
        return []
    chain = _integer_chain(_sturm_chain(g))
    g_int = chain[0]  # g itself, scaled to integer coefficients
    a, da = Fraction(lo).as_integer_ratio()
    b, db = Fraction(hi).as_integer_ratio()
    den = math.lcm(da, db)
    a, b = a * (den // da), b * (den // db)
    roots = {a / den} if _scaled_value(g_int, a, den) == 0 else set()
    stack = [(a, b, den)]
    while stack:
        a, b, den = stack.pop()
        # V(a) - V(b) counts the roots in (a, b]
        n = _sign_variations(chain, a, den) - _sign_variations(chain, b, den)
        if n > 1:
            stack += [(2 * a, a + b, 2 * den), (a + b, 2 * b, 2 * den)]
        elif n == 1:
            # the one root is b, or lies in (a, b) where g(b) != 0 fixes its side
            gb = _scaled_value(g_int, b, den)
            while gb and (b - a) * 10**17 >= den:  # width at least 1e-17
                mid, den = a + b, 2 * den
                gm = _scaled_value(g_int, mid, den)
                if gm == 0 or (gm > 0) == (gb > 0):
                    a, b, gb = 2 * a, mid, gm
                else:
                    a, b = mid, 2 * b
            roots.add(b / den if gb == 0 else (a + b) / (2 * den))
    return sorted(roots)


# --------------------------------------------------------------------------
# vertex-type angle systems
# --------------------------------------------------------------------------

#: sampled edges per branch in the sign-change scan of ``solve_vertex_system``
_SCAN_POINTS = 32

#: a bound on the rounding of the all-convex excess, far above it (``_certified``)
_MARGIN = 1e-12

#: at most this many Illinois steps seed ``_certified``, stopping once the
#: excess is below ``_SEED_STOP``; they choose where to evaluate, never a sign
_SEED_STEPS = 10
_SEED_STOP = 1e-8


def _vertex_type(t: Sequence[int]) -> tuple:
    """The sorted entries of ``t``; ``DomainError`` unless each is a face
    size (``_check_size``) and together they are admissible."""
    entries = tuple(sorted(_check_size(m) for m in t))
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


def _certified(excess, top: float, f0: float):
    """The all-convex ``excess`` on (0, top], each sign it already decides
    answered without evaluating.

    The returned g takes the arguments of ``excess``.  It answers -1.0 for
    x <= a and 1.0 for x >= b, and evaluates ``excess`` in between,
    raising a to an x that computed below -``_MARGIN`` and lowering b to one
    that computed above it.  A value between, which certifies nothing, is
    kept and not evaluated twice.  Every answer has the sign ``excess`` would
    compute, so a scan and a bisection that read only signs visit the same
    points and return the same bits with g as with ``excess``.

    Lemma.  Let p_m = fl(pi/m) and h = x/2.  ``_convex_angle`` computes
    2*acos(sqrt(sin(p_m - h) * sin(p_m + h)) / cos h), and in exact
    arithmetic sin(p - h) * sin(p + h) / cos(h)**2 = 1 - cos(p)**2 / cos(h)**2,
    so the exact value alpha~_m(x) = 2*acos(sqrt(1 - cos(p_m)**2 / cos(h)**2))
    strictly increases for 0 <= h <= p_m < pi/2.  Every query x <= top =
    fl(2*pi/M), M the largest size, has h <= fl(pi/M) <= p_m (halving is
    exact and rounding monotone).  So F~(x) = sum c * alpha~_m(x) - fl(2*pi)
    strictly increases on (0, top].  The computed excess differs from F~ by
    at most eps, from the roundings of sin, cos and acos (each within 1 ulp,
    as libm gives them), of sqrt (correctly rounded) and of the sum.
    Against 40-digit mpmath at float x, over the candidate types to size 40
    and 4.4.M and 3.3.3.M up to M = 5 * 10**15, at the scan grid, within
    one ulp of top and down to top * 2**-59, the worst was 3.2e-15; a test
    holds it below ``_MARGIN`` / 4.  ``_MARGIN`` = 1e-12 > 2 * eps.
    Proof of the claim: if excess(a) < -``_MARGIN``, then every x <= a has
    excess(x) <= F~(x) + eps <= F~(a) + eps <= excess(a) + 2 * eps < 0; if
    excess(b) > ``_MARGIN``, every x >= b computes positive the same way.

    The first evaluations place a and b near the root: Illinois steps from
    the planar limit (0, ``f0``) and the top, then one probe each side of the
    secant estimate through the last two evaluations.  They only narrow
    (a, b).
    """
    a, b = 0.0, math.inf  # every x <= a computes negative, every x >= b positive
    near = {}  # the values within _MARGIN of 0, which certify nothing

    def g(x):
        nonlocal a, b
        if x <= a:
            return -1.0
        if x >= b:
            return 1.0
        v = near.get(x)
        if v is None:
            v = excess(x)
            if v < -_MARGIN:
                a = x
            elif v > _MARGIN:
                b = x
            else:
                near[x] = v
        return v

    x0, v0, x1, v1 = 0.0, f0, top, g(top)
    prev, last = (x0, v0), (x1, v1)
    side = 0
    for _ in range(_SEED_STEPS):
        if not (v0 < 0.0 < v1 and abs(last[1]) > _SEED_STOP):
            break
        x = x1 - v1 * (x1 - x0) / (v1 - v0)
        if not x0 < x < x1:
            break
        v = g(x)  # x0 < x < x1 lies in (a, b): evaluated
        prev, last = last, (x, v)
        if v < 0.0:
            x0, v0 = x, v
            if side < 0:
                v1 /= 2.0
            side = -1
        else:
            x1, v1 = x, v
            if side > 0:
                v0 /= 2.0
            side = 1
    slope = (last[1] - prev[1]) / (last[0] - prev[0])
    if slope > 0.0:
        r, d = last[0] - last[1] / slope, 2.0 * _MARGIN / slope
        for x in (r - d, r + d):
            if 0.0 < x < top:
                g(x)
    return g


def _accepted(sizes, counts, candidates) -> list[AngleAssignment]:
    """The candidate solutions that solve the type, sorted.

    Each candidate is a pair (angle dict, edge), the edge the one its
    solver found (``acos`` of an edge cosine near 1 would lose its digits),
    and becomes ``AngleAssignment(angles, edge)``.  Drops a candidate that
    misses a companion relation or the angle sum 2*pi by more than 1e-9.
    """
    out = []
    for angles, x in candidates:
        assign = AngleAssignment(angles, x)
        if assign.max_companion_residual() > 1e-9:
            continue
        if abs(sum(c * assign.angles[m] for m, c in zip(sizes, counts)) - TWO_PI) > 1e-9:
            continue
        out.append(assign)
    out.sort(key=lambda a: tuple(a.angles[m] for m in sizes))
    return out


def _one_solution(sols, what: str) -> AngleAssignment:
    """The one solution in ``sols``; ``NoSolution`` naming the count unless
    there is exactly one."""
    if len(sols) != 1:
        raise NoSolution(f"{what}: {len(sols)} solutions, not one")
    return sols[0]


def solve_vertex_system(t: Sequence[int]) -> list[AngleAssignment]:
    """All angle assignments realising the vertex type ``t``.

    Every face shares one edge length x, so the type (m_1^c_1 ... m_k^c_k)
    is one equation, sum c_i * alpha(m_i, x) = 2*pi on (0, 2*pi/M] with M
    the largest size and ``angle_from_edge`` giving the convex angle.  One
    branch takes every face convex, and one more per size of count 1 takes
    that face reflex (2*pi - alpha); two reflex faces exceed 2*pi.  A
    reflex branch whose other faces already fill half a turn at their
    planar angles has no root, and is skipped (so 4.4.m and 3.3.3.m scan
    the all-convex branch alone).  Every other branch is sampled at
    ``_SCAN_POINTS`` edges and every sign change is bisected in x to the
    last bit; a solution's edge is that x.  The all-convex branch strictly
    increases in x, and ``_certified`` answers each scan and bisection
    query whose sign that already decides (past an evaluation beyond
    ``_MARGIN``) without evaluating the excess; the points visited and the
    bits found are those of the plain excess, which every reflex branch
    keeps.  The open end x -> 0 is excluded: a branch's value there is an
    exact rational multiple of pi, an integer over the lcm of the sizes,
    and a branch that vanishes there (the planar limit) gets no bracket
    from it.  A root at x = 2*pi/M puts the M-gon at
    exactly pi; it is read from the type, one of the three
    ``_HEMISPHERE_TYPES``, and counted once.  Every solution passes the
    companion and angle-sum checks to 1e-9.  Solutions come sorted by
    their angles; an empty list when none exists.  Deterministic.  A face
    size so large that the excess rounds away, so that it changes sign at
    x = 0 (from about M = 10**16 on) or more than once on the increasing
    all-convex branch (4.4.M at M = 5 * 10**15), or that has no double at
    all, raises ``DomainError``.
    """
    entries = _vertex_type(t)
    sizes = sorted(set(entries))
    counts = [entries.count(m) for m in sizes]
    if len(sizes) == 1:
        m, alpha = sizes[0], TWO_PI / len(entries)
        return _accepted(sizes, counts, [({m: alpha}, edge_from_angle(m, alpha))])

    top = TWO_PI / sizes[-1]
    grid = [top * i / _SCAN_POINTS for i in range(1, _SCAN_POINTS + 1)]
    hemisphere = entries in _HEMISPHERE_TYPES
    roots = [(top, None)] if hemisphere else []
    den = math.lcm(*sizes)
    # the all-convex sum at the planar limit, minus 2*pi, in units of pi/den
    planar = sum(c * (m - 2) * (den // m) for m, c in zip(sizes, counts)) - 2 * den
    per_size = [(m, c, math.pi / m) for m, c in zip(sizes, counts)]
    # Reflex branch r has no root when the other faces fill half a turn at
    # their planar angles: sum_{m != r} c_m (1 - 2/m) >= 1.  With c_r = 1
    # that sum is planar + 1 + 2/r, so the test is planar + 2/r >= 0,
    # decided on integers over den with no tolerance.  Proof: the branch's equation
    # is sum_{m != r} c_m alpha_m(x) = alpha_r(x).  Every convex angle
    # strictly exceeds its planar angle for x > 0, so the left side is
    # > pi * sum_{m != r} c_m (1 - 2/m) >= pi.  On (0, 2*pi/M] the r-gon's
    # angle is at most pi, equal only for r = M at x = 2*pi/M.  So the left
    # side always exceeds the right.
    reflexes = [m for m, c in zip(sizes, counts) if c == 1 and planar + 2 * (den // m) < 0]
    for reflex in [None] + reflexes:

        def excess(x, reflex=reflex):
            # sum(c * _branch_angles(sizes, x, reflex)[m]) - 2*pi, bit for bit
            half = x / 2.0
            cos_half = math.cos(half)
            total = 0
            for m, c, pi_m in per_size:
                alpha = _convex_angle(m, pi_m, x, half, cos_half)
                total += c * (TWO_PI - alpha if m == reflex else alpha)
            return total - TWO_PI

        f = _certified(excess, top, planar / den * math.pi) if reflex is None else excess
        points = [(x, f(x)) for x in grid]
        if hemisphere and reflex in (None, sizes[-1]):
            points.pop()  # the exact root counted above
        limit = planar if reflex is None else planar + 4 * (den // reflex)
        if limit:
            # int true division rounds correctly, as float(Fraction) does
            points.insert(0, (0.0, limit / den))
        found = [
            _bisect(f, x0, x1, v0 < 0)
            for (x0, v0), (x1, v1) in zip(points, points[1:])
            if (v0 < 0) != (v1 < 0)
        ]
        # a root at x = 0 (the excess had the wrong sign for its planar
        # limit down to the last float), or a second root of the all-convex
        # excess, which strictly increases in x: it is rounding, not angles
        if 0.0 in found or (reflex is None and len(found) > 1):
            raise DomainError(
                f"face size {sizes[-1]} is too large: its angle sum "
                "cannot be told from 2*pi in double precision"
            )
        roots += [(x, reflex) for x in found]

    return _accepted(
        sizes, counts, ((_branch_angles(sizes, x, reflex), x) for x, reflex in roots)
    )


def solve_snub(m: int) -> AngleAssignment:
    """Angles of the snub vertex type 3.3.3.3.m, for m = 4 or 5.

    The one solution of ``solve_vertex_system`` on (3, 3, 3, 3, m): the
    snub cube for m = 4, the snub dodecahedron for m = 5.
    """
    if m not in (4, 5):
        raise DomainError(f"snub type requires m in {{4, 5}}, got {_shown(m)}")
    return _one_solution(solve_vertex_system((3, 3, 3, 3, m)), f"snub type 3.3.3.3.{m}")


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


class GroebnerCandidate(NamedTuple):
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


class GroebnerReport(NamedTuple):
    candidates: tuple
    surviving: tuple
    y4_roots: tuple
    basis_residual_max: float


def verify_groebner_candidates() -> GroebnerReport:
    """Reconstruct the {3,4,4,5} candidates from the embedded basis.

    The basis is triangular.  y4 runs over the roots of its univariate row
    0; y5 comes from row 1, or from row 6's quadratic at the one root where
    row 1's y5 coefficient vanishes (y4 = sqrt(3)/2); rows 2-5 are then
    linear in x4, x3, x5 and y3 in turn.  Every basis polynomial must vanish
    at every candidate (within 1e-7).  Each ``REFERENCE_CANDIDATES_3445``
    row in order takes the nearest remaining candidate by max |delta| over
    (x3, x4, x5), ties to the earlier, within 1e-9.  Exactly one candidate
    may pass both filters: a3 < a4 < a5, and a3 + 2*a4 + a5 = 2*pi within
    1e-8.
    """
    basis = GROEBNER_BASIS_3445
    y4_roots = tuple(isolate_roots(GROEBNER_UNIVARIATE_Y4, 1e-9, 1.0 - 1e-12))

    raw = []
    for y4 in y4_roots:
        c0, c1 = _coeffs_in_var(basis[1], _V["y5"], {_V["y4"]: y4})
        if abs(c1) > 1e-9:
            y5s = [-c0 / c1]
        else:
            c0, c1, c2 = _coeffs_in_var(basis[6], _V["y5"], {_V["y4"]: y4})
            root = math.sqrt(max(c1 * c1 - 4.0 * c2 * c0, 0.0))
            y5s = sorted([(-c1 - root) / (2.0 * c2), (-c1 + root) / (2.0 * c2)])
        for y5 in y5s:
            vals = {_V["y4"]: y4, _V["y5"]: y5}
            for poly, var in zip(basis[2:6], ("x4", "x3", "x5", "y3")):
                c0, c1 = _coeffs_in_var(poly, _V[var], vals)
                vals[_V[var]] = -c0 / c1
            raw.append(vals)

    worst = max((abs(_eval_monomials(poly, vals)) for vals in raw for poly in basis), default=0.0)
    if worst > 1e-7:
        raise RuntimeError(f"basis residual {worst} too large at a candidate")

    candidates = []
    for ref in REFERENCE_CANDIDATES_3445:
        dists = [max(abs(vals[_V[k]] - r) for k, r in zip(("x3", "x4", "x5"), ref)) for vals in raw]
        dist, i = min(zip(dists, range(len(raw))), default=(math.inf, None))
        if dist > 1e-9:
            raise RuntimeError("reconstructed candidates do not match reference triples")
        vals = raw.pop(i)
        x3, x4, x5, y3, y4, y5 = (vals[_V[name]] for name in GroebnerCandidate._fields[:6])
        a3, a4, a5 = (math.atan2(y, x) % TWO_PI for x, y in ((x3, y3), (x4, y4), (x5, y5)))
        ordered_ok, sum_ok = a3 < a4 < a5, abs(a3 + 2.0 * a4 + a5 - TWO_PI) < 1e-8
        candidates.append(GroebnerCandidate(x3, x4, x5, y3, y4, y5, (a3, a4, a5), ordered_ok, sum_ok))

    surviving = tuple(i for i, c in enumerate(candidates) if c.selected)
    if len(surviving) != 1:
        raise RuntimeError(f"expected exactly one surviving candidate, got {surviving}")
    return GroebnerReport(
        candidates=tuple(candidates),
        surviving=surviving,
        y4_roots=y4_roots,
        basis_residual_max=worst,
    )
