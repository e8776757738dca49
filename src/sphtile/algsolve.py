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
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from . import vertexcomb
from .sphkernel import (
    TWO_PI,
    DomainError,
    NoSolution,
    _convex_angle,
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
    """

    __slots__ = ()

    def __new__(cls, angles: Mapping[int, float], edge: float):
        return super().__new__(cls, MappingProxyType(dict(angles)), edge)

    @classmethod
    def _make(cls, iterable) -> "AngleAssignment":
        return cls(*iterable)

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


class Polynomial(NamedTuple):
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
    still told apart.  Multiple roots are reported once.  A bound that is
    infinite or NaN raises ``ValueError``.
    """
    for name, bound in (("lo", lo), ("hi", hi)):
        if bound != bound or bound in (math.inf, -math.inf):
            raise ValueError(f"bound {name} must be finite, got {bound!r}")
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
    """The candidate solutions that solve the type, sorted.

    Each candidate is a pair (angle dict, edge).  An edge of None is
    derived from the smallest face by ``from_angles``, and the candidate
    dropped when that face is no spherical polygon; a known edge is kept
    as it is, since ``acos`` of an edge cosine near 1 loses its digits.
    Drops a candidate that misses a companion relation or the angle sum
    2*pi by more than 1e-9.
    """
    out = []
    for angles, x in candidates:
        if x is not None:
            assign = AngleAssignment(angles, x)
        else:
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
    that face reflex (2*pi - alpha); two reflex faces exceed 2*pi.  A
    reflex branch whose other faces already fill half a turn at their
    planar angles has no root, and is skipped (so 4.4.m and 3.3.3.m scan
    the all-convex branch alone).  Every other branch is sampled at
    ``_SCAN_POINTS`` edges and every sign change is bisected in x to the
    last bit; a solution's edge is that x.  The open end x -> 0 is
    excluded: a branch's value there is an exact rational multiple of pi,
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
        return _accepted(sizes, counts, [({sizes[0]: TWO_PI / len(entries)}, None)])

    try:
        top = TWO_PI / sizes[-1]
    except OverflowError:
        raise DomainError(
            f"face size {sizes[-1]} is too large: it is past the range of a double"
        ) from None
    grid = [top * i / _SCAN_POINTS for i in range(1, _SCAN_POINTS + 1)]
    hemisphere = entries in _HEMISPHERE_TYPES
    roots = [(top, None)] if hemisphere else []
    # the all-convex sum at the planar limit, minus 2*pi, in units of pi
    planar = sum(Fraction(c * (m - 2), m) for m, c in zip(sizes, counts)) - 2
    per_size = [(m, c, math.pi / m) for m, c in zip(sizes, counts)]
    # Reflex branch r has no root when the other faces fill half a turn at
    # their planar angles: sum_{m != r} c_m (1 - 2/m) >= 1.  With c_r = 1
    # that sum is planar + 1 + 2/r, so the test is planar + 2/r >= 0,
    # decided on rationals with no tolerance.  Proof: the branch's equation
    # is sum_{m != r} c_m alpha_m(x) = alpha_r(x).  Every convex angle
    # strictly exceeds its planar angle for x > 0, so the left side is
    # > pi * sum_{m != r} c_m (1 - 2/m) >= pi.  On (0, 2*pi/M] the r-gon's
    # angle is at most pi, equal only for r = M at x = 2*pi/M.  So the left
    # side always exceeds the right.
    reflexes = [m for m, c in zip(sizes, counts) if c == 1 and planar + Fraction(2, m) < 0]
    for reflex in [None] + reflexes:

        def excess(x, reflex=reflex):
            # sum(c * _branch_angles(sizes, x, reflex)[m]) - 2*pi, bit for bit
            if not 0.0 < x < math.pi:
                raise DomainError(f"edge length must lie in (0, pi), got {x}")
            half = x / 2.0
            cos_half = math.cos(half)
            total = 0
            for m, c, pi_m in per_size:
                alpha = _convex_angle(m, pi_m, x, half, cos_half)
                total += c * (TWO_PI - alpha if m == reflex else alpha)
            return total - TWO_PI

        points = [(x, excess(x)) for x in grid]
        if hemisphere and reflex in (None, sizes[-1]):
            points.pop()  # the exact root counted above
        limit = planar if reflex is None else planar + Fraction(4, reflex)
        if limit:
            points.insert(0, (0.0, float(limit)))
        found = [
            _bisect(excess, x0, x1, v0 < 0)
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
