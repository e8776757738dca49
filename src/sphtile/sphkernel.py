"""Spherical trigonometry of regular polygons on the unit sphere.

A regular spherical m-gon is equilateral with all interior angles equal.
Triangulating it from its centre into m isosceles triangles (base = the
edge x, legs = the circumradius r, apex angle 2*pi/m) and applying the
spherical cosine laws gives three identities that tie together the face
size m, the interior angle alpha, the edge length x and the circumradius
r:

    (1 + cos x)(1 + cos alpha) / 2  =  cos x - cos(2*pi/m)
    cos r  =  cot(alpha/2) * cot(pi/m)
    cos x  =  (1 + cos alpha + 2*cos(2*pi/m)) / (1 - cos alpha)

Two regular polygons (an m-gon and an n-gon) share an edge length exactly
when

    (1 - cos a_n)(1 + cos a_m + 2*cos(2*pi/m))
        = (1 - cos a_m)(1 + cos a_n + 2*cos(2*pi/n)),

which is linear in either cosine; this module calls it the companion
relation.  All identities involve the angle only through its cosine, so an
angle alpha and its reflex complement 2*pi - alpha (the same polygon seen
from the other side) always satisfy them together.  Conversion functions
return the convex branch; callers model concave faces with the explicit
complement.

Angles are plain floats in radians.  Face sizes are integral numbers >= 3
that a double holds (``_check_size``), except in ``polygon_area``, which
also takes the digon (m = 2), and in ``companion_residual``, whose second
size is any finite real >= 3.  An angle argument lies in (0, 2*pi)
(``_check_angle``).  Every public function checks its arguments on entry
and raises ``DomainError`` for one out of range, nan and inf among them;
a non-number raises ``DomainError`` as a size and Python's ``TypeError``
as an angle.
"""

from __future__ import annotations

import math

__all__ = [
    "DomainError",
    "NoSolution",
    "planar_angle",
    "edge_cosine",
    "angle_from_edge",
    "edge_from_angle",
    "circumradius",
    "polygon_area",
    "companion_residual",
    "solve_companion_angle",
    "solve_companion_size",
]

TWO_PI = 2.0 * math.pi


class DomainError(ValueError):
    """Raised when an input lies outside the admissible geometric range."""


class NoSolution(RuntimeError):
    """Raised when an equation has no root in the admissible range."""


def planar_angle(m: int) -> float:
    """Interior angle of a planar regular m-gon, the x -> 0 limit."""
    _check_size(m)
    return (1.0 - 2.0 / m) * math.pi


def _check_size(m: int, least: int = 3, most: int | None = None, what: str = "face size") -> int:
    """m as an int; ``DomainError`` unless m is an integral number >= ``least``
    that a double holds (and, given ``most``, at most ``most``).

    The one count rule of the package, for face sizes and for the other
    counts (family sizes, ``max_size``, ``arc_steps``), which name
    themselves by ``what``: 4 and 4.0 pass; 5.5, "5", inf, nan and 10**400
    do not.  A face size that passes still has no edge at an angle whose
    edge cosine reaches 1 - 1e-15, at or below the planar limit or at its
    reflex complement (``_edge_cosine_or_none``).
    """
    try:
        ok = math.isfinite(m) and math.floor(m) == m >= least and (most is None or m <= most)
    except (TypeError, ValueError, OverflowError):  # not a real, or past a double
        ok = False
    if not ok:
        span = f">= {least} within a double" if most is None else f"between {least} and {most}"
        raise DomainError(f"{what} must be an integer {span}, got {_shown(m)}")
    return int(m)


def _shown(value) -> str:
    """repr(value), or the bit length of an int past a double, some of which
    (over 4300 digits) have no repr."""
    big = isinstance(value, int) and value.bit_length() > 1024
    return f"a {value.bit_length()}-bit integer" if big else repr(value)


def _check_angle(alpha: float) -> None:
    """``DomainError`` unless the angle lies in (0, 2*pi); nan does not."""
    if not 0.0 < alpha < TWO_PI:
        raise DomainError(f"angle must lie in (0, 2*pi), got {alpha}")


def edge_cosine(m: int, alpha: float) -> float:
    """cos x of the regular m-gon with angle alpha, by the third identity.

    At or below the planar limit, and at or above its reflex complement,
    the value is 1 or more: the m-gon has no edge there.  An angle whose
    cosine rounds to 1 (within about 1e-8 of 0 or 2*pi) raises
    ``DomainError``, as the identity would divide by 0.
    """
    _check_size(m)
    _check_angle(alpha)
    ca = math.cos(alpha)
    if ca == 1.0:
        raise DomainError(f"angle {alpha} has a cosine that rounds to 1: no {m}-gon edge")
    return (1.0 + ca + 2.0 * math.cos(TWO_PI / m)) / (1.0 - ca)


def _edge_cosine_or_none(m: int, alpha: float) -> float | None:
    """``edge_cosine(m, alpha)``, or None when the m-gon has no edge.

    The no-edge rule: the edge cosine reaches 1 - 1e-15, which happens at
    or below the planar limit (1 - 2/m)*pi, at or above its reflex
    complement, and where cos(alpha) rounds to 1.
    """
    if math.cos(alpha) == 1.0:  # within rounding of 0 or 2*pi: cos x would be +inf
        return None
    cx = edge_cosine(m, alpha)
    return None if cx >= 1.0 - 1e-15 else cx


def angle_from_edge(m: int, x: float) -> float:
    """Interior angle of the regular m-gon with geodesic edge length x.

    Returns the convex solution in ((1 - 2/m)*pi, pi]; the concave
    companion is its reflex complement 2*pi - alpha.  The first identity
    in half angles, cos(alpha/2) = sqrt(sin(pi/m - x/2) * sin(pi/m + x/2))
    / cos(x/2), cancels no digits where a large face's angle nears pi.
    """
    _check_size(m)
    if not 0.0 < x < math.pi:
        raise DomainError(f"edge length must lie in (0, pi), got {x}")
    half = x / 2.0
    return _convex_angle(m, math.pi / m, x, half, math.cos(half))


def _convex_angle(m: int, pi_m: float, x: float, half: float, cos_half: float) -> float:
    """``angle_from_edge`` past its checks on m and x, given pi/m, x/2 and cos(x/2).

    Callers that sweep x over fixed sizes pass the per-size and per-edge
    constants once; the float operations are those of ``angle_from_edge``.
    """
    near = math.sin(pi_m - half)
    # x = 2*pi/m (near = 0) is the hemisphere boundary, angle exactly pi
    if near < 0.0:
        if math.cos(x) < math.cos(TWO_PI / m) - 1e-12:
            raise DomainError(f"no spherical {m}-gon with edge {x}: need x <= 2*pi/{m}")
        near = 0.0
    return 2.0 * math.acos(math.sqrt(near * math.sin(pi_m + half)) / cos_half)


def edge_from_angle(m: int, alpha: float) -> float:
    """Geodesic edge length of the regular m-gon with interior angle alpha.

    ``DomainError`` when the m-gon has no edge: the edge cosine reaches
    1 - 1e-15, at or below the planar limit (1 - 2/m)*pi or at or above its
    reflex complement.
    """
    _check_size(m)
    _check_angle(alpha)
    cx = _edge_cosine_or_none(m, alpha)
    if cx is None:
        side = "at or below" if alpha < math.pi else "at or above the reflex complement of"
        raise DomainError(f"angle {alpha} is {side} the planar limit for m={m}")
    if cx < -1.0:
        if cx < -1.0 - 1e-12:
            raise DomainError(f"no spherical {m}-gon with angle {alpha}")
        cx = -1.0
    return math.acos(cx)


def circumradius(m: int, alpha: float) -> float:
    """Geodesic distance from the centre of a regular m-gon to a vertex.

    Equal to pi/2 exactly when alpha = pi (the hemisphere case); larger
    for concave polygons.
    """
    _check_size(m)
    _check_angle(alpha)
    cr = (math.cos(alpha / 2.0) / math.sin(alpha / 2.0)) / math.tan(math.pi / m)
    if abs(cr) > 1.0:
        if abs(cr) > 1.0 + 1e-12:
            raise DomainError(f"angle {alpha} out of range for m={m}")
        cr = math.copysign(1.0, cr)
    return math.acos(cr)


def polygon_area(m: int, alpha: float) -> float:
    """Spherical excess area m*alpha - (m - 2)*pi; valid for m >= 2."""
    _check_size(m, 2)
    _check_angle(alpha)
    return m * alpha - (m - 2) * math.pi


def companion_residual(m: int, alpha_m: float, n: float, alpha_n: float) -> float:
    """Residual of the companion relation between an m-gon and an n-gon.

    Zero (within tolerance) exactly when the two polygons have the same
    edge length.  ``n`` may be a non-integral real; that reading is what
    ``solve_companion_size`` inverts.  It must be finite and >= 3.
    """
    _check_size(m)
    _check_angle(alpha_m)
    _check_angle(alpha_n)
    try:
        real = math.isfinite(n) and n >= 3
    except (TypeError, OverflowError):  # not a real, or past a double
        real = False
    if not real:
        raise DomainError(f"companion size must be a finite real >= 3, got {_shown(n)}")
    cam = math.cos(alpha_m)
    can = math.cos(alpha_n)
    return (1.0 - can) * (1.0 + cam + 2.0 * math.cos(TWO_PI / m)) - (
        1.0 - cam
    ) * (1.0 + can + 2.0 * math.cos(TWO_PI / n))


def solve_companion_angle(m: int, alpha_m: float, n: int) -> list[float]:
    """All angles of a regular n-gon sharing the m-gon's edge length.

    The m-gon fixes the edge cosine cx, and ``edge_cosine(n, alpha_n) = cx``
    is linear in cos(alpha_n), so there is at most one cosine; the result
    is the convex angle together with its reflex complement (deduplicated
    when they coincide at pi), or an empty list when the cosine falls
    outside [-1, 1].  An m-gon angle with no edge (at or below the planar
    limit, or its reflex complement; see ``edge_from_angle``) also gives an
    empty list.  Both face sizes follow ``_check_size``.
    """
    _check_size(m)
    _check_size(n)
    _check_angle(alpha_m)
    cx = _edge_cosine_or_none(m, alpha_m)
    if cx is None:
        return []
    can = (cx - 1.0 - 2.0 * math.cos(TWO_PI / n)) / (1.0 + cx)
    if abs(can) > 1.0 + 1e-12:
        return []
    # acos is ill-conditioned near +/-1, so treat the boundaries explicitly:
    # cos = 1 is the degenerate angle 0, cos = -1 the single solution pi.
    if can >= 1.0 - 1e-13:
        return []
    if can <= -1.0 + 1e-13:
        return [math.pi]
    base = math.acos(can)
    return [base, TWO_PI - base]


#: the real face sizes ``solve_companion_size`` returns
_COMPANION_LO = 3.0
_COMPANION_HI = 64.0


def solve_companion_size(m: int, alpha_m: float, alpha_target: float) -> float:
    """Real face size n whose companion of the m-gon has angle alpha_target.

    The companion relation is linear in cos(2*pi/n): the m-gon fixes the
    shared edge's cosine cx = ``edge_cosine(m, a_m)``, and then
    cos(2*pi/n) = (cx*(1 - cos a_t) - 1 - cos a_t) / 2.  Raises
    ``NoSolution`` when that cosine lies outside (-1, 1) or n outside
    [3, 64]; a size within 1e-9 of either end is clamped to it.  It also
    raises ``NoSolution`` when the m-gon angle gives no edge (at or below
    the planar limit, or its reflex complement; see ``edge_from_angle``).
    m follows ``_check_size``, and an angle outside (0, 2*pi) raises
    ``DomainError``.
    """
    _check_size(m)
    _check_angle(alpha_m)
    _check_angle(alpha_target)
    cat = math.cos(alpha_target)
    cx = _edge_cosine_or_none(m, alpha_m)
    if cx is None:
        raise NoSolution(f"companion size: angle {alpha_m} has no {m}-gon edge")
    cn = (cx * (1.0 - cat) - 1.0 - cat) / 2.0
    n = TWO_PI / math.acos(cn) if -1.0 < cn < 1.0 else math.nan
    if not _COMPANION_LO - 1e-9 <= n <= _COMPANION_HI + 1e-9:
        raise NoSolution(
            f"companion size: no size in [{_COMPANION_LO}, {_COMPANION_HI}] "
            f"for target {alpha_target}"
        )
    return min(max(n, _COMPANION_LO), _COMPANION_HI)

