"""Vertex types of spherical tilings by regular polygons.

A vertex type is the multiset of face sizes meeting at a vertex,
represented as a sorted tuple.  Admissibility is one exact predicate,
``admissible``: degree 3 to 5, every face size at least 3, and, because
the interior angle of a regular m-gon exceeds the planar value
(1 - 2/m)*pi, the angle-sum bound

    sum over entries of (1 - 2/m) < 2        (strictly),

which also caps the vertex degree at 5.  The inequality is evaluated
exactly over the rationals so boundary cases (for example four squares,
which tile the plane but not the sphere) are excluded without
floating-point judgement calls.  Map validation and the angle solver
both decide admissibility by calling it.

An arrangement is the cyclic order of the sizes around the vertex,
canonicalised up to rotation and reflection.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .sphkernel import TWO_PI

__all__ = [
    "MissingAngle",
    "angle_deficit_ok",
    "admissible",
    "enumerate_candidate_types",
    "with_triangle",
    "triangle_free",
    "remainder",
    "canonical_arrangement",
    "arrangements",
    "feasible_types",
]

VertexType = tuple  # sorted tuple of face sizes
Arrangement = tuple  # canonical cyclic sequence of face sizes

MIN_DEGREE = 3
MAX_DEGREE = 5


class MissingAngle(KeyError):
    """An angle assignment lacks a face size needed for a computation."""


def angle_deficit_ok(entries: Sequence[int]) -> bool:
    """Exact test of the admissibility bound sum (1 - 2/m) < 2."""
    total = sum(Fraction(m - 2, m) for m in entries)
    return total < 2


def admissible(entries: Sequence[int]) -> bool:
    """Whether a multiset of face sizes is an admissible vertex type.

    Degree 3 to 5, every size at least 3, and the exact bound of
    ``angle_deficit_ok``.
    """
    return (
        MIN_DEGREE <= len(entries) <= MAX_DEGREE
        and min(entries) >= 3
        and angle_deficit_ok(entries)
    )


def enumerate_candidate_types(max_size: int = 19) -> list[VertexType]:
    """All candidate vertex types over face sizes 3..max_size.

    The admissible multisets of those sizes, as ascending tuples in
    lexicographic order.  A depth-first walk over nondecreasing prefixes
    of the output: the sum that ``angle_deficit_ok`` bounds grows with
    every entry, so a prefix takes the next size m only while its
    cheapest completion by entries m passes the bound, and no larger m
    can pass once one fails.
    """
    if max_size < 3:
        raise ValueError(f"max_size must be >= 3, got {max_size}")
    out = []

    def extend(prefix: tuple) -> None:
        # preorder with ascending sizes yields lexicographic order
        if len(prefix) >= MIN_DEGREE:
            out.append(prefix)
        if len(prefix) == MAX_DEGREE:
            return
        for m in range(prefix[-1] if prefix else 3, max_size + 1):
            if not angle_deficit_ok(prefix + (m,) * max(1, MIN_DEGREE - len(prefix))):
                break
            extend(prefix + (m,))

    extend(())
    return out


def with_triangle(types: Iterable[VertexType]) -> list[VertexType]:
    return [t for t in types if 3 in t]


def triangle_free(types: Iterable[VertexType]) -> list[VertexType]:
    return [t for t in types if 3 not in t]


def _angle_map(assign) -> Mapping[int, float]:
    # accept either an AngleAssignment-like object or a plain mapping
    return getattr(assign, "angles", assign)


def remainder(partial: Sequence[int], assign) -> float:
    """2*pi minus the angles of the given partial multiset of face sizes.

    May be negative or zero, which signals that the partial vertex cannot
    be extended.
    """
    angles = _angle_map(assign)
    total = 0.0
    for m in partial:
        try:
            total += angles[m]
        except KeyError:
            raise MissingAngle(m) from None
    return TWO_PI - total


def canonical_arrangement(cycle: Sequence[int]) -> Arrangement:
    """Lexicographically minimal representative under rotation and reflection."""
    seq = tuple(cycle)
    n = len(seq)
    if len(set(seq)) <= 1:
        # a constant sequence (a hosohedron pole) is its own least rotation
        return seq
    best = None
    for candidate in (seq, seq[::-1]):
        for i in range(n):
            rot = candidate[i:] + candidate[:i]
            if best is None or rot < best:
                best = rot
    return best


def arrangements(t: Sequence[int]) -> list[Arrangement]:
    """Distinct cyclic arrangements of the multiset t, canonical order."""
    seen = set()
    for perm in itertools.permutations(sorted(t)):
        seen.add(canonical_arrangement(perm))
    return sorted(seen)


def feasible_types(assign, tol: float = 1e-9) -> list[VertexType]:
    """Candidate types over the assignment's sizes with angle sum 2*pi.

    Enumerates multisets of degree 3..5 drawn from the face sizes present
    in ``assign`` and keeps those whose angle sum is within ``tol`` of
    2*pi.
    """
    angles = _angle_map(assign)
    sizes = sorted(angles)
    out = []
    for degree in range(MIN_DEGREE, MAX_DEGREE + 1):
        for combo in itertools.combinations_with_replacement(sizes, degree):
            total = sum(angles[m] for m in combo)
            if abs(total - TWO_PI) <= tol:
                out.append(combo)
    out.sort()
    return out
