"""The classified edge-to-edge spherical tilings by regular polygons.

``make(name)`` builds any member of the classification: the five Platonic
and thirteen Archimedean tilings, the twenty-five circumscribable Johnson
tilings, and the prism / antiprism / hosohedron / dihedron families.
Constructors are coordinate-free combinatorial recipes: rectification,
expansion, snubbing and truncation derive the Archimedean solids from
Platonic seeds, and the Johnson tilings come from the structural
operators (pyramid / cupola / prism subdivision, shrinking and
truncation, cupola rotation and diminishing, hemisphere rotation and
cutting) applied to their parents.  Cupola caps and hemispheres are both
caps of one cut-and-reglue operator, ``_apply_cupola_ops``.

Every entry carries golden metric data (exact closed-form angles and edge
length) and a golden census, against which ``tilemap.validate`` runs.  A
census is kept as its vertex arrangement counts; the rest is derived.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .algsolve import (
    AngleAssignment,
    _multistart_angles,
    _only_monotone_convex,
    snub_dodecahedron_cos,
)
from .sphkernel import TWO_PI, DomainError
from .tilemap import Census, TilingMap, build_from_faces, digon_fan
from .vertexcomb import canonical_arrangement

__all__ = [
    "Tiling",
    "CupolaSite",
    "UnknownName",
    "PreconditionFailed",
    "InvalidSite",
    "make",
    "make_prism",
    "make_antiprism",
    "make_hosohedron",
    "make_dihedron",
    "names",
    "family_of",
    "expected_census",
    "all_entries",
    "pyramid_subdivide",
    "cupola_subdivide",
    "prism_subdivide",
    "shrink",
    "truncate",
    "rotate_cupola",
    "diminish_cupola",
    "pyramid_diminish",
    "shrink_all",
    "truncate_all",
    "equatorial_cycles",
    "rotate_hemisphere",
    "cut_hemisphere",
    "find_cupola_sites",
    "faces_of_size",
    "derive_from_ed",
    "manifest",
]


class UnknownName(KeyError):
    """No catalog entry with that name."""


class PreconditionFailed(ValueError):
    """An operator's angle or degree precondition does not hold."""


class InvalidSite(ValueError):
    """A cupola/hemisphere site specification is not applicable."""


class Tiling(NamedTuple):
    map: TilingMap
    angles: Optional[AngleAssignment]


PI = math.pi
_SQ2 = math.sqrt(2.0)
_SQ5 = math.sqrt(5.0)
_SQ33 = math.sqrt(33.0)


def _acot(x: float) -> float:
    return math.atan(1.0 / x)


def _cbrt(x: float) -> float:
    return x ** (1.0 / 3.0)


def faces_of_size(t: TilingMap, m: int) -> list:
    return [f for f in range(t.num_faces) if t.face_size(f) == m]


# --------------------------------------------------------------------------
# combinatorial derivation helpers
# --------------------------------------------------------------------------


def _dual_faces(t: TilingMap) -> list:
    return [tuple(t.face_of[d] for d in t.darts_at(v)) for v in range(t.num_vertices)]


def _rectified_faces(t: TilingMap) -> list:
    ids = t.edge_ids()
    faces = [tuple(ids[d] for d in cyc) for cyc in t.faces]
    faces += [tuple(ids[d] for d in t.darts_at(v)) for v in range(t.num_vertices)]
    return faces


def _expanded_faces(t: TilingMap) -> list:
    faces = [tuple(cyc) for cyc in t.faces]
    faces += [tuple(t.darts_at(v)) for v in range(t.num_vertices)]
    for d in range(t.num_darts):
        dp = t.edge_pair[d]
        if d < dp:
            faces.append((d, t.face_next[d], dp, t.face_next[dp]))
    return faces


def _snub_faces(t: TilingMap) -> list:
    faces = [tuple(cyc) for cyc in t.faces]
    faces += [tuple(t.darts_at(v)) for v in range(t.num_vertices)]
    for d in range(t.num_darts):
        dp = t.edge_pair[d]
        if d < dp:
            nd, ndp = t.face_next[d], t.face_next[dp]
            faces.append((d, nd, ndp))
            faces.append((nd, dp, ndp))
    return faces


def _truncated_faces(t: TilingMap, vertices: Optional[Sequence[int]] = None) -> list:
    """Vertex cycles of ``t`` with each of ``vertices`` (default: all) cut
    off by a new face.

    The corner cut from a vertex on an edge is labelled by the dart that
    leaves that vertex along the edge.  The new faces come last, in the
    order of ``vertices``.
    """
    if vertices is None:
        vertices = range(t.num_vertices)
    cut = set(vertices)
    faces = []
    for cyc in t.faces:
        grown = []
        for d in cyc:
            grown.append(("corner", d) if t.origin[d] in cut else t.origin[d])
            if t.target(d) in cut:
                grown.append(("corner", t.edge_pair[d]))
        faces.append(tuple(grown))
    faces += [tuple(("corner", d) for d in t.darts_at(v)) for v in vertices]
    return faces


def _prism_faces(m: int) -> list:
    top = list(range(m))
    bot = [m + i for i in range(m)]
    faces = [tuple(top), tuple(bot)]
    for i in range(m):
        j = (i + 1) % m
        faces.append((top[i], top[j], bot[j], bot[i]))
    return faces


def _antiprism_faces(m: int) -> list:
    top = list(range(m))
    bot = [m + i for i in range(m)]
    faces = [tuple(top), tuple(bot)]
    for i in range(m):
        j = (i + 1) % m
        faces.append((top[i], bot[i], top[j]))
        faces.append((bot[i], bot[j], top[j]))
    return faces


def _icosahedron_faces() -> list:
    up = [1 + i for i in range(5)]
    lo = [6 + i for i in range(5)]
    faces = []
    for i in range(5):
        j = (i + 1) % 5
        faces.append((0, up[i], up[j]))
        faces.append((up[i], lo[i], up[j]))
        faces.append((lo[i], lo[j], up[j]))
        faces.append((11, lo[j], lo[i]))
    return faces


def _cupola_faces(k: int) -> list:
    # concave 2k-gon base 0..2k-1, top k-gon 2k..3k-1, then the side ring
    n = 2 * k
    faces = [tuple(range(n)), tuple(range(n, n + k))]
    for i in range(k):
        faces.append((2 * i, 2 * i + 1, n + i))
        faces.append((2 * i + 1, (2 * i + 2) % n, n + (i + 1) % k, n + i))
    return faces


# --------------------------------------------------------------------------
# structural operators
# --------------------------------------------------------------------------


def _kept_faces(t: TilingMap, removed) -> list:
    """Vertex cycles of every face not in ``removed``, in face order."""
    return [t.face_vertex_cycle(f) for f in range(t.num_faces) if f not in removed]


def _tiling(
    t: TilingMap,
    assign: AngleAssignment,
    derived: Sequence = (),
    error: type = PreconditionFailed,
) -> Tiling:
    """Pair a map with its angle assignment: the one way a Tiling is made.

    Each derived ``(size, angle)`` pair is added in order; a size that
    already has an angle must agree with it within 1e-9, or ``error`` is
    raised.  The assignment then keeps exactly the face sizes of the map.
    """
    angles = dict(assign.angles)
    for k, a in derived:
        if k in angles and abs(angles[k] - a) > 1e-9:
            raise error(f"size {k} angle {a!r} conflicts with the existing {angles[k]!r}")
        angles[k] = a
    present = {len(cyc) for cyc in t.faces}
    kept = {m: a for m, a in angles.items() if m in present}
    return Tiling(t, AngleAssignment(kept, assign.edge))


def _require_angles(tiling: Tiling) -> AngleAssignment:
    if tiling.angles is None:
        raise PreconditionFailed("operation requires an angle assignment")
    return tiling.angles


def pyramid_subdivide(tiling: Tiling, face: int) -> Tiling:
    """Cone a face from a new central vertex, making m new triangles.

    Requires the face angle to equal twice the triangle angle, so the new
    triangles are regular.
    """
    t = tiling.map
    if t.family is not None:
        raise PreconditionFailed(f"pyramid subdivision undefined for {t.family} maps")
    assign = _require_angles(tiling)
    m = t.face_size(face)
    a3 = assign.angle(3) if 3 in assign.angles else None
    am = assign.angle(m)
    if a3 is None or abs(am - 2.0 * a3) > 1e-9:
        raise PreconditionFailed(
            f"pyramid subdivision needs angle({m}) = 2*angle(3); got {am}"
        )
    centre = ("pyramid-apex", face)
    cyc = t.face_vertex_cycle(face)
    faces = _kept_faces(t, {face})
    for i in range(m):
        faces.append((cyc[i], cyc[(i + 1) % m], centre))
    return _tiling(build_from_faces(faces), assign)


def pyramid_diminish(tiling: Tiling, vertices: Sequence[int]) -> Tiling:
    """Remove vertices whose stars are all triangles, leaving link faces.

    The inverse of ``pyramid_subdivide``; the removed vertices must be
    pairwise non-adjacent with disjoint stars.
    """
    t = tiling.map
    assign = _require_angles(tiling)
    removed_faces: set = set()
    new_faces = []
    for v in vertices:
        star = [t.face_of[d] for d in t.darts_at(v)]
        if any(t.face_size(f) != 3 for f in star):
            raise PreconditionFailed(f"vertex {v} has a non-triangular face")
        if removed_faces.intersection(star):
            raise InvalidSite("vertex stars overlap")
        removed_faces.update(star)
        link = tuple(t.target(d) for d in t.darts_at(v))
        if any(u in vertices for u in link):
            raise InvalidSite("removed vertices are adjacent")
        new_faces.append(link)
    new_map = build_from_faces(_kept_faces(t, removed_faces) + new_faces)
    # each corner of a link face spans the corners of two removed triangles
    return _tiling(new_map, assign, [(len(link), 2.0 * assign.angle(3)) for link in new_faces])


def cupola_subdivide(tiling: Tiling, face: int, phase: int = 0) -> Tiling:
    """Attach a cupola cap inside an even face: triangles on every other
    edge, squares between them, and a half-size top face.

    Requires angle(m) = angle(3) + angle(4).  ``phase`` selects which edge
    parity carries the triangles; the two phases generally give the ortho
    and gyro attachments.
    """
    t = tiling.map
    assign = _require_angles(tiling)
    m = t.face_size(face)
    if m % 2 != 0 or m < 6:
        raise PreconditionFailed(f"cupola subdivision needs an even face size >= 6, got {m}")
    a3, a4, am = assign.angle(3), assign.angle(4), assign.angle(m)
    if abs(am - (a3 + a4)) > 1e-9:
        raise PreconditionFailed("cupola subdivision needs angle(m) = angle(3) + angle(4)")
    k = m // 2
    cyc = t.face_vertex_cycle(face)
    b = [cyc[(i + phase) % m] for i in range(m)]
    top = [("cupola-top", face, j) for j in range(k)]
    faces = _kept_faces(t, {face})
    for j in range(k):
        faces.append((b[2 * j], b[2 * j + 1], top[j]))
        faces.append((b[2 * j + 1], b[(2 * j + 2) % m], top[(j + 1) % k], top[j]))
    faces.append(tuple(top))
    return _tiling(build_from_faces(faces), assign, [(k, TWO_PI - 2.0 * a4 - a3)])


def prism_subdivide(tiling: Tiling, face: int) -> Tiling:
    """Line a (concave) face with squares, leaving a convex copy inside.

    Requires angle(m) = 2*angle(4).
    """
    t = tiling.map
    assign = _require_angles(tiling)
    m = t.face_size(face)
    a4, am = assign.angle(4), assign.angle(m)
    if abs(am - 2.0 * a4) > 1e-9:
        raise PreconditionFailed("prism subdivision needs angle(m) = 2*angle(4)")
    cyc = t.face_vertex_cycle(face)
    inner = [("prism-inner", face, i) for i in range(m)]
    faces = _kept_faces(t, {face})
    for i in range(m):
        j = (i + 1) % m
        faces.append((cyc[i], cyc[j], inner[j], inner[i]))
    faces.append(tuple(inner))
    # the removed m-gon is the map's only one: its angle 2*angle(4) exceeds
    # pi, so its area exceeds a hemisphere; size m now names the convex copy
    convex = AngleAssignment({**assign.angles, m: TWO_PI - 2.0 * a4}, assign.edge)
    return _tiling(build_from_faces(faces), convex)


def shrink(t: TilingMap, face: int) -> TilingMap:
    """Collapse a face whose vertices all have degree 3 to a single vertex."""
    return _shrink(t, [face])


def truncate(t: TilingMap, vertex: int) -> TilingMap:
    """Replace a degree-k vertex by a k-gon (the inverse of shrinking)."""
    return build_from_faces(_truncated_faces(t, [vertex]))


def shrink_all(t: TilingMap, size: int) -> TilingMap:
    """Shrink every current face of the given size simultaneously.

    The targets must be pairwise vertex-disjoint with all their vertices
    of degree 3; faces of the same size created by the collapse itself are
    not re-shrunk.
    """
    targets = [f for f in range(t.num_faces) if t.face_size(f) == size]
    if not targets:
        return t
    return _shrink(t, targets)


def _shrink(t: TilingMap, targets: list) -> TilingMap:
    """Collapse each target face to one new vertex, all at once."""
    owner: dict = {}
    for f in targets:
        for v in t.face_vertex_cycle(f):
            if t.degree(v) != 3:
                raise PreconditionFailed("shrinking needs all face vertices of degree 3")
            if v in owner:
                raise PreconditionFailed("shrink targets share a vertex")
            owner[v] = ("shrink-centre", f)
    faces = []
    for f in range(t.num_faces):
        if f in targets:
            continue
        cyc = [owner.get(v, v) for v in t.face_vertex_cycle(f)]
        collapsed = []
        for v in cyc:
            if collapsed and collapsed[-1] == v:
                continue
            collapsed.append(v)
        while len(collapsed) > 1 and collapsed[0] == collapsed[-1]:
            collapsed.pop()
        faces.append(tuple(collapsed))
    return build_from_faces(faces)


def truncate_all(t: TilingMap) -> TilingMap:
    """Truncate every vertex simultaneously."""
    return build_from_faces(_truncated_faces(t))


# --------------------------------------------------------------------------
# cupola sites, rotation and diminishing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CupolaSite:
    """A cupola cap: top face, its ring of squares and triangles, and the
    ordered boundary cycle separating the cap from the rest."""

    top: int
    faces: frozenset
    boundary: tuple
    interior: frozenset

    @property
    def vertices(self) -> frozenset:
        return self.interior | frozenset(self.boundary)


def _region_boundary(t: TilingMap, region: frozenset) -> tuple:
    border = [
        d
        for d in range(t.num_darts)
        if t.face_of[d] in region and t.face_of[t.edge_pair[d]] not in region
    ]
    if not border:
        raise InvalidSite("region has no boundary")
    border_set = set(border)
    start = min(border)
    cycle = []
    d = start
    while True:
        cycle.append(d)
        nd = t.face_next[d]
        while nd not in border_set:
            nd = t.face_next[t.edge_pair[nd]]
        d = nd
        if d == start:
            break
        if len(cycle) > len(border):
            raise InvalidSite("region boundary is not a single cycle")
    if len(cycle) != len(border):
        raise InvalidSite("region boundary is not a single cycle")
    return tuple(t.origin[d] for d in cycle)


def find_cupola_sites(t: TilingMap) -> list:
    """All cupola caps of a map: a k-gon top (k = 3, 4 or 5) edged by
    squares with triangles at its corners, bounded by a 2k-cycle."""
    sites = []
    for top in range(t.num_faces):
        k = t.face_size(top)
        if k not in (3, 4, 5):
            continue
        ring = [t.face_of[t.edge_pair[d]] for d in t.faces[top]]
        if len(set(ring)) != k or any(t.face_size(f) != 4 for f in ring):
            continue
        corners = []
        ok = True
        for d in t.faces[top]:
            v = t.origin[d]
            if t.degree(v) != 4:
                ok = False
                break
            opposite = t.face_of[t.vertex_next[t.vertex_next[d]]]
            corners.append(opposite)
        if not ok or len(set(corners)) != k:
            continue
        if any(t.face_size(f) != 3 for f in corners):
            continue
        cap = frozenset([top] + ring + corners)
        if len(cap) != 2 * k + 1:
            continue
        try:
            boundary = _region_boundary(t, cap)
        except InvalidSite:
            continue
        if len(boundary) != 2 * k:
            continue
        interior = frozenset(t.face_vertex_cycle(top))
        if interior & set(boundary):
            continue
        sites.append(CupolaSite(top=top, faces=cap, boundary=boundary, interior=interior))
    return sites


def _apply_cupola_ops(
    tiling: Tiling,
    rotate_sites: Sequence = (),
    diminish_sites: Sequence = (),
    shift: int = 1,
) -> Tiling:
    """Cut out each cap and reglue it ``shift`` boundary steps on (rotate)
    or seal its boundary cycle with one face (diminish).

    A cap is anything with ``faces`` and an ordered ``boundary`` vertex
    cycle: a ``CupolaSite`` or a ``_hemisphere``.  Caps may share no
    vertex.  A sealing face's angle is 2*pi minus the angles outside the
    cap at its first boundary vertex.
    """
    t = tiling.map
    assign = _require_angles(tiling)
    sites = list(rotate_sites) + list(diminish_sites)
    vertices = [{t.origin[d] for f in s.faces for d in t.faces[f]} for s in sites]
    for a, b in itertools.combinations(vertices, 2):
        if a & b:
            raise InvalidSite("cupola sites overlap")
    cap_faces: set = set()
    for s in sites:
        cap_faces |= s.faces
    faces = _kept_faces(t, cap_faces)
    derived = []
    for s in rotate_sites:
        n = len(s.boundary)
        relabel = {s.boundary[i]: s.boundary[(i + shift) % n] for i in range(n)}
        for f in s.faces:
            faces.append(tuple(relabel.get(v, v) for v in t.face_vertex_cycle(f)))
    for s in diminish_sites:
        faces.append(s.boundary)
        b0 = s.boundary[0]
        outside = [
            t.face_size(t.face_of[d])
            for d in t.darts_at(b0)
            if t.face_of[d] not in s.faces
        ]
        derived.append((len(s.boundary), TWO_PI - sum(assign.angle(m) for m in outside)))
    return _tiling(build_from_faces(faces), assign, derived, InvalidSite)


def rotate_cupola(tiling: Tiling, site: CupolaSite) -> Tiling:
    """Detach a cupola cap and reattach it offset by one boundary step."""
    return _apply_cupola_ops(tiling, rotate_sites=[site])


def diminish_cupola(tiling: Tiling, site: CupolaSite) -> Tiling:
    """Remove a cupola cap, making its boundary cycle a single face."""
    return _apply_cupola_ops(tiling, diminish_sites=[site])


# --------------------------------------------------------------------------
# hemispheres (equatorial straight cycles)
# --------------------------------------------------------------------------


def _straight_cycles(t: TilingMap) -> list:
    """Closed straight-ahead dart cycles through degree-4 vertices."""
    cycles = []
    seen: set = set()
    for d0 in range(t.num_darts):
        if d0 in seen:
            continue
        path = [d0]
        ok = True
        d = d0
        while True:
            dp = t.edge_pair[d]
            if t.degree(t.origin[dp]) != 4:
                ok = False
                break
            d = t.vertex_next[t.vertex_next[dp]]
            if d == d0:
                break
            if len(path) > t.num_darts:
                ok = False
                break
            path.append(d)
        if not ok:
            continue
        seen.update(path)
        seen.update(t.edge_pair[x] for x in path)
        cycles.append(path)
    return cycles


def equatorial_cycles(tiling: Tiling) -> list:
    """Straight cycles whose two sides both sum to angle pi at each vertex."""
    t = tiling.map
    assign = _require_angles(tiling)
    out = []
    for path in _straight_cycles(t):
        good = True
        for d in path:
            # the two faces at d's head between the cycle's back and forward darts
            back = t.vertex_next[t.edge_pair[d]]
            side = (
                assign.angle(t.face_size(t.face_of[back]))
                + assign.angle(t.face_size(t.face_of[t.vertex_next[back]]))
            )
            if abs(side - PI) > 1e-9:
                good = False
                break
        if good:
            out.append(path)
    return out


class _Cap(NamedTuple):
    faces: frozenset
    boundary: tuple


def _hemisphere(t: TilingMap, path: Sequence[int]) -> _Cap:
    """The far side of a straight cycle as a cap: the faces reached from
    across ``path[0]`` without crossing the cycle."""
    cycle = set(path) | {t.edge_pair[d] for d in path}
    start = t.face_of[t.edge_pair[path[0]]]
    side = {start}
    stack = [start]
    while stack:
        for d in t.faces[stack.pop()]:
            g = t.face_of[t.edge_pair[d]]
            if d not in cycle and g not in side:
                side.add(g)
                stack.append(g)
    return _Cap(frozenset(side), tuple(t.origin[d] for d in path))


def rotate_hemisphere(tiling: Tiling, path: Sequence[int], shift: int = 1) -> Tiling:
    """Cut along an equatorial cycle and reglue one side offset by ``shift``."""
    return _apply_cupola_ops(tiling, rotate_sites=[_hemisphere(tiling.map, path)], shift=shift)


def cut_hemisphere(tiling: Tiling, path: Sequence[int]) -> Tiling:
    """Keep one side of an equatorial cycle and seal it with one face.

    The new face is a hemisphere: its angle, 2*pi minus the kept side's
    angles at a cycle vertex, is pi, since the cycle is a great circle.
    """
    return _apply_cupola_ops(tiling, diminish_sites=[_hemisphere(tiling.map, path)])


# --------------------------------------------------------------------------
# golden angle data
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _golden_angles(group: str) -> AngleAssignment:
    if group == "T":
        return AngleAssignment({3: 2 * PI / 3}, math.acos(-1.0 / 3.0))
    if group == "C":
        return AngleAssignment({4: 2 * PI / 3}, math.acos(1.0 / 3.0))
    if group == "D":
        return AngleAssignment({5: 2 * PI / 3}, math.acos(_SQ5 / 3.0))
    if group == "tT":
        a3 = 4.0 * _acot(math.sqrt(11.0))
        return AngleAssignment({3: a3, 6: PI - a3 / 2.0}, math.acos(7.0 / 11.0))
    if group == "tC":
        a3 = 4.0 * _acot(math.sqrt(7.0 + 4.0 * _SQ2))
        return AngleAssignment({3: a3, 8: PI - a3 / 2.0}, math.acos((3.0 + 8.0 * _SQ2) / 17.0))
    if group == "tO":
        a4 = 4.0 * _acot(_SQ5)
        return AngleAssignment({4: a4, 6: PI - a4 / 2.0}, math.acos(4.0 / 5.0))
    if group == "tD":
        a3 = 4.0 * _acot(math.sqrt(9.0 + 2.0 * _SQ5))
        return AngleAssignment(
            {3: a3, 10: PI - a3 / 2.0}, math.acos((24.0 + 15.0 * _SQ5) / 61.0)
        )
    if group == "tI":
        a5 = 4.0 * math.atan(math.sqrt((17.0 + 6.0 * _SQ5) / 109.0))
        return AngleAssignment(
            {5: a5, 6: PI - a5 / 2.0}, math.acos((80.0 + 9.0 * _SQ5) / 109.0)
        )
    if group == "sC":
        s = (
            19.0 / 21.0
            + _cbrt(4528.0 - 336.0 * _SQ33) / 21.0
            + _cbrt(4528.0 + 336.0 * _SQ33) / 21.0
        )
        a3 = 2.0 * _acot(math.sqrt(s))
        x = math.acos(
            (-1.0 + _cbrt(566.0 - 42.0 * _SQ33) + _cbrt(566.0 + 42.0 * _SQ33)) / 21.0
        )
        return AngleAssignment({3: a3, 4: TWO_PI - 4.0 * a3}, x)
    if group == "sD":
        xi = snub_dodecahedron_cos()
        a3 = math.acos(xi)
        return AngleAssignment({3: a3, 5: TWO_PI - 4.0 * a3}, math.acos(xi / (1.0 - xi)))
    if group == "bC":
        return AngleAssignment(
            {
                4: math.acos((_SQ2 - 2.0) / 12.0),
                6: math.acos((_SQ2 - 6.0) / 8.0),
                8: math.acos(-(6.0 * _SQ2 + 1.0) / 12.0),
            },
            math.acos((71.0 + 12.0 * _SQ2) / 97.0),
        )
    if group == "bD":
        return AngleAssignment(
            {
                4: math.acos((2.0 * _SQ5 - 5.0) / 30.0),
                6: math.acos((2.0 * _SQ5 - 15.0) / 20.0),
                10: math.acos(-(9.0 + 5.0 * _SQ5) / 24.0),
            },
            math.acos((179.0 + 24.0 * _SQ5) / 241.0),
        )
    if group == "O":
        # the octahedron group also hosts J1's hemisphere square
        return AngleAssignment({3: PI / 2.0, 4: PI}, PI / 2.0)
    if group == "I":
        return AngleAssignment({3: 2.0 * PI / 5.0, 5: 4.0 * PI / 5.0}, math.acos(1.0 / _SQ5))
    if group == "J2":
        return AngleAssignment({3: 2.0 * PI / 5.0, 5: 6.0 * PI / 5.0}, math.acos(1.0 / _SQ5))
    if group == "aC":
        a3 = math.acos(1.0 / 3.0)
        return AngleAssignment({3: a3, 4: PI - a3, 6: PI}, PI / 3.0)
    if group == "aD":
        a3 = math.acos(1.0 / _SQ5)
        return AngleAssignment({3: a3, 5: PI - a3, 10: PI}, PI / 5.0)
    if group == "eC":
        a4 = 2.0 * math.atan(math.sqrt(7.0 - 4.0 * _SQ2))
        x = math.acos((7.0 + 4.0 * _SQ2) / 17.0)
        # size 8 carries the convex octagon; J4's concave octagon is its
        # reflex complement 2*a4
        return AngleAssignment({3: TWO_PI - 3.0 * a4, 4: a4, 8: TWO_PI - 2.0 * a4}, x)
    if group == "eD":
        a3 = math.acos((5.0 + 2.0 * _SQ5) / 20.0)
        a4 = math.acos((2.0 * _SQ5 - 5.0) / 10.0)
        a5 = math.acos((5.0 - 9.0 * _SQ5) / 40.0)
        x = math.acos((19.0 + 8.0 * _SQ5) / 41.0)
        # size 10 carries the convex decagon of the diminished tilings;
        # J5's concave decagon is its reflex complement
        return AngleAssignment({3: a3, 4: a4, 5: a5, 10: a3 + a4}, x)
    raise UnknownName(group)


@lru_cache(maxsize=None)
def _family_angles(kind: str, m: int) -> AngleAssignment:
    # the multistart's last bits are pinned: by the benchmark's export
    # digests of prism(6), prism(12), antiprism(6) and antiprism(12), and by
    # tests/test_golden_bytes.py for all 18 family members of all_entries();
    # its line search is batched, one residuals call per step and halving
    t = (4, 4, m) if kind == "prism" else (3, 3, 3, m)
    return _only_monotone_convex(_multistart_angles(t), f"{kind}({m})")


# --------------------------------------------------------------------------
# entry builders
# --------------------------------------------------------------------------


def _tetrahedron() -> Tiling:
    m = build_from_faces([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)])
    return _tiling(m, _golden_angles("T"))


def _cube() -> Tiling:
    return _tiling(build_from_faces(_prism_faces(4)), _golden_angles("C"))


def _octahedron() -> Tiling:
    return _tiling(build_from_faces(_antiprism_faces(3)), _golden_angles("O"))


def _icosahedron() -> Tiling:
    return _tiling(build_from_faces(_icosahedron_faces()), _golden_angles("I"))


def _dodecahedron() -> Tiling:
    m = build_from_faces(_dual_faces(_icosahedron().map))
    return _tiling(m, _golden_angles("D"))


def _derived(seed: str, faces_of, group: str) -> Tiling:
    """The tiling whose faces ``faces_of`` derives from a seed entry's map:
    its truncation, rectification, expansion or snub."""
    return _tiling(build_from_faces(faces_of(make(seed).map)), _golden_angles(group))


def _j1() -> Tiling:
    m = build_from_faces([(0, 1, 2, 3), (4, 1, 0), (4, 2, 1), (4, 3, 2), (4, 0, 3)])
    return _tiling(m, _golden_angles("O"))


def _j2() -> Tiling:
    m = build_from_faces(
        [(0, 1, 2, 3, 4), (5, 1, 0), (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 0, 4)]
    )
    return _tiling(m, _golden_angles("J2"))


def _j3() -> Tiling:
    ac = make("aC")
    sites = find_cupola_sites(ac.map)
    return diminish_cupola(ac, _canonical_sites(ac.map, sites)[0])


def _cupola(k: int, group: str) -> Tiling:
    """The standalone k-gonal cupola, whose 2k-gon base is concave: the
    reflex complement of the group's convex 2k-gon."""
    base = _golden_angles(group)
    concave = AngleAssignment({**base.angles, 2 * k: TWO_PI - base.angles[2 * k]}, base.edge)
    return _tiling(build_from_faces(_cupola_faces(k)), concave)


def _j6() -> Tiling:
    ad = make("aD")
    path = equatorial_cycles(ad)[0]
    return cut_hemisphere(ad, path)


def _j19() -> Tiling:
    # the square cupola without its base, a ring of 8 squares 0..7 / 12..19
    # and the octagon 12..19 closing it
    faces = _cupola_faces(4)[1:]
    faces += [(i, (i + 1) % 8, 12 + (i + 1) % 8, 12 + i) for i in range(8)]
    faces.append(tuple(range(12, 20)))
    return _tiling(build_from_faces(faces), _golden_angles("eC"))


def _gyro(seed: str) -> Tiling:
    """A seed entry with one hemisphere turned across its first equatorial cycle."""
    t = make(seed)
    return rotate_hemisphere(t, equatorial_cycles(t)[0])


def _j37() -> Tiling:
    ec = make("eC")
    sites = _canonical_sites(ec.map, find_cupola_sites(ec.map))
    return rotate_cupola(ec, sites[0])


def _distances(adj: Sequence, source: int) -> list:
    """Breadth-first step counts from ``source`` over adjacency lists, -1 if unreached."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _icosa_distances():
    ico = _icosahedron()
    t = ico.map
    adj = [[t.target(d) for d in t.darts_at(v)] for v in range(t.num_vertices)]
    return ico, [_distances(adj, s) for s in range(t.num_vertices)]


def _diminished_icosahedron(n_removed: int) -> Tiling:
    ico, dist = _icosa_distances()
    v0 = 0
    if n_removed == 1:
        picks = [v0]
    elif n_removed == 2:
        picks = [v0, dist[v0].index(2)]
    elif n_removed == 3:
        two = dist[v0].index(2)
        third = next(
            w
            for w in range(ico.map.num_vertices)
            if dist[v0][w] == 2 and dist[two][w] == 2 and w != two
        )
        picks = [v0, two, third]
    else:
        raise UnknownName(f"no {n_removed}-fold diminished icosahedron")
    return pyramid_diminish(ico, picks)


# --- eD cupola machinery ----------------------------------------------------


def _canonical_sites(t: TilingMap, sites) -> list:
    return sorted(sites, key=lambda s: tuple(sorted(t.face_vertex_cycle(s.top))))


@lru_cache(maxsize=1)
def _ed_site_data():
    """eD's 12 pentagonal cupola sites, a canonical disjoint triple and the
    opposite-site map (the unique disjoint site at maximal dual distance)."""
    ed = make("eD")
    t = ed.map
    sites = _canonical_sites(t, find_cupola_sites(t))
    if len(sites) != 12:
        raise RuntimeError(f"expected 12 cupola sites in eD, found {len(sites)}")
    # dual-graph distances between top faces
    fadj = [[t.face_of[t.edge_pair[d]] for d in cyc] for cyc in t.faces]
    dual_dist = {s.top: _distances(fadj, s.top) for s in sites}
    max_d = max(dual_dist[a.top][b.top] for a in sites for b in sites)
    opposite = {}
    for a in sites:
        far = [b for b in sites if dual_dist[a.top][b.top] == max_d]
        if len(far) != 1:
            raise RuntimeError("opposite cupola is not unique")
        opposite[a.top] = far[0]
    disjoint = {
        a.top: [b for b in sites if b is not a and not (a.vertices & b.vertices)]
        for a in sites
    }
    a = sites[0]
    triple = None
    for b in disjoint[a.top]:
        for c in disjoint[a.top]:
            if c is b:
                continue
            if not (b.vertices & c.vertices):
                triple = (a, b, c)
                break
        if triple:
            break
    if triple is None:
        raise RuntimeError("no disjoint cupola triple in eD")
    # prefer a triple without opposite pairs (always true: opposite pairs
    # exclude any third disjoint site)
    return ed, sites, opposite, disjoint, triple


def derive_from_ed(
    dim: int = 0,
    rot: int = 0,
    dim_rel: Optional[str] = None,
    rot_rel: Optional[str] = None,
) -> Tiling:
    """Apply a diminish/rotate recipe to eD's pentagonal cupolas.

    ``dim``/``rot`` count the operations; a relation ``"o"`` (opposite) or
    ``"n"`` (non-opposite) qualifies a pair, either within one kind or,
    when one of each is requested, between the two sites.  A relation
    on a zero count or without a pair, or two different relations, raise
    ``InvalidSite``.
    """
    ed, sites, opposite, disjoint, triple = _ed_site_data()
    a, b, c = triple
    if dim < 0 or rot < 0:
        raise InvalidSite("negative operation counts")
    if dim + rot > 3:
        raise InvalidSite("at most three pairwise disjoint cupolas exist")
    if (dim == 0 and dim_rel is not None) or (rot == 0 and rot_rel is not None):
        raise InvalidSite("an 'o' or 'n' qualifier needs a nonzero count")
    rels = {r for r in (dim_rel, rot_rel) if r is not None}
    if rels and dim + rot != 2:
        raise InvalidSite("an 'o' or 'n' qualifier applies to a pair of cupola operations only")
    if len(rels) > 1:
        raise InvalidSite(f"conflicting qualifiers {dim_rel!r} and {rot_rel!r}")
    if dim + rot == 2:
        # two sites can sit opposite or not, and the results differ
        rel = rels.pop() if rels else None
        if rel not in ("o", "n"):
            raise InvalidSite(
                "a pair of cupola operations needs an 'o' or 'n' qualifier"
            )
        pair = [a, opposite[a.top]] if rel == "o" else [a, b]
        dims, rots = pair[:dim], pair[dim:]
    else:
        # one or three sites: any choice from the disjoint triple works
        chosen = [a, b, c][: dim + rot]
        dims, rots = chosen[:dim], chosen[dim:]
    return _apply_cupola_ops(ed, rotate_sites=rots, diminish_sites=dims)


_ED_RECIPES = {
    # corrected rotation-only rows: the rotated-two tilings carry no decagon
    "J72": dict(rot=1),
    "J73": dict(rot=2, rot_rel="o"),
    "J74": dict(rot=2, rot_rel="n"),
    "J75": dict(rot=3),
    "J76": dict(dim=1),
    "J77": dict(dim=1, rot=1, rot_rel="o"),
    "J78": dict(dim=1, rot=1, rot_rel="n"),
    "J79": dict(dim=1, rot=2),
    "J80": dict(dim=2, dim_rel="o"),
    "J81": dict(dim=2, dim_rel="n"),
    "J82": dict(dim=2, rot=1),
    "J83": dict(dim=3),
}


def _at_least_three(kind: str, n: int) -> None:
    if n < 3:
        raise DomainError(f"{kind} needs n >= 3, got {n}")


def make_prism(m: int) -> Tiling:
    """Prism over an m-gon; prism(4) is the cube."""
    _at_least_three("prism", m)
    if m == 4:
        return _cube()
    return _tiling(build_from_faces(_prism_faces(m)), _family_angles("prism", m))


def make_antiprism(m: int) -> Tiling:
    """Antiprism over an m-gon; antiprism(3) is the octahedron."""
    _at_least_three("antiprism", m)
    if m == 3:
        return _octahedron()
    return _tiling(build_from_faces(_antiprism_faces(m)), _family_angles("antiprism", m))


def make_hosohedron(n: int) -> Tiling:
    """Fan of n digons between two poles; angle 2*pi/n, edge pi."""
    _at_least_three("hosohedron", n)
    return _tiling(digon_fan(n), AngleAssignment({2: TWO_PI / n}, PI))


def make_dihedron(n: int) -> Tiling:
    """Two hemispherical n-gons sharing a great-circle boundary."""
    _at_least_three("dihedron", n)
    ring = tuple(range(n))
    return _tiling(build_from_faces([ring, ring]), AngleAssignment({n: PI}, TWO_PI / n))


_BUILDERS = {
    "T": _tetrahedron,
    "C": _cube,
    "O": _octahedron,
    "D": _dodecahedron,
    "I": _icosahedron,
    "tT": lambda: _derived("T", _truncated_faces, "tT"),
    "tC": lambda: _derived("C", _truncated_faces, "tC"),
    "tO": lambda: _derived("O", _truncated_faces, "tO"),
    "tD": lambda: _derived("D", _truncated_faces, "tD"),
    "tI": lambda: _derived("I", _truncated_faces, "tI"),
    "aC": lambda: _derived("C", _rectified_faces, "aC"),
    "aD": lambda: _derived("D", _rectified_faces, "aD"),
    "eC": lambda: _derived("C", _expanded_faces, "eC"),
    "eD": lambda: _derived("D", _expanded_faces, "eD"),
    "bC": lambda: _derived("aC", _truncated_faces, "bC"),
    "bD": lambda: _derived("aD", _truncated_faces, "bD"),
    "sC": lambda: _derived("C", _snub_faces, "sC"),
    "sD": lambda: _derived("D", _snub_faces, "sD"),
    "J1": _j1,
    "J2": _j2,
    "J3": _j3,
    "J4": lambda: _cupola(4, "eC"),
    "J5": lambda: _cupola(5, "eD"),
    "J6": _j6,
    "J11": lambda: _diminished_icosahedron(1),
    "J19": _j19,
    "J27": lambda: _gyro("aC"),
    "J34": lambda: _gyro("aD"),
    "J37": _j37,
    "J62": lambda: _diminished_icosahedron(2),
    "J63": lambda: _diminished_icosahedron(3),
    **{name: (lambda r=recipe: derive_from_ed(**r)) for name, recipe in _ED_RECIPES.items()},
}


# --------------------------------------------------------------------------
# families, names and golden censuses
# --------------------------------------------------------------------------

#: every named entry in canonical order, with its family and its golden
#: census: the vertex arrangement counts, from which the rest is derived
_NAMED = {
    "T": ("platonic", {(3, 3, 3): 4}),
    "C": ("platonic", {(4, 4, 4): 8}),
    "O": ("platonic", {(3, 3, 3, 3): 6}),
    "D": ("platonic", {(5, 5, 5): 20}),
    "I": ("platonic", {(3, 3, 3, 3, 3): 12}),
    "tT": ("archimedean", {(3, 6, 6): 12}),
    "aC": ("archimedean", {(3, 4, 3, 4): 12}),
    "tC": ("archimedean", {(3, 8, 8): 24}),
    "tO": ("archimedean", {(4, 6, 6): 24}),
    "eC": ("archimedean", {(3, 4, 4, 4): 24}),
    "bC": ("archimedean", {(4, 6, 8): 48}),
    "sC": ("archimedean", {(3, 3, 3, 3, 4): 24}),
    "aD": ("archimedean", {(3, 5, 3, 5): 30}),
    "tD": ("archimedean", {(3, 10, 10): 60}),
    "tI": ("archimedean", {(5, 6, 6): 60}),
    "eD": ("archimedean", {(3, 4, 5, 4): 60}),
    "bD": ("archimedean", {(4, 6, 10): 120}),
    "sD": ("archimedean", {(3, 3, 3, 3, 5): 60}),
    "J1": ("johnson", {(3, 3, 4): 4, (3, 3, 3, 3): 1}),
    "J2": ("johnson", {(3, 3, 5): 5, (3, 3, 3, 3, 3): 1}),
    "J3": ("johnson", {(3, 4, 6): 6, (3, 4, 3, 4): 3}),
    "J4": ("johnson", {(3, 4, 8): 8, (3, 4, 4, 4): 4}),
    "J5": ("johnson", {(3, 4, 5, 4): 5, (3, 4, 10): 10}),
    "J6": ("johnson", {(3, 5, 3, 5): 10, (3, 5, 10): 10}),
    "J11": ("johnson", {(3, 3, 3, 5): 5, (3, 3, 3, 3, 3): 6}),
    "J19": ("johnson", {(3, 4, 4, 4): 12, (4, 4, 8): 8}),
    "J27": ("johnson", {(3, 3, 4, 4): 6, (3, 4, 3, 4): 6}),
    "J34": ("johnson", {(3, 5, 3, 5): 20, (3, 3, 5, 5): 10}),
    "J37": ("johnson", {(3, 4, 4, 4): 24}),
    "J62": ("johnson", {(3, 5, 5): 2, (3, 3, 3, 5): 6, (3, 3, 3, 3, 3): 2}),
    "J63": ("johnson", {(3, 5, 5): 6, (3, 3, 3, 5): 3}),
    "J72": ("johnson", {(3, 4, 5, 4): 50, (3, 4, 4, 5): 10}),
    "J73": ("johnson", {(3, 4, 5, 4): 40, (3, 4, 4, 5): 20}),
    "J74": ("johnson", {(3, 4, 5, 4): 40, (3, 4, 4, 5): 20}),
    "J75": ("johnson", {(3, 4, 5, 4): 30, (3, 4, 4, 5): 30}),
    "J76": ("johnson", {(3, 4, 5, 4): 45, (4, 5, 10): 10}),
    "J77": ("johnson", {(3, 4, 5, 4): 35, (3, 4, 4, 5): 10, (4, 5, 10): 10}),
    "J78": ("johnson", {(3, 4, 5, 4): 35, (3, 4, 4, 5): 10, (4, 5, 10): 10}),
    "J79": ("johnson", {(3, 4, 5, 4): 25, (3, 4, 4, 5): 20, (4, 5, 10): 10}),
    "J80": ("johnson", {(3, 4, 5, 4): 30, (4, 5, 10): 20}),
    "J81": ("johnson", {(3, 4, 5, 4): 30, (4, 5, 10): 20}),
    "J82": ("johnson", {(3, 4, 5, 4): 20, (3, 4, 4, 5): 10, (4, 5, 10): 20}),
    "J83": ("johnson", {(3, 4, 5, 4): 15, (4, 5, 10): 30}),
}

#: each parametric family in catalog order: (maker, n -> golden arrangement counts)
_FAMILIES = {
    "prism": (make_prism, lambda n: {canonical_arrangement((4, 4, n)): 2 * n}),
    "antiprism": (make_antiprism, lambda n: {canonical_arrangement((3, 3, 3, n)): 2 * n}),
    "hosohedron": (make_hosohedron, lambda n: {(2,) * n: 2}),
    "dihedron": (make_dihedron, lambda n: {(n, n): n}),
}

#: every family name, in catalog order
FAMILIES = (*dict.fromkeys(family for family, _ in _NAMED.values()), *_FAMILIES)
PLATONIC, ARCHIMEDEAN, JOHNSON = (
    tuple(name for name, (family, _) in _NAMED.items() if family == named)
    for named in FAMILIES[:3]
)

_FAMILY_RE = re.compile(rf"^({'|'.join(_FAMILIES)})\((\d+)\)$")


def _member(name: str) -> tuple:
    """The family and n of a parametric family member, as ``make`` accepts them."""
    m = _FAMILY_RE.match(name)
    if not m:
        raise UnknownName(name)
    kind, n = m.group(1), int(m.group(2))
    _at_least_three(kind, n)
    return kind, n


def names() -> list:
    """The named (non-parametric) catalog entries in canonical order."""
    return list(_NAMED)


def family_of(name: str) -> str:
    if name in _NAMED:
        return _NAMED[name][0]
    return _member(name)[0]


@lru_cache(maxsize=None)
def make(name: str) -> Tiling:
    """Build a catalog tiling by name.

    Accepts the named entries (``T`` ... ``sD``, ``J1`` ... ``J83``) and the
    parametric families ``prism(m)``, ``antiprism(m)``, ``hosohedron(n)``,
    ``dihedron(n)``.
    """
    if name in _BUILDERS:
        return _BUILDERS[name]()
    kind, n = _member(name)
    return _FAMILIES[kind][0](n)


_FAMILY_N = range(3, 13)


def all_entries() -> list:
    """Names of every catalog entry, each family over n = 3..12."""
    return names() + [f"{kind}({n})" for kind in _FAMILIES for n in _FAMILY_N]


def _census(arrangements: dict) -> Census:
    """The census that vertex arrangement counts fix: an m-gon has m
    corners, so f_m is the corners of size m over m; 2E is the degree sum."""
    corners: dict = {}
    for arr, k in arrangements.items():
        for m in set(arr):
            corners[m] = corners.get(m, 0) + arr.count(m) * k
    faces = {m: c // m for m, c in sorted(corners.items())}
    e = sum(len(arr) * k for arr, k in arrangements.items()) // 2
    return Census(dict(arrangements), faces, sum(arrangements.values()), e, sum(faces.values()))


def expected_census(name: str) -> Census:
    """The golden census of a catalog entry, derived from its vertex arrangements."""
    if name in _NAMED:
        return _census(_NAMED[name][1])
    kind, n = _member(name)
    return _census(_FAMILIES[kind][1](n))


def manifest() -> dict:
    """Machine-readable catalog summary: names, families and censuses."""
    entries = []
    for name in all_entries():
        c = expected_census(name)
        entries.append(
            {
                "name": name,
                "family": family_of(name),
                "v": c.v,
                "e": c.e,
                "f": c.f,
                "face_counts": {str(m): k for m, k in sorted(c.face_counts.items())},
                "vertex_types": {
                    ".".join(str(s) for s in arr): k
                    for arr, k in sorted(c.vertex_types.items())
                },
            }
        )
    return {"entries": entries}
