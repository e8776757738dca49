"""The classified edge-to-edge spherical tilings by regular polygons.

``make(name)`` builds any member of the classification: the five Platonic
and thirteen Archimedean tilings, the twenty-five circumscribable Johnson
tilings, and the prism / antiprism / hosohedron / dihedron families.
Constructors are coordinate-free combinatorial recipes: duality,
truncation, rectification, expansion and snubbing derive D and the
Archimedean tilings from a seed entry.  J1, J2, J4, J5 and J19 are face
lists, J11, J62 and J63 the icosahedron under ``pyramid_diminish``, and
the other Johnson tilings their parents under cupola rotation and
diminishing or hemisphere rotation and cutting, which treat a cupola and
a hemisphere as caps of one cut-and-reglue operator, ``_apply_cupola_ops``.
A builder reaches its parent through ``make``, whose cache is the one
place a built entry is kept, so a pass over ``all_entries()`` builds each
map once.  The twelve eD derivatives J72-J83 are the rows of
``_ED_RECIPES``: ``derive_from_ed`` looks a recipe up there, and
``_from_ed`` builds a row.

Every entry carries golden angles, edge length and census (kept as its
vertex arrangement counts), against which ``tilemap.validate`` runs.  The
named entries' angles are closed forms (sD's a sextic root) or a parent's;
a hosohedron's digon is 2*pi/n and a dihedron's n-gon pi; other prisms and
antiprisms up to 12 read ``_PINNED_FAMILY_ANGLES``, larger ones the one
solution of ``solve_vertex_system``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .algsolve import (
    AngleAssignment,
    _one_solution,
    snub_dodecahedron_cos,
    solve_vertex_system,
)
from .sphkernel import TWO_PI, DomainError, _check_size, angle_from_edge
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
    angles: AngleAssignment


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
    return [tuple(t.face_of[d] for d in r) for r in t.vertex_rotations]


def _rectified_faces(t: TilingMap) -> list:
    ids = t.edge_of
    return [tuple(ids[d] for d in cyc) for cyc in t.faces + t.vertex_rotations]


def _expanded_faces(t: TilingMap) -> list:
    faces = list(t.faces + t.vertex_rotations)
    for d in range(t.num_darts):
        dp = t.edge_pair[d]
        if d < dp:
            faces.append((d, t.face_next[d], dp, t.face_next[dp]))
    return faces


def _snub_faces(t: TilingMap) -> list:
    faces = list(t.faces + t.vertex_rotations)
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
    faces += [tuple(("corner", d) for d in t.vertex_rotations[v]) for v in vertices]
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


_TETRAHEDRON_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]


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


def _differ(a: float, b: float) -> bool:
    """Whether two angles disagree: the operators' one agreement test, 1e-9."""
    return abs(a - b) > 1e-9


def _tiling(
    t: TilingMap,
    assign: AngleAssignment,
    derived: Sequence = (),
    error: type = PreconditionFailed,
) -> Tiling:
    """Pair a map with its angle assignment: the one way a Tiling is made.

    Each derived ``(size, angle)`` pair is added in order; a size that
    already has an angle must agree with it (``_differ``), or ``error`` is
    raised.  The assignment then keeps exactly the face sizes of the map.
    """
    angles = dict(assign.angles)
    for k, a in derived:
        if k in angles and _differ(angles[k], a):
            raise error(f"size {k} angle {a!r} conflicts with the existing {angles[k]!r}")
        angles[k] = a
    present = {len(cyc) for cyc in t.faces}
    kept = {m: a for m, a in angles.items() if m in present}
    return Tiling(t, AngleAssignment(kept, assign.edge))


def _splice(
    t: TilingMap,
    assign: AngleAssignment,
    removed,
    added: Sequence,
    derived: Sequence = (),
    error: type = PreconditionFailed,
) -> Tiling:
    """The one shape of every operator on a Tiling: cut the ``removed``
    faces of ``t`` and put in the ``added`` vertex cycles.

    The new map's faces are the vertex cycles of every face not in
    ``removed``, in face order, then ``added`` in order.  ``_tiling`` pairs
    it with ``assign`` and the ``derived`` angles of the new faces, raising
    ``error`` on a conflict.  Callers read each face or vertex index first
    by the one index rule, ``_check_size(i, 0, most=count - 1)``.
    """
    kept = [t.face_vertex_cycle(f) for f in range(t.num_faces) if f not in removed]
    return _tiling(build_from_faces(kept + list(added)), assign, derived, error)


def _added_angle(assign: AngleAssignment, m: int) -> float:
    """The angle of the regular m-gons a subdivision adds: the tiling's
    own, else that of the m-gon on the tiling's edge, which the new faces
    share; ``PreconditionFailed`` if the edge admits no m-gon."""
    try:
        return assign.angles[m] if m in assign.angles else angle_from_edge(m, assign.edge)
    except DomainError as exc:
        raise PreconditionFailed(str(exc)) from None


def pyramid_subdivide(tiling: Tiling, face: int) -> Tiling:
    """Cone a face from a new central vertex, making m new triangles.

    Requires the face angle to equal twice the triangle angle, so the new
    triangles are regular.  A dihedron's face may be coned (a square of
    dihedron(4) gives J1); a hosohedron's digon may not, as no triangle
    has its edge, pi.
    """
    t, assign = tiling
    face = _check_size(face, 0, most=t.num_faces - 1, what="face")
    m = t.face_size(face)
    a3, am = _added_angle(assign, 3), assign.angle(m)
    if _differ(am, 2.0 * a3):
        raise PreconditionFailed(f"pyramid subdivision needs angle({m}) = 2*angle(3); got {am}")
    centre = ("pyramid-apex", face)
    cyc = t.face_vertex_cycle(face)
    added = [(cyc[i], cyc[(i + 1) % m], centre) for i in range(m)]
    return _splice(t, assign, {face}, added, [(3, a3)])


def pyramid_diminish(tiling: Tiling, vertices: Sequence[int]) -> Tiling:
    """Remove vertices whose stars are all triangles, leaving link faces.

    The inverse of ``pyramid_subdivide``; the removed vertices must be
    pairwise non-adjacent with disjoint stars.
    """
    t, assign = tiling
    vertices = [_check_size(v, 0, most=t.num_vertices - 1, what="vertex") for v in vertices]
    removed: set = set()
    links = []
    for v in vertices:
        star = [t.face_of[d] for d in t.vertex_rotations[v]]
        if any(t.face_size(f) != 3 for f in star):
            raise PreconditionFailed(f"vertex {v} has a non-triangular face")
        if removed.intersection(star):
            raise InvalidSite("vertex stars overlap")
        removed.update(star)
        link = tuple(t.target(d) for d in t.vertex_rotations[v])
        if any(u in vertices for u in link):
            raise InvalidSite("removed vertices are adjacent")
        links.append(link)
    # each corner of a link face spans the corners of two removed triangles
    derived = [(len(link), 2.0 * assign.angle(3)) for link in links]
    return _splice(t, assign, removed, links, derived)


def cupola_subdivide(tiling: Tiling, face: int, phase: int = 0) -> Tiling:
    """Attach a cupola cap inside an even face: triangles on every other
    edge, squares between them, and a half-size top face.

    Requires angle(m) = angle(3) + angle(4).  ``phase``, from 0 to m - 1,
    is the position in the face's vertex cycle where the first triangle
    starts; the two phases 0 and 1 generally give the ortho and gyro
    attachments.
    """
    t, assign = tiling
    face = _check_size(face, 0, most=t.num_faces - 1, what="face")
    m = t.face_size(face)
    phase = _check_size(phase, 0, most=m - 1, what="phase")
    if m % 2 != 0 or m < 6:
        raise PreconditionFailed(f"cupola subdivision needs an even face size >= 6, got {m}")
    a3, a4, am = _added_angle(assign, 3), _added_angle(assign, 4), assign.angle(m)
    if _differ(am, a3 + a4):
        raise PreconditionFailed("cupola subdivision needs angle(m) = angle(3) + angle(4)")
    k = m // 2
    cyc = t.face_vertex_cycle(face)
    b = [cyc[(i + phase) % m] for i in range(m)]
    top = [("cupola-top", face, j) for j in range(k)]
    added = []
    for j in range(k):
        added.append((b[2 * j], b[2 * j + 1], top[j]))
        added.append((b[2 * j + 1], b[(2 * j + 2) % m], top[(j + 1) % k], top[j]))
    added.append(tuple(top))
    return _splice(t, assign, {face}, added, [(3, a3), (4, a4), (k, TWO_PI - 2.0 * a4 - a3)])


def prism_subdivide(tiling: Tiling, face: int) -> Tiling:
    """Line a (concave) face with squares, leaving a convex copy inside.

    Requires angle(m) = 2*angle(4).
    """
    t, assign = tiling
    face = _check_size(face, 0, most=t.num_faces - 1, what="face")
    m = t.face_size(face)
    a4, am = _added_angle(assign, 4), assign.angle(m)
    if _differ(am, 2.0 * a4):
        raise PreconditionFailed("prism subdivision needs angle(m) = 2*angle(4)")
    cyc = t.face_vertex_cycle(face)
    inner = [("prism-inner", face, i) for i in range(m)]
    added = [(cyc[i], cyc[(i + 1) % m], inner[(i + 1) % m], inner[i]) for i in range(m)]
    added.append(tuple(inner))
    # the removed m-gon is the map's only one: its angle 2*angle(4) exceeds
    # pi, so its area exceeds a hemisphere; size m now names the convex copy
    convex = AngleAssignment({**assign.angles, m: TWO_PI - 2.0 * a4}, assign.edge)
    return _splice(t, convex, {face}, added, [(4, a4)])


def shrink(t: TilingMap, face: int) -> TilingMap:
    """Collapse a face whose vertices all have degree 3 to a single vertex;
    ``NotEdgeToEdge`` if a face is left with fewer than 3 vertices."""
    return _shrink(t, [_check_size(face, 0, most=t.num_faces - 1, what="face")])


def truncate(t: TilingMap, vertex: int) -> TilingMap:
    """Replace a degree-k vertex by a k-gon (the inverse of shrinking)."""
    vertex = _check_size(vertex, 0, most=t.num_vertices - 1, what="vertex")
    return build_from_faces(_truncated_faces(t, [vertex]))


def shrink_all(t: TilingMap, size: int) -> TilingMap:
    """Shrink every current face of the given size simultaneously.

    The targets must be pairwise vertex-disjoint with all their vertices
    of degree 3; faces of the same size created by the collapse itself are
    not re-shrunk.
    """
    targets = faces_of_size(t, size)
    return _shrink(t, targets) if targets else t


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
        cyc = (owner.get(v, v) for v in t.face_vertex_cycle(f))
        collapsed = [v for v, _ in itertools.groupby(cyc)]
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


class CupolaSite(NamedTuple):
    """A cupola cap: top face, its ring of squares and triangles, and the
    ordered boundary cycle separating the cap from the rest."""

    top: int
    faces: frozenset
    boundary: tuple
    interior: frozenset

    @property
    def vertices(self) -> frozenset:
        return self.interior | frozenset(self.boundary)


def find_cupola_sites(t: TilingMap) -> list:
    """All cupola caps of a map, in top face order: a k-gon top (k = 3, 4
    or 5) at degree-4 vertices, edged by squares with triangles at its
    corners.

    The ring fixes the cap's boundary: each ring square's far edge, then
    the far edge of the corner triangle after it.  The 2k boundary
    vertices start at the origin of the least of those darts, and a cap
    is kept only when they are distinct and off the top face.
    """
    nxt, pair, face_of, size = t.face_next, t.edge_pair, t.face_of, t.face_size_of
    sites = []
    for top, darts in enumerate(t.faces):
        k = len(darts)
        if k not in (3, 4, 5) or any(t.degree(t.origin[d]) != 4 for d in darts):
            continue
        border = []
        for d in darts:
            far = nxt[nxt[pair[d]]]
            border += [far, nxt[pair[nxt[far]]]]
        squares, triangles = border[0::2], border[1::2]
        ring = {face_of[d] for d in squares}
        corners = {face_of[d] for d in triangles}
        if len(ring) != k or len(corners) != k:
            continue
        if any(size[d] != 4 for d in squares) or any(size[d] != 3 for d in triangles):
            continue
        i = border.index(min(border))
        boundary = tuple(t.origin[d] for d in border[i:] + border[:i])
        interior = frozenset(t.face_vertex_cycle(top))
        if len(set(boundary)) != 2 * k or not interior.isdisjoint(boundary):
            continue
        sites.append(CupolaSite(top, frozenset([top, *ring, *corners]), boundary, interior))
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
    t, assign = tiling
    sites = [*rotate_sites, *diminish_sites]
    vertices = [{t.origin[d] for f in s.faces for d in t.faces[f]} for s in sites]
    for a, b in itertools.combinations(vertices, 2):
        if a & b:
            raise InvalidSite("cupola sites overlap")
    added, derived = [], []
    for s in rotate_sites:
        n = len(s.boundary)
        relabel = {s.boundary[i]: s.boundary[(i + shift) % n] for i in range(n)}
        added += [tuple(relabel.get(v, v) for v in t.face_vertex_cycle(f)) for f in s.faces]
    for s in diminish_sites:
        added.append(s.boundary)
        b0 = s.boundary[0]
        outside = [
            t.face_size(t.face_of[d])
            for d in t.vertex_rotations[b0]
            if t.face_of[d] not in s.faces
        ]
        derived.append((len(s.boundary), TWO_PI - sum(assign.angle(m) for m in outside)))
    removed = set().union(*(s.faces for s in sites))
    return _splice(t, assign, removed, added, derived, InvalidSite)


def _cupola_site(tiling: Tiling, site) -> CupolaSite:
    """``site`` as the map's own ``CupolaSite``; ``InvalidSite`` unless it
    is one of ``find_cupola_sites(tiling.map)``."""
    sites = find_cupola_sites(tiling.map)
    if site not in sites:
        raise InvalidSite("the site is no cupola site of the tiling")
    return sites[sites.index(site)]


def rotate_cupola(tiling: Tiling, site: CupolaSite) -> Tiling:
    """Detach a cupola cap and reattach it offset by one boundary step.
    ``InvalidSite`` unless ``site`` is one of the map's cupola sites."""
    return _apply_cupola_ops(tiling, rotate_sites=[_cupola_site(tiling, site)])


def diminish_cupola(tiling: Tiling, site: CupolaSite) -> Tiling:
    """Remove a cupola cap, making its boundary cycle a single face.
    ``InvalidSite`` unless ``site`` is one of the map's cupola sites."""
    return _apply_cupola_ops(tiling, diminish_sites=[_cupola_site(tiling, site)])


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
        d = d0
        while t.degree(t.target(d)) == 4:
            d = t.vertex_next[t.vertex_next[t.edge_pair[d]]]
            if d == d0:
                seen.update(path)
                seen.update(t.edge_pair[x] for x in path)
                cycles.append(path)
                break
            path.append(d)
    return cycles


def equatorial_cycles(tiling: Tiling) -> list:
    """Straight cycles whose two sides both sum to angle pi at each vertex."""
    t, assign = tiling

    def side(d: int) -> float:
        # the two faces at d's head between the cycle's back and forward darts
        back = t.vertex_next[t.edge_pair[d]]
        return sum(assign.angle(t.face_size(t.face_of[e])) for e in (back, t.vertex_next[back]))

    return [path for path in _straight_cycles(t) if not any(_differ(side(d), PI) for d in path)]


class _Cap(NamedTuple):
    faces: frozenset
    boundary: tuple


def _hemisphere(tiling: Tiling, path: Sequence[int]) -> _Cap:
    """The far side of an equatorial cycle as a cap: the faces reached from
    across ``path[0]`` without crossing the cycle.  ``InvalidSite`` unless
    ``path`` is one of ``equatorial_cycles(tiling)`` up to a cyclic rotation."""
    t = tiling.map
    path = list(path)
    for equator in equatorial_cycles(tiling):
        if len(equator) == len(path) and path[0] in equator:
            i = equator.index(path[0])
            if equator[i:] + equator[:i] == path:
                path = equator[i:] + equator[:i]  # the map's own darts
                break
    else:
        raise InvalidSite("the dart path is no equatorial cycle of the tiling")
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
    """Cut along an equatorial cycle and reglue one side offset by ``shift``
    steps, from 0 to the cycle's length less 1."""
    cap = _hemisphere(tiling, path)
    shift = _check_size(shift, 0, most=len(cap.boundary) - 1, what="shift")
    return _apply_cupola_ops(tiling, rotate_sites=[cap], shift=shift)


def cut_hemisphere(tiling: Tiling, path: Sequence[int]) -> Tiling:
    """Keep one side of an equatorial cycle and seal it with one face.

    The new face is a hemisphere: its angle, 2*pi minus the kept side's
    angles at a cycle vertex, is pi, since the cycle is a great circle.
    """
    return _apply_cupola_ops(tiling, diminish_sites=[_hemisphere(tiling, path)])


# --------------------------------------------------------------------------
# golden angle data
# --------------------------------------------------------------------------


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


#: the angles of the 18 prism and antiprism members of ``all_entries()``, to
#: the last bit of the former multistart Newton solver, whose monotone-convex
#: solution ``tests/test_algsolve.py`` still computes and checks against this
#: table.  ``solve_vertex_system`` agrees with them within 1e-12 but not in
#: every bit, and the bits are pinned: ``perfbench/reference.json`` holds the
#: export digests of prism and antiprism 6 and 12, and
#: ``tests/test_golden_bytes.py`` the report and export digests of all 18.
#: The benchmark change that re-records both deletes this table (ROADMAP
#: item 1, step 5).
_PINNED_FAMILY_ANGLES = {
    ("prism", 3): {3: 1.4454684956268313, 4: 2.418858405776377},
    ("prism", 5): {4: 1.9235588160682082, 5: 2.4360676750431693},
    ("prism", 6): {4: 1.8234765819369751, 6: 2.6362321433056364},
    ("prism", 7): {4: 1.7601815023092984, 7: 2.7628223025609895},
    ("prism", 8): {4: 1.7177715174584016, 8: 2.8476422722627825},
    ("prism", 9): {4: 1.688042544950399, 9: 2.907100217278788},
    ("prism", 10): {4: 1.6664335535985486, 10: 2.950318199982489},
    ("prism", 11): {4: 1.6502531409049506, 11: 2.982679025369685},
    ("prism", 12): {4: 1.6378338249998232, 12: 3.00751765717994},
    ("antiprism", 4): {3: 1.3621796364857481, 4: 2.196646397722342},
    ("antiprism", 5): {3: 1.2566370614359172, 5: 2.513274122871834},
    ("antiprism", 6): {3: 1.1960618940861567, 6: 2.694999624921116},
    ("antiprism", 7): {3: 1.1582221150100298, 7: 2.808518962149497},
    ("antiprism", 8): {3: 1.1330719031830605, 8: 2.883969597630405},
    ("antiprism", 9): {3: 1.1155399186667396, 9: 2.9365655511793674},
    ("antiprism", 10): {3: 1.1028475634922073, 10: 2.9746426167029636},
    ("antiprism", 11): {3: 1.0933720716693067, 11: 3.003069092171666},
    ("antiprism", 12): {3: 1.0861156637373974, 12: 3.024838315967394},
}


def _family_angles(kind: str, m: int) -> AngleAssignment:
    pinned = _PINNED_FAMILY_ANGLES.get((kind, m))
    if pinned is not None:
        # the edge from the smallest face, as the multistart derived it
        return AngleAssignment.from_angles(pinned)
    t = (4, 4, m) if kind == "prism" else (3, 3, 3, m)
    return _one_solution(solve_vertex_system(t), f"{kind}({m})")


# --------------------------------------------------------------------------
# entry builders
# --------------------------------------------------------------------------


def _golden(faces: list, group: str) -> Tiling:
    """The tiling with these faces and a golden group's angles."""
    return _tiling(build_from_faces(faces), _golden_angles(group))


def _derived(seed: str, faces_of, group: str) -> Tiling:
    """The tiling whose faces ``faces_of`` derives from a seed entry's map:
    its dual, truncation, rectification, expansion or snub."""
    return _golden(faces_of(make(seed).map), group)


def _j1() -> Tiling:
    return _golden([(0, 1, 2, 3), (4, 1, 0), (4, 2, 1), (4, 3, 2), (4, 0, 3)], "O")


def _j2() -> Tiling:
    faces = [(0, 1, 2, 3, 4), (5, 1, 0), (5, 2, 1), (5, 3, 2), (5, 4, 3), (5, 0, 4)]
    return _golden(faces, "J2")


def _on_cupola(seed: str, rotate: bool) -> Tiling:
    """A seed entry with its first cupola site in canonical order rotated or
    diminished: aC diminished (J3) or eC with a cupola rotated (J37).  The
    site is the map's own, so ``_apply_cupola_ops`` takes it unchecked."""
    t = make(seed)
    site = _canonical_sites(t.map, find_cupola_sites(t.map))[:1]
    if rotate:
        return _apply_cupola_ops(t, rotate_sites=site)
    return _apply_cupola_ops(t, diminish_sites=site)


def _cupola(k: int, group: str) -> Tiling:
    """The standalone k-gonal cupola, whose 2k-gon base is concave: the
    reflex complement of the group's convex 2k-gon."""
    base = _golden_angles(group)
    concave = AngleAssignment({**base.angles, 2 * k: TWO_PI - base.angles[2 * k]}, base.edge)
    return _tiling(build_from_faces(_cupola_faces(k)), concave)


def _j19() -> Tiling:
    # the square cupola without its base, a ring of 8 squares 0..7 / 12..19
    # and the octagon 12..19 closing it
    faces = _cupola_faces(4)[1:]
    faces += [(i, (i + 1) % 8, 12 + (i + 1) % 8, 12 + i) for i in range(8)]
    faces.append(tuple(range(12, 20)))
    return _golden(faces, "eC")


def _on_equator(seed: str, op=rotate_hemisphere) -> Tiling:
    """``op`` on a seed entry's first equatorial cycle: aC or aD with one
    hemisphere turned (J27, J34), or aD with one cut off (J6)."""
    t = make(seed)
    return op(t, equatorial_cycles(t)[0])


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


def _diminished_icosahedron(n_removed: int) -> Tiling:
    """The icosahedron less 1, 2 or 3 pairwise non-adjacent vertices: vertex
    0, the first vertex two steps from it, and the first vertex two steps
    from both (J11, J62 and J63)."""
    ico = make("I")
    t = ico.map
    adj = [[t.target(d) for d in r] for r in t.vertex_rotations]
    from_0 = _distances(adj, 0)
    two = from_0.index(2)
    from_two = _distances(adj, two)
    third = next(
        w for w in range(t.num_vertices) if w != two and from_0[w] == from_two[w] == 2
    )
    return pyramid_diminish(ico, [0, two, third][:n_removed])


# --- eD cupola machinery ----------------------------------------------------


def _canonical_sites(t: TilingMap, sites) -> list:
    return sorted(sites, key=lambda s: tuple(sorted(t.face_vertex_cycle(s.top))))


@lru_cache(maxsize=1)
def _ed_sites() -> tuple:
    """eD and four of its pentagonal cupola sites, in canonical site order:
    the first site a, the site farthest from a in the dual graph, and the
    first two sites b and c that share no vertex with a or each other."""
    ed = make("eD")
    t = ed.map
    sites = _canonical_sites(t, find_cupola_sites(t))
    a = sites[0]
    fadj = [[t.face_of[t.edge_pair[d]] for d in cyc] for cyc in t.faces]
    dist = _distances(fadj, a.top)
    far = max(sites, key=lambda s: dist[s.top])
    b = next(s for s in sites if a.vertices.isdisjoint(s.vertices))
    c = next(s for s in sites if (a.vertices | b.vertices).isdisjoint(s.vertices))
    return ed, a, far, b, c


def derive_from_ed(
    dim: int = 0,
    rot: int = 0,
    dim_rel: Optional[str] = None,
    rot_rel: Optional[str] = None,
) -> Tiling:
    """The catalog entry that a diminish/rotate recipe on eD's pentagonal
    cupolas gives: eD itself for no operation, else the ``_ED_RECIPES``
    row that the recipe spells.

    ``dim``/``rot`` count the operations.  A pair of them takes a relation
    ``"o"`` (opposite) or ``"n"`` (non-opposite) on a nonzero count; in a
    mixed pair it may sit on either count, or on both.  Any other recipe
    raises ``InvalidSite``.  ``_from_ed`` builds each row.
    """
    return make(_ed_entry(dim, rot, dim_rel, rot_rel))


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


def _ed_entry(dim, rot, dim_rel, rot_rel) -> str:
    """The name of the eD recipe that ``derive_from_ed``'s arguments spell."""
    spelled = dict(dim=dim, rot=rot, dim_rel=dim_rel, rot_rel=rot_rel)
    if dim and rot and dim_rel is not None and rot_rel in (None, dim_rel):
        # the table keeps a mixed pair's relation on its rotation
        spelled.update(dim_rel=None, rot_rel=dim_rel)
    spelled = {k: v for k, v in spelled.items() if v not in (0, None)}
    for name, row in {"eD": {}, **_ED_RECIPES}.items():
        if row == spelled:
            return name
    raise InvalidSite(
        f"no eD recipe with dim={dim!r}, rot={rot!r} and qualifiers {dim_rel!r}, "
        f"{rot_rel!r}: up to three cupola operations fit, a pair of them needs "
        "one 'o' (opposite) or 'n' (non-opposite) qualifier on a nonzero count, "
        "and no other recipe takes a qualifier"
    )


def _from_ed(name: str):
    """The builder of an eD derivative from its ``_ED_RECIPES`` row, on the
    sites of ``_ed_sites``: an opposite pair takes a and the site farthest
    from it, any other recipe a, b and c in turn, diminished sites first."""

    def build() -> Tiling:
        row = _ED_RECIPES[name]
        dim, rot = row.get("dim", 0), row.get("rot", 0)
        ed, a, far, b, c = _ed_sites()
        sites = [a, far] if "o" in row.values() else [a, b, c]
        return _apply_cupola_ops(ed, rotate_sites=sites[dim:dim + rot], diminish_sites=sites[:dim])

    return build


#: the largest n of a family member: prism(100000) verifies in ~7 s at
#: ~480 MB peak RSS, and memory grows linearly past it
MAX_FAMILY_N = 100_000


def _family_size(kind: str, n: int) -> int:
    """n as an int, by the count rule of ``_check_size`` up to ``MAX_FAMILY_N``."""
    return _check_size(n, most=MAX_FAMILY_N, what=f"{kind} n")


def make_prism(m: int) -> Tiling:
    """Prism over an m-gon; prism(4) is the cube."""
    m = _family_size("prism", m)
    if m == 4:
        return make("C")
    return _tiling(build_from_faces(_prism_faces(m)), _family_angles("prism", m))


def make_antiprism(m: int) -> Tiling:
    """Antiprism over an m-gon; antiprism(3) is the octahedron."""
    m = _family_size("antiprism", m)
    if m == 3:
        return make("O")
    return _tiling(build_from_faces(_antiprism_faces(m)), _family_angles("antiprism", m))


def make_hosohedron(n: int) -> Tiling:
    """Fan of n digons between two poles; angle 2*pi/n, edge pi."""
    n = _family_size("hosohedron", n)
    return _tiling(digon_fan(n), AngleAssignment({2: TWO_PI / n}, PI))


def make_dihedron(n: int) -> Tiling:
    """Two hemispherical n-gons sharing a great-circle boundary."""
    n = _family_size("dihedron", n)
    ring = tuple(range(n))
    return _tiling(build_from_faces([ring, ring]), AngleAssignment({n: PI}, TWO_PI / n))


# --------------------------------------------------------------------------
# families, names and golden censuses
# --------------------------------------------------------------------------

#: every named entry in canonical order: its family, its golden census (the
#: vertex arrangement counts, from which the rest is derived) and its recipe
_NAMED = {
    "T": ("platonic", {(3, 3, 3): 4}, lambda: _golden(_TETRAHEDRON_FACES, "T")),
    "C": ("platonic", {(4, 4, 4): 8}, lambda: _golden(_prism_faces(4), "C")),
    "O": ("platonic", {(3, 3, 3, 3): 6}, lambda: _golden(_antiprism_faces(3), "O")),
    "D": ("platonic", {(5, 5, 5): 20}, lambda: _derived("I", _dual_faces, "D")),
    "I": ("platonic", {(3, 3, 3, 3, 3): 12}, lambda: _golden(_icosahedron_faces(), "I")),
    "tT": ("archimedean", {(3, 6, 6): 12}, lambda: _derived("T", _truncated_faces, "tT")),
    "aC": ("archimedean", {(3, 4, 3, 4): 12}, lambda: _derived("C", _rectified_faces, "aC")),
    "tC": ("archimedean", {(3, 8, 8): 24}, lambda: _derived("C", _truncated_faces, "tC")),
    "tO": ("archimedean", {(4, 6, 6): 24}, lambda: _derived("O", _truncated_faces, "tO")),
    "eC": ("archimedean", {(3, 4, 4, 4): 24}, lambda: _derived("C", _expanded_faces, "eC")),
    "bC": ("archimedean", {(4, 6, 8): 48}, lambda: _derived("aC", _truncated_faces, "bC")),
    "sC": ("archimedean", {(3, 3, 3, 3, 4): 24}, lambda: _derived("C", _snub_faces, "sC")),
    "aD": ("archimedean", {(3, 5, 3, 5): 30}, lambda: _derived("D", _rectified_faces, "aD")),
    "tD": ("archimedean", {(3, 10, 10): 60}, lambda: _derived("D", _truncated_faces, "tD")),
    "tI": ("archimedean", {(5, 6, 6): 60}, lambda: _derived("I", _truncated_faces, "tI")),
    "eD": ("archimedean", {(3, 4, 5, 4): 60}, lambda: _derived("D", _expanded_faces, "eD")),
    "bD": ("archimedean", {(4, 6, 10): 120}, lambda: _derived("aD", _truncated_faces, "bD")),
    "sD": ("archimedean", {(3, 3, 3, 3, 5): 60}, lambda: _derived("D", _snub_faces, "sD")),
    "J1": ("johnson", {(3, 3, 4): 4, (3, 3, 3, 3): 1}, _j1),
    "J2": ("johnson", {(3, 3, 5): 5, (3, 3, 3, 3, 3): 1}, _j2),
    "J3": ("johnson", {(3, 4, 6): 6, (3, 4, 3, 4): 3}, lambda: _on_cupola("aC", rotate=False)),
    "J4": ("johnson", {(3, 4, 8): 8, (3, 4, 4, 4): 4}, lambda: _cupola(4, "eC")),
    "J5": ("johnson", {(3, 4, 5, 4): 5, (3, 4, 10): 10}, lambda: _cupola(5, "eD")),
    "J6": ("johnson", {(3, 5, 3, 5): 10, (3, 5, 10): 10}, lambda: _on_equator("aD", cut_hemisphere)),
    "J11": ("johnson", {(3, 3, 3, 5): 5, (3, 3, 3, 3, 3): 6}, lambda: _diminished_icosahedron(1)),
    "J19": ("johnson", {(3, 4, 4, 4): 12, (4, 4, 8): 8}, _j19),
    "J27": ("johnson", {(3, 3, 4, 4): 6, (3, 4, 3, 4): 6}, lambda: _on_equator("aC")),
    "J34": ("johnson", {(3, 5, 3, 5): 20, (3, 3, 5, 5): 10}, lambda: _on_equator("aD")),
    "J37": ("johnson", {(3, 4, 4, 4): 24}, lambda: _on_cupola("eC", rotate=True)),
    "J62": (
        "johnson",
        {(3, 5, 5): 2, (3, 3, 3, 5): 6, (3, 3, 3, 3, 3): 2},
        lambda: _diminished_icosahedron(2),
    ),
    "J63": ("johnson", {(3, 5, 5): 6, (3, 3, 3, 5): 3}, lambda: _diminished_icosahedron(3)),
    "J72": ("johnson", {(3, 4, 5, 4): 50, (3, 4, 4, 5): 10}, _from_ed("J72")),
    "J73": ("johnson", {(3, 4, 5, 4): 40, (3, 4, 4, 5): 20}, _from_ed("J73")),
    "J74": ("johnson", {(3, 4, 5, 4): 40, (3, 4, 4, 5): 20}, _from_ed("J74")),
    "J75": ("johnson", {(3, 4, 5, 4): 30, (3, 4, 4, 5): 30}, _from_ed("J75")),
    "J76": ("johnson", {(3, 4, 5, 4): 45, (4, 5, 10): 10}, _from_ed("J76")),
    "J77": ("johnson", {(3, 4, 5, 4): 35, (3, 4, 4, 5): 10, (4, 5, 10): 10}, _from_ed("J77")),
    "J78": ("johnson", {(3, 4, 5, 4): 35, (3, 4, 4, 5): 10, (4, 5, 10): 10}, _from_ed("J78")),
    "J79": ("johnson", {(3, 4, 5, 4): 25, (3, 4, 4, 5): 20, (4, 5, 10): 10}, _from_ed("J79")),
    "J80": ("johnson", {(3, 4, 5, 4): 30, (4, 5, 10): 20}, _from_ed("J80")),
    "J81": ("johnson", {(3, 4, 5, 4): 30, (4, 5, 10): 20}, _from_ed("J81")),
    "J82": ("johnson", {(3, 4, 5, 4): 20, (3, 4, 4, 5): 10, (4, 5, 10): 20}, _from_ed("J82")),
    "J83": ("johnson", {(3, 4, 5, 4): 15, (4, 5, 10): 30}, _from_ed("J83")),
}

#: each parametric family in catalog order: (maker, n -> golden arrangement counts)
_FAMILIES = {
    "prism": (make_prism, lambda n: {canonical_arrangement((4, 4, n)): 2 * n}),
    "antiprism": (make_antiprism, lambda n: {canonical_arrangement((3, 3, 3, n)): 2 * n}),
    "hosohedron": (make_hosohedron, lambda n: {(2,) * n: 2}),
    "dihedron": (make_dihedron, lambda n: {(n, n): n}),
}

#: every family name, in catalog order
FAMILIES = (*dict.fromkeys(family for family, *_ in _NAMED.values()), *_FAMILIES)
PLATONIC, ARCHIMEDEAN, JOHNSON = (
    tuple(name for name, (family, *_) in _NAMED.items() if family == named)
    for named in FAMILIES[:3]
)

_FAMILY_RE = re.compile(rf"({'|'.join(_FAMILIES)})\((0|[1-9][0-9]*)\)")


def _member(name: str) -> tuple:
    """The family and n of a parametric family member, as ``make`` accepts them.

    Each member has one spelling: n in ASCII digits with no leading zero.
    """
    m = _FAMILY_RE.fullmatch(name)
    if not m:
        raise UnknownName(name)
    kind, digits = m.groups()
    if len(digits) > len(str(MAX_FAMILY_N)):
        # too large, and int() refuses a string of over 4300 digits
        raise DomainError(
            f"{kind} n must be an integer between 3 and {MAX_FAMILY_N}, got {len(digits)} digits"
        )
    return kind, _family_size(kind, int(digits))


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
    if name in _NAMED:
        return _NAMED[name][2]()
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
