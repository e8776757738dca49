"""Unit-sphere embeddings of validated tilings, plus OBJ/JSON export.

``realize`` places the seed face with its centre at the north pole using
the circumradius, then walks the faces breadth first.  The walk's face
order depends only on the map, so it is listed first, in pure Python,
level by level: each face of a level starts from the partner of a dart of
its parent, whose two endpoints an earlier level placed.  Each level is
then realized in one broadcast: every face centre follows from its start
edge, and one Rodrigues rotation about each centre carries the edge's
first vertex to all the face's other vertices.  The first occurrence of a
vertex in the walk places it, and every later one measures the closure
discrepancy, so the walk doubles as a consistency check of the angle
assignment.

Every embedding is measured in one way: ``_measure_corners`` reads every
corner of the map from one array, the (3, V) positions (a hosohedron's
(3, E) edge midpoints), and the embedding keeps the angles for
``total_area`` and ``face_angles`` and the positions for the export.
``realize`` measures every dart once, edge lengths included; an embedding
built any other way is measured whole at its first read.

Every kernel holds the three coordinates on the leading axis of a (3, N)
array, so each gather, cross product, dot and sum over the components
works on whole contiguous rows.  Positions are (V, 3) rows only where the
export formats them: the embedding keeps them so (``realize``'s
transposed once), and the export hands them to the kernels transposed.

Hosohedra (antipodal poles, meridian edges) are placed directly.  Their
edges carry explicit midpoints, by edge id (``TilingMap.edge_of``),
because antipodal endpoints do not determine a great-circle arc: a
digon's corners are measured from them, and ``export_obj`` splits the
arcs there.

The export text is written by the private module ``_text``, imported on
the first export.  ``_text.format17`` writes each coordinate, the OBJ
points' and the JSON positions', as exactly the bytes of ``'%.17g' % x``.
Zero and 1e-24 <= |x| < 10 are written in whole-array steps: the 17
digits come from an exact (Dekker) product with a power of ten.  Every
other value, and a rounding the kernel cannot decide, goes through ``%``
itself; no export writes such a value, and a test checks this.
``_text.json_text`` writes the JSON document with string joins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .algsolve import AngleAssignment
from .sphkernel import TWO_PI, DomainError, _check_angle, _check_size, _check_tol, circumradius
from .tilemap import NotEdgeToEdge, TilingMap, build_from_faces, digon_fan

__all__ = [
    "Embedding",
    "ClosureFailure",
    "realize",
    "face_angles",
    "face_area",
    "total_area",
    "export_obj",
    "export_json",
    "load_json",
]


# the most arc segments export_obj samples per edge
MAX_ARC_STEPS = 1024


class ClosureFailure(RuntimeError):
    """Propagation revisited a vertex with an inconsistent position."""


@dataclass(eq=False)
class Embedding:
    """Vertex positions on the unit sphere plus walk-quality metrics.

    ``positions`` maps each vertex id to its position, a 3-vector.  An
    embedding keeps what it makes from them: its positions as the rows of
    one (V, 3) array, stacked at its first export or measurement (the
    measurement reads its transposed view as (3, V) columns), and the corner
    angle of every dart, measured over the whole map at its first
    measurement (a hosohedron's from its ``arc_midpoints``).  ``realize``'s
    embedding arrives with both.  So positions and midpoints are read
    once: to move a vertex, make a new Embedding (``dataclasses.replace``
    resets both arrays).  Embeddings compare by identity.
    """

    positions: dict
    closure_error: float
    edge_error: float
    angle_error: float
    # midpoint per edge id, for every edge of a hosohedron and no other map
    arc_midpoints: dict = field(default_factory=dict)
    # corner angle per dart and the (V, 3) positions, kept once made
    _angles: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _points: Optional[np.ndarray] = field(default=None, init=False, repr=False)


# component k of a cross product is a[I[k]] * b[J[k]] - a[J[k]] * b[I[k]]
_I = np.array([1, 2, 0])
_J = np.array([2, 0, 1])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of two 3-vectors, or of matching columns of two
    (3, ...) arrays, the components on the leading axis.

    The same products and differences, in the same order, as ``np.cross``,
    so the result is bit-identical, in seven numpy calls.  ``take`` copies
    the same values as fancy indexing at a fraction of its call overhead,
    so here and in ``realize`` it does the gathering; on the leading axis
    each call copies whole component rows.
    """
    return a.take(_I, 0) * b.take(_J, 0) - a.take(_J, 0) * b.take(_I, 0)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching columns of two (3, N) arrays.

    Stacked ``matmul`` over the transposed views reaches the same BLAS dot
    as ``np.dot`` on single 3-vectors, so each column is bit-identical to
    it; ``np.add.reduce(a * b, axis=0)`` and ``einsum`` round differently.
    """
    return (a.T[:, None, :] @ b.T[:, :, None])[:, 0, 0]


def _arc_lengths(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Great-circle distances between matching columns of two (3, N) arrays.

    Each sum over axis 0 adds the three components in order, so a column
    rounds as ``np.linalg.norm`` and ``np.sum`` round a row of an (N, 3)
    array; ``np.add.reduce`` skips their argument handling.
    """
    w = _cross(u, v)
    return np.arctan2(np.sqrt(np.add.reduce(w * w, axis=0)), np.add.reduce(u * v, axis=0))


def _measured(
    t: TilingMap,
    assign: AngleAssignment,
    pos: np.ndarray,
    closure_error: float,
    mids: Optional[np.ndarray] = None,
) -> Embedding:
    """The embedding at positions ``pos`` (a (3, V) array) and edge
    midpoints ``mids`` (a (3, E) array by edge id, for a hosohedron), its
    corner angles and edge lengths measured once against ``assign``.  Each
    edge is measured from both of its darts, to the same bits, and every
    edge of a hosohedron joins its two poles.  The embedding keeps the
    positions, and a hosohedron's midpoints, as rows: one transposed copy
    each."""
    if mids is None:
        angles, lengths = _measure_corners(t, pos)
    else:
        angles, lengths = _measure_corners(t, mids)[0], _arc_lengths(pos[:, :1], pos[:, 1:])
    edge_error = float(np.max(np.abs(lengths - assign.edge)))
    sizes = t.face_size_of
    want = map({m: assign.angle(m) for m in set(sizes)}.__getitem__, sizes)
    angle_error = float(np.max(np.abs(angles - np.fromiter(want, float, len(sizes)))))
    points = pos.T.copy()
    arcs = {} if mids is None else dict(enumerate(mids.T.copy()))
    emb = Embedding(dict(enumerate(points)), closure_error, edge_error, angle_error, arcs)
    emb._angles, emb._points = angles, points
    return emb


def realize(
    t: TilingMap,
    assign: AngleAssignment,
    closure_tol: float = 1e-7,
) -> Embedding:
    """Embed a tiling on the unit sphere by geodesic propagation.

    The seed face is centred at the north pole with its vertices
    counterclockwise on the circumradius circle.  Each further face is
    placed rigidly from its start dart u -> v, the partner of a dart of
    the face that reached it: its centre lies on the side of u x v, and a
    rotation of u about it through the multiples of 2*pi/m gives its m - 1
    other vertices (the cosines and sines are tabled once per face size).
    So every face runs counterclockwise about its centre, like the seed,
    and corner angles are read in that one sense.

    The faces are walked breadth first from the seed.  The walk depends
    only on the map, so it is listed first, level by level, and each level
    is then realized in one broadcast: its start darts' endpoints all lie
    on faces of earlier levels.  The first occurrence of a vertex in the
    walk places it; every later one measures the closure discrepancy, the
    Euclidean distance between the placed and the new position, so the
    walk doubles as a verifier.  Raises ``ClosureFailure`` when the worst
    revisit exceeds ``closure_tol``, which signals an inconsistent angle
    assignment; the message names that vertex (its first worst revisit in
    walk order) and the face whose placement revisited it.  The embedding
    keeps its measured corner angles for ``face_angles`` and ``total_area``.

    ``closure_tol`` must be finite and > 0 (``_check_tol``), and every
    angle read lies in (0, 2*pi), a hosohedron's digon angle included.
    Only a hosohedron has an edge whose cosine rounds to -1 or 1 (pi, or
    within about 1e-8 of 0 or pi): a face centre on such an edge is
    undefined.  Each raises ``DomainError``.
    """
    _check_tol(closure_tol, "closure_tol")
    if t.family == "hosohedron":
        # antipodal poles; edge i of the fan (darts 2i and 2i+1) is the
        # meridian at longitude i * alpha, fixed by its midpoint
        a = assign.angle(2)
        _check_angle(a)
        mids = np.zeros((3, t.num_edges))
        mids[0] = [math.cos(i * a) for i in range(t.num_edges)]
        mids[1] = [math.sin(i * a) for i in range(t.num_edges)]
        poles = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, -1.0]])
        return _measured(t, assign, poles, 0.0, mids)

    origin, edge_pair, face_of, faces = t.origin, t.edge_pair, t.face_of, t.faces
    cosx = math.cos(assign.edge)
    if abs(cosx) == 1.0:
        raise DomainError(f"edge {assign.edge} has cosine {cosx}: only a hosohedron has it")
    radii = {m: circumradius(m, assign.angle(m)) for m in {len(c) for c in faces}}

    # per face size: the coefficients of u + v and u x v in the centre of a
    # face on the directed edge u -> v (equidistant, at geodesic distance r,
    # from both), and the cosines and sines of its turns i * 2pi/m, i = 1 .. m-1
    coef, turns = {}, {}
    for m, r in radii.items():
        a = math.cos(r) / (1.0 + cosx)
        rem = max(1.0 - a * a * (2.0 + 2.0 * cosx), 0.0)
        coef[m] = (a, math.sqrt(rem / (1.0 - cosx * cosx)))
        step = TWO_PI / m
        turns[m] = (
            [math.cos(i * step) for i in range(1, m)],
            [math.sin(i * step) for i in range(1, m)],
        )

    # cols: every position the walk computes, a column each, in walk order,
    # the seed face's first; first[v] is the column that placed vertex v
    m0 = len(faces[0])
    first = [-1] * t.num_vertices
    for j, v in enumerate(t.face_vertex_cycle(0)):
        first[v] = j

    # the walk: per face the columns of its start edge's ends and its centre
    # coefficients; per further column its face's index within the level
    # and its turn; per revisit the vertex, the face and the column, kept
    # flat (a tuple per revisit about doubles their memory on large maps)
    ends, coefs, owner, cos_r, sin_r, revisits, levels = [], [], [], [], [], [], []
    done = [False] * len(faces)
    done[0] = True
    entries = [edge_pair[d] for d in faces[0]]
    while entries:
        children = []
        level = len(ends)
        for d0 in entries:
            f = face_of[d0]
            if done[f]:
                continue
            done[f] = True
            k = faces[f].index(d0)
            darts = faces[f][k:] + faces[f][:k]
            m = len(darts)
            ends.append((first[origin[darts[0]]], first[origin[darts[1]]]))
            coefs.append(coef[m])
            for i, d in enumerate(darts[1:], m0 + len(owner)):
                v = origin[d]
                if first[v] < 0:
                    first[v] = i
                else:
                    revisits += (v, f, i)
            owner += [len(ends) - 1 - level] * (m - 1)
            cos_r += turns[m][0]
            sin_r += turns[m][1]
            # children are queued in the order of the rotated darts, from d0:
            # that order picks each child's start dart (a face already
            # placed by then is skipped)
            children += map(edge_pair.__getitem__, darts)
        if len(ends) > level:
            levels.append((len(ends), m0 + len(owner)))
        entries = children

    # the seed face: centre at the north pole, vertices on the circumradius circle
    cols = np.empty((3, m0 + len(owner)))
    sr, cr = math.sin(radii[m0]), math.cos(radii[m0])
    phis = [TWO_PI * j / m0 for j in range(m0)]
    cols[0, :m0] = [sr * math.cos(phi) for phi in phis]
    cols[1, :m0] = [sr * math.sin(phi) for phi in phis]
    cols[2, :m0] = cr
    # the start edges' end columns and the centre coefficients as (2, F)
    # blocks, and per further column its turn's cosine, sine and 1 - cosine
    ends = np.array(ends, dtype=np.intp).reshape(-1, 2).T
    coefs = np.array(coefs).reshape(-1, 2).T
    owner = np.array(owner, dtype=np.intp)
    turn = np.array([cos_r, sin_r])
    turn = np.concatenate([turn, 1.0 - turn[:1]])

    f0, r0 = 0, m0
    for f1, r1 in levels:
        u, v = cols.take(ends[0, f0:f1], 1), cols.take(ends[1, f0:f1], 1)
        a, b = coefs[:, f0:f1]
        centre = a * (u + v) + b * _cross(u, v)
        centre = centre / np.sqrt(_dot(centre, centre))
        # rotate each face's first vertex about its centre to the others:
        # each column reads its face's u and centre and its own turn
        o = owner[r0 - m0 : r1 - m0]
        u, centre = u.take(o, 1), centre.take(o, 1)
        cos_c, sin_c, cos1_c = turn[:, r0 - m0 : r1 - m0]
        cols[:, r0:r1] = (
            u * cos_c + _cross(centre, u) * sin_c + (centre * _dot(centre, u)) * cos1_c
        )
        f0, r0 = f1, r1

    pos = cols.take(first, 1)
    worst_closure, witness = 0.0, None
    if revisits:
        v, f, col = np.array(revisits, dtype=np.intp).reshape(-1, 3).T
        gap = pos.take(v, 1) - cols.take(col, 1)
        # a NaN gap never counts, as it would not in a scalar `gap > worst`
        gaps = np.fmax(np.sqrt(_dot(gap, gap)), 0.0)
        i = int(np.argmax(gaps))
        worst_closure, witness = float(gaps[i]), (int(v[i]), int(f[i]))
    if worst_closure > closure_tol:
        raise ClosureFailure(
            f"closure error {worst_closure:.3e} at vertex {witness[0]} "
            f"(face {witness[1]}) exceeds {closure_tol:.1e}"
        )

    return _measured(t, assign, pos, worst_closure)


def _measure_corners(t: TilingMap, points: np.ndarray) -> tuple:
    """Per dart: the interior angle at its origin, reflex angles included,
    and the arc to the next corner, as two arrays.

    ``points`` is the (3, V) array of positions by vertex id.  A corner is
    read from the positions of its origin and of the previous and the next
    vertex of its face, so the arc is the dart's edge.  A hosohedron's
    ``points`` are its (3, E) edge midpoints by edge id: a digon's angle is
    the arc between its two edges' midpoints.  ``ClosureFailure`` if a
    corner has a coincident or antipodal neighbour.  The corners are
    gathered as (3, D) and (3, 2, D) arrays.
    """
    n = t.num_darts
    key = np.fromiter(t.edge_of if t.family == "hosohedron" else t.origin, np.intp, n)
    # per dart the previous and the next dart of its face
    around = np.empty((2, n), np.intp)
    around[1] = np.fromiter(t.face_next, np.intp, n)
    around[0, around[1]] = np.arange(n)
    at = points.take(key, 1)
    toward = points.take(key.take(around), 1)
    lengths = _arc_lengths(at, toward[:, 1])
    if t.family == "hosohedron":
        return lengths, lengths
    # tangents at each corner toward the previous and the next face vertex
    tv = toward - at[:, None] * np.add.reduce(at[:, None] * toward, axis=0)
    norm = np.sqrt(np.add.reduce(tv * tv, axis=0))
    if (norm < 1e-14).any():
        raise ClosureFailure("degenerate tangent between coincident/antipodal points")
    t_prev, t_next = (tv / norm).swapaxes(0, 1)
    turn = np.add.reduce(at * _cross(t_prev, t_next), axis=0)
    raw = np.arctan2(turn, np.add.reduce(t_prev * t_next, axis=0))
    # faces run counterclockwise about their centres, so the interior angle
    # is the clockwise turn from t_prev to t_next
    return (-raw) % TWO_PI, lengths


_NO_MIDPOINT = "a hosohedron embedding needs the midpoint of every edge"


def _corners(t: TilingMap, emb: Embedding) -> np.ndarray:
    """The positions by vertex id as the embedding's (V, 3) array, stacked
    from the dict at the first read and kept (``KeyError`` if one is
    missing)."""
    if emb._points is None:
        emb._points = np.array([emb.positions[v] for v in range(t.num_vertices)])
    return emb._points


def _midpoints(t: TilingMap, emb: Embedding) -> Optional[np.ndarray]:
    """A hosohedron's edge midpoints as an (E, 3) array by edge id, None
    for any other map; ``ValueError`` if one is missing (as when rebuilt
    from ``load_json`` positions, which carry none)."""
    if t.family != "hosohedron":
        return None
    try:
        return np.array([emb.arc_midpoints[e] for e in range(t.num_edges)])
    except KeyError:
        raise ValueError(_NO_MIDPOINT) from None


def _corner_angles(t: TilingMap, emb: Embedding) -> np.ndarray:
    """Realized interior angle at the origin of every dart: the
    embedding's kept angles, measured over the whole map at the first read
    from its positions (a hosohedron's midpoints)."""
    if emb._angles is None:
        points = _corners(t, emb) if t.family != "hosohedron" else _midpoints(t, emb)
        emb._angles = _measure_corners(t, points.T)[0]
    return emb._angles


def face_angles(t: TilingMap, emb: Embedding, f: int) -> list:
    """Realized interior angles of a face, reflex angles included, read
    from the embedding's kept angles: the whole map is measured once, so
    summing ``face_area`` over all faces is linear."""
    return _corner_angles(t, emb).take(t.faces[f]).tolist()


def face_area(t: TilingMap, emb: Embedding, f: int) -> float:
    """Spherical-excess area of a face from realized coordinates."""
    return sum(face_angles(t, emb, f)) - (t.face_size(f) - 2) * math.pi


def total_area(t: TilingMap, emb: Embedding) -> float:
    """Spherical-excess area of the tiling: all corner angles less pi * sum(m - 2)."""
    return float(_corner_angles(t, emb).sum()) - math.pi * (t.num_darts - 2 * t.num_faces)


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------


def _sines(x: np.ndarray) -> np.ndarray:
    """``math.sin`` of every entry of ``x``: libm's bits, which ``np.sin``
    need not reproduce on every numpy build."""
    return np.array(list(map(math.sin, x.ravel().tolist()))).reshape(x.shape)


def _arcs(u: np.ndarray, v: np.ndarray, steps: int) -> np.ndarray:
    """Interior sample points of the arcs between matching rows of two
    (N, 3) arrays, as an (N, steps - 1, 3) array.

    Each arc is split into ``steps`` equal parts by spherical linear
    interpolation: its angle g is measured once, with ``math.atan2`` (the
    kernels read the rows as (3, N) transposed views).  The products s * g
    and (1 - s) * g over all arcs and fractions s are two outer products,
    and ``math.sin`` is mapped over them; where 1 - s is exactly another
    fraction (at every s when ``steps`` is a power of two) the sine of that
    fraction's product is reused.  All the points of all the arcs then come
    out of one broadcast.
    """
    fracs = np.arange(1, steps) / steps
    w = _cross(u.T, v.T)
    angs = np.array(
        [math.atan2(y, x) for y, x in zip(np.sqrt(_dot(w, w)).tolist(), _dot(u.T, v.T).tolist())]
    )
    b = _sines(np.multiply.outer(angs, fracs))[:, :, None]
    # column i of a is sin((1 - s_i) * g), read from b's mirrored column
    rest = 1.0 - fracs
    a = b[:, ::-1]
    odd = rest != fracs[::-1]
    if odd.any():
        a = a.copy()
        a[:, odd, 0] = _sines(np.multiply.outer(angs, rest[odd]))
    flat = angs < 1e-14
    # a point-like arc is its first endpoint repeated
    sin_ang = np.where(flat, 1.0, _sines(angs))
    out = (a * u[:, None, :] + b * v[:, None, :]) / sin_ang[:, None, None]
    out[flat] = u[flat, None, :]
    return out


def _split_arcs(u: np.ndarray, mid: np.ndarray, v: np.ndarray, steps: int) -> np.ndarray:
    """Interior sample points of the arcs u -> mid -> v between matching
    rows of three (N, 3) arrays: ``steps // 2 or 1`` parts of ``_arcs`` up
    to the midpoint, the midpoint itself, and the rest after it.

    A midpoint picks the great circle of an arc between antipodal ends.
    """
    half = steps // 2 or 1
    return np.concatenate(
        [_arcs(u, mid, half), mid[:, None, :], _arcs(mid, v, steps - half)], axis=1
    )


def _fans(t: TilingMap, corners: np.ndarray, mids: Optional[np.ndarray], apex0: int) -> tuple:
    """Every face's fan, in one broadcast per face size over the (g, m)
    array of its faces' darts: the apexes as an (F, 3) array, the
    triangles (apex, corner, next corner) as a (D, 3) array of 1-based OBJ
    vertex indices, face after face, with face f's apex at index apex0 + f,
    and the row of each face's first triangle.

    An apex is the sum of its face's corners (rows of the (V, 3)
    ``corners``) or of a digon's edge midpoints (rows of the (E, 3)
    ``mids``), normalised.  A sum of norm below 1e-9 (a great-circle face,
    or a digon with antipodal edge midpoints) is replaced by a normal of the
    face's plane.
    """
    by_size = {}
    for f, face in enumerate(t.faces):
        by_size.setdefault(len(face), []).append(f)
    origin = np.fromiter(t.origin, np.intp, t.num_darts)
    sizes = np.array([*map(len, t.faces)])
    starts = np.cumsum(sizes) - sizes
    apexes = np.empty((t.num_faces, 3))
    triangles = np.empty((t.num_darts, 3), np.intp)
    for m, fs in by_size.items():
        fs = np.array(fs)
        darts = np.array([t.faces[f] for f in fs.tolist()])
        ends = origin[darts]
        # a digon's corners are antipodal poles; its centre lies midway
        # between the midpoints of its two edges
        pts = mids[np.asarray(t.edge_of)[darts]] if m == 2 else corners[ends]
        c = pts.sum(axis=1)
        norms = np.sqrt(_dot(c.T, c.T))
        for j in np.flatnonzero(norms < 1e-9).tolist():
            p = pts[j]
            if m == 2:
                c[j] = _cross(corners[ends[j, 0]], p[0])
            else:
                c[j] = _cross(p[1] - p[0], p[2] - p[0])
            norms[j] = np.linalg.norm(c[j])
        apexes[fs] = c / norms[:, None]
        rows = starts[fs, None] + np.arange(m)
        triangles[rows, 0] = apex0 + fs[:, None]
        triangles[rows, 1] = ends + 1
        triangles[rows, 2] = np.roll(ends, -1, axis=1) + 1
    return apexes, triangles, starts


def export_obj(
    t: TilingMap,
    emb: Embedding,
    arc_steps: int = 8,
    include_faces: bool = False,
) -> bytes:
    """Wireframe OBJ: vertices plus each edge as arc_steps arc segments.

    ``arc_steps`` runs from 1 to ``MAX_ARC_STEPS`` by the count rule of
    ``_check_size``, else ``DomainError``.
    Vertex v is ``v`` line v + 1; the edges come in edge-id order
    (``t.edges``).  Every arc is sampled in one broadcast, a hosohedron's
    split at its edge midpoints, so all have the same number of points.
    With ``include_faces`` each face is fan-triangulated about its
    spherical centre (one midpoint refinement implicit in the fan apex).

    The corners are the embedding's (V, 3) array (``_corners``).  Every
    ``v`` line, the corners', the arc points' and the fan apexes', comes
    from one ``_text.v_lines`` call, whose kernel ``_text.format17`` writes
    each coordinate byte for byte as ``'%.17g' % x`` would.  The ``l``
    lines are one ``%`` call on one template over the flattened chains.
    The faces (each an apex ``v`` line and its ``f`` lines) come from
    ``_fans``'s arrays: the ``f`` lines are one ``%`` call, put in order
    among the apex lines by ``_text.fans``.
    """
    arc_steps = _check_size(arc_steps, 1, most=MAX_ARC_STEPS, what="arc_steps")
    nv = t.num_vertices
    corners = _corners(t, emb)
    u, v = np.array(t.edges).T
    mids = _midpoints(t, emb)
    a, b = corners[u], corners[v]
    arcs = _arcs(a, b, arc_steps) if mids is None else _split_arcs(a, mids, b, arc_steps)
    ne, k = arcs.shape[:2]
    count = nv + ne * k
    # each edge's chain of 1-based indices: its two ends about its k arc points
    chains = np.column_stack([u + 1, np.arange(nv + 1, count + 1).reshape(ne, k), v + 1])
    points = [corners, arcs.reshape(-1, 3)]
    if include_faces:
        apexes, triangles, starts = _fans(t, corners, mids, count + 1)
        points.append(apexes)
    from ._text import fans, v_lines

    vertices = v_lines(np.concatenate(points))
    if include_faces:
        # the fan apexes' lines come last
        vertices, *apexes, _ = vertices.rsplit(b"\n", t.num_faces + 1)
        vertices += b"\n"
    text = [
        b"# sphtile unit-sphere tiling export\n",
        vertices,
        (("l" + " %d" * (k + 2) + "\n") * ne % tuple(chains.ravel().tolist())).encode(),
    ]
    if include_faces:
        text.append(fans(apexes, triangles, starts))
    return b"".join(text)


def export_json(
    t: TilingMap,
    assign: AngleAssignment,
    emb: Optional[Embedding] = None,
    name: str = "tiling",
) -> bytes:
    """Deterministic JSON form: faces, angles (decimal strings), edge.

    Angles and, with ``emb``, positions are serialized as
    17-significant-digit decimal strings so golden files diff cleanly
    across platforms; the positions are read as ``export_obj`` reads them
    and written by the same kernel, ``_text.format17``.  The text is what
    ``json.dumps(doc, sort_keys=True, indent=1)`` gives, and a newline:
    without ``emb`` written by it, else directly by ``_text.json_text``, so
    only a document with positions loads ``_text``.
    """
    angles = {str(m): "%.17g" % a for m, a in assign.angles.items()}
    if emb is None:
        faces = [t.face_vertex_cycle(f) for f in range(t.num_faces)]
        edge = "%.17g" % assign.edge
        doc = dict(name=name, family=t.family, faces=faces, angles=angles, edge=edge)
        return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
    from ._text import json_text

    sizes = [*map(len, t.faces)]
    vertices = [*map(t.origin.__getitem__, chain.from_iterable(t.faces))]
    return json_text(name, t.family, sizes, vertices, angles, assign.edge, _corners(t, emb))


def load_json(data: bytes):
    """Inverse of ``export_json``: (name, map, assignment, positions).

    The family is read from the faces, not the ``"family"`` key: digons
    must equal ``digon_fan``'s face cycles, and other faces must pass
    ``build_from_faces`` (a pinched vertex is refused), else ``NotEdgeToEdge``.
    ``positions`` is None without the ``"positions"`` key, else a dict by
    vertex id whose values are the rows of one (V, 3) array, read in one
    call: ``DomainError`` unless the key holds one row of three finite
    numbers (or their decimal strings) per vertex of the map.
    """
    doc = json.loads(data.decode())
    angles = {int(m): float(a) for m, a in doc["angles"].items()}
    assign = AngleAssignment(angles, float(doc["edge"]))
    faces = [tuple(f) for f in doc["faces"]]
    if len(faces) > 1 and all(len(f) == 2 for f in faces):
        t = digon_fan(len(faces))
        if [t.face_vertex_cycle(f) for f in range(t.num_faces)] != faces:
            raise NotEdgeToEdge("digon faces are not the face cycles of digon_fan")
    else:
        t = build_from_faces(faces)
    positions = None
    if "positions" in doc:
        try:
            points = np.array(doc["positions"], dtype=np.float64)
        except (TypeError, ValueError):
            points = None
        if points is None or points.shape != (t.num_vertices, 3) or not np.isfinite(points).all():
            raise DomainError(f"positions must be {t.num_vertices} rows of three finite numbers")
        positions = dict(enumerate(points))
    return doc["name"], t, assign, positions
