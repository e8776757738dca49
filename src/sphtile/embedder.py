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
assignment.  Edge lengths and corner angles are then measured once, per
dart, in one numpy pass over the (V, 3) position array; the embedding
keeps the corner angles, and ``total_area`` and ``face_angles`` read them.

Hosohedra (antipodal poles, meridian edges) are placed directly, then
measured like every other map; their edges carry explicit midpoints
because antipodal endpoints do not determine a great-circle arc.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algsolve import AngleAssignment
from .sphkernel import TWO_PI, circumradius
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


class ClosureFailure(RuntimeError):
    """Propagation revisited a vertex with an inconsistent position."""


@dataclass
class Embedding:
    """Vertex positions on the unit sphere plus walk-quality metrics."""

    positions: dict
    closure_error: float
    edge_error: float
    angle_error: float
    # midpoint per edge id, only for edges with antipodal endpoints
    arc_midpoints: dict = field(default_factory=dict)
    # corner angle per dart as realize measured it; an Embedding built any
    # other way (by hand, or by dataclasses.replace) measures its positions
    _angles: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross products of two 3-vectors, or of matching rows of two (N, 3) arrays.

    The same products and differences, in the same order, as ``np.cross``,
    so the result is bit-identical, without numpy's axis handling.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (N, 3) arrays.

    Stacked ``matmul`` reaches the same BLAS dot as ``np.dot`` on single
    3-vectors, so each row is bit-identical to it; ``np.sum(a * b, axis=1)``
    and ``einsum`` round differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _arc_lengths(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Great-circle distances between matching rows of two (N, 3) arrays."""
    return np.arctan2(np.linalg.norm(_cross(u, v), axis=1), np.sum(u * v, axis=1))


def _realize_hosohedron(t: TilingMap, assign: AngleAssignment) -> Embedding:
    alpha = assign.angle(2)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    # edge i of the fan (darts 2i and 2i+1) is the meridian at longitude i*alpha
    longitudes = [i * alpha for i in range(t.num_edges)]
    mids = np.zeros((t.num_edges, 3))
    mids[:, 0] = [math.cos(x) for x in longitudes]
    mids[:, 1] = [math.sin(x) for x in longitudes]
    return _measured(t, assign, poles, 0.0, mids)


def _measured(
    t: TilingMap,
    assign: AngleAssignment,
    pos: np.ndarray,
    closure_error: float,
    mids: Optional[np.ndarray] = None,
) -> Embedding:
    """The embedding at positions ``pos`` (a (V, 3) array) and edge
    midpoints ``mids`` (an (E, 3) array by edge id, for a hosohedron), its
    edge lengths and corner angles measured once against ``assign``."""
    u, v = np.array(t.edges).T
    edge_error = float(np.max(np.abs(_arc_lengths(pos[u], pos[v]) - assign.edge)))
    angles = _angles_at(t, pos, mids, np.arange(t.num_darts))
    want = np.array([assign.angle(len(c)) for c in t.faces])[np.asarray(t.face_of)]
    angle_error = float(np.max(np.abs(angles - want)))
    arcs = {} if mids is None else dict(enumerate(mids))
    emb = Embedding(dict(enumerate(pos)), closure_error, edge_error, angle_error, arcs)
    emb._angles = angles
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
    walk order) and the face whose placement revisited it.  Edge lengths
    and corner angles are measured once, and the returned embedding keeps
    the corner angles for ``face_angles`` and ``total_area``.
    """
    if t.family == "hosohedron":
        return _realize_hosohedron(t, assign)

    origin, edge_pair, face_of, faces = t.origin, t.edge_pair, t.face_of, t.faces
    cosx = math.cos(assign.edge)
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

    # rows: every position the walk computes, in walk order, the seed face's
    # first; first[v] is the row that placed vertex v
    m0 = len(faces[0])
    first = [-1] * t.num_vertices
    for j, v in enumerate(t.face_vertex_cycle(0)):
        first[v] = j

    # the walk: per face the rows of its start edge's ends and its centre
    # coefficients; per further row its face's index within the level and
    # its turn; per revisit the vertex, the face and the row, kept flat (a
    # tuple per revisit about doubles their memory on large maps)
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
            # that order picks each child's start dart
            for d in darts:
                nb = edge_pair[d]
                if not done[face_of[nb]]:
                    children.append(nb)
        levels.append((len(ends), m0 + len(owner)))
        entries = children

    if min(first) < 0:
        raise ClosureFailure("propagation did not reach every vertex")

    # the seed face: centre at the north pole, vertices on the circumradius circle
    rows = np.empty((m0 + len(owner), 3))
    sr, cr = math.sin(radii[m0]), math.cos(radii[m0])
    phis = [TWO_PI * j / m0 for j in range(m0)]
    rows[:m0] = [[sr * math.cos(phi), sr * math.sin(phi), cr] for phi in phis]
    ends = np.array(ends, dtype=np.intp).reshape(-1, 2)
    coefs = np.array(coefs).reshape(-1, 2)
    owner = np.array(owner, dtype=np.intp)
    cos_c, sin_c = np.array(cos_r)[:, None], np.array(sin_r)[:, None]
    cos1_c = 1.0 - cos_c

    f0, r0 = 0, m0
    for f1, r1 in levels:
        u, v = rows[ends[f0:f1, 0]], rows[ends[f0:f1, 1]]
        centre = coefs[f0:f1, :1] * (u + v) + coefs[f0:f1, 1:] * _cross(u, v)
        centre = centre / np.sqrt(_dot(centre, centre))[:, None]
        # rotate each face's first vertex about its centre to the others
        o, at = owner[r0 - m0 : r1 - m0], slice(r0 - m0, r1 - m0)
        rows[r0:r1] = (
            u[o] * cos_c[at]
            + _cross(centre, u)[o] * sin_c[at]
            + (centre * _dot(centre, u)[:, None])[o] * cos1_c[at]
        )
        f0, r0 = f1, r1

    pos = rows[first]
    worst_closure, witness = 0.0, None
    if revisits:
        v, f, row = np.array(revisits, dtype=np.intp).reshape(-1, 3).T
        gap = pos[v] - rows[row]
        # a NaN gap never counts, as it would not in a scalar `gap > worst`
        gaps = np.fmax(np.sqrt(_dot(gap, gap)), 0.0)
        i = int(np.argmax(gaps))
        if gaps[i] > 0.0:
            worst_closure, witness = float(gaps[i]), (int(v[i]), int(f[i]))
    if worst_closure > closure_tol:
        raise ClosureFailure(
            f"closure error {worst_closure:.3e} at vertex {witness[0]} "
            f"(face {witness[1]}) exceeds {closure_tol:.1e}"
        )

    return _measured(t, assign, pos, worst_closure)


def _angles_at(
    t: TilingMap, pos: np.ndarray, mids: Optional[np.ndarray], ds: np.ndarray
) -> np.ndarray:
    """Interior angle at the origin of each dart of ``ds``, read from the
    (V, 3) positions ``pos`` (a hosohedron's from the (E, 3) edge
    midpoints ``mids``)."""
    nxt = np.asarray(t.face_next)[ds]
    if t.family == "hosohedron":
        # digon: angle between the meridians through its two edge midpoints;
        # a dart's edge id (``t.edge_ids()``) counts the edges whose lower
        # dart comes before the lower dart of its own
        d, pair = np.arange(t.num_darts), np.asarray(t.edge_pair)
        edge = np.cumsum(d < pair)[np.minimum(d, pair)] - 1
        return _arc_lengths(mids[edge[ds]], mids[edge[nxt]])
    origin = np.asarray(t.origin)
    at = pos[origin[ds]]
    # tangents at each corner toward the previous and the next face vertex
    toward = pos[origin[np.stack([np.asarray(t.face_prev)[ds], nxt])]]
    tv = toward - at * np.sum(at * toward, axis=2, keepdims=True)
    norm = np.linalg.norm(tv, axis=2, keepdims=True)
    if np.any(norm < 1e-14):
        raise ClosureFailure("degenerate tangent between coincident/antipodal points")
    t_prev, t_next = tv / norm
    turn = np.sum(at * _cross(t_prev, t_next), axis=1)
    raw = np.arctan2(turn, np.sum(t_prev * t_next, axis=1))
    # faces run counterclockwise about their centres, so the interior angle
    # is the clockwise turn from t_prev to t_next
    return (-raw) % TWO_PI


def _corner_angles(t: TilingMap, emb: Embedding, darts=None) -> np.ndarray:
    """Realized interior angle at the origin of each dart (default: all
    darts): the angles ``realize`` measured, else measured now."""
    if emb._angles is not None:
        return emb._angles if darts is None else emb._angles[list(darts)]
    ds = np.arange(t.num_darts) if darts is None else np.asarray(darts, dtype=np.intp)
    pos = np.array([emb.positions[v] for v in range(t.num_vertices)])
    mids = None
    if t.family == "hosohedron":
        mids = np.array([emb.arc_midpoints[i] for i in range(t.num_edges)])
    return _angles_at(t, pos, mids, ds)


def face_angles(t: TilingMap, emb: Embedding, f: int) -> list:
    """Realized interior angles of a face, reflex angles included."""
    return _corner_angles(t, emb, t.faces[f]).tolist()


def face_area(t: TilingMap, emb: Embedding, f: int) -> float:
    """Spherical-excess area of a face from realized coordinates."""
    m = t.face_size(f)
    return sum(face_angles(t, emb, f)) - (m - 2) * math.pi


def total_area(t: TilingMap, emb: Embedding) -> float:
    """Spherical-excess area of the tiling: all corner angles less pi * sum(m - 2)."""
    return float(_corner_angles(t, emb).sum()) - math.pi * (t.num_darts - 2 * t.num_faces)


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------


def _arcs(u: np.ndarray, v: np.ndarray, steps: int) -> np.ndarray:
    """Interior sample points of the arcs between matching rows of two
    (N, 3) arrays, as an (N, steps - 1, 3) array.

    Each arc is split into ``steps`` equal parts by spherical linear
    interpolation: its angle is measured once, with ``math.atan2``, and
    all the points of all the arcs come out of one broadcast.
    """
    fracs = [i / steps for i in range(1, steps)]
    w = _cross(u, v)
    angs = [math.atan2(y, x) for y, x in zip(np.sqrt(_dot(w, w)).tolist(), _dot(u, v).tolist())]
    shape = (len(angs), len(fracs), 1)
    a = np.array([[math.sin((1.0 - s) * g) for s in fracs] for g in angs]).reshape(shape)
    b = np.array([[math.sin(s * g) for s in fracs] for g in angs]).reshape(shape)
    flat = np.array(angs) < 1e-14
    # a point-like arc is its first endpoint repeated
    sin_ang = np.array([1.0 if g < 1e-14 else math.sin(g) for g in angs])
    out = (a * u[:, None, :] + b * v[:, None, :]) / sin_ang[:, None, None]
    out[flat] = u[flat, None, :]
    return out


def _arc_points(u, v, mid, steps) -> np.ndarray:
    """Interior sample points of the arc u->v (via mid when antipodal), as
    a (steps - 1, 3) array; see ``_arcs``."""
    if mid is not None:
        # split at the stored midpoint to disambiguate the great circle
        half = steps // 2 or 1
        before = _arc_points(u, mid, None, half)
        return np.concatenate([before, mid[None], _arc_points(mid, v, None, steps - half)])
    return _arcs(u[None], v[None], steps)[0]


def export_obj(
    t: TilingMap,
    emb: Embedding,
    arc_steps: int = 8,
    include_faces: bool = False,
) -> bytes:
    """Wireframe OBJ: vertices plus each edge as arc_steps arc segments.

    The arcs of all edges between non-antipodal endpoints are sampled in
    one broadcast.  With ``include_faces`` each face is fan-triangulated
    about its spherical centre (one midpoint refinement implicit in the
    fan apex).
    """
    if arc_steps < 1:
        raise ValueError("arc_steps must be >= 1")
    verts = sorted(emb.positions)
    vid = {v: i for i, v in enumerate(verts, 1)}
    corners = np.array([emb.positions[v] for v in verts])
    points = [corners]
    count = len(verts)
    ids = t.edge_ids()
    darts = [d for d in range(t.num_darts) if d < t.edge_pair[d]]
    # corner rows of the two ends of each edge without a stored midpoint
    plain = [d for d in darts if ids[d] not in emb.arc_midpoints]
    ends = np.array(
        [[vid[t.origin[d]] - 1 for d in plain], [vid[t.target(d)] - 1 for d in plain]], dtype=np.intp
    )
    arcs = iter(_arcs(corners[ends[0]], corners[ends[1]], arc_steps))
    edge_polylines = []
    for d in darts:
        u, v = t.origin[d], t.target(d)
        mid = emb.arc_midpoints.get(ids[d])
        if mid is None:
            arc = next(arcs)
        else:
            arc = _arc_points(emb.positions[u], emb.positions[v], mid, arc_steps)
        edge_polylines.append([vid[u], *range(count + 1, count + 1 + len(arc)), vid[v]])
        count += len(arc)
        points.append(arc)
    lines = ["# sphtile unit-sphere tiling export"]
    lines.extend("v %.17g %.17g %.17g" % (x, y, z) for x, y, z in np.concatenate(points).tolist())
    for chain in edge_polylines:
        lines.append("l " + " ".join(str(i) for i in chain))

    if include_faces:
        for f in range(t.num_faces):
            cyc = t.face_vertex_cycle(f)
            if len(cyc) == 2:
                # a digon's corners are antipodal poles; its centre lies
                # midway between the midpoints of its two edges
                pts = [emb.arc_midpoints[ids[d]] for d in t.faces[f]]
            else:
                pts = [emb.positions[v] for v in cyc]
            centre = np.sum(pts, axis=0)
            if np.linalg.norm(centre) < 1e-9:
                # a great-circle face, or a digon with antipodal edge midpoints
                if len(cyc) == 2:
                    centre = _cross(emb.positions[cyc[0]], pts[0])
                else:
                    centre = _cross(pts[1] - pts[0], pts[2] - pts[0])
            centre = centre / np.linalg.norm(centre)
            lines.append("v %.17g %.17g %.17g" % tuple(centre.tolist()))
            count += 1
            for i in range(len(cyc)):
                lines.append(
                    "f %d %d %d" % (count, vid[cyc[i]], vid[cyc[(i + 1) % len(cyc)]])
                )
    return ("\n".join(lines) + "\n").encode()


def export_json(
    t: TilingMap,
    assign: AngleAssignment,
    emb: Optional[Embedding] = None,
    name: str = "tiling",
) -> bytes:
    """Deterministic JSON form: faces, angles (decimal strings), edge.

    Angles are serialized as 17-significant-digit decimal strings so
    golden files diff cleanly across platforms.
    """
    doc = {
        "name": name,
        "family": t.family,
        "faces": [list(t.face_vertex_cycle(f)) for f in range(t.num_faces)],
        "angles": {str(m): "%.17g" % a for m, a in sorted(assign.angles.items())},
        "edge": "%.17g" % assign.edge,
    }
    if emb is not None:
        doc["positions"] = [
            ["%.17g" % c for c in emb.positions[v]] for v in sorted(emb.positions)
        ]
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def load_json(data: bytes):
    """Inverse of ``export_json``: (name, map, assignment, positions).

    The family is read from the faces, not the ``"family"`` key: digons
    must equal ``digon_fan``'s face cycles, else ``NotEdgeToEdge``.
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
        positions = {
            i: np.array([float(c) for c in p]) for i, p in enumerate(doc["positions"])
        }
    return doc["name"], t, assign, positions
