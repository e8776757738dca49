"""Unit-sphere embeddings of validated tilings, plus OBJ/JSON export.

``realize`` places the seed face with its centre at the north pole using
the circumradius, then walks the faces breadth first.  Positions live in
one (V, 3) array with a ``placed`` mask.  Once a directed edge of a face
has both endpoints placed, the face centre follows from that edge, and
one broadcast Rodrigues rotation about the centre carries the edge's
first vertex to all the face's other vertices at once.  Every revisit of
an already-placed vertex measures the closure discrepancy, so the walk
doubles as a consistency check of the angle assignment.  Edge lengths,
corner angles and areas are then measured per dart in one numpy pass
over gathered position arrays.

Hosohedra (antipodal poles, meridian edges) are placed directly, then
measured like every other map; their edges carry explicit midpoints
because antipodal endpoints do not determine a great-circle arc.
"""

from __future__ import annotations

import json
import math
from collections import deque
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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of two 3-vectors.

    The same products and differences, in the same order, as ``np.cross``,
    so the result is bit-identical, without numpy's axis handling.
    """
    a0, a1, a2 = a.tolist()
    b0, b1, b2 = b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _arc_lengths(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Great-circle distances between matching rows of two (N, 3) arrays."""
    return np.arctan2(np.linalg.norm(np.cross(u, v), axis=1), np.sum(u * v, axis=1))


def _realize_hosohedron(t: TilingMap, assign: AngleAssignment) -> Embedding:
    alpha = assign.angle(2)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    # edge i of the fan (darts 2i and 2i+1) is the meridian at longitude i*alpha
    mids = {
        i: np.array([math.cos(i * alpha), math.sin(i * alpha), 0.0])
        for i in range(t.num_edges)
    }
    return _measured(t, assign, poles, 0.0, mids)


def _measured(
    t: TilingMap, assign: AngleAssignment, pos: np.ndarray, closure_error: float, mids: dict
) -> Embedding:
    """The embedding at positions ``pos`` (a (V, 3) array), its edge lengths
    and corner angles measured against ``assign``."""
    u, v = np.array(t.edges).T
    edge_error = float(np.max(np.abs(_arc_lengths(pos[u], pos[v]) - assign.edge)))
    emb = Embedding(dict(enumerate(pos)), closure_error, edge_error, math.nan, mids)
    want = np.array([assign.angle(len(t.faces[f])) for f in t.face_of])
    emb.angle_error = float(np.max(np.abs(_corner_angles(t, emb) - want)))
    return emb


def _face_centre(u: np.ndarray, v: np.ndarray, cosx: float, r: float) -> np.ndarray:
    """Unit centre of the regular face through the directed edge u -> v.

    The centre is equidistant (geodesic distance r) from both endpoints and
    lies on the side of u x v, so the face's vertices run counterclockwise
    about it, as the seed face's do about the north pole.
    """
    a = math.cos(r) / (1.0 + cosx)
    rem = max(1.0 - a * a * (2.0 + 2.0 * cosx), 0.0)
    beta = math.sqrt(rem / (1.0 - cosx * cosx))
    c = a * (u + v) + beta * _cross(u, v)
    return c / math.sqrt(c.dot(c))


def realize(
    t: TilingMap,
    assign: AngleAssignment,
    closure_tol: float = 1e-7,
) -> Embedding:
    """Embed a tiling on the unit sphere by geodesic propagation.

    The seed face is centred at the north pole with its vertices
    counterclockwise on the circumradius circle.  Each further face is
    placed rigidly from one shared, already-placed edge u -> v: its centre
    is computed once, on the side of u x v, and one broadcast rotation of
    u about it through the multiples of 2*pi/m gives all m - 1 other
    vertices (the cosines and sines are tabled once per face size).  So
    every face runs counterclockwise about its centre, like the seed, and
    corner angles are read in that one sense.  Positions are kept in a
    (V, 3) array with a ``placed`` mask.  Every revisit of a placed vertex
    measures the closure discrepancy, the Euclidean distance between the
    stored and the new position, so the walk doubles as a verifier.
    Raises ``ClosureFailure`` when the worst revisit exceeds
    ``closure_tol``, which signals an inconsistent angle assignment; the
    message names that vertex and the face whose placement revisited it.
    """
    if t.family == "hosohedron":
        return _realize_hosohedron(t, assign)

    n = t.num_vertices
    pos = np.zeros((n, 3))
    placed = np.zeros(n, dtype=bool)
    origin = np.asarray(t.origin)
    worst_closure, witness = 0.0, None

    cosx = math.cos(assign.edge)
    radii = {m: circumradius(m, assign.angle(m)) for m in {len(c) for c in t.faces}}

    # seed face: centre at the north pole, vertices on the circumradius circle
    seed = 0
    m0 = t.face_size(seed)
    r0 = radii[m0]
    sr, cr = math.sin(r0), math.cos(r0)
    cyc0 = list(t.face_vertex_cycle(seed))
    for j, v in enumerate(cyc0):
        phi = TWO_PI * j / m0
        pos[v] = [sr * math.cos(phi), sr * math.sin(phi), cr]
    placed[cyc0] = True

    # per face size, the columns of the Rodrigues rotation through
    # i * step for i = 1 .. m-1: cos, sin and 1 - cos
    turns = {}
    for m in radii:
        step = TWO_PI / m
        c = np.array([math.cos(i * step) for i in range(1, m)])[:, None]
        s = np.array([math.sin(i * step) for i in range(1, m)])[:, None]
        turns[m] = (c, s, 1.0 - c)

    done = [False] * t.num_faces
    done[seed] = True
    queue = deque(t.edge_pair[d] for d in t.faces[seed])
    while queue:
        d0 = queue.popleft()
        f = t.face_of[d0]
        if done[f]:
            continue
        done[f] = True
        k = t.faces[f].index(d0)
        darts = t.faces[f][k:] + t.faces[f][:k]
        verts = origin[list(darts)]
        # rotate the first vertex about the face centre to every other one
        u = pos[verts[0]]
        centre = _face_centre(u, pos[verts[1]], cosx, radii[len(darts)])
        c, s, c1 = turns[len(darts)]
        ring = u * c + _cross(centre, u) * s + centre * np.dot(centre, u) * c1
        for v, p in zip(verts[1:].tolist(), ring):
            if placed[v]:
                d = pos[v] - p
                gap = math.sqrt(d.dot(d))
                if gap > worst_closure:
                    worst_closure, witness = gap, (v, f)
            else:
                pos[v] = p
                placed[v] = True
        for d in darts:
            nb = t.edge_pair[d]
            if not done[t.face_of[nb]]:
                queue.append(nb)

    if not placed.all():
        raise ClosureFailure("propagation did not reach every vertex")
    if worst_closure > closure_tol:
        raise ClosureFailure(
            f"closure error {worst_closure:.3e} at vertex {witness[0]} "
            f"(face {witness[1]}) exceeds {closure_tol:.1e}"
        )

    return _measured(t, assign, pos, worst_closure, {})


def _corner_angles(t: TilingMap, emb: Embedding, darts=None) -> np.ndarray:
    """Realized interior angle at the origin of each dart (default: all darts)."""
    ds = np.arange(t.num_darts) if darts is None else np.asarray(darts, dtype=np.intp)
    nxt = np.asarray(t.face_next)[ds]
    if t.family == "hosohedron":
        # digon: angle between the meridians through its two edge midpoints
        ids = t.edge_ids()
        mids = np.array([emb.arc_midpoints[ids[d]] for d in range(t.num_darts)])
        return _arc_lengths(mids[ds], mids[nxt])
    origin = np.asarray(t.origin)
    pos = np.array([emb.positions[v] for v in range(t.num_vertices)])
    at = pos[origin[ds]]
    # tangents at each corner toward the previous and the next face vertex
    toward = pos[origin[np.stack([np.asarray(t.face_prev)[ds], nxt])]]
    tv = toward - at * np.sum(at * toward, axis=2, keepdims=True)
    norm = np.linalg.norm(tv, axis=2, keepdims=True)
    if np.any(norm < 1e-14):
        raise ClosureFailure("degenerate tangent between coincident/antipodal points")
    t_prev, t_next = tv / norm
    turn = np.sum(at * np.cross(t_prev, t_next), axis=1)
    raw = np.arctan2(turn, np.sum(t_prev * t_next, axis=1))
    # faces run counterclockwise about their centres, so the interior angle
    # is the clockwise turn from t_prev to t_next
    return (-raw) % TWO_PI


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


def _arc_points(u, v, mid, steps) -> np.ndarray:
    """Interior sample points of the arc u->v (via mid when antipodal).

    The arc is split into ``steps`` equal parts by spherical linear
    interpolation; its angle is measured once and its ``steps - 1``
    points come out of one broadcast, as a (steps - 1, 3) array.
    """
    if mid is not None:
        # split at the stored midpoint to disambiguate the great circle
        half = steps // 2 or 1
        before = _arc_points(u, mid, None, half)
        return np.concatenate([before, mid[None], _arc_points(mid, v, None, steps - half)])
    fracs = [i / steps for i in range(1, steps)]
    ang = math.atan2(float(np.linalg.norm(_cross(u, v))), float(np.dot(u, v)))
    if ang < 1e-14:
        return np.tile(u, (len(fracs), 1))
    a = np.array([math.sin((1.0 - s) * ang) for s in fracs])
    b = np.array([math.sin(s * ang) for s in fracs])
    return (a[:, None] * u + b[:, None] * v) / math.sin(ang)


def export_obj(
    t: TilingMap,
    emb: Embedding,
    arc_steps: int = 8,
    include_faces: bool = False,
) -> bytes:
    """Wireframe OBJ: vertices plus each edge as arc_steps arc segments.

    With ``include_faces`` each face is fan-triangulated about its
    spherical centre (one midpoint refinement implicit in the fan apex).
    """
    if arc_steps < 1:
        raise ValueError("arc_steps must be >= 1")
    verts = sorted(emb.positions)
    vid = {v: i for i, v in enumerate(verts, 1)}
    points = [np.array([emb.positions[v] for v in verts])]
    count = len(verts)
    ids = t.edge_ids()
    edge_polylines = []
    for d in range(t.num_darts):
        if d > t.edge_pair[d]:
            continue
        u, v = t.origin[d], t.target(d)
        mid = emb.arc_midpoints.get(ids[d])
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
