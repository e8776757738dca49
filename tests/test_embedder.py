import dataclasses
import json
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from sphtile import catalog as cat, embedder as em, tilemap as tm
from sphtile import _text
from sphtile._text import format17
from sphtile.algsolve import AngleAssignment
from sphtile.sphkernel import circumradius, polygon_area

PI = math.pi


def test_tetrahedron_dot_products():
    t = cat.make("T")
    emb = em.realize(t.map, t.angles)
    pts = [emb.positions[v] for v in range(4)]
    for i in range(4):
        assert np.linalg.norm(pts[i]) == pytest.approx(1.0, abs=1e-12)
        for j in range(i + 1, 4):
            assert float(np.dot(pts[i], pts[j])) == pytest.approx(-1 / 3, abs=1e-12)


def test_j1_square_is_a_great_circle():
    t = cat.make("J1")
    emb = em.realize(t.map, t.angles)
    square = cat.faces_of_size(t.map, 4)[0]
    pts = np.array([emb.positions[v] for v in t.map.face_vertex_cycle(square)])
    # rank 2 through the origin: the four vertices span a plane through 0
    svals = np.linalg.svd(pts)[1]
    assert svals[2] == pytest.approx(0.0, abs=1e-12)


def test_dihedron_on_one_great_circle():
    t = cat.make("dihedron(8)")
    emb = em.realize(t.map, t.angles)
    zs = [abs(float(emb.positions[v][2])) for v in emb.positions]
    assert max(zs) < 1e-12
    # consecutive spacing 2*pi/8
    ring = t.map.face_vertex_cycle(0)
    for i in range(8):
        u = emb.positions[ring[i]]
        v = emb.positions[ring[(i + 1) % 8]]
        ang = math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))
        assert ang == pytest.approx(2 * PI / 8, abs=1e-12)


def test_hosohedron_embedding_and_area():
    t = cat.make("hosohedron(3)")
    emb = em.realize(t.map, t.angles)
    assert len(emb.positions) == 2
    assert em.total_area(t.map, emb) == pytest.approx(4 * PI, abs=1e-12)


@pytest.mark.parametrize("n", [3, 8, 400])
def test_realize_measures_a_hosohedron(n):
    # the digons are measured like any other face: exact ones read ~0, and a
    # digon angle too wide for n of them leaves the last digon narrower
    exact = em.realize(tm.digon_fan(n), AngleAssignment({2: 2 * PI / n}, PI))
    assert exact.edge_error == 0.0 and exact.angle_error < 1e-14
    off = em.realize(tm.digon_fan(n), AngleAssignment({2: 2 * PI / n + 1e-3}, PI))
    assert off.angle_error > 1e-4


def test_metric_faithfulness_across_catalog():
    for name in cat.all_entries():
        t = cat.make(name)
        emb = em.realize(t.map, t.angles)
        assert emb.closure_error < 1e-7, name
        assert emb.edge_error < 1e-9, name
        assert emb.angle_error < 1e-8, name


def test_face_areas_match_analytic_values():
    for name in ("T", "J1", "J2", "J4", "J5", "J6", "bD", "sD"):
        t = cat.make(name)
        emb = em.realize(t.map, t.angles)
        for f in range(t.map.num_faces):
            m = t.map.face_size(f)
            assert em.face_area(t.map, emb, f) == pytest.approx(
                polygon_area(m, t.angles.angle(m)), abs=1e-7
            ), (name, f)
        assert em.total_area(t.map, emb) == pytest.approx(4 * PI, abs=1e-6)


def test_closure_failure_on_inconsistent_angles():
    # the message names the worst revisit and the face that made it
    cube = cat.make("C").map
    bad = AngleAssignment({4: 2.2}, 1.3)
    want, (vertex, face) = _scalar_realize(cube, bad)
    with pytest.raises(em.ClosureFailure) as info:
        em.realize(cube, bad)
    assert str(info.value) == (
        f"closure error {want.closure_error:.3e} at vertex {vertex} (face {face}) exceeds 1.0e-07"
    )


def test_closure_failure_names_the_first_of_tied_worst_revisits():
    # dihedron(4) with each angle a millionth short: the second and third
    # revisits of the walk have bit-equal gaps at different vertices, and
    # the message names the first of them in walk order
    t = cat.make("dihedron(4)").map
    bad = AngleAssignment({4: PI * (1 - 1e-6)}, PI / 2)
    gaps = []
    want, witness = _scalar_realize(t, bad, gaps)
    worst = [g for g in gaps if g[0] == want.closure_error]
    assert len(worst) == 2 and worst[0][1:] != worst[1][1:]
    assert witness == worst[0][1:]
    with pytest.raises(em.ClosureFailure) as info:
        em.realize(t, bad)
    assert str(info.value) == (
        f"closure error {want.closure_error:.3e} at vertex {witness[0]} (face {witness[1]}) "
        "exceeds 1.0e-07"
    )


def test_export_obj_counts():
    t = cat.make("C")
    emb = em.realize(t.map, t.angles)
    text = em.export_obj(t.map, emb, arc_steps=8).decode()
    vlines = [l for l in text.splitlines() if l.startswith("v ")]
    llines = [l for l in text.splitlines() if l.startswith("l ")]
    assert len(vlines) == 8 + 12 * 7  # corners plus interior arc samples
    assert len(llines) == 12
    assert all(len(l.split()) == 1 + 9 for l in llines)  # 8 segments each


def test_export_obj_hosohedron():
    t = cat.make("hosohedron(3)")
    emb = em.realize(t.map, t.angles)
    text = em.export_obj(t.map, emb, arc_steps=8).decode()
    vlines = [l for l in text.splitlines() if l.startswith("v ")]
    llines = [l for l in text.splitlines() if l.startswith("l ")]
    assert len(vlines) == 2 + 3 * 7
    assert len(llines) == 3
    # every sample stays on the unit sphere (true great-circle arcs)
    for l in vlines:
        x, y, z = (float(s) for s in l.split()[1:])
        assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("steps", [0, -1, em.MAX_ARC_STEPS + 1, 10**9])
def test_export_obj_rejects_arc_steps_out_of_range(steps):
    t = cat.make("T")
    emb = em.realize(t.map, t.angles)
    with pytest.raises(ValueError, match="arc_steps"):
        em.export_obj(t.map, emb, arc_steps=steps)


def test_export_obj_faces_flag():
    t = cat.make("T")
    emb = em.realize(t.map, t.angles)
    text = em.export_obj(t.map, emb, arc_steps=2, include_faces=True).decode()
    flines = [l for l in text.splitlines() if l.startswith("f ")]
    assert len(flines) == 4 * 3  # fan of 3 triangles per face


def test_export_json_round_trip():
    t = cat.make("J5")
    emb = em.realize(t.map, t.angles)
    blob = em.export_json(t.map, t.angles, emb, name="J5")
    name, t2, assign2, positions = em.load_json(blob)
    assert name == "J5"
    assert tm.isomorphic(t.map, t2)
    assert assign2.angles[10] == pytest.approx(t.angles.angles[10], rel=1e-15)
    assert positions is not None and len(positions) == t.map.num_vertices
    # determinism
    assert em.export_json(t.map, t.angles, emb, name="J5") == blob


def test_export_json_hosohedron_round_trip():
    t = cat.make("hosohedron(5)")
    blob = em.export_json(t.map, t.angles, name="hosohedron(5)")
    _, t2, _, _ = em.load_json(blob)
    assert tm.isomorphic(t.map, t2)


def test_load_json_reads_the_family_from_the_faces():
    # the "family" key is ignored: triangles labelled a hosohedron still load
    # as the tetrahedron, and digons without the key still load as a fan
    t = cat.make("T")
    doc = json.loads(em.export_json(t.map, t.angles, name="T"))
    doc["family"] = "hosohedron"
    _, t2, _, _ = em.load_json(json.dumps(doc).encode())
    assert tm.isomorphic(t.map, t2) and t2.family is None

    h = cat.make("hosohedron(5)")
    doc = json.loads(em.export_json(h.map, h.angles, name="hosohedron(5)"))
    del doc["family"]
    _, h2, _, _ = em.load_json(json.dumps(doc).encode())
    assert tm.isomorphic(h.map, h2) and h2.family == "hosohedron"


@pytest.mark.parametrize("faces", [[[0, 1], [1, 0], [0, 1]], [[0, 1]]], ids=["reversed", "one"])
def test_load_json_rejects_digons_that_are_not_a_fan(faces):
    h = cat.make("hosohedron(3)")
    doc = json.loads(em.export_json(h.map, h.angles, name="hosohedron(3)"))
    doc["faces"] = faces
    with pytest.raises(tm.NotEdgeToEdge):
        em.load_json(json.dumps(doc).encode())


def test_load_json_refuses_a_pinched_vertex():
    # the cube's document with its opposite corners 0 and 5 as one vertex
    c = cat.make("C")
    doc = json.loads(em.export_json(c.map, c.angles, name="C"))
    doc["faces"] = [[0 if v == 5 else v for v in f] for f in doc["faces"]]
    with pytest.raises(tm.NotEdgeToEdge, match="vertex 0 is pinched"):
        em.load_json(json.dumps(doc).encode())


def test_json_schema_fields():
    t = cat.make("T")
    doc = json.loads(em.export_json(t.map, t.angles, name="T").decode())
    assert set(doc) == {"name", "family", "faces", "angles", "edge"}
    assert doc["angles"]["3"].startswith("2.0943951023931")
    assert isinstance(doc["angles"]["3"], str)


def _scalar_corner_angles(t, emb):
    """Reference: each dart's corner angle on single 3-vectors, one at a time."""
    ids = t.edge_of
    out = []
    for d in range(t.num_darts):
        if t.face_size(t.face_of[d]) == 2:
            u = emb.arc_midpoints[ids[d]]
            v = emb.arc_midpoints[ids[t.face_next[d]]]
            out.append(math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v))))
            continue
        at = emb.positions[t.origin[d]]
        tangents = []
        for nb in (t.face_prev[d], t.face_next[d]):
            toward = emb.positions[t.origin[nb]]
            tv = toward - at * float(np.dot(at, toward))
            tangents.append(tv / np.linalg.norm(tv))
        tp, tn = tangents
        raw = math.atan2(float(np.dot(at, np.cross(tp, tn))), float(np.dot(tp, tn)))
        out.append((-raw) % (2 * PI))
    return out


def test_corner_angles_match_scalar_oracle():
    for name in cat.all_entries():
        t = cat.make(name)
        emb = em.realize(t.map, t.angles)
        want = np.array(_scalar_corner_angles(t.map, emb))
        got = em._corner_angles(t.map, emb)
        assert np.max(np.abs(got - want)) <= 1e-15, name
        for f in range(t.map.num_faces):
            one = np.array(em.face_angles(t.map, emb, f))
            assert np.max(np.abs(one - want[list(t.map.faces[f])])) <= 1e-15, (name, f)


def test_an_embedding_without_one_row_per_vertex_raises():
    # points holds one row per vertex id, and a hosohedron's midpoints one
    # per edge id: a row missing or one too many is refused by the
    # measurement and by both exports
    c = cat.make("C")
    emb = em.realize(c.map, c.angles)
    calls = [
        lambda bad: em.total_area(c.map, bad),
        lambda bad: em.face_angles(c.map, bad, 0),
        lambda bad: em.export_obj(c.map, bad),
        lambda bad: em.export_json(c.map, c.angles, bad),
    ]
    for points in (emb.points[:-1], np.vstack([emb.points, emb.points[:1]])):
        bad = dataclasses.replace(emb, points=points)
        for call in calls:
            with pytest.raises(ValueError, match="points must be 8 rows of three, one per vertex"):
                call(bad)
    h = cat.make("hosohedron(6)")
    emb = em.realize(h.map, h.angles)
    for mids in (emb.arc_midpoints[:-1], np.vstack([emb.arc_midpoints, emb.arc_midpoints[:1]])):
        bad = dataclasses.replace(emb, arc_midpoints=mids)
        for call in (lambda: em.total_area(h.map, bad), lambda: em.export_obj(h.map, bad)):
            with pytest.raises(ValueError, match="midpoint of every edge"):
                call()


@pytest.mark.parametrize("offset", [0.0, 1e-15])
def test_face_angles_coincident_neighbours_raise(offset):
    t = cat.make("C")
    emb = em.realize(t.map, t.angles)
    a, b = t.map.face_vertex_cycle(0)[:2]
    points = emb.points.copy()
    points[b] = points[a] + np.array([offset, 0.0, 0.0])
    bad = dataclasses.replace(emb, points=points)
    with pytest.raises(em.ClosureFailure):
        em.face_angles(t.map, bad, 0)
    with pytest.raises(em.ClosureFailure):
        em.total_area(t.map, bad)


def test_family_embeddings_close_with_full_area():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=16, deadline=None)
    @hyp.given(
        st.sampled_from(["prism", "antiprism", "dihedron", "hosohedron"]),
        st.integers(3, 400),
    )
    def closes(family, n):
        t = cat.make(f"{family}({n})")
        emb = em.realize(t.map, t.angles)
        assert emb.closure_error <= 1e-7
        assert abs(em.total_area(t.map, emb) - 4 * PI) <= 1e-6

    closes()


def test_export_obj_digon_fan_2_has_distinct_apexes():
    t = tm.digon_fan(2)
    emb = em.realize(t, AngleAssignment({2: PI}, PI))
    lines = em.export_obj(t, emb, arc_steps=2, include_faces=True).decode().splitlines()
    pts = [np.array(l.split()[1:], dtype=float) for l in lines if l.startswith("v ")]
    apexes = sorted({int(l.split()[1]) for l in lines if l.startswith("f ")})
    assert len(apexes) == 2
    p, q = (pts[i - 1] for i in apexes)
    assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)
    # quarter turns either side of the edge midpoints (1, 0, 0) and (-1, 0, 0)
    assert np.allclose(sorted([p.tolist(), q.tolist()]), [[0, -1, 0], [0, 1, 0]], atol=1e-15)


def _scalar_rotate(p, axis, angle):
    """Reference: Rodrigues rotation of one 3-vector about a unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    return p * c + np.cross(axis, p) * s + axis * (np.dot(axis, p)) * (1.0 - c)


def _scalar_face_centre(u, v, cosx, r, side):
    a = math.cos(r) / (1.0 + cosx)
    rem = max(1.0 - a * a * (2.0 + 2.0 * cosx), 0.0)
    beta = side * math.sqrt(rem / (1.0 - cosx * cosx))
    c = a * (u + v) + beta * np.cross(u, v)
    return c / np.linalg.norm(c)


def _scalar_realize(t, assign, gaps=None):
    """Reference: the propagation one vertex at a time, positions in a dict.

    Each vertex is its own rotation with ``np.cross``, and each revisit its
    own ``np.linalg.norm``.  Returns the embedding, edge and angle errors
    filled in, and the (vertex, face) of the worst revisit.  A list passed
    as ``gaps`` receives (gap, vertex, face) per revisit, in walk order.
    """
    positions = {}
    worst, witness = 0.0, None

    def place(v, p, f):
        nonlocal worst, witness
        if v in positions:
            gap = float(np.linalg.norm(positions[v] - p))
            if gaps is not None:
                gaps.append((gap, v, f))
            if gap > worst:
                worst, witness = gap, (v, f)
        else:
            positions[v] = p

    cosx = math.cos(assign.edge)
    radii = {m: circumradius(m, assign.angle(m)) for m in {len(c) for c in t.faces}}
    m0 = t.face_size(0)
    sr, cr = math.sin(radii[m0]), math.cos(radii[m0])
    cyc0 = t.face_vertex_cycle(0)
    for j, v in enumerate(cyc0):
        phi = 2 * PI * j / m0
        place(v, np.array([sr * math.cos(phi), sr * math.sin(phi), cr]), 0)
    c_probe = _scalar_face_centre(positions[cyc0[0]], positions[cyc0[1]], cosx, radii[m0], 1.0)
    sign = -1.0 if c_probe[2] < 0.0 else 1.0
    # the seed centre comes out at the north pole with the +1 side
    assert sign == 1.0

    done = [False] * t.num_faces
    done[0] = True
    queue = deque(t.edge_pair[d] for d in t.faces[0])
    while queue:
        d0 = queue.popleft()
        f = t.face_of[d0]
        if done[f]:
            continue
        done[f] = True
        mf = t.face_size(f)
        ds = [d0]
        while len(ds) < mf:
            ds.append(t.face_next[ds[-1]])
        verts = [t.origin[d] for d in ds]
        u, v = positions[verts[0]], positions[verts[1]]
        centre = _scalar_face_centre(u, v, cosx, radii[mf], sign)
        step = sign * 2 * PI / mf
        for i in range(1, mf):
            place(verts[i], _scalar_rotate(u, centre, i * step), f)
        for d in ds:
            if not done[t.face_of[t.edge_pair[d]]]:
                queue.append(t.edge_pair[d])

    pos = np.array([positions[v] for v in range(t.num_vertices)])
    u, v = np.array(t.edges).T
    edge_error = float(np.max(np.abs(em._arc_lengths(pos[u].T, pos[v].T) - assign.edge)))
    emb = em.Embedding(pos, worst, edge_error, math.nan)
    want = np.array([assign.angle(len(t.faces[f])) for f in t.face_of])
    emb.angle_error = float(np.max(np.abs(em._corner_angles(t, emb) - want)))
    return emb, witness


FAMILY_MAPS = [
    f"{fam}({n})" for fam in ("prism", "antiprism", "dihedron") for n in (50, 200, 400)
] + ["prism(5000)", "antiprism(5000)"]


def test_realize_matches_scalar_oracle_bit_for_bit():
    for name in list(cat.all_entries()) + FAMILY_MAPS:
        t = cat.make(name)
        if t.map.family == "hosohedron":
            continue
        got = em.realize(t.map, t.angles)
        want, witness = _scalar_realize(t.map, t.angles)
        assert got.points.shape == want.points.shape, name
        assert got.points.tobytes() == want.points.tobytes(), name
        assert got.closure_error == want.closure_error, name
        assert got.edge_error == want.edge_error, name
        assert got.angle_error == want.angle_error, name
        if witness is None:
            assert want.closure_error == 0.0, name
            continue
        # below the worst gap, the failure names the oracle's first worst revisit
        tol = want.closure_error / 2
        with pytest.raises(em.ClosureFailure) as info:
            em.realize(t.map, t.angles, closure_tol=tol)
        assert str(info.value) == (
            f"closure error {want.closure_error:.3e} at vertex {witness[0]} "
            f"(face {witness[1]}) exceeds {tol:.1e}"
        ), name


@pytest.mark.parametrize("shift, fails", [(1e-6, True), (1e-13, False)])
def test_closure_sees_a_small_angle_shift(shift, fails):
    # a walk that skipped revisits would pass both shifts with error 0
    t = cat.make("prism(12)")
    angles = dict(t.angles.angles)
    angles[4] += shift
    shifted = AngleAssignment(angles, t.angles.edge)
    if fails:
        with pytest.raises(em.ClosureFailure):
            em.realize(t.map, shifted)
    else:
        assert 0.0 < em.realize(t.map, shifted).closure_error <= 1e-7


def _row_measure_corners(t, points):
    """Reference: every corner measured on rows, ``points`` an (N, 3)
    array, each sum over the components a reduce over the last axis."""
    key = np.asarray(t.edge_of if t.family == "hosohedron" else t.origin)
    at = points.take(key, 0)
    toward = points.take(key.take(np.array((t.face_prev, t.face_next))), 0)
    w = np.cross(at, toward[1])
    dot = np.add.reduce(at * toward[1], axis=1)
    lengths = np.arctan2(np.sqrt(np.add.reduce(w * w, axis=1)), dot)
    if t.family == "hosohedron":
        return lengths, lengths
    tv = toward - at * np.add.reduce(at * toward, axis=2, keepdims=True)
    norm = np.sqrt(np.add.reduce(tv * tv, axis=2, keepdims=True))
    t_prev, t_next = tv / norm
    turn = np.add.reduce(at * np.cross(t_prev, t_next), axis=1)
    raw = np.arctan2(turn, np.add.reduce(t_prev * t_next, axis=1))
    return (-raw) % (2 * PI), lengths


def test_measure_corners_matches_the_row_oracle_bit_for_bit():
    # the angles and arc lengths of every dart, on the catalog, the family
    # maps and the largest dihedron and hosohedra, from the (3, V) columns
    # realize measures and from the transposed view of the kept rows
    sweep = ["dihedron(1600)", "hosohedron(3)", "hosohedron(400)", "hosohedron(1600)"]
    for name in list(cat.all_entries()) + FAMILY_MAPS + sweep:
        t = cat.make(name)
        emb = em.realize(t.map, t.angles)
        rows = emb.points if emb.arc_midpoints is None else emb.arc_midpoints
        angles, lengths = _row_measure_corners(t.map, rows)
        assert emb._angles.tobytes() == angles.tobytes(), name
        for points in (np.ascontiguousarray(rows.T), rows.T):
            got = em._measure_corners(t.map, points)
            assert got[0].tobytes() == angles.tobytes(), name
            assert got[1].tobytes() == lengths.tobytes(), name


_U = np.array([0.3, -1.7, 2.9])
_Z = np.array([0.0, -0.0, 0.0])
# signed zeros, parallel and antiparallel pairs
SPECIALS = [
    (_Z, _U), (_U, _Z), (-_Z, _Z), (_Z, -_Z),
    (np.array([-0.0, 0.0, -0.0]), np.array([1.0, -1.0, 0.0])),
    (_U, _U), (_U, 3.0 * _U), (_U, -_U), (_U, -0.25 * _U),
    (np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])),
]


def _scaled_rows(seed):
    """Two (10000, 3) arrays of normal rows, each row scaled by 1e-8 .. 1e8."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((10_000, 3)) * 10.0 ** rng.integers(-8, 9, (10_000, 1))
            for _ in range(2)]


def test_cross_matches_numpy_bit_for_bit():
    a, b = _scaled_rows(7)
    want = np.cross(a, b)
    for i in range(len(a)):
        assert em._cross(a[i], b[i]).tobytes() == want[i].tobytes(), i
    for p, q in SPECIALS:
        assert em._cross(p, q).tobytes() == np.cross(p, q).tobytes(), (p, q)
    # the same function on (3, N) columns: contiguous, transposed views,
    # strided and gathered
    cols_a, cols_b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    assert em._cross(cols_a, cols_b).tobytes() == want.T.tobytes()
    assert em._cross(a.T, b.T).tobytes() == want.T.tobytes()
    assert em._cross(cols_a[:, ::3], cols_b[:, ::3]).tobytes() == want[::3].T.tobytes()
    cols = np.arange(0, 10_000, 7)
    got = em._cross(cols_a.take(cols, 1), cols_b.take(cols, 1))
    assert got.tobytes() == want[cols].T.tobytes()
    p, q = (np.array(c) for c in zip(*SPECIALS))
    assert em._cross(p.T, q.T).tobytes() == np.cross(p, q).T.tobytes()


def test_column_dot_matches_numpy_dot_bit_for_bit():
    # np.add.reduce(a * b, axis=0) rounds differently from np.dot on about a
    # third of these columns; the positions and gaps of realize depend on
    # _dot's bits
    a, b = _scaled_rows(11)
    want = np.array([np.dot(p, q) for p, q in zip(a, b)])
    cols_a, cols_b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    assert em._dot(cols_a, cols_b).tobytes() == want.tobytes()
    # transposed views, strided and gathered columns, a column's dot with
    # itself, one column, and the specials
    assert em._dot(a.T, b.T).tobytes() == want.tobytes()
    assert em._dot(cols_a[:, ::3], cols_b[:, ::3]).tobytes() == want[::3].tobytes()
    cols = np.arange(0, 10_000, 7)
    got = em._dot(cols_a.take(cols, 1), cols_b.take(cols, 1))
    assert got.tobytes() == want[cols].tobytes()
    assert em._dot(cols_a, cols_a).tobytes() == np.array([p.dot(p) for p in a]).tobytes()
    assert em._dot(cols_a[:, :1], cols_b[:, :1]).tobytes() == want[:1].tobytes()
    p, q = (np.array(c) for c in zip(*SPECIALS))
    assert em._dot(p.T, q.T).tobytes() == np.array([np.dot(*s) for s in SPECIALS]).tobytes()


def test_component_sums_match_row_sums_bit_for_bit():
    # _measure_corners and _arc_lengths add the components over the leading
    # axis of (3, N) and (3, 2, N) arrays: the same additions, in the same
    # order, as a sum over each row of an (N, 3) array.  Rows of signed
    # zeros included: three -0.0 add to +0.0 either way
    a, _ = _scaled_rows(13)
    a[:4] = [[-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0], [1e-300, -1e-300, -0.0]]
    want = np.add.reduce(a, axis=1)
    assert want[:4].tobytes() == np.zeros(4).tobytes()
    cols = np.ascontiguousarray(a.T)
    assert np.add.reduce(cols, axis=0).tobytes() == want.tobytes()
    assert np.add.reduce(a.T, axis=0).tobytes() == want.tobytes()
    pairs = np.stack([cols, cols[:, ::-1]], axis=1)
    assert np.add.reduce(pairs, axis=0).tobytes() == np.stack([want, want[::-1]]).tobytes()


def test_total_area_reads_the_measured_angles_bit_for_bit():
    # realize keeps the corner angles; a replaced Embedding measures afresh
    for name in cat.all_entries():
        t = cat.make(name)
        emb = em.realize(t.map, t.angles)
        copy = dataclasses.replace(emb)
        assert emb._angles is not None and copy._angles is None, name
        fresh = em._corner_angles(t.map, copy)
        want = float(fresh.sum()) - PI * (t.map.num_darts - 2 * t.map.num_faces)
        assert em.total_area(t.map, emb) == want, name


def _scalar_arc_points(u, v, mid, steps):
    """Reference: the arc samples one point at a time, as a list of 3-vectors."""
    if mid is not None:
        half = steps // 2 or 1
        before = _scalar_arc_points(u, mid, None, half)
        return before + [mid] + _scalar_arc_points(mid, v, None, steps - half)
    ang = math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v)))
    if ang < 1e-14:
        return [u] * (steps - 1)
    sin_ang = math.sin(ang)
    return [
        (math.sin((1.0 - s) * ang) * u + math.sin(s * ang) * v) / sin_ang
        for s in (i / steps for i in range(1, steps))
    ]


def _scalar_export_obj(t, emb, arc_steps, include_faces):
    """Reference: the OBJ text with each vertex line emitted as it is met."""
    lines = ["# sphtile unit-sphere tiling export"]
    count = 0

    def emit(p):
        nonlocal count
        lines.append("v %.17g %.17g %.17g" % (p[0], p[1], p[2]))
        count += 1
        return count

    vid = {v: emit(emb.positions[v]) for v in sorted(emb.positions)}
    ids = t.edge_of
    chains = []
    for d in range(t.num_darts):
        if d > t.edge_pair[d]:
            continue
        u, v = t.origin[d], t.target(d)
        mid = None if emb.arc_midpoints is None else emb.arc_midpoints[ids[d]]
        arc = _scalar_arc_points(emb.positions[u], emb.positions[v], mid, arc_steps)
        chains.append([vid[u]] + [emit(p) for p in arc] + [vid[v]])
    lines.extend("l " + " ".join(str(i) for i in chain) for chain in chains)
    if include_faces:
        for f in range(t.num_faces):
            cyc = t.face_vertex_cycle(f)
            if len(cyc) == 2:
                pts = [emb.arc_midpoints[ids[d]] for d in t.faces[f]]
            else:
                pts = [emb.positions[v] for v in cyc]
            centre = np.sum(pts, axis=0)
            if np.linalg.norm(centre) < 1e-9:
                if len(cyc) == 2:
                    centre = np.cross(emb.positions[cyc[0]], pts[0])
                else:
                    centre = np.cross(pts[1] - pts[0], pts[2] - pts[0])
            apex = emit(centre / np.linalg.norm(centre))
            for i in range(len(cyc)):
                lines.append("f %d %d %d" % (apex, vid[cyc[i]], vid[cyc[(i + 1) % len(cyc)]]))
    return ("\n".join(lines) + "\n").encode()


def test_export_obj_matches_scalar_oracle_byte_for_byte():
    fan = tm.digon_fan(2)
    cases = [(fan, em.realize(fan, AngleAssignment({2: PI}, PI)), "digon_fan(2)")]
    for name in cat.all_entries():
        t = cat.make(name)
        cases.append((t.map, em.realize(t.map, t.angles), name))
    for t, emb, name in cases:
        # 2, 8 and 16 reuse every mirrored sine, 3 none and 6 only i = 3
        for steps in (1, 2, 3, 6, 8, 16):
            for faces in (False, True):
                got = em.export_obj(t, emb, arc_steps=steps, include_faces=faces)
                want = _scalar_export_obj(t, emb, steps, faces)
                assert got == want, (name, steps, faces)


def test_arc_points_match_scalar_oracle_on_degenerate_arcs():
    # coincident endpoints and zero or one step, which no catalog edge has;
    # each kind of arc sampled in one batch, as export_obj samples them
    u = np.array([0.6, 0.0, 0.8])
    v = np.array([0.0, 0.6, 0.8])
    mid = np.array([0.0, 0.0, 1.0])
    plain = [(u, u), (u, v)]
    split = [(u, -u, mid), (u, u, mid)]
    for steps in (0, 1, 2, 3, 5):
        p, q = (np.array(c) for c in zip(*plain))
        got = list(em._arcs(p, q, steps))
        p, q, m = (np.array(c) for c in zip(*split))
        got += list(em._split_arcs(p, m, q, steps))
        for arc, (p, q, *m) in zip(got, plain + split):
            want = _scalar_arc_points(p, q, m[0] if m else None, steps)
            assert arc.shape == (len(want), 3), (steps, m)
            assert arc.tobytes() == np.array(want).reshape(-1, 3).tobytes(), (steps, m)


def _loaded(blob):
    """The map of an ``export_json`` document and an Embedding of its
    stored positions, stacked by vertex id, with no measurements."""
    _, t, _, positions = em.load_json(blob)
    points = np.array([positions[v] for v in range(t.num_vertices)])
    return t, em.Embedding(points, 0.0, math.nan, math.nan)


def test_export_from_loaded_positions_equals_the_realized_bytes():
    # the export reads positions by vertex id, so stored positions write the
    # same OBJ and JSON bytes as the embedding realize returned
    for name in cat.all_entries():
        t = cat.make(name)
        if t.map.family == "hosohedron":
            continue
        emb = em.realize(t.map, t.angles)
        blob = em.export_json(t.map, t.angles, emb, name=name)
        loaded = _loaded(blob)[1]
        assert em.export_json(t.map, t.angles, loaded, name=name) == blob, name
        want = em.export_obj(t.map, emb, arc_steps=8, include_faces=True)
        assert em.export_obj(t.map, loaded, arc_steps=8, include_faces=True) == want, name


def test_loaded_hosohedron_needs_its_edge_midpoints():
    # stored positions hold only the two poles, which fix no meridian
    t = cat.make("hosohedron(6)")
    emb = em.realize(t.map, t.angles)
    t2, loaded = _loaded(em.export_json(t.map, t.angles, emb, name="h"))
    calls = [
        lambda: em.face_angles(t2, loaded, 0),
        lambda: em.total_area(t2, loaded),
        lambda: em.export_obj(t2, loaded),
        lambda: em.export_obj(t2, loaded, include_faces=True),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="midpoint of every edge"):
            call()


def test_embedding_from_loaded_positions_measures_the_realized_angles():
    # the corner sense is fixed, so an Embedding built from stored positions
    # reads the same angles as the one realize returned
    for name in cat.all_entries():
        t = cat.make(name)
        if t.map.family == "hosohedron":
            continue
        emb = em.realize(t.map, t.angles)
        # stored positions carry no measurements
        t2, loaded = _loaded(em.export_json(t.map, t.angles, emb, name=name))
        assert abs(em.total_area(t2, loaded) - 4 * PI) <= 1e-6, name
        for f in range(t.map.num_faces):
            got = np.array(em.face_angles(t2, loaded, f)).tobytes()
            assert got == np.array(em.face_angles(t.map, emb, f)).tobytes(), (name, f)


def test_a_rebuilt_embedding_is_measured_once(monkeypatch):
    # an Embedding built from copies of realize's positions (and a
    # hosohedron's midpoints) measures the whole map at its first read and
    # keeps the angles: summing face_angles over every face measures once,
    # and each face reads realize's angles bit for bit
    calls = []
    measure = em._measure_corners

    def counting(*args):
        calls.append(args[0])
        return measure(*args)

    monkeypatch.setattr(em, "_measure_corners", counting)
    for name in list(cat.all_entries()) + ["prism(50)", "hosohedron(7)"]:
        t = cat.make(name)
        emb = em.realize(t.map, t.angles)
        mids = None if emb.arc_midpoints is None else emb.arc_midpoints.copy()
        rebuilt = em.Embedding(emb.points.copy(), 0.0, math.nan, math.nan, mids)
        calls.clear()
        for f in range(t.map.num_faces):
            got = np.array(em.face_angles(t.map, rebuilt, f)).tobytes()
            assert got == np.array(em.face_angles(t.map, emb, f)).tobytes(), (name, f)
        assert len(calls) == 1, name


def test_embeddings_compare_by_identity():
    # two embeddings of equal but distinct position arrays are not equal,
    # and comparing them does not ask numpy for an array's truth value
    t = cat.make("C")
    blob = em.export_json(t.map, t.angles, em.realize(t.map, t.angles))
    a, b = (_loaded(blob)[1] for _ in range(2))
    assert (a == b) is False
    assert a == a and a != b


def test_positions_is_the_dict_of_the_points_rows():
    # the public dict: every vertex id in order, each value the bytes of its
    # row of points, built once; load_json's positions read back the same
    for name in ("C", "dihedron(400)", "hosohedron(7)"):
        t = cat.make(name)
        emb = em.realize(t.map, t.angles)
        v = list(range(t.map.num_vertices))
        for positions in (emb.positions, em.load_json(em.export_json(t.map, t.angles, emb))[3]):
            assert sorted(positions) == v, name
            for i in v:
                assert positions[i].tobytes() == emb.points[i].tobytes(), (name, i)
        assert emb.positions is emb.positions, name


@pytest.mark.parametrize("n", [2, 3, 1600])
def test_digon_fan_numbers_edge_i_as_darts_2i_and_2i_plus_1(n):
    # _measure_corners and export_obj key a digon's dart d by edge d >> 1
    assert tm.digon_fan(n).edge_of == tuple(d >> 1 for d in range(2 * n))


def _format17_mismatches(x):
    """The entries of x whose ``_text.format17`` text differs from their
    '%.17g' text, with both texts."""
    x = np.asarray(x, dtype=np.float64).ravel()
    rows = np.column_stack([format17(x), np.full(x.size, ord("\n"), np.uint8)])
    got = rows[rows != 0].tobytes().decode()
    want = "%.17g\n" * x.size % tuple(x.tolist())
    if got == want:
        return []
    texts = zip(x.tolist(), got.split("\n"), want.split("\n"))
    return [(v, g, w) for v, g, w in texts if g != w]


def _fast_range_patterns(rng, n):
    """n doubles with random sign and mantissa bits and exponents from
    2**-15 to 2**-1, which cover the kernel's fast range 1e-4 <= |v| < 1."""
    exponent = rng.integers(1023 - 15, 1023, n, dtype=np.int64) << 52
    bits = rng.integers(0, 1 << 52, n, dtype=np.int64) | exponent
    return np.where(rng.random(n) < 0.5, -1.0, 1.0) * bits.view(np.float64)


def test_format17_is_percent_17g_on_a_million_seeded_values():
    rng = np.random.default_rng(3601)
    # unit-sphere coordinates, every decade from 1e-6 to 10, values with
    # trailing zeros, and raw patterns in the fast range
    points = rng.normal(size=(100_000, 3))
    values = [
        rng.uniform(-1.0, 1.0, 400_000),
        (points / np.linalg.norm(points, axis=1)[:, None]).ravel(),
        rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-6.0, 1.0, 100_000),
        np.round(rng.uniform(-1e4, 1e4, 100_000)) / 10.0 ** rng.integers(5, 17, 100_000),
        _fast_range_patterns(rng, 200_000),
    ]
    x = np.concatenate(values)
    assert x.size >= 10**6
    assert _format17_mismatches(x) == []


def test_format17_is_percent_17g_on_raw_bit_patterns():
    rng = np.random.default_rng(3602)
    # every exponent, nan and inf payloads included
    x = rng.integers(-(2**63), 2**63, 200_000, dtype=np.int64).view(np.float64)
    assert _format17_mismatches(x) == []


def test_format17_rounds_half_way_ties_to_even():
    # j / 2**18 for odd j ends in a 5 right after its 17th significant
    # digit when it is at least 0.1, an exact tie; a scaling by a power of
    # two is exact as well and puts the tie elsewhere
    ties = np.arange(1, 2**18, 2) / 2**18
    x = np.concatenate([ties, ties / 8, ties * 0.1])
    assert _format17_mismatches(np.concatenate([x, -x])) == []


def test_format17_decade_bounds_are_exact():
    # each is the least double at or above its power of ten; the first
    # bound is the least positive double, the class of zero below it
    assert _text._BOUNDS[0] == 5e-324
    for k, bound in enumerate(_text._BOUNDS[1:].tolist(), -24):
        assert Fraction(math.nextafter(bound, 0.0)) < Fraction(10) ** k <= Fraction(bound)


def test_format17_edges():
    # every power of ten from the subnormals up and both its neighbours,
    # the ends of the subnormals and of the doubles, the values just above
    # 1, and half-way ties in the 'e' form with their neighbours: r / 2**k
    # has 18 significant digits, the last a 5, for these odd r (ties where
    # the power of ten is exact, k = 22 and 23, and inexact, k = 24 and 25)
    bounds = [float("1e%d" % k) for k in range(-323, 309)] + [1.0000000000000002]
    ties = [r / 2**k for k, r0, r1 in ((22, 43, 419), (23, 9, 83), (24, 3, 15), (25, 1, 1))
            for r in range(r0, r1 + 1, 2)]
    x = [1e-4, 0.99999999999999994, 1.0, 1.0000000000000004, 1.0000000000000007, 0.0]
    x += [5e-324, 1e-323, 2.2250738585072014e-308, 1.7976931348623157e308, math.nan, math.inf]
    x += [math.nextafter(b, d) for b in bounds + ties for d in (0.0, math.inf)] + bounds + ties
    x += [-v for v in x]
    assert _format17_mismatches(x) == []
    assert format17(np.array([])).shape == (0, 24)


def test_format17_sweep():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(max_examples=200, deadline=None, database=None)
    @hyp.given(st.lists(st.floats(), min_size=1, max_size=50))
    def check(values):
        assert _format17_mismatches(values) == []

    check()


def test_no_exported_coordinate_reaches_percent(monkeypatch):
    # every OBJ point and JSON position of the catalog and of the family
    # members (at 6 and 12, and the larger sizes below) is written by the
    # kernel.  Its tables hold only zero and 1e-24 <= |v| < 10 and leave
    # every other value to '%'; that no export writes such a value rests on
    # this test, so a finite value here means an export left the tables
    reached = []

    def percent(v):
        reached.append(v)
        return "%.17g".encode() % v

    monkeypatch.setattr(_text, "_percent", percent)
    kinds = ("prism", "antiprism", "dihedron", "hosohedron")
    sweep = ["prism(400)", "antiprism(400)", "dihedron(1600)", "hosohedron(1600)"]
    for name in cat.all_entries() + [f"{k}({n})" for k in kinds for n in (6, 12)] + sweep:
        t = cat.make(name)
        emb = em.realize(t.map, t.angles)
        em.export_obj(t.map, emb, arc_steps=16, include_faces=True)
        em.export_json(t.map, t.angles, emb, name=name)
    assert [v for v in reached if math.isfinite(v)] == []
    assert _format17_mismatches([math.nan, -math.inf]) == [] and len(reached) == 2


def _json_oracle(t, assign, emb, name):
    """export_json's document as ``json.dumps`` writes it."""
    doc = {
        "name": name,
        "family": t.family,
        "faces": [list(t.face_vertex_cycle(f)) for f in range(t.num_faces)],
        "angles": {str(m): "%.17g" % a for m, a in assign.angles.items()},
        "edge": "%.17g" % assign.edge,
    }
    if emb is not None:
        doc["positions"] = [["%.17g" % c for c in emb.positions[v]] for v in range(t.num_vertices)]
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def test_export_json_matches_the_json_dumps_oracle():
    kinds = ("prism", "antiprism", "dihedron", "hosohedron")
    sweep = ["prism(400)", "antiprism(400)", "dihedron(1600)", "hosohedron(1600)"]
    for name in cat.all_entries() + [f"{k}({n})" for k in kinds for n in (6, 12)] + sweep:
        t = cat.make(name)
        for emb in (None, em.realize(t.map, t.angles)):
            want = _json_oracle(t.map, t.angles, emb, name)
            assert em.export_json(t.map, t.angles, emb, name=name) == want, name
    # names that need escaping, a map of no family, and an angle of size 10
    cube = cat.make("C")
    for name in ['a "quoted" \\ name', "café\n", ""]:
        assert em.export_json(cube.map, cube.angles, name=name) == _json_oracle(
            cube.map, cube.angles, None, name
        )
    assert cube.map.family is None
    prism = cat.make("prism(10)")
    assert em.export_json(prism.map, prism.angles) == _json_oracle(
        prism.map, prism.angles, None, "tiling"
    )
