import dataclasses
import json
import math
from collections import deque

import numpy as np
import pytest

from sphtile import catalog as cat, embedder as em, tilemap as tm
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


def test_json_schema_fields():
    t = cat.make("T")
    doc = json.loads(em.export_json(t.map, t.angles, name="T").decode())
    assert set(doc) == {"name", "family", "faces", "angles", "edge"}
    assert doc["angles"]["3"].startswith("2.0943951023931")
    assert isinstance(doc["angles"]["3"], str)


def _scalar_corner_angles(t, emb):
    """Reference: each dart's corner angle on single 3-vectors, one at a time."""
    ids = t.edge_ids()
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


@pytest.mark.parametrize("offset", [0.0, 1e-15])
def test_face_angles_coincident_neighbours_raise(offset):
    t = cat.make("C")
    emb = em.realize(t.map, t.angles)
    a, b = t.map.face_vertex_cycle(0)[:2]
    positions = dict(emb.positions)
    positions[b] = positions[a] + np.array([offset, 0.0, 0.0])
    bad = dataclasses.replace(emb, positions=positions)
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


def _scalar_realize(t, assign):
    """Reference: the propagation one vertex at a time, positions in a dict.

    Each vertex is its own rotation with ``np.cross``, and each revisit its
    own ``np.linalg.norm``.  Returns the embedding, edge and angle errors
    filled in, and the (vertex, face) of the worst revisit.
    """
    positions = {}
    worst, witness = 0.0, None

    def place(v, p, f):
        nonlocal worst, witness
        if v in positions:
            gap = float(np.linalg.norm(positions[v] - p))
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
    edge_error = float(np.max(np.abs(em._arc_lengths(pos[u], pos[v]) - assign.edge)))
    emb = em.Embedding(positions, worst, edge_error, math.nan)
    want = np.array([assign.angle(len(t.faces[f])) for f in t.face_of])
    emb.angle_error = float(np.max(np.abs(em._corner_angles(t, emb) - want)))
    return emb, witness


FAMILY_MAPS = [f"{fam}({n})" for fam in ("prism", "antiprism", "dihedron") for n in (50, 200, 400)]


def test_realize_matches_scalar_oracle_bit_for_bit():
    for name in list(cat.all_entries()) + FAMILY_MAPS:
        t = cat.make(name)
        if t.map.family == "hosohedron":
            continue
        got = em.realize(t.map, t.angles)
        want, _ = _scalar_realize(t.map, t.angles)
        assert sorted(got.positions) == sorted(want.positions), name
        for v in want.positions:
            assert got.positions[v].tobytes() == want.positions[v].tobytes(), (name, v)
        assert got.closure_error == want.closure_error, name
        assert got.edge_error == want.edge_error, name
        assert got.angle_error == want.angle_error, name


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


def test_cross_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((10_000, 3)) * 10.0 ** rng.integers(-8, 9, (10_000, 1))
    b = rng.standard_normal((10_000, 3)) * 10.0 ** rng.integers(-8, 9, (10_000, 1))
    want = np.cross(a, b)
    for i in range(len(a)):
        assert em._cross(a[i], b[i]).tobytes() == want[i].tobytes(), i
    u = np.array([0.3, -1.7, 2.9])
    z = np.array([0.0, -0.0, 0.0])
    specials = [
        (z, u), (u, z), (-z, z), (z, -z),
        (np.array([-0.0, 0.0, -0.0]), np.array([1.0, -1.0, 0.0])),
        (u, u), (u, 3.0 * u), (u, -u), (u, -0.25 * u),
        (np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])),
    ]
    for p, q in specials:
        assert em._cross(p, q).tobytes() == np.cross(p, q).tobytes(), (p, q)


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
    ids = t.edge_ids()
    chains = []
    for d in range(t.num_darts):
        if d > t.edge_pair[d]:
            continue
        u, v = t.origin[d], t.target(d)
        mid = emb.arc_midpoints.get(ids[d])
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
        for steps in (1, 2, 3, 8, 16):
            for faces in (False, True):
                got = em.export_obj(t, emb, arc_steps=steps, include_faces=faces)
                want = _scalar_export_obj(t, emb, steps, faces)
                assert got == want, (name, steps, faces)


def test_arc_points_match_scalar_oracle_on_degenerate_arcs():
    # coincident endpoints and zero or one step, which no catalog edge has
    u = np.array([0.6, 0.0, 0.8])
    v = np.array([0.0, 0.6, 0.8])
    mid = np.array([0.0, 0.0, 1.0])
    for p, q, m in [(u, u, None), (u, v, None), (u, -u, mid), (u, u, mid)]:
        for steps in (0, 1, 2, 3, 5):
            got = em._arc_points(p, q, m, steps)
            want = _scalar_arc_points(p, q, m, steps)
            assert got.shape == (len(want), 3), (steps, m)
            assert got.tobytes() == np.array(want).reshape(-1, 3).tobytes(), (steps, m)


def test_embedding_from_loaded_positions_measures_the_realized_angles():
    # the corner sense is fixed, so an Embedding built from stored positions
    # reads the same angles as the one realize returned
    for name in cat.all_entries():
        t = cat.make(name)
        if t.map.family == "hosohedron":
            continue
        emb = em.realize(t.map, t.angles)
        _, t2, _, positions = em.load_json(em.export_json(t.map, t.angles, emb, name=name))
        # stored positions carry no measurements
        loaded = em.Embedding(positions, 0.0, math.nan, math.nan)
        assert abs(em.total_area(t2, loaded) - 4 * PI) <= 1e-6, name
        for f in range(t.map.num_faces):
            assert em.face_angles(t2, loaded, f) == em.face_angles(t.map, emb, f), (name, f)
