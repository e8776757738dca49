import dataclasses
import json
import math

import numpy as np
import pytest

from sphtile import catalog as cat, embedder as em, tilemap as tm
from sphtile.algsolve import AngleAssignment
from sphtile.sphkernel import polygon_area

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
    cube = cat.make("C").map
    bad = AngleAssignment({4: 2.2}, 1.3)
    with pytest.raises(em.ClosureFailure):
        em.realize(cube, bad)


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
        out.append((emb.corner_sign * raw) % (2 * PI))
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
