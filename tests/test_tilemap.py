import math
import random

import pytest

from sphtile import catalog, tilemap as tm
from sphtile.algsolve import AngleAssignment

PI = math.pi

TETRA_FACES = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
CUBE_FACES = [
    (0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
    (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7),
]


def test_build_tetrahedron_counts():
    t = tm.build_from_faces(TETRA_FACES)
    assert (t.num_vertices, t.num_edges, t.num_faces) == (4, 6, 4)
    c = tm.census(t)
    assert c.vertex_types == {(3, 3, 3): 4}
    assert c.face_counts == {3: 4}


def test_build_dihedron():
    t = tm.build_from_faces([(0, 1, 2, 3, 4), (0, 1, 2, 3, 4)])
    assert (t.num_vertices, t.num_edges, t.num_faces) == (5, 5, 2)
    assert tm.census(t).vertex_types == {(5, 5): 5}
    # the family is read from the faces: two faces make a dihedron
    assert t.family == "dihedron"
    assert tm.validate(t, AngleAssignment({5: PI}, 2 * PI / 5)).overall_pass


def test_build_hosohedron():
    t = tm.digon_fan(6)
    assert (t.num_vertices, t.num_edges, t.num_faces) == (2, 6, 6)
    assert tm.census(t).vertex_types == {(2,) * 6: 2}
    assert t.family == "hosohedron"


def test_family_is_read_from_the_faces():
    for name in catalog.all_entries():
        kind = name.split("(")[0]
        want = kind if kind in ("hosohedron", "dihedron") else None
        assert catalog.make(name).map.family == want, name


def test_build_errors():
    with pytest.raises(tm.NotEdgeToEdge):
        tm.build_from_faces([(0, 1, 2), (0, 1, 2), (0, 1, 2)])  # edge used thrice
    with pytest.raises(tm.NotEdgeToEdge):
        tm.build_from_faces(TETRA_FACES[:3])  # open boundary
    with pytest.raises(tm.Disconnected):
        tm.build_from_faces(
            TETRA_FACES + [tuple(v + 4 for v in f) for f in TETRA_FACES]
        )
    with pytest.raises(tm.NotEdgeToEdge, match="oriented consistently"):
        # the 6-vertex triangulation of the projective plane is not orientable
        tm.build_from_faces([
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
            (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
        ])
    with pytest.raises(tm.NotEdgeToEdge, match="digon_fan"):
        tm.build_from_faces([(0, 1)])  # digons come only from digon_fan


def test_build_accepts_mixed_orientations():
    flipped = [TETRA_FACES[0][::-1]] + TETRA_FACES[1:]
    t = tm.build_from_faces(flipped)
    assert tm.isomorphic(t, tm.build_from_faces(TETRA_FACES))


def test_validate_ed_counts_derived_from_handshake():
    # face data f3=20, f4=30, f5=12 forces e = 120 and v = 60 via the
    # handshake and polyhedral identities
    fcounts = {3: 20, 4: 30, 5: 12}
    e = sum(m * n for m, n in fcounts.items()) // 2
    f = sum(fcounts.values())
    v = 2 + e - f
    assert (v, e, f) == (60, 120, 62)
    ed = catalog.make("eD")
    c = tm.census(ed.map)
    assert (c.v, c.e, c.f) == (60, 120, 62)
    rep = tm.validate(ed.map, ed.angles, expected=catalog.expected_census("eD"))
    assert rep.overall_pass, rep.failures()


def test_validate_flags_wrong_angle():
    cube = tm.build_from_faces(CUBE_FACES)
    bad = AngleAssignment({4: PI / 2}, PI / 2)
    rep = tm.validate(cube, bad)
    assert "angle_sums" in rep.failures()
    assert not rep.overall_pass


def test_validate_missing_face_size_fails_without_raising():
    cube = tm.build_from_faces(CUBE_FACES)
    rep = tm.validate(cube, AngleAssignment.from_angles({3: 2 * PI / 5}))
    for check in ("angle_sums", "area", "convexity"):
        assert not rep.checks[check].passed, check
        assert "missing angle" in rep.checks[check].detail, check
    assert not rep.overall_pass


def test_validate_area_residual_positive_check():
    cube = tm.build_from_faces(CUBE_FACES)
    good = AngleAssignment.from_angles({4: 2 * PI / 3})
    rep = tm.validate(cube, good)
    assert rep.overall_pass
    assert rep.checks["area"].residual < 1e-12


def test_j19_area_identity():
    # oracle: spherical excess summed over the golden face counts
    from sphtile.sphkernel import polygon_area

    t = catalog.make("J19")
    a = t.angles
    total = (
        4 * polygon_area(3, a.angle(3))
        + 13 * polygon_area(4, a.angle(4))
        + 1 * polygon_area(8, a.angle(8))
    )
    assert total == pytest.approx(4 * PI, abs=1e-8)


def test_census_examples():
    j72 = catalog.make("J72")
    c = tm.census(j72.map)
    assert c.vertex_types == {(3, 4, 5, 4): 50, (3, 4, 4, 5): 10}
    h = catalog.make("hosohedron(6)")
    c = tm.census(h.map)
    assert c.v == 2 and c.face_counts == {2: 6}


def test_isomorphic_relabelled_cube():
    cube = tm.build_from_faces(CUBE_FACES)
    # equal maps are isomorphic by the identity, without canonical forms
    same = tm.build_from_faces(CUBE_FACES)
    assert same is not cube and tm.isomorphic(cube, same)
    assert "canonical_form" not in vars(cube) and "canonical_form" not in vars(same)
    perm = {0: 6, 1: 4, 2: 0, 3: 7, 4: 2, 5: 3, 6: 1, 7: 5}
    other = tm.build_from_faces([tuple(perm[v] for v in f) for f in CUBE_FACES])
    assert tm.isomorphic(cube, other)
    assert not tm.isomorphic(cube, tm.build_from_faces(TETRA_FACES))


def test_isomorphic_distinguishes_same_census_pairs():
    assert not tm.isomorphic(catalog.make("eC").map, catalog.make("J37").map)
    assert not tm.isomorphic(catalog.make("J73").map, catalog.make("J74").map)
    assert not tm.isomorphic(catalog.make("J80").map, catalog.make("J81").map)


def test_isomorphic_is_equivalence_on_samples():
    names = ["T", "O", "J27", "aC", "J73"]
    maps = {n: catalog.make(n).map for n in names}
    for n, m in maps.items():
        assert tm.isomorphic(m, m)
    for a in names:
        for b in names:
            assert tm.isomorphic(maps[a], maps[b]) == tm.isomorphic(maps[b], maps[a])


def _brute_signature(t, start, reflected):
    """Reference: the full breadth-first signature from one start dart."""
    nxt = t.face_prev if reflected else t.face_next
    ids = [-1] * t.num_darts
    order = [start]
    ids[start] = 0
    head = 0
    while head < len(order):
        d = order[head]
        head += 1
        for nb in (nxt[d], t.edge_pair[d]):
            if ids[nb] < 0:
                ids[nb] = len(order)
                order.append(nb)
    sig = []
    for d in order:
        sig.append(ids[nxt[d]])
        sig.append(ids[t.edge_pair[d]])
        sig.append(len(t.faces[t.face_of[d]]))
    return tuple(sig)


def _brute_canonical_form(t):
    """Reference: the least full signature over every start, both orientations."""
    return min(
        _brute_signature(t, d, reflected)
        for reflected in (False, True)
        for d in t._start_darts
    )


ORACLE_FAMILY_MAPS = [
    f"{fam}({n})"
    for fam in ("prism", "antiprism", "dihedron", "hosohedron")
    for n in (3, 7, 50, 200)
]


def test_canonical_form_matches_brute_force():
    for name in list(catalog.all_entries()) + ORACLE_FAMILY_MAPS:
        t = catalog.make(name).map
        assert t.canonical_form == _brute_canonical_form(t), name
    fan = tm.digon_fan(2)
    assert fan.canonical_form == _brute_canonical_form(fan)


def test_canonical_form_ignores_orientation():
    # every face reversed: the rebuild is the mirror-oriented map
    for name in catalog.all_entries():
        t = catalog.make(name).map
        if t.family == "hosohedron":
            continue
        faces = [t.face_vertex_cycle(f)[::-1] for f in range(t.num_faces)]
        mirror = tm.build_from_faces(faces)
        assert mirror.canonical_form == t.canonical_form, name


@pytest.mark.parametrize("name", ["prism(400)", "antiprism(400)"])
def test_canonical_form_of_large_relabelled_family(name):
    t = catalog.make(name).map
    rng = random.Random(400)
    label = list(range(t.num_vertices))
    rng.shuffle(label)
    faces = []
    for f in range(t.num_faces):
        cyc = [label[v] for v in t.face_vertex_cycle(f)]
        k = rng.randrange(len(cyc))
        faces.append(cyc[k:] + cyc[:k])
    rng.shuffle(faces)
    other = tm.build_from_faces(faces)
    assert other.origin != t.origin
    assert other.canonical_form == t.canonical_form


def test_rebuild_is_invariant_under_relabelling_and_reorientation():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # hosohedra need parallel edges and are built by digon_fan, not from faces
    names = [n for n in catalog.all_entries() if not n.startswith("hosohedron")]

    @hyp.settings(max_examples=25, deadline=None)
    @hyp.given(st.sampled_from(names), st.data())
    def invariant(name, data):
        t = catalog.make(name).map
        label = data.draw(st.permutations(range(t.num_vertices)))
        faces = []
        for f in range(t.num_faces):
            cyc = [label[v] for v in t.face_vertex_cycle(f)]
            k = data.draw(st.integers(0, len(cyc) - 1))
            cyc = cyc[k:] + cyc[:k]
            faces.append(cyc[::-1] if data.draw(st.booleans()) else cyc)
        faces = data.draw(st.permutations(faces))
        other = tm.build_from_faces(faces)
        assert tm.census(other) == tm.census(t)
        assert tm.isomorphic(other, t)
        assert other.canonical_form == _brute_canonical_form(other)

    invariant()


def test_homogeneity():
    assert tm.homogeneity(catalog.make("J37").map) == "strong"
    assert tm.homogeneity(catalog.make("J27").map) == "weak-only"
    assert tm.homogeneity(catalog.make("J5").map) == "none"


def test_small_face_or_degree3_vertex_everywhere():
    # every catalog map with faces >= 3 sides and degrees >= 3 has a face
    # of size 3, 4 or 5; the triangle-free ones have a degree-3 vertex
    for name in catalog.all_entries():
        t = catalog.make(name).map
        if t.family in ("hosohedron", "dihedron"):
            continue
        c = tm.census(t)
        assert any(m in (3, 4, 5) for m in c.face_counts), name
        if 3 not in c.face_counts:
            assert any(t.degree(v) == 3 for v in range(t.num_vertices)), name


def test_counting_identities_across_catalog():
    for name in catalog.all_entries():
        t = catalog.make(name)
        rep = tm.validate(t.map, t.angles, name=name)
        for key in ("euler", "degree_sum", "face_sum", "angle_sums", "area"):
            assert rep.checks[key].passed, (name, key)
        # the cached rotations are the vertex_next cycles, one per vertex
        m = t.map
        assert sorted(d for r in m.vertex_rotations for d in r) == list(range(m.num_darts)), name
        for v, r in enumerate(m.vertex_rotations):
            assert r[0] == m.vertex_darts[v] and {m.origin[d] for d in r} == {v}, name
            assert [m.vertex_next[d] for d in r] == [*r[1:], r[0]], name


def test_cut_vertex_matches_networkx():
    nx = pytest.importorskip("networkx")
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def biconnected(n, edges):
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        return nx.is_biconnected(g)

    for name in catalog.all_entries():
        t = catalog.make(name).map
        cut = tm._has_cut_vertex(t.num_vertices, t.edges)
        assert cut != biconnected(t.num_vertices, t.edges), name

    graphs = st.integers(3, 10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=3 * n,
            ),
        )
    )

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(graphs)
    def agrees(graph):
        n, edges = graph
        assert tm._has_cut_vertex(n, edges) != biconnected(n, edges)

    agrees()


def test_cut_vertex_on_long_cycle():
    # a deep search: the test must not recurse once per vertex
    n = 5000
    ring = [(i, (i + 1) % n) for i in range(n)]
    assert not tm._has_cut_vertex(n, ring)
    assert tm._has_cut_vertex(n + 1, ring + [(n - 1, n)])
