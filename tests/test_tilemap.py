import math
import random

import pytest

from sphtile import catalog, tilemap as tm, vertexcomb
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


# (error class, faces, message pattern) per malformed face list
BUILD_ERRORS = [
    (tm.NotEdgeToEdge, [(0, 1, 2), (0, 1, 2), (0, 1, 2)], None),  # edge used thrice
    (tm.NotEdgeToEdge, TETRA_FACES[:3], None),  # open boundary
    (tm.Disconnected, TETRA_FACES + [tuple(v + 4 for v in f) for f in TETRA_FACES], None),
    # the 6-vertex triangulation of the projective plane is not orientable
    (tm.NotEdgeToEdge, [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
    ], "oriented consistently"),
    (tm.NotEdgeToEdge, [(0, 1)], "digon_fan"),  # digons come only from digon_fan
]


def test_build_errors():
    for kind, faces, match in BUILD_ERRORS:
        with pytest.raises(kind, match=match):
            tm.build_from_faces(faces)


def _frozenset_build_from_faces(faces):
    """Oracle: the map built with one frozenset key per undirected edge,
    looked up again per dart to orient the faces."""
    cycles = [tuple(f) for f in faces]
    if not cycles:
        raise tm.NotEdgeToEdge("no faces")
    for f in cycles:
        if len(f) < 3 or len(set(f)) != len(f):
            raise tm.NotEdgeToEdge(f"bad face {f}")
    incident: dict = {}
    for fi, f in enumerate(cycles):
        for i in range(len(f)):
            u, v = f[i], f[(i + 1) % len(f)]
            incident.setdefault(frozenset((u, v)), []).append((fi, u, v))
    if any(len(fs) != 2 for fs in incident.values()):
        raise tm.NotEdgeToEdge("an edge does not lie on two faces")
    flipped = [None] * len(cycles)
    flipped[0] = False
    stack = [0]
    while stack:
        fi = stack.pop()
        f = cycles[fi][::-1] if flipped[fi] else cycles[fi]
        for i in range(len(f)):
            u, v = f[i], f[(i + 1) % len(f)]
            first, second = incident[frozenset((u, v))]
            gi, a, _ = second if first[0] == fi else first
            if flipped[gi] is None:
                flipped[gi] = a == u
                stack.append(gi)
            elif (a == u) != flipped[gi]:
                raise tm.NotEdgeToEdge("faces cannot be oriented consistently")
    if None in flipped:
        raise tm.Disconnected("face complex is not connected")
    oriented = [f[::-1] if flip else f for f, flip in zip(cycles, flipped)]
    vid: dict = {}
    for f in oriented:
        for v in f:
            vid.setdefault(v, len(vid))
    origin, face_next, face_of, face_darts, dart_of = [], [], [], [], {}
    for fi, f in enumerate(oriented):
        k, base = len(f), len(origin)
        face_darts.append(tuple(range(base, base + k)))
        for i in range(k):
            u, v = vid[f[i]], vid[f[(i + 1) % k]]
            origin.append(u)
            face_next.append(base + (i + 1) % k)
            face_of.append(fi)
            dart_of[u, v] = base + i
    edge_pair = tuple(dart_of[origin[nd], origin[d]] for d, nd in enumerate(face_next))
    return tm.TilingMap(
        tuple(origin), tuple(face_next), edge_pair, tuple(face_of), tuple(face_darts)
    )


def test_build_from_faces_matches_frozenset_oracle():
    # hosohedra need parallel edges and are built by digon_fan, not from faces
    rng = random.Random(2024)
    names = [n for n in catalog.all_entries() if not n.startswith("hosohedron")]
    for name in names + ["prism(50)", "antiprism(50)", "dihedron(50)"]:
        t = catalog.make(name).map
        ints = rng.sample(range(10 * t.num_vertices), t.num_vertices)
        relabel = [list(range(t.num_vertices)), ints, [("v", i, -i) for i in ints]]
        for label in relabel:
            faces = []
            for f in range(t.num_faces):
                cyc = [label[v] for v in t.face_vertex_cycle(f)]
                faces.append(cyc[::-1] if rng.random() < 0.5 else cyc)
            assert tm.build_from_faces(faces) == _frozenset_build_from_faces(faces), name
    for _, faces, _ in BUILD_ERRORS:
        raised = []
        for build in (tm.build_from_faces, _frozenset_build_from_faces):
            with pytest.raises(ValueError) as info:
                build(faces)
            raised.append(info.type)
        assert raised[0] is raised[1], faces


def test_vertex_arrangements_match_per_vertex_canonical_form():
    maps = [catalog.make(n).map for n in catalog.all_entries()]
    maps += [catalog.make(n).map for n in ("hosohedron(400)", "dihedron(400)")]
    maps.append(tm.digon_fan(2))
    for t in maps:
        want = tuple(
            vertexcomb.canonical_arrangement(sizes) for sizes in t.vertex_face_sizes
        )
        assert t.vertex_arrangements == want


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


def _nudged(name, by):
    """A catalog entry's map and assignment, its square angle moved by
    ``by`` and its edge kept."""
    t = catalog.make(name)
    angles = dict(t.angles.angles)
    angles[4] += by
    return t.map, AngleAssignment(angles, t.angles.edge)


def _square_torus():
    """A 3 x 3 torus of squares (v - e + f = 0), with the cube's angles."""
    faces = [
        tuple(3 * ((i + a) % 3) + (j + b) % 3 for a, b in ((0, 0), (1, 0), (1, 1), (0, 1)))
        for i in range(3)
        for j in range(3)
    ]
    return tm.build_from_faces(faces), catalog.make("C").angles


@pytest.mark.parametrize(
    "case, expected, failing, readings",
    [
        # each square angle sum is off by 3 * 4e-10 > tol = 1e-9; the area
        # (6 * 4 * 4e-10) and the companion relation stay within theirs
        (lambda: _nudged("C", 4e-10), None, ["angle_sums"], {"angle_sums": 1.2e-9}),
        (lambda: _nudged("C", 3e-10), None, [], {"angle_sums": 9.0e-10}),
        # each of the 400 squares' areas is 4 * 1e-10 too large: the total
        # area alone is off by more than area_tol = 1e-8
        (lambda: _nudged("prism(400)", 1e-10), None, ["area"],
         {"area": 1.6e-7, "angle_sums": 2.0e-10, "companion": 4.0e-10}),
        (lambda: _nudged("C", 0.0), "O", ["census"], {"census": "census mismatch"}),
        (_square_torus, None, ["euler", "angle_sums", "area", "vertex_feasibility"],
         {"euler": -2.0, "vertex_feasibility": "inadmissible [(4, 4, 4, 4)]"}),
    ],
    ids=["cube-angle-sums", "cube-within-tol", "prism400-area", "cube-as-O", "torus"],
)
def test_validate_negative_controls(case, expected, failing, readings):
    t, assign = case()
    census = None if expected is None else catalog.expected_census(expected)
    rep = tm.validate(t, assign, expected=census)
    assert rep.failures() == failing
    for key, want in readings.items():
        check = rep.checks[key]
        if isinstance(want, str):
            assert check.detail == want, key
        else:
            assert check.residual == pytest.approx(want, rel=1e-4), key


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
    return tuple((ids[nxt[d]], ids[t.edge_pair[d]], len(t.faces[t.face_of[d]])) for d in order)


def _brute_canonical_form(t):
    """Reference: the least full signature over every start state."""
    return min(
        _brute_signature(t, d, reflected)
        for reflected, starts in enumerate(t._start_darts)
        for d in starts
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


def _coned_faces(t, f):
    """The faces of a map with face f replaced by a pyramid on a new vertex."""
    cyc = t.face_vertex_cycle(f)
    apex = t.num_vertices
    faces = [t.face_vertex_cycle(g) for g in range(t.num_faces) if g != f]
    return faces + [(cyc[i - 1], cyc[i], apex) for i in range(len(cyc))]


def _coned_snub(name, size):
    t = catalog.make(name).map
    return _coned_faces(t, catalog.faces_of_size(t, size)[0])


def _truncated_snub(name):
    t = catalog.truncate_all(catalog.make(name).map)
    return [t.face_vertex_cycle(f) for f in range(t.num_faces)]


# chiral maps that are not vertex-transitive, so a reflection does not
# map forward starts onto themselves: a snub with a pyramid on one face
# (which keeps its chirality) and a truncated snub (two vertex orbits)
@pytest.mark.parametrize(
    "build, args",
    [(_coned_snub, ("sC", 4)), (_coned_snub, ("sC", 3)), (_coned_snub, ("sD", 5)),
     (_truncated_snub, ("sC",))],
    ids=["sC-square-pyramid", "sC-triangle-pyramid", "sD-pentagon-pyramid", "truncated-sC"],
)
def test_isomorphic_finds_mirror_image_of_chiral_map(build, args):
    faces = build(*args)
    t = tm.build_from_faces(faces)
    mirror = tm.build_from_faces([f[::-1] for f in faces])
    label = list(range(t.num_vertices))
    random.Random(len(faces)).shuffle(label)
    relabelled = tm.build_from_faces([tuple(label[v] for v in f[::-1]) for f in faces])
    assert t != mirror
    assert tm.isomorphic(t, mirror)
    assert tm.isomorphic(t, relabelled)
    assert mirror.canonical_form == t.canonical_form == relabelled.canonical_form


def test_isomorphic_is_invariant_under_mirroring_coned_maps():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    names = [n for n in catalog.all_entries() if not n.startswith("hosohedron")]
    coned = st.sampled_from(names).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, catalog.make(n).map.num_faces - 1))
    )

    @hyp.settings(max_examples=25, deadline=None)
    @hyp.given(coned, st.booleans(), st.data())
    def invariant(site, mirrored, data):
        name, f = site
        t = tm.build_from_faces(_coned_faces(catalog.make(name).map, f))
        label = data.draw(st.permutations(range(t.num_vertices)))
        faces = []
        for g in range(t.num_faces):
            cyc = [label[v] for v in t.face_vertex_cycle(g)]
            k = data.draw(st.integers(0, len(cyc) - 1))
            cyc = cyc[k:] + cyc[:k]
            faces.append(cyc[::-1] if mirrored else cyc)
        other = tm.build_from_faces(data.draw(st.permutations(faces)))
        assert tm.isomorphic(other, t)
        assert other.canonical_form == t.canonical_form == _brute_canonical_form(t)

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
    maps = [("digon_fan(2)", tm.digon_fan(2))]
    for name in [*catalog.all_entries(), "hosohedron(400)", "dihedron(400)"]:
        t = catalog.make(name)
        rep = tm.validate(t.map, t.angles, name=name)
        for key in ("euler", "degree_sum", "face_sum", "angle_sums", "area"):
            assert rep.checks[key].passed, (name, key)
        maps.append((name, t.map))
    for name, m in maps:
        # the cached rotations are the vertex_next cycles, one per vertex,
        # each from its lowest dart, and the face sizes are read along them
        assert sorted(d for r in m.vertex_rotations for d in r) == list(range(m.num_darts)), name
        for v, r in enumerate(m.vertex_rotations):
            assert r[0] == m.origin.index(v) and {m.origin[d] for d in r} == {v}, name
            assert [m.vertex_next[d] for d in r] == [*r[1:], r[0]], name
            assert m.vertex_face_sizes[v] == tuple(m.face_size(m.face_of[d]) for d in r), name
        # both darts of an edge share its id, its index in edges (by lower dart)
        lower = [d for d, p in enumerate(m.edge_pair) if d < p]
        assert [m.edge_of[d] for d in lower] == list(range(m.num_edges)), name
        assert [m.edge_of[p] for p in m.edge_pair] == list(m.edge_of), name
        assert [(m.origin[d], m.target(d)) for d in lower] == list(m.edges), name


def test_two_connected_matches_networkx():
    nx = pytest.importorskip("networkx")

    def biconnected(t):
        g = nx.Graph()
        g.add_nodes_from(range(t.num_vertices))
        g.add_edges_from(t.edges)
        return nx.is_biconnected(g)

    families = ["prism(400)", "antiprism(400)", "dihedron(1600)", "hosohedron(1600)"]
    for name in catalog.all_entries() + families:
        t = catalog.make(name)
        rep = tm.validate(t.map, t.angles, name=name)
        assert rep.checks["two_connected"].passed == biconnected(t.map), name
    fan = tm.digon_fan(2)
    rep = tm.validate(fan, AngleAssignment.from_angles({2: PI}))
    assert rep.checks["two_connected"].passed == biconnected(fan)


def test_two_connected_names_the_face_that_repeats_a_vertex():
    # a bowtie on the sphere: two triangles meet at vertex 0, and the
    # hexagon around both visits vertex 0 twice, which makes it a cut vertex
    cycles = [(0, 1, 2), (0, 3, 4), (0, 2, 1, 0, 4, 3)]
    starts = [0, 3, 6, 12]
    faces = tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))
    origin = tuple(v for c in cycles for v in c)
    face_next = tuple(f[(i + 1) % len(f)] for f in faces for i in range(len(f)))
    dart = {(origin[d], origin[face_next[d]]): d for d in range(len(origin))}
    t = tm.TilingMap(
        origin=origin,
        face_next=face_next,
        edge_pair=tuple(dart[origin[face_next[d]], origin[d]] for d in range(len(origin))),
        face_of=tuple(fi for fi, f in enumerate(faces) for _ in f),
        faces=faces,
    )
    assert (t.num_vertices, t.num_edges, t.num_faces) == (5, 6, 3)
    assert list(map(len, t.vertex_rotations)) == [4, 2, 2, 2, 2]
    rep = tm.validate(t, AngleAssignment({3: PI / 2, 6: PI}, PI / 2))
    assert rep.checks["euler"].passed and rep.checks["degree_sum"].passed
    check = rep.checks["two_connected"]
    assert not check.passed and check.detail == "face 2 repeats vertex 0"
    nx = pytest.importorskip("networkx")
    assert not nx.is_biconnected(nx.Graph(t.edges))


# --------------------------------------------------------------------------
# the records: equality, immutability, repr
# --------------------------------------------------------------------------


def test_maps_from_the_same_faces_are_equal_and_hash_equal():
    a, b = tm.build_from_faces(CUBE_FACES), tm.build_from_faces(CUBE_FACES)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != tm.build_from_faces(TETRA_FACES)
    assert tm.census(a) == tm.census(b)
    assert tm.census(a) != tm.census(tm.build_from_faces(TETRA_FACES))


def test_check_result_compares_by_fields_with_its_defaults():
    assert tm.CheckResult(True) == tm.CheckResult(True, None, "")
    assert tm.CheckResult(True).residual is None and tm.CheckResult(True).detail == ""
    assert tm.CheckResult(True, 0.5) != tm.CheckResult(True, 0.25)
    assert tm.CheckResult(False, detail="x") != tm.CheckResult(False, detail="y")


@pytest.mark.parametrize(
    "record, field",
    [
        (tm.build_from_faces(TETRA_FACES), "origin"),
        (tm.build_from_faces(TETRA_FACES), "faces"),
        (tm.census(tm.build_from_faces(TETRA_FACES)), "v"),
        (tm.CheckResult(True), "passed"),
    ],
)
def test_record_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_validation_reports_do_not_share_checks():
    a, b = tm.ValidationReport(name="a"), tm.ValidationReport(name="b")
    a.add("euler", True)
    assert list(a.checks) == ["euler"] and b.checks == {}


def test_record_reprs_start_with_class_and_first_field():
    t = tm.build_from_faces(TETRA_FACES)
    assert repr(t).startswith("TilingMap(origin=(0, 1, 2, ")
    assert repr(tm.census(t)).startswith("Census(vertex_types={(3, 3, 3): 4}")
    assert repr(tm.CheckResult(True)).startswith("CheckResult(passed=True")
    assert repr(tm.ValidationReport(name="X")).startswith("ValidationReport(name='X'")
    (site,) = catalog.find_cupola_sites(catalog.make("J3").map)
    assert repr(site).startswith(f"CupolaSite(top={site.top}")
