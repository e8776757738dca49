import math

import pytest

from sphtile import catalog as cat, embedder, tilemap as tm
from sphtile.algsolve import AngleAssignment
from sphtile.sphkernel import DomainError

PI = math.pi
SQ5 = math.sqrt(5.0)

ALL = cat.all_entries()


@pytest.mark.parametrize("name", ALL)
def test_entry_validates_with_golden_census(name):
    t = cat.make(name)
    rep = tm.validate(
        t.map, t.angles, tol=1e-9, area_tol=1e-8,
        expected=cat.expected_census(name), name=name,
    )
    assert rep.overall_pass, (name, rep.failures())


@pytest.mark.parametrize("name", ["prism(200)", "antiprism(200)"])
def test_large_family_members_validate_and_embed(name):
    t = cat.make(name)
    rep = tm.validate(
        t.map, t.angles, tol=1e-9, area_tol=1e-8,
        expected=cat.expected_census(name), name=name,
    )
    assert rep.overall_pass, (name, rep.failures())
    emb = embedder.realize(t.map, t.angles, closure_tol=1e-7)
    assert emb.closure_error <= 1e-7
    assert emb.edge_error <= 1e-9
    assert abs(embedder.total_area(t.map, emb) - 4 * PI) <= 1e-6


# ALL holds prism(4) and antiprism(3), whose n-gons share a size with their
# other faces
@pytest.mark.parametrize(
    "name",
    ALL + [f"{kind}({n})" for kind in ("prism", "antiprism") for n in (24, 32)]
    + [f"{kind}({n})" for kind in ("dihedron", "hosohedron") for n in (400, 1600)],
)
def test_expected_census_is_the_built_maps(name):
    # the face counts and V, E, F are derived from the arrangements alone
    assert cat.expected_census(name) == tm.census(cat.make(name).map)


def test_j19_octagon_forced_by_handshake():
    # the vertex census {12 of 3.4.4.4, 8 of 4.4.8} fixes 2e = 72; with
    # f3 = 4 and f4 = 13 the remaining face must be a single octagon
    two_e = 12 * 4 + 8 * 3
    assert two_e == 72
    remainder = two_e - (3 * 4 + 4 * 13)
    assert remainder == 8
    c = tm.census(cat.make("J19").map)
    assert c.face_counts == {3: 4, 4: 13, 8: 1}


def test_prism_triangular_angles():
    p = cat.make("prism(3)")
    assert p.angles.angles[3] == pytest.approx(4 * math.atan(1 / math.sqrt(7)), abs=1e-12)


def test_prism4_is_cube_and_antiprism3_is_octahedron():
    assert tm.isomorphic(cat.make("prism(4)").map, cat.make("C").map)
    assert tm.isomorphic(cat.make("antiprism(3)").map, cat.make("O").map)


def test_antiprism5_matches_icosahedron_family():
    ap = cat.make("antiprism(5)")
    assert tm.census(ap.map).vertex_types == {(3, 3, 3, 5): 10}
    assert ap.angles.angles[3] == pytest.approx(2 * PI / 5, abs=1e-9)
    assert ap.angles.angles[5] == pytest.approx(4 * PI / 5, abs=1e-9)
    # antiprism(5) is the icosahedron with two antipodal vertices removed
    ico, dist = cat._icosa_distances()
    anti = cat.pyramid_diminish(ico, [0, dist[0].index(3)])
    assert tm.isomorphic(ap.map, anti.map)


def test_family_domain_errors():
    with pytest.raises(DomainError):
        cat.make_prism(2)
    with pytest.raises(DomainError):
        cat.make_hosohedron(2)
    with pytest.raises(cat.UnknownName):
        cat.make("J13")


# --------------------------------------------------------------------------
# operator identities
# --------------------------------------------------------------------------


def test_cupola_subdivide_j19():
    j19 = cat.make("J19")
    octagon = cat.faces_of_size(j19.map, 8)[0]
    ortho = cat.cupola_subdivide(j19, octagon, phase=0)
    gyro = cat.cupola_subdivide(j19, octagon, phase=1)
    assert tm.isomorphic(ortho.map, cat.make("eC").map)
    assert tm.isomorphic(gyro.map, cat.make("J37").map)
    assert tm.validate(ortho.map, ortho.angles).overall_pass
    assert tm.validate(gyro.map, gyro.angles).overall_pass


def test_prism_subdivide_j4():
    j4 = cat.make("J4")
    octagon = cat.faces_of_size(j4.map, 8)[0]
    r = cat.prism_subdivide(j4, octagon)
    assert tm.isomorphic(r.map, cat.make("J19").map)
    assert tm.validate(r.map, r.angles).overall_pass


def test_pyramid_subdivide_j11():
    j11 = cat.make("J11")
    pent = cat.faces_of_size(j11.map, 5)[0]
    r = cat.pyramid_subdivide(j11, pent)
    assert tm.isomorphic(r.map, cat.make("I").map)
    assert tm.validate(r.map, r.angles).overall_pass


def test_pyramid_subdivide_preconditions():
    j2 = cat.make("J2")
    with pytest.raises(cat.PreconditionFailed):
        cat.pyramid_subdivide(j2, cat.faces_of_size(j2.map, 5)[0])
    with pytest.raises(cat.PreconditionFailed):
        cat.pyramid_subdivide(cat.make("dihedron(6)"), 0)


def test_cupola_subdivide_rejects_concave_decagon():
    j5 = cat.make("J5")
    with pytest.raises(cat.PreconditionFailed):
        cat.cupola_subdivide(j5, cat.faces_of_size(j5.map, 10)[0])


def test_cupola_subdivide_j76_rebuilds_ed_family():
    j76 = cat.make("J76")
    decagon = cat.faces_of_size(j76.map, 10)[0]
    results = set()
    for phase in (0, 1):
        r = cat.cupola_subdivide(j76, decagon, phase=phase)
        for name in ("eD", "J72"):
            if tm.isomorphic(r.map, cat.make(name).map):
                results.add(name)
    assert results == {"eD", "J72"}


def _with_angles(tiling, changes):
    """The same map with some sizes' angles replaced or added."""
    angles = {**tiling.angles.angles, **changes}
    return tiling._replace(angles=AngleAssignment(angles, tiling.angles.edge))


def test_pyramid_diminish_rejects_conflicting_pentagon_angle():
    ico = _with_angles(cat.make("I"), {5: 1.0})
    with pytest.raises(cat.PreconditionFailed, match="size 5 angle"):
        cat.pyramid_diminish(ico, [0])


def test_cut_hemisphere_rejects_conflicting_decagon_angle():
    ad = cat.make("aD")
    path = cat.equatorial_cycles(ad)[0]
    with pytest.raises(cat.InvalidSite, match="size 10 angle"):
        cat.cut_hemisphere(_with_angles(ad, {10: 1.0}), path)


def test_pyramid_diminish_rejects_non_triangle_star():
    with pytest.raises(cat.PreconditionFailed, match="non-triangular"):
        cat.pyramid_diminish(cat.make("C"), [0])


def test_pyramid_diminish_rejects_adjacent_vertices():
    ico = cat.make("I")
    with pytest.raises(cat.InvalidSite, match="adjacent"):
        cat.pyramid_diminish(ico, [0, ico.map.target(ico.map.darts_at(0)[0])])


def test_cupola_ops_reject_caps_sharing_a_vertex():
    ed, sites, _, disjoint, _ = cat._ed_site_data()
    a = sites[0]
    b = next(s for s in sites if s is not a and s not in disjoint[a.top])
    assert a.vertices & b.vertices
    with pytest.raises(cat.InvalidSite, match="overlap"):
        cat._apply_cupola_ops(ed, rotate_sites=[a], diminish_sites=[b])


@pytest.mark.parametrize("name", ["O", "aC", "aD", "J27", "J34"])
def test_cut_hemisphere_seals_with_exactly_pi(name):
    # the shared sealing rule, 2*pi minus the kept side's angles at a
    # cycle vertex, lands on pi to the bit for every great circle
    t = cat.make(name)
    for path in cat.equatorial_cycles(t):
        assert cat.cut_hemisphere(t, path).angles.angle(len(path)) == math.pi


def test_diminish_cupola_rejects_conflicting_decagon_angle():
    ed = cat.make("eD")
    site = cat._canonical_sites(ed.map, cat.find_cupola_sites(ed.map))[0]
    with pytest.raises(cat.InvalidSite, match="size 10 angle"):
        cat.diminish_cupola(_with_angles(ed, {10: 1.0}), site)


def test_cupola_subdivide_rejects_top_angle_off_the_squares():
    # angle(8) = angle(3) + angle(4) still holds, but the new top square's
    # derived angle 2*pi - 2*angle(4) - angle(3) now misses angle(4)
    j19 = cat.make("J19")
    a = j19.angles.angles
    bumped = _with_angles(j19, {3: a[3] + 1e-6, 8: a[8] + 1e-6})
    with pytest.raises(cat.PreconditionFailed, match="size 4 angle"):
        cat.cupola_subdivide(bumped, cat.faces_of_size(j19.map, 8)[0])


def test_shrink_all_truncated_tetrahedron():
    tt = cat.make("tT")
    assert tm.isomorphic(cat.shrink_all(tt.map, 3), cat.make("T").map)


def test_truncate_all_cube():
    assert tm.isomorphic(cat.truncate_all(cat.make("C").map), cat.make("tC").map)


def test_shrink_truncate_inverse():
    tc = cat.make("tC").map
    shrunk = cat.shrink(tc, cat.faces_of_size(tc, 3)[0])
    new_vertex = [
        v for v in range(shrunk.num_vertices)
        if sorted(shrunk.vertex_face_sizes(v)) == [7, 7, 7]
    ]
    assert len(new_vertex) == 1
    assert tm.isomorphic(cat.truncate(shrunk, new_vertex[0]), tc)


def test_shrink_precondition():
    ec = cat.make("eC").map  # vertices have degree 4
    with pytest.raises(cat.PreconditionFailed):
        cat.shrink(ec, cat.faces_of_size(ec, 3)[0])


def test_operator_round_trips():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    vertices = st.sampled_from(cat.names()).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, cat.make(n).map.num_vertices - 1))
    )

    @hyp.settings(max_examples=60, deadline=None)
    @hyp.given(vertices)
    def truncate_then_shrink(site):
        name, v = site
        t = cat.make(name).map
        hyp.assume(t.degree(v) >= 3)
        cut = cat.truncate(t, v)
        new_face = cut.num_faces - 1
        assert cut.face_size(new_face) == t.degree(v)
        assert tm.isomorphic(cat.shrink(cut, new_face), t), site

    # every catalog face where pyramid_subdivide's precondition holds
    faces = []
    for name in ALL:
        tiling = cat.make(name)
        for f in range(tiling.map.num_faces):
            try:
                cat.pyramid_subdivide(tiling, f)
            except cat.PreconditionFailed:
                continue
            faces.append((name, f))
    assert {name for name, _ in faces} >= {"J1", "J11", "J62", "J63", "antiprism(5)"}

    @hyp.settings(max_examples=30, deadline=None)
    @hyp.given(st.sampled_from(faces))
    def subdivide_then_diminish(site):
        name, f = site
        tiling = cat.make(name)
        coned = cat.pyramid_subdivide(tiling, f)
        apex = coned.map.num_vertices - 1
        assert coned.map.vertex_face_sizes(apex) == (3,) * tiling.map.face_size(f)
        back = cat.pyramid_diminish(coned, [apex])
        assert tm.isomorphic(back.map, tiling.map), site

    truncate_then_shrink()
    subdivide_then_diminish()


def test_rotate_and_diminish_cupola_on_ed():
    ed = cat.make("eD")
    sites = cat._canonical_sites(ed.map, cat.find_cupola_sites(ed.map))
    assert len(sites) == 12
    r1 = cat.rotate_cupola(ed, sites[0])
    assert tm.isomorphic(r1.map, cat.make("J72").map)
    d1 = cat.diminish_cupola(ed, sites[0])
    assert tm.isomorphic(d1.map, cat.make("J76").map)
    # rotating by two boundary steps is a symmetry of the cap
    r2 = cat._apply_cupola_ops(ed, rotate_sites=[sites[0]], shift=2)
    assert tm.isomorphic(r2.map, ed.map)


def test_ed_site_geometry():
    _, sites, opposite, disjoint, triple = cat._ed_site_data()
    for s in sites:
        others = disjoint[s.top]
        assert len(others) == 6  # one antipodal plus five at lattice distance 2
        assert opposite[s.top] in others
    a, b, c = triple
    assert not (a.vertices & b.vertices)
    assert not (a.vertices & c.vertices)
    assert not (b.vertices & c.vertices)


def test_ed_recipe_closure():
    # every recipe result is isomorphic to its direct catalog entry and
    # the thirteen family members are pairwise distinct
    family = ["eD"] + [f"J{i}" for i in range(72, 84)]
    forms = {}
    for name in family:
        forms[name] = cat.make(name).map.canonical_form
    assert len(set(forms.values())) == len(family)
    for name, recipe in cat._ED_RECIPES.items():
        t = cat.derive_from_ed(
            dim=recipe.get("dim", 0),
            rot=recipe.get("rot", 0),
            dim_rel=recipe.get("dim_rel"),
            rot_rel=recipe.get("rot_rel"),
        )
        assert t.map.canonical_form == forms[name], name


def test_rotate_hemisphere_identities():
    ac = cat.make("aC")
    cyc = cat.equatorial_cycles(ac)
    assert cyc and len(cyc[0]) == 6
    assert tm.isomorphic(cat.rotate_hemisphere(ac, cyc[0]).map, cat.make("J27").map)
    ad = cat.make("aD")
    cyc = cat.equatorial_cycles(ad)
    assert cyc and len(cyc[0]) == 10
    assert tm.isomorphic(cat.rotate_hemisphere(ad, cyc[0]).map, cat.make("J34").map)
    assert tm.isomorphic(cat.cut_hemisphere(ad, cyc[0]).map, cat.make("J6").map)


@pytest.mark.parametrize("ortho, gyro, half", [("J27", "aC", "J3"), ("J34", "aD", "J6")])
def test_orthobicupola_equator_turns_back_and_cuts_to_a_cupola(ortho, gyro, half):
    # the one equatorial cycle is the great circle between the two cupolas
    t = cat.make(ortho)
    (path,) = cat.equatorial_cycles(t)
    assert tm.isomorphic(cat.rotate_hemisphere(t, path).map, cat.make(gyro).map)
    assert tm.isomorphic(cat.cut_hemisphere(t, path).map, cat.make(half).map)


@pytest.mark.parametrize(
    "name, straight, equatorial",
    [("aC", 4, 4), ("aD", 6, 6), ("O", 3, 3), ("eC", 6, 0), ("J27", 4, 1), ("J34", 6, 1)],
)
def test_straight_and_equatorial_cycle_counts(name, straight, equatorial):
    t = cat.make(name)
    assert len(cat._straight_cycles(t.map)) == straight
    assert len(cat.equatorial_cycles(t)) == equatorial


def test_even_boundary_when_arrangement_alternates():
    # census-level parity predicate: if every vertex of an m-gon carries
    # exactly one angle of each of three distinct sizes, the boundary edge
    # labels alternate and m must be even
    for name in ("bC", "bD"):
        t = cat.make(name).map
        c = tm.census(t)
        (arr, _), = [
            (a, k) for a, k in c.vertex_types.items()
        ]
        assert len(set(arr)) == 3  # three distinct sizes at each vertex
        for m in c.face_counts:
            assert m % 2 == 0, (name, m)


def test_homogeneity_classification_over_catalog():
    strong = set(cat.PLATONIC) | set(cat.ARCHIMEDEAN) | {"J37"}
    strong |= {f"prism({n})" for n in range(3, 13)}
    strong |= {f"antiprism({n})" for n in range(3, 13)}
    weak_only = {"J27", "J34", "J72", "J73", "J74", "J75"}
    for name in ALL:
        t = cat.make(name).map
        h = tm.homogeneity(t)
        if name in strong or t.family in ("hosohedron", "dihedron"):
            assert h == "strong", name
        elif name in weak_only:
            assert h == "weak-only", name
        else:
            assert h == "none", name


def test_all_entries_pairwise_non_isomorphic():
    # prism(4) and antiprism(3) are routed aliases of C and O
    names = [n for n in ALL if n not in ("prism(4)", "antiprism(3)")]
    forms = {}
    for n in names:
        form = cat.make(n).map.canonical_form
        assert form not in forms, (forms.get(form), n)
        forms[form] = n


def test_manifest_round_trip():
    doc = cat.manifest()
    assert len(doc["entries"]) == len(ALL)
    by_name = {e["name"]: e for e in doc["entries"]}
    assert by_name["J19"]["face_counts"] == {"3": 4, "4": 13, "8": 1}
    assert by_name["eD"]["vertex_types"] == {"3.4.5.4": 60}
