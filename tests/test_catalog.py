import itertools
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


def test_family_aliases_are_the_cached_platonic_entries():
    # the members that are Platonic solids are reached through make, so one
    # pass over the catalog builds each map once
    assert cat.make("prism(4)") is cat.make("C")
    assert cat.make("antiprism(3)") is cat.make("O")


def test_antiprism5_matches_icosahedron_family():
    ap = cat.make("antiprism(5)")
    assert tm.census(ap.map).vertex_types == {(3, 3, 3, 5): 10}
    assert ap.angles.angles[3] == pytest.approx(2 * PI / 5, abs=1e-9)
    assert ap.angles.angles[5] == pytest.approx(4 * PI / 5, abs=1e-9)
    # antiprism(5) is the icosahedron with two antipodal vertices removed
    ico = cat.make("I")
    t = ico.map
    dist = cat._distances([[t.target(d) for d in r] for r in t.vertex_rotations], 0)
    assert dist.count(3) == 1  # the antipode is the one vertex three steps away
    anti = cat.pyramid_diminish(ico, [0, dist.index(3)])
    assert tm.isomorphic(ap.map, anti.map)


def test_family_domain_errors():
    with pytest.raises(DomainError):
        cat.make_prism(2)
    with pytest.raises(DomainError):
        cat.make_hosohedron(2)
    with pytest.raises(cat.UnknownName):
        cat.make("J13")


def test_family_size_bound_is_inclusive():
    # the largest member is accepted without being built; one more is not
    n = cat.MAX_FAMILY_N
    assert cat.expected_census(f"prism({n})").v == 2 * n
    assert cat.family_of(f"antiprism({n})") == "antiprism"
    with pytest.raises(DomainError):
        cat.expected_census(f"prism({n + 1})")


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


def test_subdivisions_read_an_added_size_from_the_edge():
    # the new triangles and squares share the tiling's edge, so a size the
    # tiling lacks takes the regular polygon's angle on that edge
    p8, d6, d4 = (cat.make(n) for n in ("prism(8)", "dihedron(6)", "dihedron(4)"))
    j3 = cat.cupola_subdivide(d6, 0)
    j1 = cat.pyramid_subdivide(d4, 0)
    cases = [
        (cat.cupola_subdivide(p8, cat.faces_of_size(p8.map, 8)[0]), "J19"),
        (j3, "J3"),
        (j1, "J1"),
        (cat.pyramid_subdivide(j1, cat.faces_of_size(j1.map, 4)[0]), "O"),
    ]
    hexagon = cat.faces_of_size(j3.map, 6)[0]
    bicupolas = [cat.cupola_subdivide(j3, hexagon, phase=phase) for phase in (0, 1)]
    for r, name in cases + list(zip(bicupolas, ("J27", "aC"))):
        assert tm.isomorphic(r.map, cat.make(name).map), name
        assert tm.validate(r.map, r.angles).overall_pass, name
        assert embedder.realize(r.map, r.angles).closure_error <= 1e-12, name


@pytest.mark.parametrize(
    "name", ["tO", "tD", "tI", "bD", "tC", "D", "dihedron(5)", "hosohedron(4)"]
)
def test_subdivisions_refuse_every_face_by_their_precondition(name):
    t = cat.make(name)
    for op in (cat.pyramid_subdivide, cat.cupola_subdivide, cat.prism_subdivide):
        for f in range(t.map.num_faces):
            with pytest.raises(cat.PreconditionFailed):
                op(t, f)


def test_subdivisions_and_their_inverses_round_trip():
    j3, j19, j1 = (cat.make(n) for n in ("J3", "J19", "J1"))
    for cupola, base in ((j3, "dihedron(6)"), (j19, "prism(8)")):
        (site,) = cat.find_cupola_sites(cupola.map)
        cut = cat.diminish_cupola(cupola, site)
        assert tm.isomorphic(cut.map, cat.make(base).map), base
        again = cat.cupola_subdivide(cut, cat.faces_of_size(cut.map, len(site.boundary))[0])
        assert tm.isomorphic(again.map, cupola.map), base
    (apex,) = [v for v in range(j1.map.num_vertices) if j1.map.degree(v) == 4]
    cut = cat.pyramid_diminish(j1, [apex])
    assert tm.isomorphic(cut.map, cat.make("dihedron(4)").map)
    assert tm.isomorphic(cat.pyramid_subdivide(cut, 0).map, j1.map)


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


def test_pyramid_diminish_rejects_overlapping_stars():
    with pytest.raises(cat.InvalidSite, match="vertex stars overlap"):
        cat.pyramid_diminish(cat.make("I"), [0, 0])


def test_cube_has_no_equatorial_cycle():
    # every straight walk stops at a degree-3 vertex
    assert cat.equatorial_cycles(cat.make("C")) == []


def test_shrink_all_without_targets_returns_the_map():
    c = cat.make("C").map
    assert cat.shrink_all(c, 3) is c


def test_shrink_all_rejects_targets_sharing_a_vertex():
    # the hexagons of the truncated tetrahedron meet at every vertex
    with pytest.raises(cat.PreconditionFailed, match="shrink targets share a vertex"):
        cat.shrink_all(cat.make("tT").map, 6)


def test_pyramid_diminish_rejects_adjacent_vertices():
    ico = cat.make("I")
    with pytest.raises(cat.InvalidSite, match="adjacent"):
        cat.pyramid_diminish(ico, [0, ico.map.target(ico.map.vertex_rotations[0][0])])


def test_cupola_ops_reject_caps_sharing_a_vertex():
    ed = cat.make("eD")
    a, *others = cat.find_cupola_sites(ed.map)
    b = next(s for s in others if a.vertices & s.vertices)
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


@pytest.mark.parametrize("name, size", [("J4", 8), ("J5", 10)])
def test_diminish_cupola_refuses_the_reflex_base_of_j4_and_j5(name, size):
    """Cutting the cap off J4 (J5) would leave a convex and a reflex octagon
    (decagon): the cut face is convex, J4's octagon base reflex.  One
    ``AngleAssignment`` holds one angle per size, so the cut is refused.
    Whether such a tiling belongs to the classification is left to ROADMAP
    items 2-3; this pins the refusal until then.
    """
    t = cat.make(name)
    site = cat.find_cupola_sites(t.map)[0]
    with pytest.raises(cat.InvalidSite, match=f"size {size} angle"):
        cat.diminish_cupola(t, site)


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
        if sorted(shrunk.vertex_face_sizes[v]) == [7, 7, 7]
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
        assert coned.map.vertex_face_sizes[apex] == (3,) * tiling.map.face_size(f)
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
    ed, a, far, b, c = cat._ed_sites()
    t = ed.map
    sites = cat._canonical_sites(t, cat.find_cupola_sites(t))
    assert len(sites) == 12 and sites[0] == a
    disjoint = {s.top: [o for o in sites if not (s.vertices & o.vertices)] for s in sites}
    # one antipodal plus five at lattice distance 2
    assert all(len(others) == 6 for others in disjoint.values())
    # each site's farthest site in the dual graph is unique, at distance
    # 6, and one of its six
    fadj = [[t.face_of[t.edge_pair[d]] for d in cyc] for cyc in t.faces]
    for s in sites:
        dist = cat._distances(fadj, s.top)
        (opposite,) = [o for o in sites if dist[o.top] == 6]
        assert max(dist[o.top] for o in sites) == 6
        assert opposite in disjoint[s.top]
        if s == a:
            assert opposite == far
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


#: every recipe spelling that derive_from_ed accepts, and the entry it names;
#: a mixed pair's qualifier may sit on either count, or on both
ED_SPELLINGS = {
    (0, 0, None, None): "eD",
    (0, 1, None, None): "J72",
    (0, 2, None, "o"): "J73",
    (0, 2, None, "n"): "J74",
    (0, 3, None, None): "J75",
    (1, 0, None, None): "J76",
    **{(1, 1, *rels): "J77" for rels in (("o", None), (None, "o"), ("o", "o"))},
    **{(1, 1, *rels): "J78" for rels in (("n", None), (None, "n"), ("n", "n"))},
    (1, 2, None, None): "J79",
    (2, 0, "o", None): "J80",
    (2, 0, "n", None): "J81",
    (2, 1, None, None): "J82",
    (3, 0, None, None): "J83",
}

ED_GRID = [
    (dim, rot, dim_rel, rot_rel)
    for dim, rot in itertools.product(range(-1, 5), repeat=2)
    for dim_rel, rot_rel in itertools.product([None, "o", "n", "x"], repeat=2)
]


def test_derive_from_ed_accepts_exactly_the_recipe_spellings():
    assert len(ED_SPELLINGS) == 17
    for spelling in ED_GRID:
        if spelling in ED_SPELLINGS:
            t = cat.derive_from_ed(*spelling)
            want = cat.make(ED_SPELLINGS[spelling])
            assert t.map == want.map and t.angles == want.angles, spelling
        else:
            with pytest.raises(cat.InvalidSite):
                cat.derive_from_ed(*spelling)


def test_derive_from_ed_states_one_rule():
    # a negative count, too many operations and a misplaced qualifier all
    # raise the one message, which names the qualifier rule
    messages = set()
    for spelling in [s for s in ED_GRID if s not in ED_SPELLINGS]:
        with pytest.raises(cat.InvalidSite) as info:
            cat.derive_from_ed(*spelling)
        messages.add(str(info.value).split(": ", 1)[1])
    assert len(messages) == 1 and "qualifier" in messages.pop()


def test_derive_cli_names_the_entry_without_comparing_maps(capsys, monkeypatch):
    from sphtile import cli

    def refuse(*maps):
        raise AssertionError("isomorphic called")

    monkeypatch.setattr(tm, "isomorphic", refuse)
    for (dim, rot, dim_rel, rot_rel), name in ED_SPELLINGS.items():
        argv = ["derive", "eD", "--dim", f"{dim}{dim_rel or ''}", "--rot", f"{rot}{rot_rel or ''}"]
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out.endswith(f"isomorphic to: {name}\n"), argv
        census = tm.census(cat.make(name).map)
        assert out.startswith(f"derived tiling: v={census.v} e={census.e} f={census.f}\n")


def _cupola_closure(tiling):
    """The canonical forms of every set of 1-3 pairwise disjoint cupolas,
    each rotated or diminished, and the number of applications."""
    sites = cat.find_cupola_sites(tiling.map)
    forms = set()
    applied = 0
    for r in (1, 2, 3):
        for chosen in itertools.combinations(sites, r):
            if any(a.vertices & b.vertices for a, b in itertools.combinations(chosen, 2)):
                continue
            for dims in itertools.product((False, True), repeat=r):
                rots = [s for s, dim in zip(chosen, dims) if not dim]
                cut = [s for s, dim in zip(chosen, dims) if dim]
                forms.add(cat._apply_cupola_ops(tiling, rots, cut).map.canonical_form)
                applied += 1
    return forms, applied


def test_ed_operator_closure_is_j72_to_j83():
    forms, applied = _cupola_closure(cat.make("eD"))
    assert applied == 328
    expected = {cat.make(f"J{i}").map.canonical_form for i in range(72, 84)}
    assert forms == expected


@pytest.mark.parametrize(
    "name, closure",
    [
        ("O", ["O", "J1"]),
        ("aC", ["J3", "J27"]),
        ("aD", ["J6", "J34"]),
        ("eC", ["eC", "J19", "J37", "prism(8)"]),
    ],
)
def test_cut_and_reglue_closure(name, closure):
    # the cupola closure plus every equatorial cycle, its far side rotated
    # or cut: no map outside the catalog
    t = cat.make(name)
    forms = _cupola_closure(t)[0]
    for path in cat.equatorial_cycles(t):
        forms.add(cat.rotate_hemisphere(t, path).map.canonical_form)
        forms.add(cat.cut_hemisphere(t, path).map.canonical_form)
    assert forms == {cat.make(n).map.canonical_form for n in closure}


def test_icosahedron_diminish_closure():
    # every nonempty set of pairwise non-adjacent vertices
    ico = cat.make("I")
    t = ico.map
    adjacent = {(t.origin[d], t.target(d)) for d in range(t.num_darts)}
    forms = set()
    # r = 4 finds no set, so no larger r can
    for r in (1, 2, 3, 4):
        for chosen in itertools.combinations(range(t.num_vertices), r):
            if any(pair in adjacent for pair in itertools.combinations(chosen, 2)):
                continue
            forms.add(cat.pyramid_diminish(ico, chosen).map.canonical_form)
    names = ["J11", "J62", "J63", "antiprism(5)"]
    assert forms == {cat.make(n).map.canonical_form for n in names}


def _region_boundary(t, region):
    """Reference: the boundary vertex cycle of a face region, walked from
    its least border dart, or None unless it is one cycle."""
    border = {
        d for d in range(t.num_darts)
        if t.face_of[d] in region and t.face_of[t.edge_pair[d]] not in region
    }
    if not border:
        return None
    start = min(border)
    cycle = []
    d = start
    while True:
        cycle.append(d)
        d = t.face_next[d]
        while d not in border:
            d = t.face_next[t.edge_pair[d]]
        if d == start:
            break
        if len(cycle) > len(border):
            return None
    if len(cycle) != len(border):
        return None
    return tuple(t.origin[d] for d in cycle)


def _oracle_cupola_sites(t):
    """Reference: cupola caps with their boundary walked as a region's."""
    sites = []
    for top in range(t.num_faces):
        k = t.face_size(top)
        darts = t.faces[top]
        if k not in (3, 4, 5) or any(t.degree(t.origin[d]) != 4 for d in darts):
            continue
        ring = [t.face_of[t.edge_pair[d]] for d in darts]
        corners = [t.face_of[t.vertex_next[t.vertex_next[d]]] for d in darts]
        if len(set(ring)) != k or any(t.face_size(f) != 4 for f in ring):
            continue
        if len(set(corners)) != k or any(t.face_size(f) != 3 for f in corners):
            continue
        cap = frozenset([top, *ring, *corners])
        if len(cap) != 2 * k + 1:
            continue
        boundary = _region_boundary(t, cap)
        interior = frozenset(t.face_vertex_cycle(top))
        if boundary is None or len(boundary) != 2 * k or interior & set(boundary):
            continue
        sites.append(cat.CupolaSite(top, cap, boundary, interior))
    return sites


def _cupola_oracle_maps():
    """The entries, larger prisms and antiprisms, eD with one cap turned or
    cut, and the truncations and pyramid subdivisions of cupola-rich maps."""
    maps = {name: cat.make(name).map for name in ALL}
    for n in (16, 24, 50):
        for kind in ("prism", "antiprism"):
            maps[f"{kind}({n})"] = cat.make(f"{kind}({n})").map
    ed = cat.make("eD")
    for i, site in enumerate(cat._canonical_sites(ed.map, cat.find_cupola_sites(ed.map))[:4]):
        maps[f"eD rotated {i}"] = cat.rotate_cupola(ed, site).map
        maps[f"eD diminished {i}"] = cat.diminish_cupola(ed, site).map
    for name in ("aC", "eC", "J37", "J19", "J4", "J5", "O", "C", "tO", "bC"):
        t = cat.make(name)
        maps[f"truncated {name}"] = cat.truncate_all(t.map)
        for f in range(t.map.num_faces):
            try:
                maps[f"{name} coned at {f}"] = cat.pyramid_subdivide(t, f).map
                break
            except cat.PreconditionFailed:
                continue
    return maps


def test_cupola_sites_match_region_boundary_oracle():
    maps = _cupola_oracle_maps()
    assert len(maps) == 107
    found = 0
    for name, t in maps.items():
        sites = cat.find_cupola_sites(t)
        assert sites == _oracle_cupola_sites(t), name
        found += len(sites)
    assert found == 117
    # a triangular cupola cap whose six boundary vertices close on three
    # (x0, x1, x2 and one y) is the whole sphere: no boundary, no site
    closed = tm.build_from_faces([
        (0, 1, 2), (1, 0, 3, 6), (2, 1, 4, 6), (0, 2, 5, 6), (1, 6, 4), (2, 6, 5), (0, 6, 3),
    ])
    assert closed.num_vertices - closed.num_edges + closed.num_faces == 2
    assert cat.find_cupola_sites(closed) == [] == _oracle_cupola_sites(closed)


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
