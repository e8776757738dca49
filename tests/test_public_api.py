import importlib
import inspect
import itertools
import json
import math
import pkgutil
import time

import pytest

import sphtile
from sphtile import algsolve, catalog, embedder, sphkernel, tilemap, vertexcomb
from sphtile.catalog import InvalidSite, UnknownName
from sphtile.sphkernel import DomainError, NoSolution
from sphtile.tilemap import NotEdgeToEdge

MODULES = [
    importlib.import_module(f"sphtile.{info.name}")
    for info in pkgutil.iter_modules(sphtile.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_lists_every_public_function_and_class(module):
    defined = [
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    ]
    assert [name for name in defined if name not in module.__all__] == []
    # and no entry outlives the name it exports
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


TWO_PI = 2.0 * math.pi
# the square of edge 0.5: with it, solve_companion_size(4, A4, 2*pi - 2*A4) is 12.167
A4 = sphkernel.angle_from_edge(4, 0.5)


def _export_obj_without_arcs():
    t = catalog.make("T")
    embedder.export_obj(t.map, embedder.realize(t.map, t.angles), arc_steps=0)


def _validate_tetrahedron(**tols):
    t = catalog.make("T")
    tilemap.validate(t.map, t.angles, **tols)


def _cube_with(edge=None, square=None):
    """The cube's map and its angles, with the edge or the square's angle replaced."""
    c = catalog.make("C")
    angles = c.angles.angles if square is None else {4: square}
    return c.map, algsolve.AngleAssignment(angles, c.angles.edge if edge is None else edge)


def _polynomial(*coeffs):
    return algsolve.Polynomial.from_coeffs(coeffs)


def _rotate_ac_equator(shift):
    ac = catalog.make("aC")
    return catalog.rotate_hemisphere(ac, catalog.equatorial_cycles(ac)[0], shift)


def _load_cube_json(edge: str):
    c = catalog.make("C")
    doc = json.loads(embedder.export_json(c.map, c.angles))
    embedder.load_json(json.dumps({**doc, "edge": edge}).encode())


def _load_cube_positions(change):
    """load_json of the cube's document with positions, its position rows
    changed by ``change``."""
    c = catalog.make("C")
    emb = embedder.realize(c.map, c.angles)
    doc = json.loads(embedder.export_json(c.map, c.angles, emb))
    change(doc["positions"])
    embedder.load_json(json.dumps(doc).encode())


def _on_ac_cupola(op, seed, **change):
    """``op`` on aC at the first cupola site of ``seed``, its fields changed."""
    site = catalog.find_cupola_sites(catalog.make(seed).map)[0]
    return op(catalog.make("aC"), site._replace(**change))


REJECTED_INPUTS = {
    "angle_from_edge": (DomainError, lambda: sphkernel.angle_from_edge(3, 0.0)),
    "edge_from_angle": (DomainError, lambda: sphkernel.edge_from_angle(3, 0.0)),
    "circumradius": (DomainError, lambda: sphkernel.circumradius(3, 7.0)),
    "polygon_area": (DomainError, lambda: sphkernel.polygon_area(1, 1.0)),
    "solve_companion_angle": (DomainError, lambda: sphkernel.solve_companion_angle(3, 0.0, 4)),
    "make_antiprism": (DomainError, lambda: catalog.make_antiprism(2)),
    "make_dihedron": (DomainError, lambda: catalog.make_dihedron(2)),
    "build_from_faces-empty": (NotEdgeToEdge, lambda: tilemap.build_from_faces([])),
    "build_from_faces-repeat": (NotEdgeToEdge, lambda: tilemap.build_from_faces([(0, 1, 0)])),
    # the cube with opposite corners 0 and 6 as one vertex, where two fans meet
    "build_from_faces-pinched": (
        NotEdgeToEdge,
        lambda: tilemap.build_from_faces(
            [(0, 1, 2, 3), (4, 5, 0, 7), (0, 1, 5, 4), (1, 2, 0, 5), (2, 3, 7, 0), (3, 0, 4, 7)]
        ),
    ),
    "digon_fan": (DomainError, lambda: tilemap.digon_fan(1)),
    "digon_fan-2.5": (DomainError, lambda: tilemap.digon_fan(2.5)),
    "digon_fan-nan": (DomainError, lambda: tilemap.digon_fan(math.nan)),
    "digon_fan-'3'": (DomainError, lambda: tilemap.digon_fan("3")),
    "enumerate_candidate_types": (DomainError, lambda: vertexcomb.enumerate_candidate_types(2)),
    "enumerate_candidate_types-10001": (
        DomainError,
        lambda: vertexcomb.enumerate_candidate_types(vertexcomb.MAX_ENUMERATE_SIZE + 1),
    ),
    "export_obj": (DomainError, _export_obj_without_arcs),
    "isolate_roots-zero": (
        ValueError,
        lambda: algsolve.isolate_roots(algsolve.Polynomial.from_coeffs([0]), 0.0, 1.0),
    ),
    "isolate_roots-empty": (
        ValueError,
        lambda: algsolve.isolate_roots(algsolve.Polynomial.from_coeffs([1, 1]), 1.0, 0.0),
    ),
    "isolate_roots-inf": (
        ValueError,
        lambda: algsolve.isolate_roots(algsolve.Polynomial.from_coeffs([-1, 1]), 0.0, math.inf),
    ),
    "isolate_roots-nan": (
        ValueError,
        lambda: algsolve.isolate_roots(algsolve.Polynomial.from_coeffs([-1, 1]), math.nan, 1.0),
    ),
    "family_of": (UnknownName, lambda: catalog.family_of("X")),
    "family_of-prism(2)": (DomainError, lambda: catalog.family_of("prism(2)")),
    "expected_census": (UnknownName, lambda: catalog.expected_census("X")),
    "expected_census-dihedron(0)": (DomainError, lambda: catalog.expected_census("dihedron(0)")),
    "expected_census-hosohedron(0)": (
        DomainError,
        lambda: catalog.expected_census("hosohedron(0)"),
    ),
    "expected_census-prism(2)": (DomainError, lambda: catalog.expected_census("prism(2)")),
    "make-prism(2)": (DomainError, lambda: catalog.make("prism(2)")),
    "make-prism(100001)": (DomainError, lambda: catalog.make("prism(100001)")),
    "make-prism(5000 digits)": (DomainError, lambda: catalog.make(f"prism({'9' * 5000})")),
    "make-prism(3) newline": (UnknownName, lambda: catalog.make("prism(3)\n")),
    "make-prism(03)": (UnknownName, lambda: catalog.make("prism(03)")),
    "make-prism(arabic-indic 3)": (UnknownName, lambda: catalog.make("prism(\u0663)")),
    "make_prism(100001)": (DomainError, lambda: catalog.make_prism(100_001)),
    "make_antiprism(100001)": (DomainError, lambda: catalog.make_antiprism(100_001)),
    "make_hosohedron(100001)": (DomainError, lambda: catalog.make_hosohedron(100_001)),
    "make_dihedron(100001)": (DomainError, lambda: catalog.make_dihedron(100_001)),
    "family_of-dihedron(100001)": (DomainError, lambda: catalog.family_of("dihedron(100001)")),
    "expected_census-hosohedron(100001)": (
        DomainError,
        lambda: catalog.expected_census("hosohedron(100001)"),
    ),
    "derive_from_ed": (InvalidSite, lambda: catalog.derive_from_ed(dim=-1)),
    "solve_vertex_system-(4,4,5e15)": (
        DomainError,
        lambda: algsolve.solve_vertex_system((4, 4, 5 * 10**15)),
    ),
    "solve_vertex_system-(4,4,1e400)": (
        DomainError,
        lambda: algsolve.solve_vertex_system((4, 4, 10**400)),
    ),
    # one face-size rule: an integral number at least the least size
    "solve_vertex_system-(3,4,4,5.5)": (
        DomainError,
        lambda: algsolve.solve_vertex_system((3, 4, 4, 5.5)),
    ),
    "solve_vertex_system-(4,4,'5')": (DomainError, lambda: algsolve.solve_vertex_system((4, 4, "5"))),
    "solve_vertex_system-(4,4,inf)": (
        DomainError,
        lambda: algsolve.solve_vertex_system((4, 4, math.inf)),
    ),
    "solve_vertex_system-(4,4,nan)": (
        DomainError,
        lambda: algsolve.solve_vertex_system((4, 4, math.nan)),
    ),
    "angle_from_edge-inf": (DomainError, lambda: sphkernel.angle_from_edge(math.inf, 0.5)),
    "edge_from_angle-nan": (DomainError, lambda: sphkernel.edge_from_angle(math.nan, 1.0)),
    "polygon_area-inf": (DomainError, lambda: sphkernel.polygon_area(math.inf, 1.0)),
    "polygon_area-nan": (DomainError, lambda: sphkernel.polygon_area(math.nan, 1.0)),
    # an angle whose cosine rounds to 1 gives the m-gon no edge
    "edge_from_angle-1e-9": (DomainError, lambda: sphkernel.edge_from_angle(3, 1e-9)),
    # a face size that no double holds
    "angle_from_edge-1e400": (DomainError, lambda: sphkernel.angle_from_edge(10**400, 0.5)),
    "edge_from_angle-1e400": (DomainError, lambda: sphkernel.edge_from_angle(10**400, 3.0)),
    "circumradius-1e400": (DomainError, lambda: sphkernel.circumradius(10**400, 3.0)),
    "polygon_area-1e400": (DomainError, lambda: sphkernel.polygon_area(10**400, 3.0)),
    "solve_companion_angle-1e400": (
        DomainError,
        lambda: sphkernel.solve_companion_angle(10**400, 3.0, 4),
    ),
    "solve_companion_size-1e400": (
        DomainError,
        lambda: sphkernel.solve_companion_size(10**400, 3.0, 1.0),
    ),
    # past 4300 digits an int has no repr, so the message must not need one
    "solve_vertex_system-(4,4,1e5000)": (
        DomainError,
        lambda: algsolve.solve_vertex_system((4, 4, 10**5000)),
    ),
    # both angles of solve_companion_size lie in (0, 2*pi), as its siblings' do
    "solve_companion_size-negative": (
        DomainError,
        lambda: sphkernel.solve_companion_size(4, -A4, TWO_PI - 2 * A4),
    ),
    "solve_companion_size-past 2pi": (
        DomainError,
        lambda: sphkernel.solve_companion_size(4, A4 + TWO_PI, TWO_PI - 2 * A4),
    ),
    "solve_companion_size-target past 2pi": (
        DomainError,
        lambda: sphkernel.solve_companion_size(4, A4, 2 * TWO_PI - 2 * A4),
    ),
    "solve_companion_size-nan target": (
        DomainError,
        lambda: sphkernel.solve_companion_size(4, A4, math.nan),
    ),
    "solve_companion_size-zero": (DomainError, lambda: sphkernel.solve_companion_size(3, 0.0, 1.0)),
    # every kernel function checks its sizes and angles on entry
    "polygon_area-(3,inf)": (DomainError, lambda: sphkernel.polygon_area(3, math.inf)),
    "polygon_area-(2,nan)": (DomainError, lambda: sphkernel.polygon_area(2, math.nan)),
    "edge_cosine-(0,1)": (DomainError, lambda: sphkernel.edge_cosine(0, 1.0)),
    "edge_cosine-(3,nan)": (DomainError, lambda: sphkernel.edge_cosine(3, math.nan)),
    "edge_cosine-(3,inf)": (DomainError, lambda: sphkernel.edge_cosine(3, math.inf)),
    "edge_cosine-(1e400,1)": (DomainError, lambda: sphkernel.edge_cosine(10**400, 1.0)),
    "edge_cosine-(3,1e-9)": (DomainError, lambda: sphkernel.edge_cosine(3, 1e-9)),
    "planar_angle-0": (DomainError, lambda: sphkernel.planar_angle(0)),
    "planar_angle-1e400": (DomainError, lambda: sphkernel.planar_angle(10**400)),
    "planar_angle-2.5": (DomainError, lambda: sphkernel.planar_angle(2.5)),
    "companion_residual-n=0": (
        DomainError,
        lambda: sphkernel.companion_residual(3, 1.0, 0, 1.0),
    ),
    "companion_residual-nan": (
        DomainError,
        lambda: sphkernel.companion_residual(3, math.nan, 4, 1.0),
    ),
    "companion_residual-n=inf": (
        DomainError,
        lambda: sphkernel.companion_residual(3, 1.0, math.inf, 1.0),
    ),
    # one count rule for the family makers and max_size: an integral float
    # is the int, anything else outside the bounds a DomainError
    "make_prism(5.5)": (DomainError, lambda: catalog.make_prism(5.5)),
    "make_prism('5')": (DomainError, lambda: catalog.make_prism("5")),
    "make_antiprism(3.5)": (DomainError, lambda: catalog.make_antiprism(3.5)),
    "make_hosohedron(7.5)": (DomainError, lambda: catalog.make_hosohedron(7.5)),
    "make_dihedron(1e5000)": (DomainError, lambda: catalog.make_dihedron(10**5000)),
    "enumerate_candidate_types-19.5": (
        DomainError,
        lambda: vertexcomb.enumerate_candidate_types(19.5),
    ),
    "enumerate_candidate_types-'19'": (
        DomainError,
        lambda: vertexcomb.enumerate_candidate_types("19"),
    ),
    # validate's tolerances are finite and > 0
    "validate-tol=0": (DomainError, lambda: _validate_tetrahedron(tol=0.0)),
    "validate-tol=-1": (DomainError, lambda: _validate_tetrahedron(tol=-1.0)),
    "validate-tol=nan": (DomainError, lambda: _validate_tetrahedron(tol=math.nan)),
    "validate-tol=inf": (DomainError, lambda: _validate_tetrahedron(tol=math.inf)),
    "validate-area_tol=0": (DomainError, lambda: _validate_tetrahedron(area_tol=0.0)),
    # one edge rule: an assignment's edge is a finite number in (0, pi]
    "validate-edge=nan": (DomainError, lambda: tilemap.validate(*_cube_with(math.nan))),
    "validate-edge=inf": (DomainError, lambda: tilemap.validate(*_cube_with(math.inf))),
    "load_json-edge=nan": (DomainError, lambda: _load_cube_json("nan")),
    "load_json-edge=inf": (DomainError, lambda: _load_cube_json("inf")),
    # positions: one row of three finite numbers per vertex
    "load_json-positions-2-coordinates": (
        DomainError,
        lambda: _load_cube_positions(lambda rows: rows[0].pop()),
    ),
    "load_json-positions-row-missing": (DomainError, lambda: _load_cube_positions(list.pop)),
    "load_json-positions-nan": (
        DomainError,
        lambda: _load_cube_positions(lambda rows: rows[3].__setitem__(1, "nan")),
    ),
    "realize-edge=nan": (DomainError, lambda: embedder.realize(*_cube_with(math.nan))),
    "realize-edge=0": (DomainError, lambda: embedder.realize(*_cube_with(0.0))),
    # only a hosohedron has an edge whose cosine rounds to -1 or 1
    "realize-edge=pi": (DomainError, lambda: embedder.realize(*_cube_with(math.pi))),
    "realize-edge=1e-9": (
        DomainError,
        lambda: embedder.realize(*_cube_with(1e-9, sphkernel.angle_from_edge(4, 1e-9))),
    ),
    # a hosohedron's digon angle is checked like every other angle
    "realize-hosohedron angle=nan": (
        DomainError,
        lambda: embedder.realize(
            tilemap.digon_fan(4), algsolve.AngleAssignment({2: math.nan}, math.pi)
        ),
    ),
    # one tolerance rule: finite and > 0, so no check is turned off
    "realize-closure_tol=nan": (
        DomainError,
        lambda: embedder.realize(*_cube_with(square=2.0), closure_tol=math.nan),
    ),
    "realize-closure_tol=-1": (
        DomainError,
        lambda: embedder.realize(*_cube_with(), closure_tol=-1.0),
    ),
    # found by the argument sweep below
    "Polynomial.from_coeffs-inf": (DomainError, lambda: _polynomial(math.inf)),
    "Polynomial.from_coeffs-nan": (DomainError, lambda: _polynomial(math.nan)),
    "isolate_roots-1e400": (
        ValueError,
        lambda: algsolve.isolate_roots(_polynomial(-(10**400), 1), 0.0, 10**400),
    ),
    "from_angles-empty": (DomainError, lambda: algsolve.AngleAssignment.from_angles({})),
    "circumradius-(3,5e-324)": (DomainError, lambda: sphkernel.circumradius(3, 5e-324)),
    # an int past 4300 digits has no str, so no message may need one
    "polygon_area-(3,1e5000)": (DomainError, lambda: sphkernel.polygon_area(3, 10**5000)),
    # a size near the largest double overflows the excess to -inf or nan
    "polygon_area-(5.7e307,2)": (
        DomainError,
        lambda: sphkernel.polygon_area(5.722234971514057e307, 2),
    ),
    "polygon_area-(1.8e308,2)": (
        DomainError,
        lambda: sphkernel.polygon_area(1.7976931348623157e308, 2.0),
    ),
    "angle_from_edge-(3,1e5000)": (DomainError, lambda: sphkernel.angle_from_edge(3, 10**5000)),
    "AngleAssignment-edge=1e5000": (
        DomainError,
        lambda: algsolve.AngleAssignment({3: 1.0}, 10**5000),
    ),
    "solve_snub-1e5000": (DomainError, lambda: algsolve.solve_snub(10**5000)),
    # one index rule for the operators: a face or vertex index is a count
    # from 0 to the number less 1, so -1 is not the last one
    "pyramid_subdivide-(dihedron(4),-1)": (
        DomainError,
        lambda: catalog.pyramid_subdivide(catalog.make("dihedron(4)"), -1),
    ),
    "cupola_subdivide-(dihedron(6),-1)": (
        DomainError,
        lambda: catalog.cupola_subdivide(catalog.make("dihedron(6)"), -1),
    ),
    "prism_subdivide-(J4,-1)": (
        DomainError,
        lambda: catalog.prism_subdivide(catalog.make("J4"), -1),
    ),
    "pyramid_subdivide-(J11,999)": (
        DomainError,
        lambda: catalog.pyramid_subdivide(catalog.make("J11"), 999),
    ),
    "truncate-(T,99)": (DomainError, lambda: catalog.truncate(catalog.make("T").map, 99)),
    "shrink-(tT,-1)": (DomainError, lambda: catalog.shrink(catalog.make("tT").map, -1)),
    "pyramid_diminish-(I,[-1])": (
        DomainError,
        lambda: catalog.pyramid_diminish(catalog.make("I"), [-1]),
    ),
    # a vertex type has at most MAX_DEGREE entries: arrangements canonicalises
    # every permutation, so its time grew factorially past them
    "arrangements-range(3,11)": (DomainError, lambda: vertexcomb.arrangements(tuple(range(3, 11)))),
    # admissible reads each entry by the count rule, as solve_vertex_system does
    "admissible-(3,3,5.5)": (DomainError, lambda: vertexcomb.admissible((3, 3, 5.5))),
    "admissible-(3,3,nan)": (DomainError, lambda: vertexcomb.admissible((3, 3, math.nan))),
    "admissible-(3,3,'4')": (DomainError, lambda: vertexcomb.admissible((3, 3, "4"))),
    # found by the operator rows of the argument sweep below
    "cupola_subdivide-phase=1.5": (
        DomainError,
        lambda: catalog.cupola_subdivide(catalog.make("dihedron(6)"), 0, 1.5),
    ),
    "rotate_hemisphere-shift=1.5": (DomainError, lambda: _rotate_ac_equator(1.5)),
    "rotate_hemisphere-shift=nan": (DomainError, lambda: _rotate_ac_equator(math.nan)),
    "pyramid_diminish-(I,[1.5])": (
        DomainError,
        lambda: catalog.pyramid_diminish(catalog.make("I"), [1.5]),
    ),
    "rotate_hemisphere-(aC,[0,1,2])": (
        InvalidSite,
        lambda: catalog.rotate_hemisphere(catalog.make("aC"), [0, 1, 2]),
    ),
    "cut_hemisphere-(aC,[0,1,2])": (
        InvalidSite,
        lambda: catalog.cut_hemisphere(catalog.make("aC"), [0, 1, 2]),
    ),
    "cut_hemisphere-(aC,[])": (InvalidSite, lambda: catalog.cut_hemisphere(catalog.make("aC"), [])),
    # a cupola site is one of the tiling's own: one found on eC, or aC's
    # with its faces emptied, is refused
    "rotate_cupola-(aC,eC site)": (InvalidSite, lambda: _on_ac_cupola(catalog.rotate_cupola, "eC")),
    "diminish_cupola-(aC,eC site)": (
        InvalidSite,
        lambda: _on_ac_cupola(catalog.diminish_cupola, "eC"),
    ),
    "rotate_cupola-(aC,no faces)": (
        InvalidSite,
        lambda: _on_ac_cupola(catalog.rotate_cupola, "aC", faces=frozenset()),
    ),
}


@pytest.mark.parametrize("case", REJECTED_INPUTS)
def test_rejected_input_raises_its_documented_type(case):
    kind, call = REJECTED_INPUTS[case]
    with pytest.raises(kind) as info:
        call()
    assert info.type is kind


@pytest.mark.parametrize(
    "maker",
    [catalog.make_prism, catalog.make_antiprism, catalog.make_hosohedron, catalog.make_dihedron],
)
@pytest.mark.parametrize("n", [4, 5])
def test_an_integral_float_count_is_its_int(maker, n):
    # the count rule of sphkernel._check_size: 4.0 passes as 4
    t = maker(float(n))
    assert t.map == maker(n).map and t.angles == maker(n).angles


@pytest.mark.parametrize("n", [2, 3])
def test_an_integral_float_digon_count_is_its_int(n):
    assert tilemap.digon_fan(float(n)) == tilemap.digon_fan(n)


def test_enumerate_takes_an_integral_float_max_size():
    assert vertexcomb.enumerate_candidate_types(19.0) == vertexcomb.enumerate_candidate_types(19)


def test_an_integral_float_index_is_its_int():
    j11, ico, dihedron = catalog.make("J11"), catalog.make("I"), catalog.make("dihedron(6)")
    (f,) = catalog.faces_of_size(j11.map, 5)
    assert catalog.pyramid_subdivide(j11, float(f)) == catalog.pyramid_subdivide(j11, f)
    assert catalog.pyramid_diminish(ico, [0.0]) == catalog.pyramid_diminish(ico, [0])
    assert catalog.cupola_subdivide(dihedron, 1.0, 1.0) == catalog.cupola_subdivide(dihedron, 1, 1)
    assert _rotate_ac_equator(2.0) == _rotate_ac_equator(2)


def test_admissible_takes_an_integral_float_entry():
    assert vertexcomb.admissible((3, 3, 4.0)) is True
    assert vertexcomb.admissible((3, 3, -4)) is False


# --------------------------------------------------------------------------
# the argument sweep: every number-taking public name of sphkernel, algsolve
# and vertexcomb, the family makers and the catalog operators
# --------------------------------------------------------------------------

# Just inside and just outside every documented range: face sizes (integral,
# >= 3, or >= 2 in polygon_area), angles (0, 2*pi), edges (0, pi) and
# (0, pi], the real companion size [3, 64], tolerances (0, inf) and counts
# (max_size to 10 000, family n to 100 000), with nan, +-inf and 10**400.
# The family makers' top, 100 000 itself, is left to
# test_family_size_bound_is_inclusive: a prism or antiprism takes 3-4 s to
# build there.
_NUMBERS = [
    2, 3, 4, 4.0, 5, 6, 10, 33, 64, 2.5, 0, -3, 10**12, 10**15, 10**16, 10**400,
    math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-300, 5e-324, 1e-9, 0.5, 1.0,
    math.nextafter(math.pi / 3, 0.0), math.pi / 3, math.pi / 2, 2.0,
    math.nextafter(math.pi, 0.0), math.pi, math.nextafter(math.pi, 4.0), 4.0,
    math.nextafter(TWO_PI, 0.0), TWO_PI, math.nextafter(TWO_PI, 7.0),
    math.nextafter(3.0, 0.0), 3.5, 64.0, math.nextafter(64.0, 65.0), 1e300, -1.0,
    vertexcomb.MAX_ENUMERATE_SIZE, vertexcomb.MAX_ENUMERATE_SIZE + 1, catalog.MAX_FAMILY_N + 1,
]
# a call answers, refuses, or raises what its docstring names within this
_SECONDS = 5


def _rotations(cycle):
    """Every rotation of the cycle and of its reverse; the empty cycle is its own."""
    return [c[i:] + c[:i] for c in (tuple(cycle), tuple(cycle)[::-1]) for i in range(len(c) or 1)]


def _solutions_of(t, sols):
    for s in sols:
        assert set(s.angles) == set(t) and 0.0 < s.edge < math.pi
        assert s.max_companion_residual() <= 1e-9
        assert abs(sum(s.angles[m] for m in t) - TWO_PI) <= 1e-9
    return len(sols) <= 1


def _rebuilt(*args):
    """Whether the answer, last of ``args``, is a map (or a tiling's map)
    that ``build_from_faces`` makes again from its own vertex cycles."""
    t = getattr(args[-1], "map", args[-1])
    return tilemap.build_from_faces([t.face_vertex_cycle(f) for f in range(t.num_faces)]) == t


def _on(seed, op):
    """``op`` on a catalog entry and the swept arguments."""
    return lambda *args: op(catalog.make(seed), *args)


def _faces_of(kind, n, t):
    faces = {"prism": n + 2, "antiprism": 2 * n + 2, "hosohedron": n, "dihedron": 2}[kind]
    return t.map.num_faces == faces and set(t.angles.sizes) == set(map(len, t.map.faces))


_OPERATOR = (catalog.PreconditionFailed, InvalidSite)
_SHRINK = (*_OPERATOR, NotEdgeToEdge)

# name: (callable, argument kinds, post-condition on (*args, answer), the
# exceptions beside DomainError and NoSolution that its docstring names)
_SWEPT = {
    "planar_angle": (sphkernel.planar_angle, "n", lambda m, r: math.pi / 3 <= r <= math.pi, ()),
    "edge_cosine": (sphkernel.edge_cosine, "nn", lambda m, a, r: math.isfinite(r), ()),
    "angle_from_edge": (
        sphkernel.angle_from_edge, "nn", lambda m, x, r: (1 - 2 / m) * math.pi <= r <= math.pi, ()
    ),
    "edge_from_angle": (sphkernel.edge_from_angle, "nn", lambda m, a, r: 0.0 < r <= math.pi, ()),
    "circumradius": (sphkernel.circumradius, "nn", lambda m, a, r: 0.0 <= r <= math.pi, ()),
    "polygon_area": (sphkernel.polygon_area, "nn", lambda m, a, r: math.isfinite(r), ()),
    "companion_residual": (
        sphkernel.companion_residual, "nnnn", lambda m, a, n, b, r: math.isfinite(r), ()
    ),
    "solve_companion_angle": (
        sphkernel.solve_companion_angle,
        "nnn",
        lambda m, a, n, r: len(r) <= 2 and all(0.0 < b < TWO_PI for b in r),
        (),
    ),
    "solve_companion_size": (
        sphkernel.solve_companion_size, "nnn", lambda m, a, b, r: 3 <= r <= 64, ()
    ),
    "AngleAssignment": (
        algsolve.AngleAssignment, "an", lambda a, x, r: r.edge == x and 0.0 < x <= math.pi, ()
    ),
    "AngleAssignment.from_angles": (
        algsolve.AngleAssignment.from_angles, "a", lambda a, r: 0.0 < r.edge <= math.pi, ()
    ),
    "Polynomial.from_coeffs": (
        algsolve.Polynomial.from_coeffs, "l", lambda c, r: len(r.coeffs) <= len(c), ()
    ),
    "isolate_roots": (
        lambda c, lo, hi: algsolve.isolate_roots(_polynomial(*c), lo, hi),
        "pnn",
        lambda c, lo, hi, r: r == sorted(r) and all(lo <= x <= hi for x in r),
        (ValueError,),
    ),
    "solve_vertex_system": (algsolve.solve_vertex_system, "l", _solutions_of, ()),
    "solve_snub": (algsolve.solve_snub, "n", lambda m, r: m in (4, 5), ()),
    "angle_deficit_ok": (
        vertexcomb.angle_deficit_ok,
        "l",
        lambda e, r: isinstance(r, bool),
        (ZeroDivisionError, TypeError),
    ),
    "admissible": (vertexcomb.admissible, "l", lambda e, r: isinstance(r, bool), ()),
    "enumerate_candidate_types": (
        vertexcomb.enumerate_candidate_types,
        "n",
        lambda k, r: all(vertexcomb.admissible(t) and max(t) <= k for t in r),
        (),
    ),
    "with_triangle": (vertexcomb.with_triangle, "L", lambda ts, r: all(3 in t for t in r), ()),
    "triangle_free": (vertexcomb.triangle_free, "L", lambda ts, r: all(3 not in t for t in r), ()),
    "canonical_arrangement": (
        vertexcomb.canonical_arrangement, "l", lambda c, r: r in _rotations(c), ()
    ),
    "arrangements": (
        vertexcomb.arrangements,
        "l",
        lambda t, r: all(any(p in _rotations(a) for p in itertools.permutations(t)) for a in r),
        (),
    ),
    **{
        f"make_{kind}": (
            getattr(catalog, f"make_{kind}"),
            "n",
            lambda n, r, kind=kind: _faces_of(kind, int(n), r),
            (),
        )
        for kind in ("prism", "antiprism", "hosohedron", "dihedron")
    },
    # the catalog operators' number arguments on fixed seeds: a face, a
    # vertex list, a phase or a shift; an operator may refuse its
    # preconditions, and a shrink that leaves a face below 3 vertices
    "pyramid_subdivide": (_on("J11", catalog.pyramid_subdivide), "n", _rebuilt, _OPERATOR),
    "cupola_subdivide": (_on("dihedron(6)", catalog.cupola_subdivide), "nn", _rebuilt, _OPERATOR),
    "prism_subdivide": (_on("J4", catalog.prism_subdivide), "n", _rebuilt, _OPERATOR),
    "pyramid_diminish": (_on("I", catalog.pyramid_diminish), "l", _rebuilt, _OPERATOR),
    "shrink": (lambda f: catalog.shrink(catalog.make("tT").map, f), "n", _rebuilt, _SHRINK),
    "shrink_all": (lambda m: catalog.shrink_all(catalog.make("tT").map, m), "n", _rebuilt, _SHRINK),
    "truncate": (lambda v: catalog.truncate(catalog.make("T").map, v), "n", _rebuilt, ()),
    "rotate_hemisphere": (_rotate_ac_equator, "n", _rebuilt, _OPERATOR),
    "derive_from_ed": (catalog.derive_from_ed, "nn", _rebuilt, _OPERATOR),
}


@pytest.mark.parametrize("name", sorted(_SWEPT))
def test_every_number_taking_public_name_answers_or_refuses(name):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    num = st.one_of(st.sampled_from(_NUMBERS), st.floats(), st.integers(-5, 70))
    entries = st.lists(num, max_size=6)
    kinds = {
        "n": num,
        "l": entries,
        "L": st.lists(entries, max_size=4),
        "a": st.dictionaries(num, num, max_size=4),
        "p": st.lists(st.one_of(num, st.integers(-9, 9)), max_size=5),
    }
    fn, arg_kinds, post, named = _SWEPT[name]

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(st.tuples(*map(kinds.__getitem__, arg_kinds)))
    def check(args):
        start = time.perf_counter()
        try:
            answer = fn(*args)
        except (DomainError, NoSolution, *named):
            answer = None
        assert time.perf_counter() - start < _SECONDS, args
        assert answer is None or post(*args, answer), args

    check()
