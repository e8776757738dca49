import importlib
import inspect
import math
import pkgutil

import pytest

import sphtile
from sphtile import algsolve, catalog, embedder, sphkernel, tilemap, vertexcomb
from sphtile.catalog import InvalidSite, UnknownName
from sphtile.sphkernel import DomainError
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
    "digon_fan": (ValueError, lambda: tilemap.digon_fan(1)),
    "enumerate_candidate_types": (ValueError, lambda: vertexcomb.enumerate_candidate_types(2)),
    "enumerate_candidate_types-10001": (
        ValueError,
        lambda: vertexcomb.enumerate_candidate_types(vertexcomb.MAX_ENUMERATE_SIZE + 1),
    ),
    "export_obj": (ValueError, _export_obj_without_arcs),
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
}


@pytest.mark.parametrize("case", REJECTED_INPUTS)
def test_rejected_input_raises_its_documented_type(case):
    kind, call = REJECTED_INPUTS[case]
    with pytest.raises(kind) as info:
        call()
    assert info.type is kind
