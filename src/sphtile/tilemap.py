"""Combinatorial maps of spherical tilings, validation and isomorphism.

A tiling is stored as a dart-based combinatorial map: every edge side
gets a directed dart, ``face_next`` walks each face boundary in a
globally consistent orientation, and ``edge_pair`` swaps the two darts of
an edge.  The composition ``face_next[edge_pair[d]]`` rotates a dart
around its origin vertex.  A map computes its vertex and edge tables once,
as cached properties, and the rest of the package reads them: per vertex
its rotation (from its lowest dart), the face sizes along it and their
canonical arrangement; per edge its ends (``edges``); per dart the
index of its edge in that list (``edge_of``) and the size of its face
(``face_size_of``).

``build_from_faces`` accepts plain vertex-index cycles (with arbitrary
per-face orientations, which are fixed up automatically), so constructors
can work with simple face lists.  Hosohedra need parallel edges, so digons
come only from ``digon_fan``.  A map's degenerate family is read from its
faces (``TilingMap.family``), never passed in.

Validation covers the counting identities (Euler, degree and face
handshakes), metric consistency of an angle assignment (vertex angle sums
of 2*pi, total spherical area 4*pi, the companion relation), the degree
bound, vertex-type admissibility and the rule that at most one face is
not strictly convex.  The surface is no check but the builders' guarantee
(see ``TilingMap``), so ``euler`` alone decides the sphere.
Admissibility is one exact predicate, ``vertexcomb.admissible``, applied
to each distinct vertex arrangement.  ``euler``, ``degree_sum``,
``face_sum``, ``degrees``, ``vertex_feasibility`` and ``census`` are
decided exactly, on integers.  ``angle_sums`` (within 1e-9), ``area``
(1e-8), ``companion`` (1e-9), the convexity rule (an angle from
pi - 1e-12 on is not strictly convex) and ``cli.verify_entry``'s
``embedding_closure`` (closure 1e-7, edges 1e-9, area 1e-6) are measured
in floats.
``TilingMap``, ``Census`` and ``CheckResult`` are NamedTuples: they compare
and hash by their fields, and their fields are read-only.  A map keeps its
cached tables beside them.  The mutable ``ValidationReport`` is the ``verify``
report: ``cli.verify_entry`` adds the embedding as one more check, and
``as_dict`` folds the checks into the report keys of ``REPORT_GROUPS``.
Isomorphism (allowing reflection, preserving face sizes) uses a canonical
rooted-dart traversal form, searched with early abort and pruned by the
automorphisms found on the way.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, compress, count
from operator import lt
from typing import Mapping, NamedTuple, Optional, Sequence

from . import vertexcomb
from .algsolve import AngleAssignment
from .sphkernel import TWO_PI, _check_size, _check_tol, polygon_area

__all__ = [
    "TilingMap",
    "Census",
    "ValidationReport",
    "CheckResult",
    "REPORT_GROUPS",
    "NotEdgeToEdge",
    "Disconnected",
    "build_from_faces",
    "digon_fan",
    "census",
    "validate",
    "isomorphic",
    "homogeneity",
]


class NotEdgeToEdge(ValueError):
    """The face data does not describe an edge-to-edge map."""


class Disconnected(ValueError):
    """The face data describes a disconnected complex."""


class _MapFields(NamedTuple):
    origin: tuple
    face_next: tuple
    edge_pair: tuple
    face_of: tuple
    faces: tuple


class TilingMap(_MapFields):
    """Immutable dart-based map of a spherical tiling.

    ``origin[d]`` is the tail vertex of dart ``d``; ``face_next[d]`` the
    next dart of the same face; ``edge_pair[d]`` the opposite dart of the
    same edge.

    Both builders, ``build_from_faces`` and ``digon_fan``, return a map of
    a connected, orientable, closed surface with simple faces (none visits
    a vertex twice) and no pinched vertex (the darts leaving a vertex form
    one ``vertex_next`` cycle); a map built by hand that breaks this is
    outside the contract.  Such a map has no cut vertex: a face is a cycle
    of distinct vertices, so its edges lie on one side of a cut vertex, as
    do those of every face connected to it, which is every face, yet the
    other side's vertices lie on faces too.
    """

    @cached_property
    def family(self) -> Optional[str]:
        """The degenerate family whose maps relax the usual degree and
        face-size bounds: ``"hosohedron"`` for digon faces, ``"dihedron"``
        for two faces (on the sphere they can only share one cycle)."""
        if len(self.faces[0]) == 2:
            return "hosohedron"
        return "dihedron" if len(self.faces) == 2 else None

    # -- elementary counts -------------------------------------------------

    @property
    def num_darts(self) -> int:
        return len(self.origin)

    @property
    def num_edges(self) -> int:
        return len(self.origin) // 2

    @cached_property
    def num_vertices(self) -> int:
        return 1 + max(self.origin)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def target(self, d: int) -> int:
        return self.origin[self.edge_pair[d]]

    def face_size(self, f: int) -> int:
        return len(self.faces[f])

    @cached_property
    def face_prev(self) -> tuple:
        prev = [0] * self.num_darts
        for d, nd in enumerate(self.face_next):
            prev[nd] = d
        return tuple(prev)

    @cached_property
    def vertex_next(self) -> tuple:
        """Next dart counter to face orientation around the origin vertex."""
        return tuple(map(self.face_next.__getitem__, self.edge_pair))

    @cached_property
    def vertex_rotations(self) -> tuple:
        """Per vertex, its outgoing darts in ``vertex_next`` order, from its lowest dart."""
        out = [None] * self.num_vertices
        nxt = self.vertex_next
        for d0, v in enumerate(self.origin):
            if out[v] is None:
                rotation = [d0]
                d = nxt[d0]
                while d != d0:
                    rotation.append(d)
                    d = nxt[d]
                out[v] = tuple(rotation)
        return tuple(out)

    def degree(self, v: int) -> int:
        return len(self.vertex_rotations[v])

    @cached_property
    def face_size_of(self) -> tuple:
        """Per dart, the size of its face."""
        sizes = [len(f) for f in self.faces]
        return tuple(map(sizes.__getitem__, self.face_of))

    @cached_property
    def vertex_face_sizes(self) -> tuple:
        """Per vertex, the face sizes around it in ``vertex_rotations`` order."""
        size = self.face_size_of.__getitem__
        return tuple(tuple(map(size, r)) for r in self.vertex_rotations)

    @cached_property
    def vertex_arrangements(self) -> tuple:
        """Per vertex, the canonical arrangement of its face sizes, computed
        once per distinct size sequence."""
        sizes = self.vertex_face_sizes
        canon = {s: vertexcomb.canonical_arrangement(s) for s in set(sizes)}
        return tuple(map(canon.__getitem__, sizes))

    def face_vertex_cycle(self, f: int) -> tuple:
        return tuple(self.origin[d] for d in self.faces[f])

    @cached_property
    def edges(self) -> tuple:
        """Per edge, the ends (origin, target) of its lower dart, by edge id."""
        origin, pair = self.origin, self.edge_pair
        ends = zip(origin, map(origin.__getitem__, pair))
        return tuple(compress(ends, map(lt, count(), pair)))

    @cached_property
    def edge_of(self) -> tuple:
        """Per dart, the id of its edge (shared by its pair): its index in ``edges``."""
        ids = [0] * self.num_darts
        e = 0
        for d, p in enumerate(self.edge_pair):
            if d < p:
                ids[d] = ids[p] = e
                e += 1
        return tuple(ids)

    # -- canonical form ----------------------------------------------------

    @cached_property
    def _start_darts(self) -> tuple:
        """The forward and the reflected start darts of ``canonical_form``.

        Starts are restricted to an isomorphism-invariant dart class to
        keep the search small.  A dart's key is its face size, its
        partner's face size and its origin's arrangement.  A reflection
        reverses every dart, so for key (a, b, x) the reflected starts
        are the partners of the darts keyed (b, a, x).  The key with the
        fewest starts in all wins, ties broken on the key, never on ids:
        both choices are the same in a map and in its mirror image.
        """
        classes: dict = {}
        size, pair = self.face_size_of, self.edge_pair
        for d in range(self.num_darts):
            key = (size[d], size[pair[d]], self.vertex_arrangements[self.origin[d]])
            classes.setdefault(key, []).append(d)

        def mirror(k: tuple) -> tuple:
            return (k[1], k[0], k[2])

        def starts(k: tuple) -> tuple:
            return len(classes.get(k, ())) + len(classes.get(mirror(k), ())), k

        best = min({*classes, *map(mirror, classes)}, key=starts)
        reflected = [pair[d] for d in classes.get(mirror(best), ())]
        return tuple(classes.get(best, ())), tuple(reflected)

    @cached_property
    def canonical_form(self) -> tuple:
        """The least breadth-first signature over the start darts, both orientations.

        The signature from a start dart labels darts in breadth-first
        order (face successor, then edge partner) and lists, per dart, the
        triple of the labels of its successor and partner and its face
        size.  Starts run in order: ``reflected`` False from each forward
        start of ``_start_darts``, then True from each reflected start.  A
        map and its mirror image try the same signatures, so the form is
        invariant under reflection.  A signature is abandoned at its
        first triple above the best one.  A start that ties the best gives
        the map automorphism ``best_order[i] -> order[i]``
        (orientation-reversing when the two orientations differ), and one
        dart fixes a map automorphism, so every (dart, orientation) state
        in its orbit has the same signature: states are joined in a
        union-find and a start whose orbit holds a tried start is skipped.
        """
        n = self.num_darts
        pair = self.edge_pair
        size = self.face_size_of
        root = list(range(2 * n))  # union-find over states d + n * reflected
        tried = [False] * (2 * n)  # per root: the orbit holds a tried start

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        best = best_order = None
        best_reflected = False
        for reflected, starts in enumerate(self._start_darts):
            nxt = self.face_prev if reflected else self.face_next
            for start in starts:
                r = find(start + n * reflected)
                if tried[r]:
                    continue
                tried[r] = True
                ids = [-1] * n
                ids[start] = 0
                order = [start]
                sig = []
                tie = best is not None  # the prefix so far equals best's
                for d in order:
                    a, b = nxt[d], pair[d]
                    if ids[a] < 0:
                        ids[a] = len(order)
                        order.append(a)
                    if ids[b] < 0:
                        ids[b] = len(order)
                        order.append(b)
                    triple = (ids[a], ids[b], size[d])
                    if tie:
                        rival = best[len(sig)]
                        if triple != rival:
                            if triple > rival:
                                break
                            tie = False
                    sig.append(triple)
                else:  # not abandoned: a full tie or a new best
                    if not tie:
                        best, best_order, best_reflected = sig, order, reflected
                        continue
                    # join each state with its image under the automorphism
                    flip = n * (reflected != best_reflected)
                    for x, y in zip(best_order, order):
                        for sx, sy in ((x, y + flip), (x + n, y + n - flip)):
                            rx, ry = find(sx), find(sy)
                            if rx != ry:
                                root[rx] = ry
                                tried[ry] = tried[ry] or tried[rx]
        return tuple(best)


class Census(NamedTuple):
    """Vertex-arrangement counts, face-size counts and the V, E, F totals."""

    vertex_types: Mapping
    face_counts: Mapping
    v: int
    e: int
    f: int


def census(t: TilingMap) -> Census:
    """Arrangement-level vertex census and face counts of a map."""
    return Census(
        vertex_types=dict(sorted(Counter(t.vertex_arrangements).items())),
        face_counts=dict(sorted(Counter(map(len, t.faces)).items())),
        v=t.num_vertices,
        e=t.num_edges,
        f=t.num_faces,
    )


# --------------------------------------------------------------------------
# construction
# --------------------------------------------------------------------------


def build_from_faces(faces: Sequence[Sequence]) -> TilingMap:
    """Build a map from vertex-index cycles, one per face.

    Every undirected vertex pair adjacent in the cycles must occur in
    exactly two faces (else ``NotEdgeToEdge``) and the faces must be
    connected through shared edges (else ``Disconnected``).  Per-face
    orientations are fixed up automatically, starting from face 0.  Vertex
    labels may be arbitrary hashables; they are relabelled densely in
    first-seen order.  A digon would use its one edge twice, so faces need
    three or more vertices, none repeated; hosohedra come from
    ``digon_fan``.  A pinched vertex, whose faces form several fans around
    it, is refused by its label.  The map's family is read from its faces:
    two faces make a dihedron.
    """
    cycles = [tuple(f) for f in faces]
    if not cycles:
        raise NotEdgeToEdge("no faces")
    for f in cycles:
        if len(f) < 3:
            raise NotEdgeToEdge(f"face {f} has fewer than 3 vertices; digon_fan builds hosohedra")
        if len(set(f)) != len(f):
            raise NotEdgeToEdge(f"face {f} repeats a vertex")

    # the darts as written, face by face: dart d runs tails[d] -> heads[d]
    # on face face_of[d], and face fi holds the darts from start[fi] up to
    # start[fi + 1]
    tails = list(chain.from_iterable(cycles))
    heads = list(chain.from_iterable(f[1:] + f[:1] for f in cycles))
    face_of = [fi for fi, f in enumerate(cycles) for _ in f]
    start = [0, *accumulate(map(len, cycles))]
    along: dict = {}  # per directed edge, the darts written along it
    for d, e in enumerate(zip(tails, heads)):
        along.setdefault(e, []).append(d)
    # per dart, the other dart of its edge, and whether that one is written
    # the same way (then exactly one of their two faces must be reversed)
    partner = [0] * len(tails)
    same = [False] * len(tails)
    for d, (u, v) in enumerate(zip(tails, heads)):
        ahead, back = along[u, v], along.get((v, u), ())
        if len(ahead) + len(back) != 2:
            raise NotEdgeToEdge(
                f"edge {(u, v)} lies on {len(ahead) + len(back)} faces, expected 2"
            )
        if back:
            partner[d] = back[0]
        else:
            partner[d] = ahead[ahead[0] == d]
            same[d] = True

    # orient faces consistently from face 0: flipped[f] stays None until
    # face f is reached, and a neighbour across a dart is flipped iff the
    # face is, unless the two write their edge the same way
    flipped: list = [None] * len(cycles)
    flipped[0] = False
    stack = [0]
    while stack:
        fi = stack.pop()
        for d in range(start[fi], start[fi + 1]):
            gi = face_of[partner[d]]
            want = flipped[fi] != same[d]
            if flipped[gi] is None:
                flipped[gi] = want
                stack.append(gi)
            elif flipped[gi] != want:
                raise NotEdgeToEdge("faces cannot be oriented consistently")
    if None in flipped:
        raise Disconnected("face complex is not connected")
    oriented = [f[::-1] if flip else f for f, flip in zip(cycles, flipped)]

    # dense vertex ids in first-seen order
    vid = dict(zip(dict.fromkeys(chain.from_iterable(oriented)), count()))
    # a dart keeps its number unless its face is reversed: then written dart
    # j of the face's k is its dart (k - 2 - j) mod k, run backwards, a
    # renumbering that is its own inverse and keeps every dart on its edge
    where = list(range(len(tails)))
    face_next = list(range(1, len(tails) + 1))
    for a, b, flip in zip(start, start[1:], flipped):
        face_next[b - 1] = a
        if flip:
            where[a : b - 1] = range(b - 2, a - 1, -1)
    t = TilingMap(
        origin=tuple(map(vid.__getitem__, chain.from_iterable(oriented))),
        face_next=tuple(face_next),
        edge_pair=tuple(map(where.__getitem__, map(partner.__getitem__, where))),
        face_of=tuple(face_of),
        faces=tuple(map(tuple, map(range, start, start[1:]))),
    )
    # A label that joins k > 1 fans of faces (a pinched vertex) gives the
    # surface k - 1 more vertices than the map has labels.  A connected,
    # closed, orientable surface has v - e + f <= 2, so a pinched map has
    # v - e + f <= 1, and a map with v - e + f == 2 needs no rotation walk.
    if len(vid) - len(tails) // 2 + len(cycles) != 2:
        degree = Counter(t.origin)
        for v, r in enumerate(t.vertex_rotations):
            if len(r) != degree[v]:
                raise NotEdgeToEdge(f"vertex {list(vid)[v]!r} is pinched between fans of faces")
    return t


def digon_fan(n: int) -> TilingMap:
    """The hosohedron map: n digons between two poles joined by n edges,
    for n >= 2 by the count rule of ``_check_size`` (2.0 passes; 1, 2.5,
    nan and "3" raise ``DomainError``)."""
    n = _check_size(n, 2, what="digon count")
    # dart 2i runs pole 0 -> pole 1 along edge i, dart 2i+1 runs back;
    # face i lies between edges i and i+1
    faces = tuple((2 * i, 2 * ((i + 1) % n) + 1) for i in range(n))
    face_next = [0] * (2 * n)
    face_of = [0] * (2 * n)
    for i, (a, b) in enumerate(faces):
        face_next[a], face_next[b] = b, a
        face_of[a] = face_of[b] = i
    return TilingMap(
        origin=(0, 1) * n,
        face_next=tuple(face_next),
        edge_pair=tuple(d ^ 1 for d in range(2 * n)),
        face_of=tuple(face_of),
        faces=faces,
    )


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


# The ``verify`` report's keys and the checks each one folds.
REPORT_GROUPS = {
    "angle_sums": ("angle_sums",),
    "area": ("area",),
    "census": ("census",),
    "companion": ("companion",),
    "dehn_sommerville": ("degree_sum", "face_sum"),
    "embedding_closure": ("embedding_closure",),
    "euler": ("euler",),
    "structure": ("degrees", "vertex_feasibility", "convexity"),
}


class CheckResult(NamedTuple):
    passed: bool
    residual: Optional[float] = None
    detail: str = ""


class ValidationReport:
    def __init__(self, name: str):
        self.name = name
        self.checks = {}

    def __repr__(self) -> str:
        return f"ValidationReport(name={self.name!r}, checks={self.checks!r})"

    def add(self, key: str, passed: bool, residual: Optional[float] = None, detail: str = ""):
        self.checks[key] = CheckResult(bool(passed), residual, detail)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failures(self) -> list:
        return [k for k, c in self.checks.items() if not c.passed]

    def as_dict(self) -> dict:
        """The report view: each ``REPORT_GROUPS`` key folds its member checks.

        A group passes when all of its members pass.  A one-member group
        carries that member's residual (as a %.17g string); a group of
        several carries ``None``.
        """
        checks = {}
        for key, members in REPORT_GROUPS.items():
            found = [self.checks[k] for k in members if k in self.checks]
            if not found:
                continue
            res = found[0].residual if len(members) == 1 else None
            checks[key] = {
                "passed": all(c.passed for c in found),
                "residual": None if res is None else "%.17g" % res,
            }
        return {"name": self.name, "pass": self.overall_pass, "checks": checks}


def validate(
    t: TilingMap,
    assign: AngleAssignment,
    tol: float = 1e-9,
    area_tol: float = 1e-8,
    expected: Optional[Census] = None,
    name: str = "",
) -> ValidationReport:
    """Run every structural and metric check on a tiling.

    Failures are report entries, not exceptions.  The degree bound, the
    vertex-type admissibility check and the convexity rule are skipped for
    the hosohedron/dihedron families, whose maps intentionally break them.
    On a built map ``degree_sum`` and ``face_sum`` are identities (the
    vertex rotations and the faces each partition the darts); they stay as
    the report's ``dehn_sommerville`` key.

    ``tol`` and ``area_tol`` must be finite and > 0 (``_check_tol``), the
    edge of ``assign`` lies in (0, pi] (``AngleAssignment``), and each
    angle that the area and companion checks read must lie in (0, 2*pi);
    else ``DomainError``.
    """
    _check_tol(tol)
    _check_tol(area_tol, "area_tol")
    rep = ValidationReport(name=name or "tiling")
    exempt = t.family in ("hosohedron", "dihedron")

    c = census(t)
    v, e, f = c.v, c.e, c.f

    rep.add("euler", v - e + f == 2, float(v - e + f - 2))
    deg_sum = sum(map(len, t.vertex_rotations))
    rep.add("degree_sum", deg_sum == 2 * e, float(deg_sum - 2 * e))
    face_sum = sum(m * n for m, n in c.face_counts.items())
    rep.add("face_sum", face_sum == 2 * e, float(face_sum - 2 * e))

    # the angle, area and convexity checks fail on any face size with no angle
    angle = {m: assign.angles[m] for m in c.face_counts if m in assign.angles}
    missing = [m for m in c.face_counts if m not in angle]
    if missing:
        rep.add("angle_sums", False, detail=f"missing angle for size {missing[0]}")
        rep.add("area", False, detail=f"missing angle for size {missing[0]}")
    else:
        # one sum per distinct size sequence, summed in rotation order
        worst = 0.0
        for sizes in set(t.vertex_face_sizes):
            worst = max(worst, abs(sum(map(angle.__getitem__, sizes)) - TWO_PI))
        rep.add("angle_sums", worst <= tol, worst)
        total = sum(n * polygon_area(m, angle[m]) for m, n in c.face_counts.items())
        rep.add("area", abs(total - 2 * TWO_PI) <= area_tol, abs(total - 2 * TWO_PI))

    degrees = set(map(len, t.vertex_rotations))
    rep.add(
        "degrees",
        exempt or degrees <= set(range(vertexcomb.MIN_DEGREE, vertexcomb.MAX_DEGREE + 1)),
        detail=f"degrees {sorted(degrees)}",
    )

    if exempt:
        rep.add("vertex_feasibility", True, detail="family exemption")
    else:
        bad = [
            arr for arr in set(t.vertex_arrangements) if not vertexcomb.admissible(arr)
        ]
        rep.add("vertex_feasibility", not bad, detail=f"inadmissible {bad}")

    if exempt:
        rep.add("convexity", True, detail="family exemption")
    elif missing:
        rep.add("convexity", False, detail="missing angle")
    else:
        wide = sum(n for m, n in c.face_counts.items() if angle[m] >= math.pi - 1e-12)
        rep.add("convexity", wide <= 1, float(wide))

    comp = max(assign.max_companion_residual(), assign.max_edge_residual())
    rep.add("companion", comp <= tol, comp)

    if expected is not None:
        same = (
            dict(expected.vertex_types) == dict(c.vertex_types)
            and dict(expected.face_counts) == dict(c.face_counts)
        )
        rep.add("census", same, detail="census mismatch" if not same else "")

    return rep


# --------------------------------------------------------------------------
# isomorphism and homogeneity
# --------------------------------------------------------------------------


def isomorphic(a: TilingMap, b: TilingMap) -> bool:
    """Face-size-preserving map isomorphism, allowing reflection.

    Equal maps are isomorphic by the identity, so they skip the census and
    the canonical forms.
    """
    return a == b or (census(a) == census(b) and a.canonical_form == b.canonical_form)


def homogeneity(t: TilingMap) -> str:
    """Classify vertex homogeneity: 'strong', 'weak-only' or 'none'.

    Strong means every vertex has the same angle arrangement; weak-only
    means a single vertex type occurs but with at least two arrangements.
    """
    arrangements = set(t.vertex_arrangements)
    if len(arrangements) == 1:
        return "strong"
    types = {tuple(sorted(a)) for a in arrangements}
    return "weak-only" if len(types) == 1 else "none"
