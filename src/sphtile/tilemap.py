"""Combinatorial maps of spherical tilings, validation and isomorphism.

A tiling is stored as a dart-based combinatorial map: every edge side
gets a directed dart, ``face_next`` walks each face boundary in a
globally consistent orientation, and ``edge_pair`` swaps the two darts of
an edge.  The composition ``face_next[edge_pair[d]]`` rotates a dart
around its origin vertex, which yields vertex degrees and the cyclic
arrangement of face sizes at each vertex.

``build_from_faces`` accepts plain vertex-index cycles (with arbitrary
per-face orientations, which are fixed up automatically), so constructors
can work with simple face lists.  Hosohedra need parallel edges, so digons
come only from ``digon_fan``.  A map's degenerate family is read from its
faces (``TilingMap.family``), never passed in.

Validation covers the counting identities (Euler, degree and face
handshakes), metric consistency of an angle assignment (vertex angle sums
of 2*pi, total spherical area 4*pi, the companion relation), the degree
bound, vertex-type admissibility, and the rule that at most one face is
not strictly convex.  Admissibility is one exact predicate,
``vertexcomb.admissible``, applied to each distinct vertex arrangement.
The same ``ValidationReport`` is the ``verify`` report: ``cli.verify_entry``
adds the embedding as one more check, and ``as_dict`` folds the checks
into the report keys of ``REPORT_GROUPS``.
Isomorphism (allowing reflection, preserving face sizes) uses a canonical
rooted-dart traversal form, searched with early abort and pruned by the
automorphisms found on the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from . import vertexcomb
from .algsolve import AngleAssignment
from .sphkernel import TWO_PI, polygon_area

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


@dataclass(frozen=True)
class TilingMap:
    """Immutable dart-based map of a spherical tiling.

    ``origin[d]`` is the tail vertex of dart ``d``; ``face_next[d]`` the
    next dart of the same face; ``edge_pair[d]`` the opposite dart of the
    same edge.
    """

    origin: tuple
    face_next: tuple
    edge_pair: tuple
    face_of: tuple
    faces: tuple

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
        return tuple(self.face_next[self.edge_pair[d]] for d in range(self.num_darts))

    @cached_property
    def vertex_darts(self) -> tuple:
        first = [-1] * self.num_vertices
        for d, v in enumerate(self.origin):
            if first[v] < 0:
                first[v] = d
        return tuple(first)

    @cached_property
    def vertex_rotations(self) -> tuple:
        """Per vertex, its outgoing darts in rotation order from ``vertex_darts``."""
        out = []
        for d0 in self.vertex_darts:
            rotation = [d0]
            d = self.vertex_next[d0]
            while d != d0:
                rotation.append(d)
                d = self.vertex_next[d]
            out.append(tuple(rotation))
        return tuple(out)

    def darts_at(self, v: int) -> list:
        return list(self.vertex_rotations[v])

    def degree(self, v: int) -> int:
        return len(self.vertex_rotations[v])

    def vertex_face_sizes(self, v: int) -> tuple:
        """Face sizes around ``v`` in rotation order (one full cycle)."""
        return tuple(len(self.faces[self.face_of[d]]) for d in self.vertex_rotations[v])

    @cached_property
    def vertex_arrangements(self) -> tuple:
        return tuple(
            vertexcomb.canonical_arrangement(self.vertex_face_sizes(v))
            for v in range(self.num_vertices)
        )

    def face_vertex_cycle(self, f: int) -> tuple:
        return tuple(self.origin[d] for d in self.faces[f])

    @cached_property
    def edges(self) -> tuple:
        out = []
        for d in range(self.num_darts):
            if d < self.edge_pair[d]:
                out.append((self.origin[d], self.target(d)))
        return tuple(out)

    def edge_ids(self) -> dict:
        """Map each dart to a dense edge id (shared by its pair)."""
        ids = {}
        nxt = 0
        for d in range(self.num_darts):
            if d < self.edge_pair[d]:
                ids[d] = nxt
                ids[self.edge_pair[d]] = nxt
                nxt += 1
        return ids

    # -- canonical form ----------------------------------------------------

    @cached_property
    def _start_darts(self) -> tuple:
        # restrict canonical-form starts to an isomorphism-invariant dart
        # class (rarest wins) to keep the search small
        classes: dict = {}
        for d in range(self.num_darts):
            key = (
                len(self.faces[self.face_of[d]]),
                len(self.faces[self.face_of[self.edge_pair[d]]]),
                self.vertex_arrangements[self.origin[d]],
            )
            classes.setdefault(key, []).append(d)
        # tie-break on the (isomorphism-invariant) class key, never on ids
        best_key = min(classes, key=lambda k: (len(classes[k]), k))
        return tuple(classes[best_key])

    @cached_property
    def canonical_form(self) -> tuple:
        """The least breadth-first signature over the start darts, both orientations.

        The signature from a start dart labels darts in breadth-first
        order (face successor, then edge partner) and lists, per dart, the
        labels of its successor and partner and its face size.  Starts run
        in order, ``reflected`` False then True, each dart of
        ``_start_darts``.  A signature is abandoned at its first triple
        above the best one.  A start that ties the best gives the map
        automorphism ``best_order[i] -> order[i]`` (orientation-reversing
        when the two orientations differ), and one dart fixes a map
        automorphism, so every (dart, orientation) state in its orbit has
        the same signature: states are joined in a union-find and a start
        whose orbit holds a tried start is skipped.
        """
        n = self.num_darts
        pair = self.edge_pair
        size = [len(self.faces[f]) for f in self.face_of]
        root = list(range(2 * n))  # union-find over states d + n * reflected
        tried = [False] * (2 * n)  # per root: the orbit holds a tried start

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        best = best_order = None
        best_reflected = False
        for reflected in (False, True):
            nxt = self.face_prev if reflected else self.face_next
            for start in self._start_darts:
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
                        k = len(sig)
                        if triple != best[k : k + 3]:
                            if triple > best[k : k + 3]:
                                break
                            tie = False
                    sig.extend(triple)
                else:  # not abandoned: a full tie or a new best
                    if not tie:
                        best, best_order, best_reflected = tuple(sig), order, reflected
                        continue
                    # join each state with its image under the automorphism
                    flip = n * (reflected != best_reflected)
                    for x, y in zip(best_order, order):
                        for sx, sy in ((x, y + flip), (x + n, y + n - flip)):
                            rx, ry = find(sx), find(sy)
                            if rx != ry:
                                root[rx] = ry
                                tried[ry] = tried[ry] or tried[rx]
        return best


@dataclass(frozen=True)
class Census:
    """Vertex-arrangement counts, face-size counts and the V, E, F totals."""

    vertex_types: Mapping
    face_counts: Mapping
    v: int
    e: int
    f: int


def census(t: TilingMap) -> Census:
    """Arrangement-level vertex census and face counts of a map."""
    vtypes: dict = {}
    for arr in t.vertex_arrangements:
        vtypes[arr] = vtypes.get(arr, 0) + 1
    fcounts: dict = {}
    for f in t.faces:
        fcounts[len(f)] = fcounts.get(len(f), 0) + 1
    return Census(
        vertex_types=dict(sorted(vtypes.items())),
        face_counts=dict(sorted(fcounts.items())),
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
    three or more vertices; hosohedra come from ``digon_fan``.  The map's
    family is read from its faces: two faces make a dihedron.
    """
    cycles = [tuple(f) for f in faces]
    if not cycles:
        raise NotEdgeToEdge("no faces")
    for f in cycles:
        if len(f) < 3:
            raise NotEdgeToEdge(f"face {f} has fewer than 3 vertices; digon_fan builds hosohedra")
        if len(set(f)) != len(f):
            raise NotEdgeToEdge(f"face {f} repeats a vertex")

    # per undirected edge, (face, u, v) for each face writing it u -> v
    incident: dict = {}
    for fi, f in enumerate(cycles):
        k = len(f)
        for i in range(k):
            u, v = f[i], f[(i + 1) % k]
            incident.setdefault(frozenset((u, v)), []).append((fi, u, v))
    for key, fs in incident.items():
        if len(fs) != 2:
            raise NotEdgeToEdge(
                f"edge {tuple(key)} lies on {len(fs)} faces, expected 2"
            )

    # orient faces consistently from face 0: each directed edge must appear
    # exactly once; flipped[f] stays None until face f is reached
    flipped: list = [None] * len(cycles)
    flipped[0] = False
    stack = [0]
    while stack:
        fi = stack.pop()
        f = cycles[fi][::-1] if flipped[fi] else cycles[fi]
        k = len(f)
        for i in range(k):
            u, v = f[i], f[(i + 1) % k]
            first, second = incident[frozenset((u, v))]
            gi, a, _ = second if first[0] == fi else first
            # the neighbour must run v -> u, so it is flipped iff written u -> v
            forward = a == u
            if flipped[gi] is None:
                flipped[gi] = forward
                stack.append(gi)
            elif forward != flipped[gi]:
                raise NotEdgeToEdge("faces cannot be oriented consistently")
    if None in flipped:
        raise Disconnected("face complex is not connected")
    oriented = [f[::-1] if flip else f for f, flip in zip(cycles, flipped)]

    # dense vertex ids in first-seen order
    vid: dict = {}
    for f in oriented:
        for v in f:
            if v not in vid:
                vid[v] = len(vid)

    origin = []
    face_next = []
    face_of = []
    face_darts = []
    dart_of: dict = {}  # directed edge (u, v) -> its dart
    for fi, f in enumerate(oriented):
        k = len(f)
        base = len(origin)
        face_darts.append(tuple(range(base, base + k)))
        for i in range(k):
            u, v = vid[f[i]], vid[f[(i + 1) % k]]
            origin.append(u)
            face_next.append(base + (i + 1) % k)
            face_of.append(fi)
            dart_of[u, v] = base + i
    # every directed edge has exactly one dart and a partner: each undirected
    # edge lies on two distinct faces (no face repeats a vertex, and a face of
    # three or more vertices passes an edge once), and the orientation pass
    # checked every edge for opposite directions on its two faces
    edge_pair = tuple(dart_of[origin[nd], origin[d]] for d, nd in enumerate(face_next))

    return TilingMap(
        origin=tuple(origin),
        face_next=tuple(face_next),
        edge_pair=edge_pair,
        face_of=tuple(face_of),
        faces=tuple(face_darts),
    )


def digon_fan(n: int) -> TilingMap:
    """The hosohedron map: n digons between two poles joined by n edges."""
    if n < 2:
        raise ValueError("a hosohedron needs at least 2 digons")
    # dart 2i runs pole 0 -> pole 1 along edge i, dart 2i+1 runs back;
    # face i lies between edges i and i+1
    origin = []
    face_next = [0] * (2 * n)
    edge_pair = [0] * (2 * n)
    face_of = [0] * (2 * n)
    faces = []
    for i in range(n):
        origin.extend([0, 1])
        edge_pair[2 * i] = 2 * i + 1
        edge_pair[2 * i + 1] = 2 * i
    for i in range(n):
        j = (i + 1) % n
        face_next[2 * i] = 2 * j + 1
        face_next[2 * j + 1] = 2 * i
        faces.append((2 * i, 2 * j + 1))
        face_of[2 * i] = i
        face_of[2 * j + 1] = i
    return TilingMap(
        origin=tuple(origin),
        face_next=tuple(face_next),
        edge_pair=tuple(edge_pair),
        face_of=tuple(face_of),
        faces=tuple(faces),
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
    "structure": ("degrees", "vertex_feasibility", "convexity", "two_connected"),
}


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    residual: Optional[float] = None
    detail: str = ""


@dataclass
class ValidationReport:
    name: str
    checks: dict = field(default_factory=dict)

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


def _has_cut_vertex(n: int, edges: Sequence) -> bool:
    """Whether removing some vertex disconnects the graph (or it is disconnected).

    Tarjan's lowpoint test in one iterative depth-first search from vertex
    0: the root is a cut vertex when it has two or more tree children, any
    other vertex u when a child's subtree reaches no vertex above u.
    """
    if n <= 2:
        return False
    adj: list = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    disc = [-1] * n  # discovery order
    low = [0] * n  # lowest discovery order one edge away from the subtree
    disc[0] = found = 0
    root_children = 0
    stack = [(0, iter(adj[0]))]
    while stack:
        u, nbrs = stack[-1]
        for w in nbrs:
            if disc[w] < 0:
                found += 1
                disc[w] = low[w] = found
                stack.append((w, iter(adj[w])))
                break
            low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if p == 0:
                    root_children += 1
                elif low[u] >= disc[p]:
                    return True
    return found < n - 1 or root_children > 1


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
    """
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
        worst = 0.0
        for u in range(v):
            s = sum(map(angle.__getitem__, t.vertex_face_sizes(u)))
            worst = max(worst, abs(s - TWO_PI))
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

    rep.add("two_connected", not _has_cut_vertex(t.num_vertices, t.edges))

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
    """Face-size-preserving map isomorphism, allowing reflection."""
    return census(a) == census(b) and a.canonical_form == b.canonical_form


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
