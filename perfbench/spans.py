"""Per-layer spans around calls into sphtile, recorded from outside the package.

``Tracer`` replaces each traced public function with a wrapper in every
loaded ``sphtile`` module that holds it, so calls between layers (for
example ``validate`` calling ``vertexcomb.enumerate_candidate_types``, or
``total_area`` calling ``face_angles``) are seen too.  Nothing under
``src/`` changes.  Each span keeps its name, start, end and parent span id
in memory; ``span_times`` and ``summary`` turn them into per-function
calls, inclusive time and self time, plus the work counts below.

``sphkernel`` gets no span: its functions are sub-microsecond leaves whose
cost shows in the self time of the layers that call them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = (
    "catalog.make",
    "catalog.expected_census",
    "tilemap.validate",
    "tilemap.isomorphic",
    "vertexcomb.enumerate_candidate_types",
    "algsolve.solve_vertex_system",
    "algsolve.solve_snub",
    "algsolve.verify_groebner_candidates",
    "embedder.realize",
    "embedder.total_area",
    "embedder.export_obj",
    "embedder.export_json",
    "embedder.load_json",
    "cli.verify_entry",
)

# called once per face, so counted without a span
COUNTED = ("embedder.face_angles",)

# validate skips the vertex-type lookup for these families
EXEMPT_FAMILIES = ("hosohedron", "dihedron")

PER_LAYER_UNITS = {
    **{f"{name}.{suffix}": unit for name in TRACED
       for suffix, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "tilemap.validate.darts": "count",
    "vertexcomb.enumerate_candidate_types.types_out": "count",
    "vertexcomb.useful_ratio": "ratio",
    "vertexcomb.useful_ratio.looked_up": "count",
    "vertexcomb.useful_ratio.enumerated": "count",
    "algsolve.solve_vertex_system.solutions": "count",
    "embedder.face_angles.calls": "count",
    "embedder.realize.darts_per_s": "darts/s",
    "embedder.export_obj.bytes": "bytes",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Context manager that records spans while it is active."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent id]; id = index
        self.stack: list = []
        self.counts: dict = defaultdict(int)
        self.looked_up: set = set()
        self._patches: list = []

    def __enter__(self) -> "Tracer":
        for name in TRACED:
            self._replace(name, self._spanned(name, _resolve(name)))
        for name in COUNTED:
            self._replace(name, self._counted(name, _resolve(name)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _replace(self, name: str, wrapper) -> None:
        original = _resolve(name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "sphtile" and not mod_name.startswith("sphtile."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self._count(name, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "tilemap.validate":
            t = args[0]
            c["tilemap.validate.darts"] += t.num_darts
            if t.family not in EXEMPT_FAMILIES:
                self.looked_up.update(t.vertex_arrangements)
        elif name == "vertexcomb.enumerate_candidate_types":
            c["vertexcomb.enumerate_candidate_types.types_out"] += len(result)
            if any(self.spans[s][0] == "tilemap.validate" for s in self.stack):
                c["vertexcomb.useful_ratio.enumerated"] += len(result)
        elif name == "algsolve.solve_vertex_system":
            c["algsolve.solve_vertex_system.solutions"] += len(result)
        elif name == "embedder.realize":
            c["embedder.realize.darts"] += args[0].num_darts
        elif name == "embedder.export_obj":
            c["embedder.export_obj.bytes"] += len(result)

    def span_times(self, first: int = 0) -> dict:
        """Calls, inclusive and self time per traced function.

        Covers the spans recorded from index ``first`` on; spans are
        appended in call order, so the spans of one op are contiguous.
        ``.s`` is inclusive time summed over outermost calls only, so a
        recursive call is not counted twice; ``.self_s`` is each span's
        duration minus the time covered by its direct children.
        """
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= first:
                child[parent - first] += end - start
        out = {}
        for name in TRACED:
            out[name + ".calls"] = 0
            out[name + ".s"] = 0.0
            out[name + ".self_s"] = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            out[name + ".calls"] += 1
            out[name + ".self_s"] += (end - start) - child[i]
            p = parent
            while p >= first and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < first:
                out[name + ".s"] += end - start
        return out

    def summary(self) -> dict:
        """Per-layer metrics of everything recorded so far."""
        out = self.span_times()
        c = self.counts
        for key in ("tilemap.validate.darts",
                    "vertexcomb.enumerate_candidate_types.types_out",
                    "vertexcomb.useful_ratio.enumerated",
                    "algsolve.solve_vertex_system.solutions",
                    "embedder.face_angles.calls",
                    "embedder.export_obj.bytes"):
            out[key] = c[key]
        looked_up = len(self.looked_up)
        enumerated = c["vertexcomb.useful_ratio.enumerated"]
        out["vertexcomb.useful_ratio.looked_up"] = looked_up
        # no enumeration behind the lookups means none was wasted
        if enumerated:
            out["vertexcomb.useful_ratio"] = looked_up / enumerated
        else:
            out["vertexcomb.useful_ratio"] = 1.0 if looked_up else 0.0
        realize_s = out["embedder.realize.s"]
        out["embedder.realize.darts_per_s"] = (
            c["embedder.realize.darts"] / realize_s if realize_s > 0 else 0.0
        )
        out["trace.spans"] = len(self.spans)
        return out


def _resolve(name: str):
    mod_name, attr = name.rsplit(".", 1)
    return getattr(sys.modules["sphtile." + mod_name], attr)
