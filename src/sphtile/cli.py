"""Command-line interface: catalog, verification, enumeration, solving,
derivation and export.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage errors,
an output path that cannot be written among them.
All output is deterministic: sorted keys, floats at 17 significant digits,
catalog order fixed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import catalog, embedder, tilemap, vertexcomb
from .algsolve import solve_vertex_system
from .sphkernel import TWO_PI, DomainError

_F = "%.17g"


class _CannotWrite(Exception):
    """An output path that cannot be written: a usage error."""


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise _CannotWrite(f"cannot write {path}: {exc.strerror or exc}") from None


def verify_entry(name: str, tol: float = 1e-9) -> tilemap.ValidationReport:
    """Validate one catalog entry structurally, metrically and by embedding.

    The embedding joins ``validate``'s report as one more check,
    ``embedding_closure``; a ``ClosureFailure`` fails it with its message.
    """
    t = catalog.make(name)
    expected = catalog.expected_census(name)
    area_tol = max(1e-8, tol)
    rep = tilemap.validate(t.map, t.angles, tol=tol, area_tol=area_tol, expected=expected, name=name)
    try:
        emb = embedder.realize(t.map, t.angles, closure_tol=max(1e-7, tol))
        ok = emb.edge_error <= max(1e-9, tol) and abs(
            embedder.total_area(t.map, emb) - 2 * TWO_PI
        ) <= max(1e-6, tol)
        rep.add("embedding_closure", ok, emb.closure_error)
    except embedder.ClosureFailure as exc:
        rep.add("embedding_closure", False, detail=str(exc))
    return rep


def _cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.all_entries():
            fam = catalog.family_of(name)
            if args.family and fam != args.family:
                continue
            print(f"{name}\t{fam}")
        return 0
    if args.action == "dump":
        text = json.dumps(catalog.manifest(), sort_keys=True, indent=1)
        if args.out:
            _write(args.out, (text + "\n").encode())
        else:
            print(text)
        return 0
    # show
    t = catalog.make(args.name)
    if args.json:
        sys.stdout.write(embedder.export_json(t.map, t.angles, name=args.name).decode())
        return 0
    c = tilemap.census(t.map)
    print(f"name: {args.name}")
    print(f"family: {catalog.family_of(args.name)}")
    print(f"v={c.v} e={c.e} f={c.f}")
    print("faces: " + "  ".join(f"{m}-gon x{k}" for m, k in sorted(c.face_counts.items())))
    print("vertex types:")
    for arr, k in sorted(c.vertex_types.items()):
        print(f"  {'.'.join(str(s) for s in arr)} x{k}")
    print("angles:")
    for m, a in sorted(t.angles.angles.items()):
        print(f"  {m}-gon: {_F % a} rad = {_F % (a / math.pi)} pi")
    print(f"edge: {_F % t.angles.edge} rad")
    return 0


def _cmd_verify(args) -> int:
    if args.all:
        entries = catalog.all_entries()
    elif args.name:
        entries = [args.name]
    else:
        print("verify: a NAME or --all is required", file=sys.stderr)
        return 2
    reports = []
    ok = True
    for name in entries:
        rep = verify_entry(name, tol=args.tol)
        reports.append(rep)
        ok &= rep.overall_pass
        status = "pass" if rep.overall_pass else "FAIL"
        bad = "" if rep.overall_pass else "  [" + ", ".join(
            f"{k}: {rep.checks[k].detail}" if rep.checks[k].detail else k
            for k in rep.failures()
        ) + "]"
        print(f"{status}  {name}{bad}")
    if args.report:
        doc = {"entries": [r.as_dict() for r in reports], "pass": ok}
        _write(args.report, (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode())
    print(f"{sum(r.overall_pass for r in reports)}/{len(reports)} entries pass")
    return 0 if ok else 1


def _cmd_enumerate(args) -> int:
    types = vertexcomb.enumerate_candidate_types(args.max_size)
    if args.with_triangle:
        types = vertexcomb.with_triangle(types)
    elif args.triangle_free:
        types = vertexcomb.triangle_free(types)
    for t in types:
        print(",".join(str(m) for m in t))
    return 0


def _cmd_solve(args) -> int:
    try:
        t = tuple(int(x) for x in args.type.replace(" ", "").split(","))
    except ValueError:
        print(f"solve: cannot parse vertex type {args.type!r}", file=sys.stderr)
        return 2
    sols = solve_vertex_system(t)
    if not sols:
        print("no solution")
        return 0
    shown = sols if args.all_roots else [s for s in sols if s.monotone_convex()]
    if not shown:
        shown = sols
    for i, s in enumerate(shown):
        flag = "" if s.monotone_convex() else "  [violates size-angle ordering]"
        print(f"solution {i + 1}:{flag}")
        for m, a in sorted(s.angles.items()):
            print(f"  alpha_{m} = {_F % a} rad = %.9f pi" % (a / math.pi))
        print(f"  edge = {_F % s.edge} rad")
    return 0


def _cmd_export(args) -> int:
    t = catalog.make(args.name)
    emb = embedder.realize(t.map, t.angles)
    if args.format == "obj":
        data = embedder.export_obj(t.map, emb, arc_steps=args.arc_steps, include_faces=args.faces)
    else:
        data = embedder.export_json(t.map, t.angles, emb, name=args.name)
    _write(args.out, data)
    print(f"wrote {args.out}")
    return 0


def _parse_sites(spec: str):
    m = spec.strip().lower()
    if m in ("", "0"):
        return 0, None
    rel = None
    if m.endswith(("o", "n")):
        rel = m[-1]
        m = m[:-1]
    try:
        count = int(m)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad site spec {spec!r}: use forms like 1, 2o, 2n")
    return count, rel


def _int_at_least(lo: int):
    """argparse type: an integer no smaller than ``lo``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite float greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _cmd_derive(args) -> int:
    if args.base != "eD":
        print("derive: only the eD family recipes are supported", file=sys.stderr)
        return 2
    dim, dim_rel = args.dim
    rot, rot_rel = args.rot
    try:
        t = catalog.derive_from_ed(dim=dim, rot=rot, dim_rel=dim_rel, rot_rel=rot_rel)
    except catalog.InvalidSite as exc:
        print(f"derive: {exc}", file=sys.stderr)
        return 2
    match = None
    for name in ["eD", *catalog._ED_RECIPES]:
        if tilemap.isomorphic(t.map, catalog.make(name).map):
            match = name
            break
    c = tilemap.census(t.map)
    print(f"derived tiling: v={c.v} e={c.e} f={c.f}")
    for arr, k in sorted(c.vertex_types.items()):
        print(f"  {'.'.join(str(s) for s in arr)} x{k}")
    print(f"isomorphic to: {match or 'none in catalog'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sphtile",
        description="edge-to-edge spherical tilings by regular polygons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list, show or dump catalog entries")
    psub = p.add_subparsers(dest="action", required=True)
    pl = psub.add_parser("list")
    pl.add_argument("--family", choices=catalog.FAMILIES)
    ps = psub.add_parser("show")
    ps.add_argument("name")
    ps.add_argument("--json", action="store_true")
    pd = psub.add_parser("dump")
    pd.add_argument("--out")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("verify", help="validate catalog entries")
    p.add_argument("name", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("enumerate", help="enumerate candidate vertex types")
    p.add_argument("--max-size", type=_int_at_least(3), default=19)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--with-triangle", action="store_true")
    g.add_argument("--triangle-free", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("solve", help="solve the angle system of a vertex type")
    p.add_argument("--type", required=True, help='comma-separated sizes, e.g. "3,4,4,5"')
    p.add_argument("--all-roots", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("export", help="export an embedding")
    p.add_argument("name")
    p.add_argument("--format", choices=["obj", "json"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arc-steps", type=_int_at_least(1), default=8)
    p.add_argument("--faces", action="store_true", help="include fan-triangulated faces (obj)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("derive", help="apply cupola recipes to eD")
    p.add_argument("base", help="base tiling (eD)")
    p.add_argument("--dim", type=_parse_sites, default="0",
                   help="diminish count, e.g. 1, 2o, 2n")
    p.add_argument("--rot", type=_parse_sites, default="0",
                   help="rotate count, e.g. 1, 2o, 2n")
    p.set_defaults(func=_cmd_derive)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except catalog.UnknownName as exc:
        print(f"unknown catalog entry: {exc.args[0]}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except _CannotWrite as exc:
        print(f"sphtile: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
