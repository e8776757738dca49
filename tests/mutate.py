"""Mutation probe of the verification battery: does tier-1 notice a broken check?

Each mutant changes one verdict in a copy of the checkout and runs the
tier-1 suite there; the working tree is never written.  The verdicts are
the ``passed`` argument of each ``rep.add`` call in ``tilemap.validate``
(a constant one excepted) and each comparison in ``cli.verify_entry``,
``embedder.realize``, ``embedder._measure_corners``, ``embedder._points``,
``embedder._midpoints``, ``vertexcomb.admissible`` and
``algsolve._accepted``.  Each gets two mutants:

- ``pass``: the verdict replaced by ``True``, so the check can never fail;
  a comparison that refuses on True (the test of an ``if`` that raises or
  skips with ``continue``) is replaced by ``False`` instead, and one read
  through ``.any()`` is replaced together with that call;
- ``flip``: its comparison negated (``<=`` to ``>``, ``==`` to ``!=``), or
  the whole verdict negated when it is not one comparison.

The tolerances that gate ``verify`` get one mutant each, ``loose``: the
float constant multiplied by 10.  They are the float constants of
``cli.verify_entry`` (its ``tol`` default and the floors of its four
gates) and of ``cli.main`` (the ``--tol`` default).

A mutant is killed when the suite fails (it stops at the first failure).
Run from anywhere, with only the standard library and pytest::

    python tests/mutate.py

It prints one row per mutant and the killed count.  The file name keeps
pytest from collecting it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (module path, function, whether the sites are rep.add verdicts,
# comparisons or tolerance constants)
TARGETS = [
    ("src/sphtile/tilemap.py", "validate", "verdicts"),
    ("src/sphtile/cli.py", "verify_entry", "comparisons"),
    ("src/sphtile/embedder.py", "realize", "comparisons"),
    ("src/sphtile/embedder.py", "_measure_corners", "comparisons"),
    ("src/sphtile/embedder.py", "_points", "comparisons"),
    ("src/sphtile/embedder.py", "_midpoints", "comparisons"),
    ("src/sphtile/vertexcomb.py", "admissible", "comparisons"),
    ("src/sphtile/algsolve.py", "_accepted", "comparisons"),
    ("src/sphtile/cli.py", "verify_entry", "constants"),
    ("src/sphtile/cli.py", "main", "constants"),
]
NEGATED = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
    ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)


def _passing(body: ast.FunctionDef, node: ast.Compare) -> tuple:
    """(node, text) of the ``pass`` mutant of a comparison: ``True``, or
    ``False`` where True refuses, over the comparison or its ``.any()``."""
    parent = {c: p for p in ast.walk(body) for c in ast.iter_child_nodes(p)}
    up = parent[node]
    if isinstance(up, ast.Attribute) and isinstance(parent[up], ast.Call):
        node = parent[up]
    up = parent[node]
    refuses = (
        isinstance(up, ast.If)
        and up.test is node
        and any(isinstance(s, (ast.Raise, ast.Continue)) for s in up.body)
    )
    return node, "False" if refuses else "True"


def _sites(source: str, func: str, kind: str) -> list:
    """(label, node, pass mutant's node and text) per verdict site of
    ``func``, in source order."""
    body = _function(ast.parse(source), func)
    if kind == "comparisons":
        nodes = [n for n in ast.walk(body) if isinstance(n, ast.Compare)]
        nodes.sort(key=lambda n: (n.lineno, n.col_offset))
        return [(ast.unparse(n), n, _passing(body, n)) for n in nodes]
    sites = []
    for n in ast.walk(body):
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "add"
            and len(n.args) >= 2
            and isinstance(n.args[0], ast.Constant)
            and not isinstance(n.args[1], ast.Constant)
        ):
            sites.append((n.args[0].value, n.args[1], (n.args[1], "True")))
    return sorted(sites, key=lambda s: (s[1].lineno, s[1].col_offset))


def _flipped(node: ast.expr, text: str) -> str:
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        op = NEGATED[type(node.ops[0])]()
        return ast.unparse(ast.Compare(node.left, [op], node.comparators))
    return f"not ({text})"


def _splice(source: str, node: ast.expr, text: str) -> str:
    """``source`` with ``node``'s text replaced (AST columns count UTF-8 bytes)."""
    lines = source.encode().splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
    raw = source.encode()
    return (raw[:start] + b"(" + text.encode() + b")" + raw[end:]).decode()


def mutants() -> list:
    """(file, line, site, kind, mutated source) per mutant."""
    out = []
    for path, func, kind in TARGETS:
        source = (ROOT / path).read_text()
        if kind == "constants":
            body = _function(ast.parse(source), func)
            nodes = [
                n for n in ast.walk(body) if isinstance(n, ast.Constant) and type(n.value) is float
            ]
            for node in sorted(nodes, key=lambda n: (n.lineno, n.col_offset)):
                text = ast.get_source_segment(source, node)
                mutated = _splice(source, node, f"{text} * 10")
                out.append((path, node.lineno, f"{func}: {text}", "loose", mutated))
            continue
        for label, node, (at, value) in _sites(source, func, kind):
            text = ast.get_source_segment(source, node)
            for name, where, new in (("pass", at, value), ("flip", node, _flipped(node, text))):
                mutated = _splice(source, where, new)
                out.append((path, node.lineno, f"{func}: {label}", name, mutated))
    return out


def _tier1(copy: Path) -> tuple:
    """(passed, first failing test or '', seconds) of one tier-1 run in ``copy``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    t0 = time.perf_counter()
    try:
        run = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=1800)
    except subprocess.TimeoutExpired:
        return False, "(timed out)", time.perf_counter() - t0
    failed = [l.split()[1] for l in run.stdout.splitlines() if l.startswith(("FAILED ", "ERROR "))]
    return run.returncode == 0, (failed or [""])[0], time.perf_counter() - t0


def main() -> int:
    todo = mutants()
    with tempfile.TemporaryDirectory(prefix="sphtile-mutate-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(
            ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".*cache*", ".hypothesis")
        )
        ok, first, secs = _tier1(copy)
        if not ok:
            print(f"the unmutated copy fails tier-1 ({first}); no mutant run")
            return 2
        print(f"unmutated tier-1 passes in {secs:.0f} s; {len(todo)} mutants\n")
        print(f"{'site':<52} {'mutant':<6} {'result':<8} first failing test")
        killed = 0
        for path, line, site, kind, source in todo:
            original = (copy / path).read_text()
            (copy / path).write_text(source)
            try:
                ok, first, secs = _tier1(copy)
            finally:
                (copy / path).write_text(original)
            killed += not ok
            where = f"{Path(path).name}:{line} {site}"
            print(f"{where[:52]:<52} {kind:<6} {'survived' if ok else 'killed':<8} {first}", flush=True)
        print(f"\n{killed} of {len(todo)} mutants killed")
    return 0 if killed == len(todo) else 1


if __name__ == "__main__":
    sys.exit(main())
