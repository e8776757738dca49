"""numpy, ``dataclasses`` and ``inspect`` stay off the start-up path: only
the embedder loads numpy, and with it the other two.  The export text
module ``sphtile._text`` loads with ``export`` alone."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(code, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_imports_leave_numpy_unloaded(tmp_path):
    out = _run(
        "import sys\n"
        "import sphtile.cli, sphtile.catalog, sphtile.algsolve, sphtile.tilemap\n"
        "import sphtile.vertexcomb, sphtile.sphkernel\n"
        "print('numpy' in sys.modules)\n",
        tmp_path,
    )
    assert out == "False\n"


def test_commands_that_never_embed_leave_numpy_unloaded(tmp_path):
    commands = [
        ["solve", "--type", "3,4,4,5"],
        ["enumerate", "--max-size", "19"],
        ["catalog", "list"],
        ["catalog", "dump", "--out", str(tmp_path / "manifest.json")],
        ["catalog", "show", "C"],
        ["catalog", "show", "prism(7)"],  # a pinned family member
        ["catalog", "show", "antiprism(13)"],  # a member from the edge solver
        ["derive", "eD", "--dim", "1"],
    ]
    out = _run(
        "import contextlib, io, sys\n"
        "from sphtile import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code, 'numpy' in sys.modules)\n",
        tmp_path,
    )
    assert out.splitlines() == [f"{argv[0]} 0 False" for argv in commands]
    assert (tmp_path / "manifest.json").read_text() == (ROOT / "catalog_manifest.json").read_text()


def test_start_up_path_loads_no_dataclasses_and_no_inspect(tmp_path):
    commands = [
        ["solve", "--type", "3,4,4,5"],
        ["enumerate", "--max-size", "19"],
        ["catalog", "list"],
        ["catalog", "dump", "--out", str(tmp_path / "manifest.json")],
        ["catalog", "show", "C"],
        ["catalog", "show", "prism(7)"],
        ["catalog", "show", "antiprism(13)"],
        ["derive", "eD", "--dim", "1"],
    ]
    out = _run(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io\n"
        "import sphtile.cli, sphtile.catalog, sphtile.algsolve, sphtile.tilemap\n"
        "import sphtile.vertexcomb, sphtile.sphkernel\n"
        "from sphtile import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n",
        tmp_path,
    )
    assert out == "[]\n"


def test_only_export_loads_the_text_module(tmp_path):
    commands = [
        ["verify", "C"],
        ["verify", "hosohedron(4)"],
        ["catalog", "show", "C", "--json"],
        ["export", "C", "--format", "json", "--out", str(tmp_path / "c.json")],
    ]
    out = _run(
        "import contextlib, io, sys\n"
        "from sphtile import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    print(argv[0], code, 'sphtile._text' in sys.modules)\n",
        tmp_path,
    )
    assert out.splitlines() == ["verify 0 False", "verify 0 False", "catalog 0 False", "export 0 True"]
