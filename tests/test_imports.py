"""What a cold start loads.

`import acscheck.cli` must not load the scan and selftest modules or the
standard-library modules only they or `check --json` use, nor `dataclasses`,
whose decorator compiles code at import, and `import acscheck.selftest` must
not load `statistics`; `import acscheck` resolves each public name on first
access.  No command loads `numpy.random`, nor `secrets` and `_hashlib`,
which it imports, nor `csv`, which only a flagged scan row needs, and only
`selftest` loads `acscheck._pcg64`.  Each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import acscheck

SRC = str(Path(acscheck.__file__).resolve().parent.parent)


def _python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_cli_import_loads_only_what_check_runs():
    unwanted = ("acscheck.scan", "acscheck.selftest", "dataclasses", "statistics", "csv", "json")
    code = f"import sys, acscheck.cli\nprint([m for m in {unwanted!r} if m in sys.modules])\n"
    assert _python(code).strip() == "[]"


def test_selftest_import_loads_no_statistics():
    code = "import sys, acscheck.selftest\nprint('statistics' in sys.modules)\n"
    assert _python(code).strip() == "False"


def test_no_module_builds_dataclass_code():
    code = "import sys, acscheck.cli, acscheck.scan, acscheck.selftest\nprint('dataclasses' in sys.modules)\n"
    assert _python(code).strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "gallery:pullback4", "--point", "0.5,0,0,0", "--json"],
        ["verify-derivation", "gallery:pullback4", "--point", "0.5,0,0,0"],
        ["scan", "gallery:pullback4", "--grid=0:1:2,0:0:1,0:0:1,0:0:1", "--out", "{tmp}/scan.csv"],
        ["gallery", "list"],
        ["selftest", "--dims", "2,4", "--samples", "2", "--degree", "1"],
    ],
)
def test_no_command_loads_numpy_random(tmp_path, argv):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    watched = ("numpy.random", "secrets", "_hashlib", "acscheck._pcg64", "csv")
    code = (
        "import contextlib, io, sys\n"
        "from acscheck.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    code = main({argv!r})\n"
        f"print(code, [m for m in {watched!r} if m in sys.modules])\n"
    )
    # only selftest draws, from acscheck's own streams
    assert _python(code).strip() == ("0 ['acscheck._pcg64']" if argv[0] == "selftest" else "0 []")


def test_every_public_name_resolves_and_star_import_binds_it():
    code = (
        "import acscheck\n"
        "missing = [n for n in acscheck.__all__ if getattr(acscheck, n, None) is None]\n"
        "namespace = {}\n"
        "exec('from acscheck import *', namespace)\n"
        "unbound = [n for n in acscheck.__all__ if n not in namespace]\n"
        "print(len(acscheck.__all__), missing, unbound)\n"
    )
    assert _python(code).strip() == f"{len(acscheck.__all__)} [] []"
    assert len(acscheck.__all__) == len(set(acscheck.__all__)) > 50


def test_a_public_name_is_the_submodule_object():
    from acscheck import geometry, scan

    assert acscheck.GridSpec is scan.GridSpec
    assert acscheck.ChartSpec is geometry.ChartSpec
    assert not hasattr(acscheck, "no_such_name")
