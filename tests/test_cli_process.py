"""The process entry point `python -m acscheck.cli`.

`cli.run` freezes the garbage collector's objects before the interpreter
exits, so that its last collection has nothing to walk; `cli.main`, which
library code and tests call, leaves the collector alone.  A process gives
the exit code and the stdout that `main` gives in-process.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acscheck
from acscheck import cli
from test_cli_scan import NEAR_ACS4

SRC = str(Path(acscheck.__file__).resolve().parent.parent)


def test_main_leaves_the_collector_alone(capsys):
    assert cli.main(["check", "gallery:pullback4", "--point=0.1,0.2,0.3,0.4"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


def test_run_freezes_then_exits_with_the_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["acscheck", "check", "gallery:shear4", "--point=0,0,0,0"])
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    capsys.readouterr()
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "gallery:pullback4", "--point=0.1,-0.2,0.3,0.5", "--json"], 0),
        (["verify-derivation", "gallery:shear4", "--point=0.3,0.1,-0.4,0.2"], 0),
        (["selftest", "--dims", "2,4", "--samples", "3", "--seed", "5"], 0),
        (["check", "gallery:pullback4", "--point=1e300,0,0,0"], 1),
        (["check", "{near}", "--point=0.3,0.7,0.1,0.9", "--tol-alg", "1", "--json"], 3),
    ],
)
def test_process_gives_the_code_and_stdout_of_main(argv, code, tmp_path, capsys):
    near = tmp_path / "near.acs"
    near.write_text(NEAR_ACS4, encoding="utf-8")
    argv = [a.format(near=near) for a in argv]
    assert cli.main(argv) == code
    expected = capsys.readouterr()
    # buffered stdout, so that the exit's flush is part of what is compared
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-m", "acscheck.cli", *argv], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
