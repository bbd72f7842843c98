"""The process entry point `python -m acscheck.cli`.

Run as a module, `cli` switches the garbage collector off before its
imports; `cli.run` freezes the objects they made, switches the collector
back on for the command, and after it flushes stdio, runs the atexit
handlers and leaves with `os._exit`, skipping module teardown.  `cli.main`,
which library code and tests call, leaves the collector alone.  A process
gives the exit code, stdout, stderr and CSV bytes that `main` gives
in-process.
"""

import atexit
import gc
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import acscheck
from acscheck import cli, obstruction
from test_cli_scan import NEAR_ACS4

SRC = str(Path(acscheck.__file__).resolve().parent.parent)


def test_main_leaves_the_collector_alone(capsys):
    assert cli.main(["check", "gallery:pullback4", "--point=0.1,0.2,0.3,0.4"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == 0


# `run` must not reach `os._exit` here, which would end pytest with status 0
# and skip every later test: its exit and the atexit handlers are replaced.
def test_run_freezes_then_exits_with_the_code(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(sys, "argv", ["acscheck", "check", "gallery:shear4", "--point=0,0,0,0"])
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: calls.append("atexit"))
    monkeypatch.setattr(cli, "_exit", lambda code: calls.append(("exit", code, gc.get_freeze_count() > 0)))
    try:
        cli.run()
    finally:
        gc.unfreeze()
    assert gc.isenabled()
    assert capsys.readouterr().out.startswith("point: (0, 0, 0, 0)\nverdict: consistent\n")
    assert calls == ["atexit", ("exit", 0, True)]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "gallery:pullback4", "--point=0.1,-0.2,0.3,0.5", "--json"], 0),
        (["verify-derivation", "gallery:shear4", "--point=0.3,0.1,-0.4,0.2"], 0),
        (["selftest", "--dims", "2,4", "--samples", "3", "--seed", "5"], 0),
        (["check", "gallery:pullback4", "--point=1e300,0,0,0"], 1),
        (["check", "{near}", "--point=0.3,0.7,0.1,0.9", "--tol-alg", "1", "--json"], 3),
        # sample 1's metric draw is not positive definite at its point: it is
        # shifted to one that is, and the run passes
        (["selftest", "--dims", "18", "--samples", "2", "--degree", "0", "--seed", "0"], 0),
        (["--version"], 0),
        (["--help"], 0),
        (["check", "gallery:pullback4"], 1),  # usage on stderr: --point is missing
        (["gallery", "show", "pullback4"], 0),
        (["scan", "gallery:pullback4", "--grid=0:1:2,0:1:2,-1:0:2,0:0.5:2", "--out", "{csv}"], 0),
    ],
)
def test_process_gives_the_code_and_stdout_of_main(argv, code, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the same width in both
    near, csv = tmp_path / "near.acs", tmp_path / "scan.csv"
    near.write_text(NEAR_ACS4, encoding="utf-8")
    argv = [a.format(near=near, csv=csv) for a in argv]
    assert cli.main(argv) == code
    expected = capsys.readouterr()
    expected_csv = csv.read_bytes() if csv.exists() else None
    csv.unlink(missing_ok=True)
    # buffered stdout, so that the exit's flush is part of what is compared
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-m", "acscheck.cli", *argv], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)
    assert (csv.read_bytes() if csv.exists() else None) == expected_csv


# A sitecustomize on the child's path counts the collections that start while
# `acscheck.cli` runs as __main__ and nothing is frozen yet, and registers an
# atexit handler that writes that count to a file.
_SITECUSTOMIZE = """import atexit, gc, sys

starts = 0


def count(phase, info):
    global starts
    main = getattr(sys.modules["__main__"].__spec__, "name", None)
    if phase == "start" and main == "acscheck.cli" and gc.get_freeze_count() == 0:
        starts += 1


def report():
    with open({marker!r}, "w") as f:
        f.write(str(starts))


gc.callbacks.append(count)
atexit.register(report)
"""


# The handler runs, though the process leaves by `os._exit`; and no collection
# starts while numpy and acscheck import (with the collector on, about 30 did).
@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "gallery:shear4", "--point=0,0,0,0"], 0),
        (["check", "gallery:pullback4", "--point=1e300,0,0,0"], 1),
        (["--version"], 0),
    ],
)
def test_process_runs_atexit_handlers_and_imports_without_collections(argv, code, tmp_path):
    marker = tmp_path / "starts"
    (tmp_path / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(marker=str(marker)), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), SRC]))
    proc = subprocess.run([sys.executable, "-m", "acscheck.cli", *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == code
    assert marker.read_text() == "0"


# A reader that has gone: the exit's failed flush ends as an OSError in
# `main` does, not in the interpreter's "Exception ignored" and status 120.
def test_a_closed_pipe_is_one_line_and_exit_1():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "acscheck.cli", "check", "gallery:shear4", "--point=0,0,0,0"],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "acscheck: error: [Errno 32] Broken pipe\n")


_J = "[chart]\ndim = 2\n[J]\n1 2 = {}\n"


# Entries nested past the parser's limit (refused at the token that opens the
# 201st level), a grid axis too long to allocate, whose 10**17 doubles no
# 64-bit address space can hold, and a grid of 10**20 points, past the
# 2**63 - 1 that numpy can index, end in one line and exit 1, not a traceback.
@pytest.mark.parametrize(
    "text, argv, err",
    [
        (_J.format("-" + "(" * 400 + "1" + ")" * 400), ["check", "{s}", "--point=0,0"],
         "line 4: bad expression: expression nested too deeply (offset 200)"),
        (_J.format("-" * 1200 + "1"), ["check", "{s}", "--point=0,0"],
         "line 4: bad expression: expression nested too deeply (offset 200)"),
        (_J.format("-" * 985 + "x1"), ["check", "{s}", "--point=0,0"],
         "line 4: bad expression: expression nested too deeply (offset 200)"),
        ("", ["scan", "gallery:pullback4", f"--grid=0:1:{10**17},0:0:1,0:0:1,0:0:1", "--out", "{csv}"],
         f"grid {10**17} x 1 x 1 x 1 is too large to allocate"),
        ("", ["scan", "gallery:pullback4", "--grid=" + ",".join(["0:1:100000"] * 4), "--out", "{csv}"],
         "grid 100000 x 100000 x 100000 x 100000 is too large to allocate"),
    ],
    ids=["parentheses", "minuses", "minuses-x1", "huge-grid", "unindexable-grid"],
)
def test_refusal_is_one_line_without_traceback(text, argv, err, tmp_path):
    structure, out = tmp_path / "s.acs", tmp_path / "scan.csv"
    structure.write_text(text, encoding="utf-8")
    argv = [a.format(s=structure, csv=out) for a in argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "acscheck.cli", *argv], env=env, capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"acscheck: error: {err}\n")
    assert not out.exists()


def test_a_mirrored_metric_entry_790_levels_deep_is_checked(tmp_path):
    deep = "+".join(["x1"] * 791)  # a tree of 790 levels, given as both (1,2) and (2,1)
    structure = tmp_path / "s.acs"
    structure.write_text(_J.format("-1") + f"2 1 = 1\n[metric]\n1 2 = {deep}\n2 1 = {deep}\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = ["check", str(structure), "--point=0,0"]
    proc = subprocess.run([sys.executable, "-m", "acscheck.cli", *argv], env=env, capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("point: (0, 0)\nverdict: consistent\n")


def _cap_file_size():
    resource.setrlimit(resource.RLIMIT_FSIZE, (16384, 16384))


# A scan whose CSV outgrows the process's file-size limit ends in one line,
# and the CSV it would have replaced keeps its bytes.
def test_a_scan_cut_short_by_the_file_size_limit_keeps_the_old_csv(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "gallery:pullback4", "--grid=0:1:2,0:1:2,-1:0:2,0:0.5:2", "--out", str(out)]) == 0
    capsys.readouterr()
    old = out.read_bytes()
    argv = ["scan", "gallery:pullback4", "--grid=" + ",".join(["-1:1:20"] * 4), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "acscheck.cli", *argv], env=env, capture_output=True, text=True,
        preexec_fn=_cap_file_size, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "acscheck: error: [Errno 27] File too large\n")
    assert out.read_bytes() == old
    assert list(tmp_path.iterdir()) == [out]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


# A 1000-dimensional structure needs 7.45 GiB for its partials at one point:
# in a process capped at 2 GiB of address space, `check` ends in one line and
# a one-point scan flags its row, without a traceback or allocating it.
def test_out_of_memory_is_one_line_or_a_flagged_row(tmp_path):
    out = tmp_path / "scan.csv"
    # one BLAS thread, so that the threads' stacks and buffers do not take the address space
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "acscheck.cli", *argv], env=env, capture_output=True, text=True,
            preexec_fn=_cap_address_space,
        )

    check = run("check", "gallery:standard2n:1000", "--point=" + ",".join(["0"] * 1000))
    scan = run("scan", "gallery:standard2n:1000", "--grid=" + ",".join(["0:0:1"] * 1000), "--out", str(out))
    allocation = "Unable to allocate 7.45 GiB for an array with shape {} and data type float64"
    assert (check.returncode, check.stdout) == (1, "")
    assert check.stderr == f"acscheck: error: out of memory: {allocation.format((1000, 1000, 1000))}\n"
    assert (scan.returncode, scan.stderr) == (0, "")
    assert scan.stdout == f"scan: 1 points, 1 flagged\nmax |obstruction|: n/a (no successful rows)\ncsv: {out}\n"
    status = f'"error: out of memory: {allocation.format((1, 1000, 1000, 1000))}"'
    assert out.read_text().splitlines()[1:] == [",".join(["0"] * 1000 + ["nan"] * 4 + [status])]


# A child's peak RSS counts the memory of the process that started it, so a
# selftest started by the test process read at least that process's peak
# (51 MB at dimension 2 and at 10 alike): a command starts from a bare interpreter.
_LAUNCH = """import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(*args: str) -> float:
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-m", "acscheck.cli", *args]
    launch = subprocess.run([sys.executable, "-c", _LAUNCH, *argv], env=env, capture_output=True, text=True)
    returncode, maxrss = map(int, launch.stdout.split())  # the command's exit code, reaped by wait4
    assert returncode == 0
    return maxrss / 1024  # kilobytes on Linux


def _selftest_peak_rss_mb(options: str) -> float:
    return _peak_rss_mb("selftest", *options.split())


# The samples run in blocks of at most obstruction.BATCH: 16 times the samples
# need no more memory (6,400 samples took 205 MB as one batch, 41 MB in blocks).
def test_selftest_memory_does_not_grow_with_the_sample_count():
    options = "--dims 6 --samples {} --degree 1 --seed 6"
    assert _selftest_peak_rss_mb(options.format(6400)) < _selftest_peak_rss_mb(options.format(400)) + 10.0


# A block holds at most obstruction.FLOATS floats of frame coefficients:
# dimension 10 at degree 3, 28,600 of them a sample, took 51.7 MB in blocks of
# 256 samples against 30.8 MB at dimension 2.
def test_selftest_memory_does_not_grow_with_the_frame_size():
    options = "--dims {} --samples 64 --degree 3 --seed 1"
    assert _selftest_peak_rss_mb(options.format(10)) < _selftest_peak_rss_mb(options.format(2)) + 10.0


# A block holds at most obstruction.FLOATS floats of report tensors too, dim^3
# a sample (about 15 such tensors are live at the peak): at dimension 16 and
# degree 0, whose frames take 256 floats a sample, 128 samples in one block
# took 89.0 MB against 62.3 MB for 64.
def test_selftest_memory_does_not_grow_with_the_report_size():
    options = "--dims 16 --samples {} --degree 0 --seed 1"
    assert _selftest_peak_rss_mb(options.format(128)) < _selftest_peak_rss_mb(options.format(64)) + 10.0


# A scan's chunk holds at most obstruction.FLOATS floats of report tensors, n^3
# a point: at dimension 32, 128 points in one chunk took 259 MB against 44 MB
# for 8; in chunks of batch_size(32^3) = 8 they take 44 MB.
def test_scan_memory_does_not_grow_with_the_report_size(tmp_path):
    assert [obstruction.batch_size(n**3) for n in (4, 16, 32, 48, 64)] == [128, 64, 8, 2, 1]
    axes = ",".join(["0:0:1"] * 31)
    peaks = [
        _peak_rss_mb("scan", "gallery:standard2n:32", f"--grid=0:1:{count},{axes}", "--out", str(tmp_path / "s.csv"))
        for count in (128, 8)
    ]
    assert peaks[0] < peaks[1] + 15.0


# Each residual is one double of a preallocated row, 128 B a sample for the 16
# rows: as Python floats in lists, 51,200 samples took 60.7 MB against 31.0 MB.
def test_selftest_residuals_take_a_float_a_sample():
    options = "--dims 2 --samples {} --degree 0 --seed 3"
    assert _selftest_peak_rss_mb(options.format(51200)) < _selftest_peak_rss_mb(options.format(400)) + 15.0


# The residual rows are allocated before any draw, so a sample count whose rows
# cannot be held is refused at once (as lists of floats, they grew by about
# 0.6 KB a sample for as long as the run lasted): 10**20 doubles exceed what
# an index can count, 10**13 the 2 GiB this process may map.
@pytest.mark.parametrize("samples", [10**20, 10**13])
def test_selftest_refuses_residuals_too_large_to_allocate(samples):
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = ["selftest", "--dims", "2", "--samples", str(samples), "--degree", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "acscheck.cli", *argv], env=env, capture_output=True, text=True,
        preexec_fn=_cap_address_space, timeout=60,
    )
    assert "Traceback" not in proc.stderr
    err = f"acscheck: error: residuals of 1 x {samples} samples are too large to allocate\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)
