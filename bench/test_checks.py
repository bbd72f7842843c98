"""Tests of the benchmark's output checks: each passes a real acscheck output
and fails on a deliberately corrupted copy.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import run  # noqa: E402
from acscheck import cli  # noqa: E402

AXES = [(-0.75, 0.5, 3), (-1.0, 1.0, 2), (-0.5, 1.25, 2), (-1.0, 0.25, 3)]
VARS = ["x1", "x2", "x3", "x4"]


def acscheck(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(args))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def euclid(tmp_path_factory):
    """A real scan of pullback4 and the exact-obstruction checks for it."""
    csv_path = tmp_path_factory.mktemp("scan") / "scan.csv"
    grid = "--grid=" + ",".join(f"{lo!r}:{hi!r}:{c}" for lo, hi, c in AXES)
    code, stdout, _ = acscheck("scan", "gallery:pullback4", grid, "--out", str(csv_path))
    assert code == 0
    closed_form, fn, errors = checks.derive_euclid("pullback4")
    assert closed_form == "20*x1" and not errors

    def exact(coords):
        return fn(*coords)

    return csv_path.read_text(), stdout, checks.euclid_row_check(exact), checks.euclid_summary_check(exact)


def scan_errors(csv_text, stdout, row_check, summary_check):
    return checks.check_scan(csv_text, stdout, AXES, VARS, row_check, summary_check)


def replace_field(csv_text, row, column, value):
    lines = csv_text.splitlines()
    fields = lines[row].split(",")
    fields[column] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_real_scan_passes(euclid):
    assert scan_errors(*euclid) == []


def test_nan_row_labelled_consistent_fails(euclid):
    csv_text, stdout, row_check, summary_check = euclid
    bad = replace_field(csv_text, 5, len(VARS) + 1, "nan")
    assert bad.splitlines()[5].endswith(",consistent")
    errors = scan_errors(bad, stdout, row_check, summary_check)
    assert errors and "non-finite" in errors[0]


def test_obstruction_off_by_1e_6_fails(euclid):
    csv_text, stdout, row_check, summary_check = euclid
    row = csv_text.splitlines()[7].split(",")
    shifted = format(float(row[5]) + 1e-6, ".17g")
    errors = scan_errors(replace_field(csv_text, 7, 5, shifted), stdout, row_check, summary_check)
    assert errors and "exact" in errors[0]


def test_missing_row_fails(euclid):
    csv_text, stdout, row_check, summary_check = euclid
    lines = csv_text.splitlines(keepends=True)
    errors = scan_errors("".join(lines[:10] + lines[11:]), stdout, row_check, summary_check)
    assert errors


def test_reordered_rows_fail(euclid):
    csv_text, stdout, row_check, summary_check = euclid
    lines = csv_text.splitlines(keepends=True)
    lines[3], lines[4] = lines[4], lines[3]
    errors = scan_errors("".join(lines), stdout, row_check, summary_check)
    assert errors and "not grid point" in errors[0]


def test_summary_max_off_fails(euclid):
    csv_text, stdout, row_check, summary_check = euclid
    bad = stdout.replace("max |obstruction| = 15.000000000000002 at", "max |obstruction| = 15.5 at")
    assert bad != stdout
    assert scan_errors(csv_text, bad, row_check, summary_check)


def test_metric_scan_rejects_nonzero_obstruction(euclid):
    csv_text, stdout, _, _ = euclid
    errors = scan_errors(csv_text, stdout, checks.metric_row_check, checks.metric_summary_check)
    assert errors and "|obstruction|" in errors[0]


@pytest.fixture(scope="module")
def selftest():
    params = {"dims": (2, 4), "samples": 3, "degree": 1, "seed": 5}
    code, stdout, _ = acscheck("selftest", "--dims", "2,4", "--samples", "3", "--degree", "1", "--seed", "5")
    return code, stdout, params


def test_real_selftest_passes(selftest):
    code, stdout, params = selftest
    assert checks.check_selftest(stdout, code, **params) == []


def test_selftest_invariant_short_by_one_fails(selftest):
    code, stdout, params = selftest
    bad = stdout.replace("     6/6     acs validity", "     5/6     acs validity")
    assert bad != stdout
    errors = checks.check_selftest(bad, code, **params)
    assert errors and "invariant failed" in errors[0]


def test_selftest_299_of_300_fails():
    line = "   299/300   formula equivalence (standard vs reduced, rel <= 1e-09)"
    text = "\n".join(["self-test: dims=2,4,6 samples=100 degree=2 seed=1", "", "hard invariants",
                      "  pass/total  check", line, "", "overall: PASS"])
    errors = checks.check_selftest(text, 0, dims=(2, 4, 6), samples=100, degree=2, seed=1)
    assert any("299/300" in e for e in errors)


def test_selftest_nan_residual_fails(selftest):
    code, stdout, params = selftest
    line = next(line for line in stdout.splitlines() if "(final reduction)" in line and " / " in line)
    bad = stdout.replace(line, "  nan / nan / nan  contraction vs obstruction (final reduction)")
    errors = checks.check_selftest(bad, code, **params)
    assert errors and "not finite" in errors[0]


def test_selftest_wrong_total_fails(selftest):
    code, stdout, params = selftest
    errors = checks.check_selftest(stdout, code, **dict(params, samples=4))
    assert errors


@pytest.fixture(scope="module")
def shear_report():
    point = (0.25, -0.5, 0.75, 0.125)
    code, stdout, stderr = acscheck("check", "gallery:shear4", "--point=" + ",".join(map(repr, point)), "--json")
    expected = checks.derive_point_values("gallery:shear4", [point])[0]
    return code, stdout, stderr, point, expected


def test_real_check_passes(shear_report):
    code, stdout, stderr, point, expected = shear_report
    assert expected == {"n_max_abs": 1.0, "obstruction": 0.0, "all_zero": False}
    assert checks.check_report(stdout, stderr, code, point, expected) == []


def test_check_with_traceback_on_stderr_fails(shear_report):
    code, stdout, _, point, expected = shear_report
    stderr = 'Traceback (most recent call last):\n  File "x", line 1\nOverflowError: math range error\n'
    assert checks.check_report(stdout, stderr, code, point, expected)
    assert not checks.probe_succeeded(stderr, 1)
    assert checks.probe_succeeded("acscheck: error: exp overflow\n", 1)


def test_check_wrong_value_fails(shear_report):
    code, stdout, stderr, point, _ = shear_report
    expected = {"n_max_abs": 1.0 + 1e-6, "obstruction": 0.0, "all_zero": False}
    assert checks.check_report(stdout, stderr, code, point, expected)


def test_standard_block_every_scalar_zero():
    point = (0.5, 0.25, -0.125, 1.0)
    code, stdout, stderr = acscheck("check", "gallery:standard2n:4", "--point=" + ",".join(map(repr, point)), "--json")
    expected = checks.derive_point_values("gallery:standard2n:4", [point])[0]
    assert checks.check_report(stdout, stderr, code, point, expected) == []
    bad = json.loads(stdout)
    bad["ledger"]["II3"] = 1e-300
    assert checks.check_report(json.dumps(bad), stderr, code, point, expected)


def test_benchmark_json_matches_run():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


def test_slabs_are_the_grid_in_order():
    axes = run.seeded_grid(3, (4, 3, 2, 2))
    slabs = run.slabs(axes)
    assert len(slabs) == 4
    assert [p for slab in slabs for p in checks.grid_points(slab)] == list(checks.grid_points(axes))
