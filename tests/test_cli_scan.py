import csv
import io
import itertools
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acscheck import cli, nijenhuis, obstruction, scan, selftest
from acscheck.cli import build_parser, main
from acscheck.geometry import ChartSpec, JetMatrix, random_conjugation_acs, validate_acs
from acscheck.obstruction import (
    TERM_NAMES,
    VERDICT_CONSISTENT,
    VERDICT_INVALID_ACS,
    VERDICT_LEDGER_ANOMALY,
    identity_report,
    report_from_jets,
)
from acscheck.scan import GridSpec, run_scan
from acscheck.structures import StructureFile, gallery, parse_structure, serialize_structure

IDENTITY_STRUCTURE = "[chart]\ndim = 2\n[J]\n1 1 = 1\n2 2 = 1\n"


def test_grid_parse_and_total():
    grid = GridSpec.parse("0:1:3,-1:1:2")
    assert grid.axes == ((0.0, 1.0, 3), (-1.0, 1.0, 2))
    assert len(list(grid.points())) == 6
    with pytest.raises(ValueError):
        GridSpec.parse("0:1")
    with pytest.raises(ValueError):
        GridSpec.parse("1:0:3")
    with pytest.raises(ValueError):
        GridSpec.parse("0:1:0")
    # each axis is checked before the next is read, so the first fault wins
    with pytest.raises(ValueError, match="lo <= hi"):
        GridSpec.parse("1:0:3,0:1")
    with pytest.raises(ValueError, match="expected lo:hi:count"):
        GridSpec.parse("0:1,1:0:3")


@pytest.mark.parametrize("axis", ["nan:1:2", "-inf:1:2", "0:inf:2", "inf:inf:1", "nan:nan:1", "-1e308:1e308:3"])
def test_grid_refuses_a_non_finite_bound_or_span(axis, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["scan", "gallery:standard2n:2", f"--grid={axis},0:1:2", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert re.fullmatch(r"acscheck: error: grid axis bounds and their span must be finite, got \S+:\S+\n", err)
    assert not out.exists()


# Each count is refused before any memory is taken: 10**17 doubles are 711 PiB,
# past any 64-bit address space (MemoryError), 2**62 of them overflow numpy's
# byte count (ValueError) and 2**63 overflows its index (IndexError).
@pytest.mark.parametrize("count", [10**17, 2**62, 2**63])
def test_grid_too_large_to_allocate_is_one_line(count, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["scan", "gallery:pullback4", f"--grid=0:1:{count},0:0:1,0:0:1,0:0:1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr() == ("", f"acscheck: error: grid {count} x 1 x 1 x 1 is too large to allocate\n")
    assert not out.exists()


@pytest.mark.parametrize("axis", ["0:1:2.5", "0:1:x", "0:1:", "a:1:2", "0:1:2:3"])
def test_grid_axis_that_does_not_parse_names_the_form(axis, tmp_path, capsys):
    code = main(["scan", "gallery:standard2n:2", f"--grid={axis},0:1:2", "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"acscheck: error: bad grid axis {axis!r}, expected lo:hi:count\n"


def test_grid_row_major_order():
    grid = GridSpec.parse("0:1:2,0:2:3")
    pts = list(grid.points())
    assert len(pts) == 6
    assert pts[0] == (0.0, 0.0)
    assert pts[1] == (0.0, 1.0)  # last axis varies fastest
    assert pts[3] == (1.0, 0.0)


def test_grid_points_are_the_product_of_the_axes_as_floats():
    grid = GridSpec.parse("0:1:10,-1:1:10,-3:2.7:10,0.1:0.3:10")  # 10**4 points, many chunks
    axes = [np.linspace(lo, hi, count) for lo, hi, count in grid.axes]
    points = list(grid.points())
    assert all(type(v) is float for point in points for v in point)
    assert np.array(points).tobytes() == np.array(list(itertools.product(*axes))).tobytes()


def test_a_grid_of_more_than_64_axes_is_scanned(tmp_path, capsys):
    # numpy's unravel_index takes at most 64 dimensions; the points are split by divmod instead
    grid = GridSpec.parse(",".join(["0:1:3", "-1:1:2"] + ["0:0:1"] * 63 + ["0.5:2:2"]))
    axes = [np.linspace(lo, hi, count) for lo, hi, count in grid.axes]
    points = list(grid.points())
    assert len(grid.axes) == 66 and len(points) == 12
    assert all(type(v) is float for point in points for v in point)
    assert np.array(points).tobytes() == np.array(list(itertools.product(*axes))).tobytes()
    out = tmp_path / "s.csv"
    argv = ["scan", "gallery:standard2n:66", "--grid=" + ",".join(["0:0:1"] * 66), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("scan: 1 points, 0 flagged\n")
    assert out.read_text().splitlines()[1] == ",".join(["0"] * 66 + ["0"] * 4 + [VERDICT_CONSISTENT])


def test_grid_points_start_without_copying_an_axis():
    grid = GridSpec.parse("0:1:1000000,0:0:1,0:0:1,0:0:1")
    tracemalloc.start()
    try:
        first = next(grid.points())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (0.0, 0.0, 0.0, 0.0)
    assert peak <= 12e6  # the first axis alone is 8e6 bytes


def test_a_scan_formats_its_coordinates_a_chunk_at_a_time(tmp_path):
    # 200,000 values of x1: their texts would take about 15 MB at once, the
    # axis itself 1.6 MB; each chunk formats only the values it holds
    out = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        summary = run_scan(gallery("standard2n:2"), GridSpec.parse("0:1:200000,0:0:1"), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.rows == 200000 and summary.flagged == 0
    assert peak <= 4e6  # measured 1.7e6


def test_scan_constant_structure(tmp_path):
    sf = gallery("standard2n:2")
    out = tmp_path / "scan.csv"
    summary = run_scan(sf, GridSpec.parse("-1:1:3,-1:1:3"), out)
    assert summary.rows == 9
    assert summary.flagged == 0
    assert summary.max_abs_obstruction == 0.0
    with out.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == [
        "x1",
        "x2",
        "n_max_abs",
        "obstruction",
        "contraction",
        "identity_residual_contraction",
        "status",
    ]
    assert len(rows) == 10
    assert all(r[1:5] == ["-1", "0", "0", "0"] or True for r in rows[1:])
    # row-major coordinate layout
    assert [r[0] for r in rows[1:4]] == ["-1", "-1", "-1"]
    assert all(float(r[3]) == 0.0 for r in rows[1:])


def test_scan_argmax_reverifies(tmp_path):
    sf = gallery("pullback4")
    out = tmp_path / "scan.csv"
    grid = GridSpec.parse("-1:1:3,-1:1:2,-1:1:2,-1:1:2")
    summary = run_scan(sf, grid, out)
    assert summary.rows == len(list(grid.points()))
    rep = identity_report(sf.j_field, sf.metric, sf.chart, summary.argmax_point)
    assert abs(abs(rep["obstruction"]) - summary.max_abs_obstruction) <= 1e-12


def test_scan_flags_bad_points_and_continues(tmp_path):
    text = (
        "[chart]\ndim = 2\n[J]\n1 2 = -1\n2 1 = 1\n"
        "[metric]\n1 1 = x1^2\n"  # degenerate at x1 = 0
    )
    sf = parse_structure(text)
    out = tmp_path / "scan.csv"
    summary = run_scan(sf, GridSpec.parse("-1:1:3,0:1:2"), out)
    assert summary.rows == 6
    assert summary.flagged == 2  # the two x1 = 0 rows
    with out.open() as handle:
        rows = list(csv.reader(handle))
    flagged = [r for r in rows[1:] if r[-1].startswith("error:")]
    assert len(flagged) == 2
    assert all(r[2] == "nan" for r in flagged)


def test_scan_byte_deterministic(tmp_path):
    sf = gallery("expblock4")
    grid = GridSpec.parse("-1:1:2,0:0:1,0:0:1,0:0:1")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_scan(sf, grid, a)
    run_scan(sf, grid, b)
    assert a.read_bytes() == b.read_bytes()


def test_scan_axis_count_checked(tmp_path):
    sf = gallery("standard2n:2")
    with pytest.raises(ValueError):
        run_scan(sf, GridSpec.parse("0:1:2"), tmp_path / "x.csv")


def test_cli_check_consistent(capsys):
    code = main(["check", "gallery:standard2n:2", "--point", "0,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: consistent" in out
    assert "obstruction: 0" in out


def test_cli_check_invalid_acs(tmp_path, capsys):
    path = tmp_path / "identity.txt"
    path.write_text(IDENTITY_STRUCTURE, encoding="utf-8")
    code = main(["check", str(path), "--point", "0,0", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["verdict"] == "invalid-acs"
    assert payload["j_squared_residual"] == 2.0


def test_cli_check_ledger_anomaly_exit_code(tmp_path, capsys):
    path = tmp_path / "near.acs"
    path.write_text(NEAR_ACS4, encoding="utf-8")
    code = main(
        [
            "check",
            str(path),
            "--point",
            "0.3,0.7,0.1,0.9",
            "--tol-alg",
            "1",
            "--tol-identity",
            "1e-30",
        ]
    )
    capsys.readouterr()
    assert code == 3


# J^2 = -I fails by 0.085 at the point below: accepted only under a loose
# --tol-alg, and there the ledger total (0) differs from the contraction
NEAR_ACS4 = (
    "[chart]\ndim = 4\n[J]\n1 2 = -1-0.01*x3\n2 1 = 1\n"
    "3 4 = -exp(x1)\n4 3 = exp(-x1)\n1 3 = 0.1*x2*x4\n"
)
NEAR_ACS4_POINT = (0.3, 0.7, 0.1, 0.9)


def test_cli_check_real_ledger_anomaly(tmp_path, capsys):
    path = tmp_path / "near.acs"
    path.write_text(NEAR_ACS4, encoding="utf-8")
    code = main(["check", str(path), "--point", "0.3,0.7,0.1,0.9", "--tol-alg", "1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["verdict"] == "ledger-anomaly"
    assert payload["j_squared_residual"] == pytest.approx(0.0850, abs=1e-4)
    assert payload["contraction"] == pytest.approx(6.82e-3, abs=1e-5)
    assert payload["ledger"]["total"] == 0.0


def test_scan_real_ledger_anomaly_through_the_batch(tmp_path, monkeypatch):
    calls = []

    def spy(j_jm, g_jm, points, *tols):
        calls.append(np.array(points))
        return report_from_jets(j_jm, g_jm, points, *tols)

    monkeypatch.setattr(obstruction, "report_from_jets", spy)
    sf = parse_structure(NEAR_ACS4)
    out = tmp_path / "near.csv"
    grid = GridSpec.parse("0.3:0.3:1,0.7:0.7:1,0:0.1:2,0.8:0.9:2")
    summary = run_scan(sf, grid, out, tol_alg=1.0)
    # one report for the whole chunk, none point by point
    assert len(calls) == 1 and calls[0].tolist() == [list(p) for p in grid.points()]
    with out.open() as handle:
        rows = {tuple(map(float, r[:4])): r[4:] for r in list(csv.reader(handle))[1:]}
    assert summary.rows == len(rows) == 4 and summary.flagged == 0
    rep = report_from_jets(sf.j_field.eval(sf.chart, NEAR_ACS4_POINT), None, NEAR_ACS4_POINT, tol_alg=1.0)
    assert rep["verdict"] == rows[NEAR_ACS4_POINT][-1] == "ledger-anomaly"
    assert float(rows[NEAR_ACS4_POINT][2]) == rep["contraction"]


def test_cli_check_near_acs_is_invalid_at_the_default_tolerance(tmp_path, capsys):
    path = tmp_path / "near.acs"
    path.write_text(NEAR_ACS4, encoding="utf-8")
    code = main(["check", str(path), "--point", "0.3,0.7,0.1,0.9", "--json"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "invalid-acs"


# selftest --dims 2,4,6,8 --samples 30 --degree 3 --seed 6, dim 8, sample 8:
# max|J| is 2.38e4 and the frame's condition number 3.3e5
ILL_FIELD_SEED = 1467295807674471777
ILL_POINT = (
    0.80480963670686523, 0.036042293462262509, 0.47643494467726144, 0.85689565664129874,
    0.17347221800568668, 0.39013736506786012, 0.33555348186956413, 0.11906631159965186,
)


def test_j_squared_check_is_scaled_by_j_squared(tmp_path, capsys):
    # a conjugation has J^2 = -I exactly: max|J^2 + I| = 7.2e-8 is rounding,
    # at most 1.9e-16 of each entry's bound |J| |J|, where the unscaled check
    # called it invalid-acs
    field = random_conjugation_acs(8, 3, ILL_FIELD_SEED)
    j_jm = field.eval(ChartSpec.default(8), ILL_POINT)
    rep = report_from_jets(j_jm, None, ILL_POINT)
    assert rep["j_squared_residual"] == 7.217787962561394e-08
    a = np.abs(j_jm.values)
    assert np.max(np.abs(j_jm.values @ j_jm.values + np.eye(8)) / (a @ a)) < 1e-15
    # the ledger row at this frame is a separate rounding question
    assert rep["verdict"] == VERDICT_LEDGER_ANOMALY
    path = tmp_path / "ill.acs"
    path.write_text(serialize_structure(StructureFile(ChartSpec.default(8), field, None)), encoding="utf-8")
    point = ",".join(repr(v) for v in ILL_POINT)
    assert main(["check", str(path), "--point", point]) == 3
    assert "verdict: ledger-anomaly\n" in capsys.readouterr().out
    # selftest's acs row has the same scale: sample 8 of dim 8 passes it
    report = selftest.run_selftest((8,), 9, 3, 6)
    assert report.checks["acs validity (max |J^2+I| <= 1e-09)"] == [9, 9]
    assert [line.split(" at ")[0] for line in report.failures] == [
        "  failed: ledger total vs contraction (scaled <= 1e-09)"
    ]


def test_j_squared_check_scales_each_entry_by_its_own_bound(tmp_path, capsys):
    # J^2 = -2I exactly: each entry of J J is one product of O(1), so its
    # rounding is u, not u max|J|^2 = 1e10 u; a max-scaled check passed it
    path = tmp_path / "aniso.acs"
    path.write_text("[chart]\ndim = 2\n[J]\n1 2 = -1e5\n2 1 = 2e-5\n", encoding="utf-8")
    assert main(["check", str(path), "--point", "0.1,0.2", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "invalid-acs" and payload["j_squared_residual"] == 1.0
    # the check is entry by entry: 0.5 of this entry's bound |J| |J| = 2 fails
    # at the default tolerance and passes at 0.5
    j_jm = JetMatrix(np.array([[0.0, -1e5], [2e-5, 0.0]]), np.zeros((2, 2, 2)))
    assert not validate_acs(j_jm)[0] and validate_acs(j_jm, 0.5)[0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1e-9])
@pytest.mark.parametrize("name", ["tol_alg", "tol_identity"])
def test_library_refuses_a_bad_tolerance(name, bad, tmp_path):
    # at this point a NaN tol_identity once gave consistent, 1e-9 ledger-anomaly
    sf = parse_structure(NEAR_ACS4)
    tols = {"tol_alg": 1.0, "tol_identity": 1e-9, name: bad}
    message = rf"^{name} must be finite and non-negative, got {bad}$"
    with pytest.raises(ValueError, match=message):
        identity_report(sf.j_field, sf.metric, sf.chart, NEAR_ACS4_POINT, **tols)
    out = tmp_path / "near.csv"
    with pytest.raises(ValueError, match=message):
        run_scan(sf, GridSpec.parse("0.3:0.3:1,0.7:0.7:1,0:0.1:2,0.8:0.9:2"), out, **tols)
    assert not out.exists()


@pytest.mark.parametrize("text", ["0.1,,0.2,0.3,0.4", "0.1,0.2,0.3,0.4,", ",0.1,0.2,0.3,0.4", ""])
def test_point_refuses_an_empty_field(text, capsys):
    assert main(["check", "gallery:shear4", f"--point={text}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"acscheck check: error: argument --point: invalid point value: {text!r}\n"
    assert captured.out == ""


def test_cli_operational_errors(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.txt"), "--point", "0,0"]) == 1
    assert main(["check", "gallery:standard2n:2", "--point", "0,0,0"]) == 1
    assert main(["check", "gallery:standard2n:2"]) == 1  # missing --point
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_cli_json_deterministic(capsys):
    main(["check", "gallery:expblock4", "--point", "0,0,0,0", "--json"])
    first = capsys.readouterr().out
    main(["check", "gallery:expblock4", "--point", "0,0,0,0", "--json"])
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["n_max_abs"] == 1.0


def test_cli_verify_derivation_lists_terms(capsys):
    code = main(["verify-derivation", "gallery:expblock4", "--point", "1,0,0,0"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("I1", "II5", "III3", "IV4", "first_quadratic"):
        assert name in out
    assert "cancellation residuals:" in out


def test_cli_gallery_list_and_show(capsys):
    assert main(["gallery", "list"]) == 0
    listing = capsys.readouterr().out
    assert "expblock4" in listing and "pullback4" in listing
    assert main(["gallery", "show", "shear4"]) == 0
    shown = capsys.readouterr().out
    sf = parse_structure(shown)
    assert sf.chart.n == 4
    assert main(["gallery", "show", "nope"]) == 1
    assert main(["gallery", "show"]) == 1
    capsys.readouterr()


def test_cli_scan_summary(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan", "gallery:standard2n:2", "--grid", "0:1:2,0:1:2", "--out", str(out)]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "scan: 4 points, 0 flagged" in text
    assert out.exists()


def test_cli_scan_negative_grid_uses_equals_form(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(
        ["scan", "gallery:standard2n:2", "--grid=-1:1:2,-1:1:2", "--out", str(out)]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "scan: 4 points, 0 flagged" in text
    assert out.exists()


def test_cli_selftest_deterministic(capsys):
    args = ["selftest", "--dims", "2", "--samples", "3", "--degree", "1", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "overall: PASS" in first


@pytest.mark.parametrize(
    "flag,value", [(["--dims", "2,x"], "2,x"), (["--dims="], ""), (["--dims", "2,,4"], "2,,4"), (["--dims", "4.0"], "4.0")]
)
def test_selftest_bad_dims_is_one_line_naming_the_option(flag, value, capsys):
    assert main(["selftest", *flag, "--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"acscheck selftest: error: argument --dims: expected comma-separated integers, got {value!r}\n"
    )
    assert captured.out == ""


def test_selftest_dims_parse_to_a_tuple_and_default():
    parser = build_parser()
    assert parser.parse_args(["selftest", "--dims", "2, 4,6"]).dims == (2, 4, 6)
    assert parser.parse_args(["selftest"]).dims == (2, 4)


def test_selftest_odd_dims_is_still_the_chart_rule(capsys):
    assert main(["selftest", "--dims", "2,3", "--samples", "1"]) == 1
    assert capsys.readouterr().err == "acscheck: error: dimension must be even and positive\n"


def test_selftest_names_the_failing_sample(monkeypatch):
    # a zero tolerance fails every sample whose ledger residual is not 0
    monkeypatch.setattr(selftest, "TOL_LEDGER", 0.0)
    report = selftest.run_selftest((2, 4), 3, 1, 5)
    name = "ledger total vs contraction (scaled <= 1e-09)"
    passed, total = report.checks[name]
    lines = report.render_text().splitlines()
    failed = [line for line in lines if line.startswith("  failed: ")]
    assert passed < total and len(failed) == total - passed
    # right after the seven rows of the hard-invariant table
    assert lines.index(failed[0]) == lines.index("  pass/total  check") + 8
    pattern = (
        r"  failed: (.+) at dim=(\d+) sample=(\d+) field_seed=(\d+)"
        r" point=\((.+)\): (\S+) > 0e\+00 frame_cond=(\S+)"
    )
    for line in failed:
        check, dim, _, field_seed, point, value, cond = re.fullmatch(pattern, line).groups()
        assert check == name
        # the line replays: the field seed and point give the same residual
        # and the same condition number of the frame
        point = tuple(float(v) for v in point.split(", "))
        field = random_conjugation_acs(int(dim), 1, int(field_seed))
        j_jm = field.eval(ChartSpec.default(int(dim)), point)
        rep = report_from_jets(j_jm, None, point)
        scale = 1.0 + sum(abs(rep["ledger"][name]) for name in TERM_NAMES)
        assert format(abs(rep["ledger"]["total"] - rep["contraction"]) / scale, ".3e") == value
        assert format(j_jm.frame_cond, ".3e") == cond
    monkeypatch.undo()
    assert "failed:" not in selftest.run_selftest((2, 4), 3, 1, 5).render_text()


def test_selftest_seed_13_ledger_within_tolerance():
    # dim 6, sample 3 (field_seed=174700889916724084): the ledger total and
    # the contraction once differed by 1.084e-09 of the terms' magnitude,
    # when the two were summed in different orders
    assert selftest.run_selftest((6,), 4, 2, 13).all_passed()


def test_check_and_scan_share_tolerance_flags(tmp_path, monkeypatch, capsys):
    parser = build_parser()
    check = parser.parse_args(["check", "gallery:standard2n:2", "--point", "0,0"])
    scan = parser.parse_args(["scan", "gallery:standard2n:2", "--grid=0:1:2,0:1:2", "--out", "x"])
    assert (check.tol_alg, check.tol_identity) == (scan.tol_alg, scan.tol_identity) == (1e-9, 1e-9)
    seen = {}

    def run_scan_spy(*args, **kwargs):
        seen.update(kwargs)
        return run_scan(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scan", run_scan_spy)
    out = str(tmp_path / "scan.csv")
    args = ["scan", "gallery:standard2n:2", "--grid=0:1:2,0:1:2", "--out", out]
    assert main(args + ["--tol-identity", "1e-30", "--tol-alg", "1e-3"]) == 0
    assert seen == {"tol_alg": 1e-3, "tol_identity": 1e-30}
    capsys.readouterr()


def test_cli_version(capsys):
    assert main(["--version"]) == 0
    assert "acscheck" in capsys.readouterr().out


def test_gallery_show_roundtrips_through_cli(capsys, tmp_path):
    assert main(["gallery", "show", "pullback4"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "pb.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path), "--point", "0.2,0.1,0.4,0.3"]) == 0
    capsys.readouterr()


def test_serialize_structure_stable(capsys):
    sf = gallery("expblock4")
    assert serialize_structure(sf) == serialize_structure(gallery("expblock4"))


def test_batched_power_overflow_flags_each_row(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    grid = "--grid=1e200:1e200:1,0:1:2,0:0:1,0:0:1"  # both points in one batch
    assert main(["scan", "gallery:pullback4", grid, "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert printed.out.startswith("scan: 2 points, 2 flagged\n")
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["9.9999999999999997e+199", "0"], ["9.9999999999999997e+199", "1"]]
    assert all(r.endswith(",nan,nan,nan,nan,error: power overflow in 'x1^2.0'") for r in rows)


_SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e300, 1.7976931348623157e308,
     float("inf"), float("nan"), 0.1, 1.0 / 3.0, 20.0]
)


@given(
    n=st.sampled_from([2, 4, 6]),
    coords=st.lists(st.one_of(st.floats(allow_infinity=False, allow_nan=False), _SPECIAL_FLOATS.filter(math.isfinite)),
                    min_size=6, max_size=6),
    numbers=st.lists(st.one_of(st.floats(), _SPECIAL_FLOATS), min_size=4, max_size=4),
    verdict=st.sampled_from([VERDICT_CONSISTENT, VERDICT_LEDGER_ANOMALY, VERDICT_INVALID_ACS]),
)
def test_row_format_writes_the_csv_writer_bytes(n, coords, numbers, verdict):
    # a scan joins its header and rows itself: over one-point axes of any
    # finite value and a report of any floats, it writes csv.writer's bytes
    coords = coords[:n]
    report = {name: np.array([v]) for name, v in zip(scan.NUMERIC_COLUMNS, numbers)}
    report["verdict"] = np.array([verdict])
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(scan, "identity_report", lambda *args: report):
        out = Path(tmp) / "scan.csv"
        run_scan(gallery(f"standard2n:{n}"), GridSpec(tuple((v, v, 1) for v in coords)), out)
        written = out.read_bytes().decode("utf-8")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow([f"x{i + 1}" for i in range(n)] + list(scan.NUMERIC_COLUMNS) + ["status"])
    writer.writerow([format(v, ".17g") for v in coords + numbers] + [verdict])
    assert written == text.getvalue()


SWAP = "swap identity N(Je_i,Je_j) = -N(e_i,e_j) (scaled <= 1e-09)"


def test_selftest_swap_identity_scaled_by_j_squared(capsys):
    # dim 6, sample 355 (frame_cond 1.2e4): max|J| is 2.0e3 and max|N| 4.3e6;
    # against 1 + max|N| alone the swap residual read 1.923e-09, as the
    # identity's two J factors bring |J|^2 into its rounding
    args = ["selftest", "--dims", "6", "--samples", "1600", "--degree", "1", "--seed", "6"]
    assert main(args) == 0
    assert f"  1600/1600  {SWAP}\n" in capsys.readouterr().out


def test_selftest_swap_identity_fails_on_a_perturbed_n(monkeypatch):
    exact = nijenhuis.j_swap_residual
    rng = np.random.default_rng(3)

    def perturbed(comps, j_values):
        size = np.max(np.abs(comps), axis=(-3, -2, -1))[..., None, None, None]
        return exact(comps + 1e-3 * size * rng.uniform(-1.0, 1.0, comps.shape), j_values)

    monkeypatch.setattr(nijenhuis, "j_swap_residual", perturbed)
    report = selftest.run_selftest((4, 6), 5, 2, 42)
    assert report.checks[SWAP] == [0, 10]
    assert sum(SWAP in line for line in report.failures) == 10
