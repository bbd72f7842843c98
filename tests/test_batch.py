"""The batched path against single points, and how failing points end.

A batch of points must give, at every point, the bits of that point's own
evaluation and report; a point the program cannot evaluate must end in a
flagged scan row or a one-line error, never a traceback or a NaN verdict.
"""

import csv
import json

import numpy as np
import pytest

import oracle
from acscheck import cli, nijenhuis, obstruction, selftest
from acscheck._pcg64 import Streams
from acscheck.cli import main
from acscheck.geometry import ChartSpec, random_conjugation_acs
from acscheck.obstruction import BATCH, TERM_NAMES, identity_report, report_from_jets
from acscheck.scan import GridSpec, run_scan
from acscheck.structures import StructureFile, gallery, parse_structure
from test_acceptance import PULLBACK4_COMPATIBLE

OVERFLOW2 = "[chart]\ndim = 2\n[J]\n1 2 = -exp(x1)\n2 1 = exp(-x1)\n"
POWER2 = "[chart]\ndim = 2\n[J]\n1 2 = -1 - x1^200\n2 1 = 1/(1 + x1^200)\n"
VARIABLE_POWER = "x1^(x2*x2)"  # the exponent's gradient vanishes at x2 = 0, its Hessian does not
VARIABLE_POWER2 = f"[chart]\ndim = 2\n[J]\n1 2 = -1 - {VARIABLE_POWER}\n2 1 = 1/(1 + {VARIABLE_POWER})\n"
VARIABLE_POWER2_PULLBACK = f"[chart]\ndim = 2\n[J]\nkind = pullback\n1 = x1 + {VARIABLE_POWER}\n"
SCAN_FIELDS = ("n_max_abs", "obstruction", "contraction", "identity_residual_contraction", "verdict")
REPORT_FIELDS = (
    "j_squared_residual",
    "n_max_abs",
    "obstruction",
    "contraction",
    "double_trace",
    "identity_residual_trace",
    "identity_residual_contraction",
    "verdict",
)


def _structures():
    yield "expblock4", gallery("expblock4")
    yield "shear4", gallery("shear4")
    yield "pullback4", gallery("pullback4")
    yield "pullback4-compatible", parse_structure(PULLBACK4_COMPATIBLE)
    chart = ChartSpec.default(6)
    yield "random6", StructureFile(chart, random_conjugation_acs(6, 2, 11), None)


@pytest.mark.parametrize("name,sf", list(_structures()))
def test_batch_rows_equal_single_points_bit_for_bit(rng, name, sf):
    points = rng.uniform(-0.5, 0.5, (40, sf.chart.n))
    j_batch = sf.j_field.eval(sf.chart, points)
    g_batch = sf.metric.eval(sf.chart, points) if sf.metric is not None else None
    batch = report_from_jets(j_batch, g_batch, points)
    for k, point in enumerate(points):
        j_one = sf.j_field.eval(sf.chart, point)
        assert np.array_equal(j_batch.values[k], j_one.values)
        assert np.array_equal(j_batch.partials[k], j_one.partials)
        if g_batch is not None:
            g_one = sf.metric.eval(sf.chart, point)
            assert np.array_equal(g_batch.values[k], g_one.values)
            assert np.array_equal(g_batch.partials[k], g_one.partials)
        report = identity_report(sf.j_field, sf.metric, sf.chart, point)
        assert batch["point"][k].tolist() == list(report["point"])
        for field in REPORT_FIELDS:
            assert batch[field][k] == report[field], (name, k, field)
        for term in TERM_NAMES:
            assert batch["ledger"][term][k] == report["ledger"][term], (name, k, term)
        assert batch["ledger"]["first_quadratic"][k] == report["ledger"]["first_quadratic"], (name, k)
        assert batch["ledger"]["total"][k] == report["ledger"]["total"], (name, k)
        assert list(batch["cancellation_residuals"]) == list(report["cancellation_residuals"])
        for label, value in report["cancellation_residuals"].items():
            assert batch["cancellation_residuals"][label][k] == value, (name, k, label)


def _scan(tmp_path, sf, grid):
    out = tmp_path / "scan.csv"
    summary = run_scan(sf, GridSpec.parse(grid), out)
    with out.open() as handle:
        return summary, list(csv.reader(handle))[1:]


@pytest.mark.parametrize(
    "text,grid,bad,keys,reported",
    [
        # x1 = 0 makes the conjugation frame singular; J reads x1 alone
        ("[chart]\ndim = 2\n[J]\nkind = conjugation\n1 1 = x1\n", "-1:1:5,0:1:3", 0.0, 5, [1] * 4),
        ("[chart]\ndim = 2\n[J]\nkind = conjugation\n1 1 = x1\n", "-1:1:5,0:0:1", 0.0, 5, [1] * 4),
        (OVERFLOW2, "0:800:2,0:1:3", 800.0, 2, [1]),  # exp(800) overflows
        (POWER2, "-1:2:4,0:0:1", None, 4, [4]),  # no failing point
        # the exponent x2*x2 reads a variable: exp(x2*x2 * log(x1)) at every
        # point, also at x2 = 0 where its gradient vanishes; there x1^0 has
        # the same jets at every x1, but J reads x1 and x2, so the chunk
        # reports each of its 9 points
        (VARIABLE_POWER2, "0.5:2:3,-1:1:3", None, 9, [9]),
    ],
    ids=["singular-frame", "one-failing-point", "exp-overflow", "no-failure", "mixed-exponent"],
)
def test_failing_point_flags_only_its_row(tmp_path, monkeypatch, text, grid, bad, keys, reported):
    sf = parse_structure(text)
    evals, reports = [], []
    field_eval = type(sf.j_field).eval

    def eval_spy(field, chart, points, *args, **kwargs):
        evals.append(len(points))
        return field_eval(field, chart, points, *args, **kwargs)

    def report_spy(j_jm, g_jm, points, *args, **kwargs):
        reports.append(len(points))
        return report_from_jets(j_jm, g_jm, points, *args, **kwargs)

    monkeypatch.setattr(type(sf.j_field), "eval", eval_spy)
    monkeypatch.setattr(obstruction, "report_from_jets", report_spy)
    summary, rows = _scan(tmp_path, sf, grid)
    k = len(list(GridSpec.parse(grid).points()))
    assert summary.rows == len(rows) == k < BATCH
    # one evaluation and one report of a point of each distinct key (the
    # coordinates J reads) or, if the evaluation raises, one evaluation of
    # each of those points alone, and a report of each that passes
    assert evals == ([keys] if bad is None else [keys] + [1] * keys)
    assert reports == reported
    for row, point in zip(rows, GridSpec.parse(grid).points()):
        if point[0] == bad:
            with pytest.raises(ValueError) as err:
                identity_report(sf.j_field, sf.metric, sf.chart, point)
            assert row[2:] == ["nan"] * 4 + [f"error: {err.value}"]
            continue
        report = identity_report(sf.j_field, sf.metric, sf.chart, point)
        assert row[-1] == report["verdict"]
        assert [float(v) for v in row[2:-1]] == [report[f] for f in SCAN_FIELDS[:-1]]
    assert summary.flagged == sum(1 for row in rows if row[-1].startswith("error: "))


def test_scan_flags_non_finite_row(tmp_path):
    sf = parse_structure(OVERFLOW2)
    summary, rows = _scan(tmp_path, sf, "400:400:1,0:0:1")
    assert len(rows) == 1 and rows[0][-1].startswith("error: non-finite")
    assert summary.flagged == 1
    assert summary.max_abs_obstruction is None


def test_scan_chunks_cover_the_grid(tmp_path):
    sf = gallery("shear4")
    grid = "-1:1:3,-1:1:3,-1:1:5,-1:1:4"  # 180 points: two chunks
    summary, rows = _scan(tmp_path, sf, grid)
    assert summary.rows == len(rows) == 180 > BATCH
    for row, point in zip(rows, GridSpec.parse(grid).points()):
        assert [float(v) for v in row[:4]] == list(point)
        report = identity_report(sf.j_field, sf.metric, sf.chart, point)
        assert float(row[5]) == report["obstruction"]


def test_out_of_memory_retries_the_chunk_and_flags_its_point(tmp_path, monkeypatch, capsys):
    sf = parse_structure(OVERFLOW2)  # an explicit J, as standard2n's, that reads x1: a key per point
    field_eval = type(sf.j_field).eval

    def eval_spy(field, chart, point, *args, **kwargs):
        if len(np.reshape(point, (-1, 2))) > 1:  # a scan chunk
            raise MemoryError("Unable to allocate 1.00 PiB")
        return field_eval(field, chart, point, *args, **kwargs)

    # numpy's MemoryError names the allocation, Python's own has no text
    def report_spy(j_jm, g_jm, point, *args, **kwargs):
        x1 = np.reshape(point, (-1, 2))[0, 0]  # a point of the retried chunk, or of a check
        if x1 == 0.0:
            raise MemoryError("Unable to allocate 1.00 PiB")
        if x1 == 1.0:
            raise MemoryError
        return report_from_jets(j_jm, g_jm, point, *args, **kwargs)

    monkeypatch.setattr(type(sf.j_field), "eval", eval_spy)
    monkeypatch.setattr(obstruction, "report_from_jets", report_spy)
    summary, rows = _scan(tmp_path, sf, "-1:1:3,0:0:1")
    assert (summary.rows, summary.flagged) == (3, 2)
    statuses = ["consistent", "error: out of memory: Unable to allocate 1.00 PiB", "error: out of memory"]
    assert [row[-1] for row in rows] == statuses
    for x1, err in (("0", ": Unable to allocate 1.00 PiB"), ("1", "")):
        assert main(["check", "gallery:standard2n:2", f"--point={x1},0"]) == 1
        assert capsys.readouterr() == ("", f"acscheck: error: out of memory{err}\n")


def _one_line_error(tmp_path, capsys, args, text=OVERFLOW2):
    path = tmp_path / "s.acs"
    path.write_text(text, encoding="utf-8")
    code = main([a.replace("FILE", str(path)) for a in args])
    captured = capsys.readouterr()
    assert code == 1
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    return captured.err


NON_FINITE = {  # structure -> the refusal of its field at x1 = 0.5
    "[chart]\ndim = 2\n[J]\n1 2 = -1e300*x1*1e300\n": "field evaluation produced non-finite entries",
    "[chart]\ndim = 2\n[J]\nkind = conjugation\n1 1 = 1e300*x1*1e300\n": "frame evaluation produced non-finite entries",
    "[chart]\ndim = 2\n[J]\nkind = pullback\n1 = 1e300*x1*x1*1e300\n": "map Jacobian has non-finite entries",
}


@pytest.mark.parametrize("text", [VARIABLE_POWER2, VARIABLE_POWER2_PULLBACK], ids=["explicit", "pullback"])
def test_variable_exponent_on_a_negative_base_is_refused_at_both_orders(tmp_path, capsys, text):
    # an explicit entry needs order-1 jets, a pullback component order 2
    err = _one_line_error(tmp_path, capsys, ["check", "FILE", "--point=-0.5,0"], text)
    assert err == f"acscheck: error: variable exponent requires positive base in {VARIABLE_POWER!r}\n"


@pytest.mark.parametrize(
    "text,grid",
    [(VARIABLE_POWER2, "-1:1:5,-1:1:5"), *((text, "-0.5:0.5:3,0:0:1") for text in NON_FINITE)],
    ids=["square-exponent", "non-finite-explicit", "non-finite-conjugation", "non-finite-pullback"],
)
def test_each_scan_row_is_its_own_check(tmp_path, capsys, text, grid):
    path, out = tmp_path / "s.acs", tmp_path / "scan.csv"
    path.write_text(text, encoding="utf-8")
    assert main(["scan", str(path), f"--grid={grid}", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = list(csv.reader(out.open()))[1:]
    assert len(rows) == len(list(GridSpec.parse(grid).points()))
    for row in rows:
        code = main(["check", str(path), f"--point={row[0]},{row[1]}", "--json"])
        captured = capsys.readouterr()
        if row[-1].startswith("error: "):
            assert code == 1 and captured.err == f"acscheck: {row[-1]}\n"
            continue
        report = json.loads(captured.out)
        assert row[-1] == report["verdict"]
        assert [float(v) for v in row[2:-1]] == [report[f] for f in SCAN_FIELDS[:-1]]
    flagged = [float(row[0]) for row in rows if row[-1].startswith("error: ")]
    if text == VARIABLE_POWER2:  # refused exactly where the base x1 is not positive
        assert flagged == [x1 for x1, _ in GridSpec.parse(grid).points() if x1 <= 0.0]
        assert all(row[-1] == f"error: variable exponent requires positive base in {VARIABLE_POWER!r}"
                   for row in rows if float(row[0]) <= 0.0)
    else:  # 1e300 * 1e300 overflows at every point; x1 = 0 is a singular frame, if any
        assert rows[-1][-1] == f"error: {NON_FINITE[text]}"


@pytest.mark.parametrize("text", NON_FINITE, ids=["explicit", "conjugation", "pullback"])
def test_non_finite_field_is_one_line(tmp_path, capsys, text):
    err = _one_line_error(tmp_path, capsys, ["check", "FILE", "--point", "0.5,0"], text)
    assert err == f"acscheck: error: {NON_FINITE[text]}\n"


def test_check_overflow_is_one_line(tmp_path, capsys):
    err = _one_line_error(tmp_path, capsys, ["check", "FILE", "--point", "800,0"])
    assert "exp overflow" in err
    err = _one_line_error(tmp_path, capsys, ["check", "FILE", "--point", "100,0"], POWER2)
    assert "power overflow" in err


def test_reciprocal_of_a_tiny_coordinate(tmp_path, capsys):
    # 1/x1 at 1e-110: its second derivative 2/x1^3 overflows, which only an
    # order-2 (pullback) evaluation needs
    path = tmp_path / "s.acs"
    path.write_text("[chart]\ndim = 2\n[J]\n1 2 = -x1/x1\n2 1 = 1\n", encoding="utf-8")
    assert main(["check", str(path), "--point", "1e-110,0", "--json"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "consistent" and captured.err == ""
    pullback = "[chart]\ndim = 2\n[J]\nkind = pullback\n1 = x1 + 1/x1\n"
    err = _one_line_error(tmp_path, capsys, ["check", "FILE", "--point", "1e-110,0"], pullback)
    assert "reciprocal overflow in '1.0/x1'" in err


def test_check_non_finite_report_is_an_error(tmp_path, capsys):
    err = _one_line_error(tmp_path, capsys, ["check", "FILE", "--point", "400,0", "--json"])
    assert "non-finite" in err


def test_scan_overflow_is_flagged_and_csv_complete(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    path = tmp_path / "s.acs"
    path.write_text(OVERFLOW2, encoding="utf-8")
    code = main(["scan", str(path), "--grid=0:800:2,0:0:1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "scan: 2 points, 1 flagged" in captured.out
    rows = out.read_text(encoding="utf-8").splitlines()
    assert rows[1].endswith("consistent")
    assert len(rows) == 3 and rows[2].endswith("error: exp overflow in 'exp(x1)'")


@pytest.mark.parametrize("point,bad", [("nan,0", "coordinate 1"), ("0,inf", "coordinate 2")])
def test_point_must_be_finite(tmp_path, capsys, point, bad):
    err = _one_line_error(tmp_path, capsys, ["check", "FILE", "--point", point])
    assert bad in err and "not finite" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
@pytest.mark.parametrize("flag", ["--tol-alg", "--tol-identity"])
@pytest.mark.parametrize("command", ["check", "scan"])
def test_tolerance_must_be_finite_and_non_negative(tmp_path, capsys, command, flag, value):
    out = tmp_path / "scan.csv"
    where = {"check": ["--point", "0.3,0.1,0,0"], "scan": ["--grid=0:1:2,0:0:1,0:0:1,0:0:1", "--out", str(out)]}
    code = main([command, "gallery:expblock4", *where[command], f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and not out.exists()
    reason = f"must be finite and non-negative, got {float(value)}"
    assert captured.err == f"acscheck {command}: error: argument {flag}: {reason}\n"


def test_selftest_needs_samples(tmp_path, capsys):
    err = _one_line_error(tmp_path, capsys, ["selftest", "--dims", "2", "--samples", "0"])
    assert "--samples" in err


def test_run_selftest_refuses_no_samples_and_a_metric_it_cannot_draw():
    with pytest.raises(ValueError, match="^samples must be at least 1$"):
        selftest.run_selftest((2,), 0, 0, 0)
    with pytest.raises(ValueError, match="^dims must name at least one dimension$"):
        selftest.run_selftest((), 1, 0, 0)
    # at dimension 18, sample 1's metric draw is not positive definite at its
    # point: it is kept with its constant term shifted by (1 - lambda_min) I,
    # which the per-sample reference draws with the same bits
    report = selftest.run_selftest((18,), 2, 0, 0)
    assert report.all_passed() and report.failures == []
    streams = Streams([[0, 18, 0], [0, 18, 1]])
    streams.integers63()
    points = streams.uniform(0.0, 1.0, (18,))
    g = selftest._spd_metrics(streams, points)
    rng, chart = np.random.default_rng([0, 18, 1]), ChartSpec.default(18)
    rng.integers(0, 2**63 - 1)
    point = rng.uniform(0.0, 1.0, 18)
    ref = oracle.random_spd_metric_ast(rng, chart, point).eval(chart, point)
    assert point.tobytes() == points[1].tobytes()
    assert g.values[1].tobytes() == ref.values.tobytes() and g.partials[1].tobytes() == ref.partials.tobytes()
    assert abs(np.linalg.eigvalsh(g.values[1])[0] - 1.0) < 1e-14


def test_selftest_refuses_a_negative_seed(capsys):
    code = main(["selftest", "--dims", "2", "--samples", "1", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "acscheck selftest: error: argument --seed: must be non-negative, got -1\n"


def test_selftest_refuses_a_negative_degree(capsys):
    code = main(["selftest", "--dims", "2", "--samples", "1", "--degree", "-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "acscheck selftest: error: argument --degree: must be non-negative, got -1\n"


def test_selftest_refuses_residuals_it_cannot_count_at_once(capsys):
    # 2**62 doubles are 32 EiB: array repetition refuses the size before it
    # allocates, so this runs in process
    code = main(["selftest", "--dims", "2", "--samples", str(2**62)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"acscheck: error: residuals of 1 x {2**62} samples are too large to allocate\n"


@pytest.mark.parametrize(
    "args,where",
    [
        (["selftest", "--dims", "2,3", "--samples", "1"], ""),
        (["check", "gallery:standard2n:3", "--point", "0,0,0"], ""),
        (["check", "FILE", "--point", "0,0,0"], "line 2: "),
    ],
)
def test_refused_dimension_says_the_chart_rule(tmp_path, capsys, args, where):
    err = _one_line_error(tmp_path, capsys, args, "[chart]\ndim = 3\n[J]\n")
    assert err == f"acscheck: error: {where}dimension must be even and positive\n"


def test_selftest_forms_no_big_n(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("big_n was formed")

    monkeypatch.setattr(nijenhuis, "big_n", refuse)
    report = selftest.run_selftest((2, 4), 6, 0, 5)  # degree 0: N = 0, zero propagation applies
    assert report.checks[selftest._CHECK_NAMES[5]] == [12, 12]
