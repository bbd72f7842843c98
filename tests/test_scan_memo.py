"""A scan evaluates each distinct point once: rows are reused by the
coordinates the fields read.

A point's row is a function of the coordinates that its fields read (their
`reads`, see `tests/test_field_reads.py`), so `run_scan` keys rows by the
bytes of those coordinates before it evaluates anything, and evaluates and
reports only the points whose key neither an earlier point of their chunk
nor the chunk before had.  Every row must still carry the bits of that
point's own report, and a failing point must still flag only its own row.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from acscheck import obstruction
from acscheck.cli import main
from acscheck.obstruction import BATCH, identity_report, report_from_jets
from acscheck.scan import NUMERIC_COLUMNS, GridSpec, run_scan
from acscheck.structures import gallery, parse_structure
from test_acceptance import PULLBACK4_COMPATIBLE

SINGULAR_AT_X1_0 = "[chart]\ndim = 2\n[J]\nkind = conjugation\n1 1 = x1\n"
OVERFLOW2 = Path(__file__).resolve().parent.parent / "bench" / "structures" / "overflow2.acs"
READS_X2 = "[chart]\ndim = 2\n[J]\nkind = conjugation\n1 2 = x2\n"  # J reads x2 alone


@pytest.fixture
def reported(monkeypatch):
    """The number of points of each report a scan builds."""
    sizes = []

    def spy(j_jm, g_jm, points, *args, **kwargs):
        sizes.append(len(points))
        return report_from_jets(j_jm, g_jm, points, *args, **kwargs)

    monkeypatch.setattr(obstruction, "report_from_jets", spy)
    return sizes


def _scan(tmp_path, sf, grid):
    out = tmp_path / "scan.csv"
    summary = run_scan(sf, GridSpec.parse(grid), out)
    with out.open() as handle:
        return summary, list(csv.reader(handle))[1:]


def test_a_slab_reports_its_distinct_jets_once(tmp_path, reported):
    # pullback4 reads x1 and x3: a slab at one x1 has 10 distinct jets in
    # 1,000 points, all of them in the first of its 8 chunks
    summary, rows = _scan(tmp_path, gallery("pullback4"), "0.3:0.3:1,-1:1:10,-1:1:10,-1:1:10")
    assert summary.rows == len(rows) == 1000 and summary.flagged == 0
    assert reported == [10]
    # three equal values of x1 are one key, met once with each value of x3
    reported.clear()
    summary, rows = _scan(tmp_path, gallery("pullback4"), "0.5:0.5:3,-1:1:4,-1:1:5,0:1:2")
    assert summary.rows == len(rows) == 120 and reported == [5]
    assert {row[0] for row in rows} == {"0.5"}


def test_a_constant_structure_is_evaluated_once_a_scan(tmp_path, monkeypatch, reported):
    # standard2n:8 reads no coordinate: every point has the same key, so the
    # first chunk evaluates one point and each later chunk takes its row
    sf = gallery("standard2n:8")
    evals = []
    field_eval = type(sf.j_field).eval

    def spy(field, chart, points):
        evals.append(len(points))
        return field_eval(field, chart, points)

    monkeypatch.setattr(type(sf.j_field), "eval", spy)
    grid = "-1:1:4,-1:1:4,-1:1:4,-1:1:4,0:1:2," + ",".join(["0:0:1"] * 3)  # 512 points, 4 chunks
    summary, rows = _scan(tmp_path, sf, grid)
    assert summary.rows == len(rows) == 512 == 4 * BATCH and summary.flagged == 0
    assert evals == [1] and reported == [1]
    report = identity_report(sf.j_field, sf.metric, sf.chart, (0.0,) * 8)
    expected = [format(report[c], ".17g") for c in NUMERIC_COLUMNS] + [report["verdict"]]
    for row, point in zip(rows, GridSpec.parse(grid).points()):
        assert row == [format(v, ".17g") for v in point] + expected


def test_the_memo_holds_the_last_chunk_alone(tmp_path, reported):
    # 3 x 192 points of 192 distinct jets, chunks of 128: the jets of x2
    # indices 64..127 come back in the third chunk after missing the second,
    # and are reported again
    summary, rows = _scan(tmp_path, parse_structure(READS_X2), "0:1:3,0:1:192")
    assert summary.rows == len(rows) == 576 and BATCH == 128
    assert reported == [128, 64, 64, 64, 64]


def _grids():
    yield "expblock4", gallery("expblock4"), "-1:1:3,-1:1:4,-1:1:4,-1:1:12"  # reads x1
    yield "shear4", gallery("shear4"), "-1:1:5,-1:1:2,0:1:3,-1:1:10"  # reads x1
    yield "pullback4", gallery("pullback4"), "-1:1:4,-1:1:3,-1:1:6,-1:1:5"  # reads x1 and x3
    yield "pullback4-compatible", parse_structure(PULLBACK4_COMPATIBLE), "-1:1:3,0:1:2,-1:1:5,0:1:4"
    # 150 distinct jets, more than a chunk holds, each at two points
    yield "pullback4-many", gallery("pullback4"), "-1:1:3,-1:1:2,-1:1:50,0:0:1"
    # equal values, steps of 0.3/6 that are not exact, and -0.0 bounds on a read and an unread axis
    yield "pullback4-values", gallery("pullback4"), "0.5:0.5:3,0.1:0.3:7,-0.0:0:2,-0.0:1:3"


@pytest.mark.parametrize("name,sf,grid", list(_grids()), ids=[name for name, _, _ in _grids()])
def test_every_field_has_its_points_own_bits(tmp_path, name, sf, grid):
    summary, rows = _scan(tmp_path, sf, grid)
    points = list(GridSpec.parse(grid).points())
    assert len(rows) == len(points) and summary.flagged == 0
    obstructions = []
    for row, point in zip(rows, points):
        report = identity_report(sf.j_field, sf.metric, sf.chart, point)
        expected = [format(v, ".17g") for v in point + tuple(report[c] for c in NUMERIC_COLUMNS)]
        assert row == expected + [report["verdict"]], (name, point)
        obstructions.append(abs(report["obstruction"]))
    # the largest |obstruction| is met more than once: the first point wins
    best = max(obstructions)
    assert obstructions.count(best) > 1
    assert summary.max_abs_obstruction == best
    assert summary.argmax_point == points[obstructions.index(best)]


def test_a_failing_point_repeated_across_chunks_flags_its_own_rows(tmp_path):
    sf = parse_structure(SINGULAR_AT_X1_0)
    grid = "-1:1:3,0:1:100"  # the 100 points at x1 = 0 span the first two chunks
    summary, rows = _scan(tmp_path, sf, grid)
    assert summary.rows == len(rows) == 300 and summary.flagged == 100
    for row, point in zip(rows, GridSpec.parse(grid).points()):
        if point[0] == 0.0:
            with pytest.raises(ValueError) as err:
                identity_report(sf.j_field, sf.metric, sf.chart, point)
            assert row[2:] == ["nan"] * 4 + [f"error: {err.value}"]
        else:
            report = identity_report(sf.j_field, sf.metric, sf.chart, point)
            assert row[2:] == [format(report[c], ".17g") for c in NUMERIC_COLUMNS] + [report["verdict"]]


def test_jets_that_differ_only_in_the_sign_of_a_zero_are_reported_apart(tmp_path, reported):
    # with c = (x1 x2)^2, J = [[c, -1 - c^2], [1, -c]] has at (0, -1) and
    # (0, 1) partials that compare equal as floats, but one is -0.0 at the
    # first point and +0.0 at the second
    text = "[chart]\ndim = 2\n[J]\n1 1 = (x1*x2)^2\n1 2 = -1 - (x1*x2)^4\n2 1 = 1\n2 2 = -(x1*x2)^2\n"
    sf = parse_structure(text)
    j_jm = sf.j_field.eval(sf.chart, np.array([[0.0, -1.0], [0.0, 1.0]]))
    assert np.array_equal(j_jm.values[0], j_jm.values[1]) and np.array_equal(j_jm.partials[0], j_jm.partials[1])
    assert j_jm.partials[0].tobytes() != j_jm.partials[1].tobytes()
    summary, rows = _scan(tmp_path, sf, "0:0:1,-1:1:2")
    assert reported == [2] and summary.rows == 2 and summary.flagged == 0


def test_a_failing_chunks_points_take_the_rows_of_the_chunk_before(tmp_path, monkeypatch):
    # J reads x1 alone and is singular at x1 = 0; chunks of 128 points.  The
    # chunk of points 896..1023 holds 104 points at x1 = -1 and 24 at 0; the
    # chunk of points 1920..2047 holds 80 at 0 and 48 at 1
    reports = []

    def spy(j_jm, g_jm, points, *args, **kwargs):
        reports.append((len(points), points[0][0]))
        return report_from_jets(j_jm, g_jm, points, *args, **kwargs)

    monkeypatch.setattr(obstruction, "report_from_jets", spy)
    summary, rows = _scan(tmp_path, parse_structure(SINGULAR_AT_X1_0), "-1:1:3,0:1:1000")
    assert summary.rows == len(rows) == 3000 and summary.flagged == 1000
    # x1 = -1 is reported once, in the first chunk.  x1 = 0 is the one new
    # key of the chunk of points 896..1023 and fails there once, while its
    # other points take the row of the chunk before; the chunks after it take
    # its error row.  x1 = 1 is reported once, in the chunk of points
    # 1920..2047
    assert reports == [(1, -1.0), (1, 1.0)]


def test_every_failing_row_carries_the_text_check_prints(tmp_path, capsys):
    # every report of exp(x1) past x1 = 709 is non-finite, and no two points
    # share their jets: two chunks, each retried point by point
    sf = parse_structure(OVERFLOW2.read_text(encoding="utf-8"))
    grid = "600:800:64,0:1:4"
    summary, rows = _scan(tmp_path, sf, grid)
    assert summary.rows == len(rows) == summary.flagged == 256 > BATCH
    assert summary.max_abs_obstruction is None
    for row, point in zip(rows, GridSpec.parse(grid).points()):
        assert main(["check", str(OVERFLOW2), "--point=" + ",".join(map(repr, point))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("acscheck: error: ") and err.endswith("\n")
        assert row[2:] == ["nan"] * 4 + ["error: " + err.removeprefix("acscheck: error: ")[:-1]]


def test_a_negative_zero_lower_bound_is_kept(tmp_path, capsys, reported):
    # linspace computes an axis's first value as lo + 0 * step, which is
    # +0.0 for lo = -0.0
    grid = "-0.0:0:2,0:0:1"
    points = list(GridSpec.parse(grid).points())
    assert points == [(0.0, 0.0), (0.0, 0.0)] and math.copysign(1.0, points[0][0]) == -1.0
    path = tmp_path / "s.acs"
    path.write_text("[chart]\ndim = 2\n[J]\nkind = conjugation\n1 2 = x1\n", encoding="utf-8")
    out = tmp_path / "scan.csv"
    assert main(["scan", str(path), f"--grid={grid}", "--out", str(out)]) == 0
    assert reported == [2]  # x1 is read: -0.0 and 0.0 are two keys
    with out.open() as handle:
        rows = list(csv.reader(handle))[1:]
    assert ",".join(rows[0]).startswith("-0,0,") and ",".join(rows[1]).startswith("0,0,")
    capsys.readouterr()
    for row, point in zip(rows, points):
        assert main(["check", str(path), "--point=" + ",".join(map(repr, point)), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        expected = [format(v, ".17g") for v in report["point"] + [report[c] for c in NUMERIC_COLUMNS]]
        assert row == expected + [report["verdict"]]
