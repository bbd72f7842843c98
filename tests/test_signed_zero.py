"""Negative zeros become +0.0 in one place, `report_from_jets`.

On `standard2n:4` the bare kernels return -0.0 (the obstruction,
`first_quadratic` and several ledger terms), so every output here passes
through that one rule: no scalar of a report, and no field of the text or
CSV outputs, is a negative zero.
"""

import json
import math

import numpy as np

from acscheck import cli
from acscheck.obstruction import (
    CANCELLATION_LABELS, SCALARS, TERM_NAMES, identity_report, obstruction_scalar, term_ledger,
)
from acscheck.structures import gallery

SPEC = "gallery:standard2n:4"
POINTS = np.array([(0.0, 0.0, 0.0, 0.0), (0.3, -0.2, 0.5, 0.7), (-1.0, 1.0, -0.5, 0.25)])


def _positive(value) -> bool:
    return math.copysign(1.0, value) == 1.0


def test_bare_kernels_return_negative_zeros():
    sf = gallery("standard2n:4")
    jm = sf.j_field.eval(sf.chart, POINTS[0])
    ledger = term_ledger(jm)
    assert obstruction_scalar(jm) == 0 and not _positive(obstruction_scalar(jm))
    assert not _positive(ledger["first_quadratic"])
    assert any(not _positive(ledger[name]) for name in TERM_NAMES)


def test_check_json_has_no_negative_zero(capsys):
    for pt in POINTS:
        assert cli.main(["check", SPEC, "--point=" + ",".join(map(str, pt)), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        values = [doc[name] for name in SCALARS] + list(doc["ledger"].values())
        values += list(doc["cancellation_residuals"].values())
        assert len(values) == len(SCALARS) + len(TERM_NAMES) + 2 + len(CANCELLATION_LABELS)
        assert all(_positive(v) for v in values)


def test_batched_report_has_no_negative_zero():
    sf = gallery("standard2n:4")
    rep = identity_report(sf.j_field, sf.metric, sf.chart, POINTS)
    arrays = [rep[name] for name in SCALARS]
    arrays += [rep["ledger"][name] for name in (*TERM_NAMES, "first_quadratic", "total")]
    arrays += list(rep["cancellation_residuals"].values())
    assert not any(np.signbit(a).any() for a in arrays)


def _fields(text: str, sep=None) -> list:
    return [f.strip("(),") for line in text.splitlines() for f in line.split(sep)]


def test_text_and_csv_have_no_negative_zero(capsys, tmp_path):
    assert cli.main(["verify-derivation", SPEC, "--point=0.3,-0.2,0.5,0.7"]) == 0
    text = capsys.readouterr().out
    assert "ledger terms:" in text and "-0" not in _fields(text)
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", SPEC, "--grid=-1:1:3,-1:1:3,-1:1:2,0:1:2", "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8")
    assert len(rows.splitlines()) == 1 + 36 and "-0" not in _fields(rows, ",")
