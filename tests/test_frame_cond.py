"""The frame condition number kappa_1 = ||F||_1 ||F^-1||_1 and the refusal of
singular frames.

`frame_cond` comes from the inverse the field already takes, so no command
runs an SVD; a frame is refused unless kappa_1 <= 1e12, and an exactly
singular one reads `cond=inf`.
"""

import numpy as np
import pytest

from acscheck import expr, geometry
from acscheck.cli import main
from acscheck.geometry import ChartSpec, SingularFrameError, random_conjugation_acs
from acscheck.structures import gallery, parse_structure
from test_acceptance import PULLBACK4_COMPATIBLE

SINGULAR = {
    "conjugation": "[chart]\ndim = 2\n[J]\nkind = conjugation\n1 1 = x1\n",
    "pullback": "[chart]\ndim = 2\n[J]\nkind = pullback\n1 = x1^2\n",
}
# the frame [[1, 1], [1, 1 + t]] with t = x1: kappa_1 = (2 + t)^2 / t
NEAR_SINGULAR = "[chart]\ndim = 2\n[J]\nkind = conjugation\n1 2 = 1\n2 1 = 1\n2 2 = 1 + x1\n"


def _frames(field, chart, points):
    """The matrix each field inverts: the conjugation frame or the map's Jacobian."""
    if isinstance(field, geometry.ConjugationField):
        return expr.eval_table(field.frame, chart, points)[0]
    _, p, _ = expr.eval_table([[c] for c in field.components], chart, points)
    return np.swapaxes(p[..., 0], -1, -2)


@pytest.mark.parametrize(
    "field",
    [
        random_conjugation_acs(4, 2, 3),
        gallery("shear4").j_field,
        gallery("pullback4").j_field,
        parse_structure(PULLBACK4_COMPATIBLE).j_field,
    ],
    ids=["random-conjugation", "shear4", "pullback4", "pullback4-compatible"],
)
def test_frame_cond_is_kappa_1_and_batch_rows_are_single_points(rng, field):
    chart, points = ChartSpec.default(4), rng.uniform(-0.8, 0.8, (5, 4))
    batch = field.eval(chart, points)
    for k, point in enumerate(points):
        f = _frames(field, chart, point)
        kappa = np.linalg.norm(f, 1) * np.linalg.norm(np.linalg.inv(f), 1)
        one = field.eval(chart, point)
        assert one.frame_cond == kappa
        assert batch.frame_cond[k] == one.frame_cond
        assert np.array_equal(batch.values[k], one.values)
        assert np.array_equal(batch.partials[k], one.partials)


@pytest.mark.parametrize("kind", SINGULAR)
def test_exactly_singular_frame_reads_cond_inf(tmp_path, capsys, kind):
    path = tmp_path / "s.acs"
    path.write_text(SINGULAR[kind], encoding="utf-8")
    code = main(["check", str(path), "--point", "0,0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.endswith("(cond=inf)\n")

    out = tmp_path / "scan.csv"
    assert main(["scan", str(path), "--grid=-1:1:3,0:0:1", "--out", str(out)]) == 0
    status = [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]]
    assert status[0] == status[2] == "consistent"
    assert status[1].startswith("error: ") and status[1].endswith("(cond=inf)")
    assert "3 points, 1 flagged" in capsys.readouterr().out


def test_refusal_threshold_is_on_kappa_1():
    sf = parse_structure(NEAR_SINGULAR)
    with pytest.raises(SingularFrameError, match=r"cond=1\.333e\+12"):
        sf.j_field.eval(sf.chart, (3e-12, 0.0))
    jm = sf.j_field.eval(sf.chart, (5e-12, 0.0))
    t = (1.0 + 5e-12) - 1.0  # the t of the rounded entry 1 + t
    assert jm.frame_cond == pytest.approx((2.0 + t) ** 2 / t, rel=1e-3)
    assert 7.9e11 < jm.frame_cond <= geometry._MAX_FRAME_COND


def test_no_command_runs_an_svd(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("an SVD was taken")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "cond", refuse)
    metric = tmp_path / "metric.acs"
    metric.write_text(PULLBACK4_COMPATIBLE, encoding="utf-8")
    point = "--point=0.3,-0.2,0.5,0.1"
    grid = "--grid=-0.5:0.5:3,-0.5:0.5:3,-0.5:0.5:2,0:1:2"
    commands = [
        ["check", "gallery:shear4", point],
        ["check", "gallery:pullback4", point],
        ["check", str(metric), point],
        ["scan", "gallery:pullback4", grid, "--out", str(tmp_path / "euclid.csv")],
        ["scan", str(metric), grid, "--out", str(tmp_path / "metric.csv")],
        ["selftest", "--dims", "2,4", "--samples", "5"],
    ]
    for args in commands:
        assert main(args) == 0, args
    assert capsys.readouterr().out.count(", 0 flagged") == 2
