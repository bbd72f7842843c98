"""Finite-difference oracle agreement at the gallery points, plus the frozen
regression anchors recorded from the first oracle-verified build."""

import numpy as np
import pytest

import oracle
from acscheck.geometry import ChartSpec, random_conjugation_acs
from acscheck.nijenhuis import (
    contraction_scalar,
    double_trace,
    nijenhuis_standard,
)
from acscheck.obstruction import obstruction_scalar, term_ledger
from acscheck.structures import gallery

GALLERY_POINTS = (
    ("expblock4", (0.0, 0.0, 0.0, 0.0)),
    ("expblock4", (1.0, 0.0, 0.0, 0.0)),
    ("shear4", (0.0, 0.0, 0.0, 0.0)),
    ("shear4", (1.0, 0.0, 0.0, 0.0)),
    ("pullback4", (0.3, -0.2, 0.5, 0.7)),
)


def _close(jet_value, oracle_value, rel=1e-5):
    return abs(jet_value - oracle_value) <= rel * (1.0 + abs(oracle_value))


def _quantities(jm):
    comps = nijenhuis_standard(jm)
    return {
        "n_max_abs": float(np.max(np.abs(comps))),
        "obstruction": obstruction_scalar(jm),
        "contraction": contraction_scalar(comps, jm.values),
        "double_trace": double_trace(comps, jm.values, np.eye(4)),
        "ledger_total": term_ledger(jm)["total"],
    }


def _oracle_quantities(field, chart, point):
    j = oracle.field_values(field, chart, point)
    d = oracle.fd_field_partials(field, chart, point)
    comps = oracle.nijenhuis_loops(j, d)
    bn = oracle.big_n_loops(comps, j, np.eye(4))
    return {
        "n_max_abs": float(np.max(np.abs(comps))),
        "obstruction": oracle.obstruction_loops(j, d),
        "contraction": oracle.contraction_loops(comps, j),
        "double_trace": oracle.double_trace_loops(bn, np.eye(4)),
        "ledger_total": oracle.contraction_loops(
            oracle.nijenhuis_reduced_loops(j, d), j
        ),
    }


@pytest.mark.parametrize("name,point", GALLERY_POINTS)
def test_jets_match_fd_oracle_at_gallery_points(name, point):
    sf = gallery(name)
    jm = sf.j_field.eval(sf.chart, point)
    vals = oracle.field_values(sf.j_field, sf.chart, point)
    partials = oracle.fd_field_partials(sf.j_field, sf.chart, point)
    vscale = 1.0 + np.max(np.abs(vals))
    assert np.max(np.abs(jm.values - vals)) <= 1e-9 * vscale
    pscale = 1.0 + np.max(np.abs(partials))
    assert np.max(np.abs(jm.partials - partials)) <= 1e-5 * pscale
    got = _quantities(jm)
    want = _oracle_quantities(sf.j_field, sf.chart, point)
    for key in want:
        assert _close(got[key], want[key]), (name, point, key, got[key], want[key])


@pytest.mark.parametrize("name,point", GALLERY_POINTS)
def test_frozen_anchor_values(name, point):
    sf = gallery(name)
    got = _quantities(sf.j_field.eval(sf.chart, point))
    for key, want in oracle.ANCHORS[(name, point)].items():
        assert got[key] == pytest.approx(want, rel=1e-10, abs=1e-12), (name, key)


def test_random_conjugation_regression_anchor():
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 42)
    jm = field.eval(chart, (0.0, 0.0, 0.0, 0.0))
    got_obs = obstruction_scalar(jm)
    want = oracle.RANDOM_CONJUGATION_ANCHOR
    assert got_obs == pytest.approx(want["obstruction"], rel=1e-12, abs=1e-12)
    contr = contraction_scalar(nijenhuis_standard(jm), jm.values)
    assert contr == pytest.approx(want["contraction"], abs=1e-12)
    # the loop-and-FD oracle agrees with the frozen value
    d_fd = oracle.fd_field_partials(field, chart, (0.0,) * 4)
    j = oracle.field_values(field, chart, (0.0,) * 4)
    assert oracle.obstruction_loops(j, d_fd) == pytest.approx(
        want["obstruction"], rel=1e-5
    )


def test_shear4_grid_contraction_anchor(tmp_path):
    from acscheck.scan import GridSpec, run_scan
    import csv

    sf = gallery("shear4")
    out = tmp_path / "shear4.csv"
    run_scan(sf, GridSpec.parse("-1:1:5,-1:1:5,-1:1:5,-1:1:5"), out)
    with out.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 625
    max_contraction = max(abs(float(r["contraction"])) for r in rows)
    assert max_contraction <= oracle.SHEAR4_GRID_MAX_CONTRACTION + 1e-12
