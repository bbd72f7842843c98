"""The report's scalars as functions on the manifold: the same in every chart.

A random polynomial map phi = x + quadratic + cubic
(`oracle.random_polynomial_maps`) is a second chart near the unit box.
`oracle.pull_back_jets` carries the jets of (J, g), evaluated by the library
at phi(x), to the chart x by the chain rule.  With the pulled-back metric
the obstruction, the ledger total, the contraction and the double trace are
the same numbers in both charts, up to rounding.  With the Euclidean metric
in both charts the obstruction is not: each chart then has a different
metric, and an obstruction computed without one depends on the chart.
"""

import numpy as np
import pytest

import oracle
from acscheck.geometry import ChartSpec, JetMatrix, random_conjugation_acs
from acscheck.obstruction import TERM_NAMES, report_from_jets
from acscheck.structures import gallery

U = 2.0**-53
# Largest |value in chart x - value in chart phi(x)| / (u S max(1, |J|)^2) over
# 1,800 samples (n = 2, 4, 6; degree-2 frames, random SPD metrics, maps with
# coefficients in [-0.1, 0.1]): 20.8 for the ledger total, 5.7 for the
# obstruction, 3.6 for the contraction, 2.5 for the double trace.  S is
# 1 + sum |ledger terms| in the chart phi(x), |J| the larger max |J| entry of
# the two charts; without the factor |J|^2, frames with |J| up to 700 reach
# 5e5 u S.
C_CHART = 64
SCALARS = ("obstruction", "contraction", "double_trace")


def _map(seed: int, x):
    """phi, Dphi and d Dphi at the point x of the map drawn from `seed`: the same map at every x."""
    phi, dphi, ddphi = oracle.random_polynomial_maps(np.random.default_rng(seed), np.asarray(x)[None])
    return phi[0], dphi[0], ddphi[0]


def test_pulled_back_jets_equal_finite_differences_of_the_pulled_back_fields():
    rng, dim, h = np.random.default_rng(3), 4, oracle.FD_H
    chart = ChartSpec.default(dim)
    field = random_conjugation_acs(dim, 2, 17)
    x = rng.uniform(0.0, 1.0, dim)
    phi, dphi, ddphi = _map(5, x)
    metric = oracle.random_spd_metric_ast(rng, chart, phi)
    j1, g1 = oracle.pull_back_jets(field.eval(chart, phi), metric.eval(chart, phi), dphi, ddphi)

    def pulled_back(y):  # Dphi^-1 J(phi(y)) Dphi and Dphi^T g(phi(y)) Dphi
        p, f, _ = _map(5, y)
        return np.linalg.inv(f) @ field.eval(chart, p).values @ f, f.T @ metric.eval(chart, p).values @ f

    for jet, value in zip((j1, g1), pulled_back(x)):
        assert np.allclose(jet.values, value, rtol=0, atol=1e-14)
    for k in range(dim):
        e = h * np.eye(dim)[k]
        for jet, plus, minus in zip((j1, g1), pulled_back(x + e), pulled_back(x - e)):
            fd = (plus - minus) / (2 * h)
            assert np.allclose(jet.partials[k], fd, rtol=0, atol=1e-7 * (1 + np.abs(fd).max()))


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_scalars_are_the_same_in_both_charts_under_the_pulled_back_metric(dim):
    rng = np.random.default_rng(100 + dim)
    chart = ChartSpec.default(dim)
    for _ in range(8):
        field = random_conjugation_acs(dim, 2, int(rng.integers(1 << 30)))
        x = rng.uniform(0.0, 1.0, (2, dim))
        phi, dphi, ddphi = oracle.random_polynomial_maps(rng, x)  # two maps, drawn as arrays
        for b in range(2):
            jm = field.eval(chart, phi[b])
            gm = oracle.random_spd_metric_ast(rng, chart, phi[b]).eval(chart, phi[b])
            j1, g1 = oracle.pull_back_jets(jm, gm, dphi[b], ddphi[b])
            old, new = report_from_jets(jm, gm, phi[b]), report_from_jets(j1, g1, x[b])
            j_max = max(1.0, np.abs(jm.values).max(), np.abs(j1.values).max())
            scale = (1 + sum(abs(old["ledger"][name]) for name in TERM_NAMES)) * j_max**2
            for name in SCALARS:
                assert abs(new[name] - old[name]) <= C_CHART * U * scale, name
            assert abs(new["ledger"]["total"] - old["ledger"]["total"]) <= C_CHART * U * scale
            assert abs(old["obstruction"]) > 1e-3  # not a rounding of 0


# pullback4's Euclidean obstruction in the chart x of the map drawn from seed 0, at
# x drawn from seed 0, where 20 phi_1 = 12.9014: a pinned fact, not a tolerance
NEW_EUCLIDEAN = 15.247721969321503


def test_euclidean_obstruction_of_pullback4_depends_on_the_chart():
    # pullback4 is integrable, and its Euclidean obstruction is 20 x1 (acceptance
    # criterion 2); read without a metric in the chart x, it is another number
    sf = gallery("pullback4")
    x = np.random.default_rng(0).uniform(0.0, 1.0, 4)
    phi, dphi, ddphi = _map(0, x)
    jm = sf.j_field.eval(sf.chart, phi)
    old = report_from_jets(jm, None, phi)["obstruction"]
    assert old == pytest.approx(20 * phi[0], rel=1e-12)
    j1, _ = oracle.pull_back_jets(jm, None, dphi, ddphi)
    new = report_from_jets(j1, None, x)
    assert new["n_max_abs"] <= 1e-14  # still integrable
    assert new["obstruction"] == pytest.approx(NEW_EUCLIDEAN, rel=1e-9)
    assert abs(new["obstruction"] - old) > 0.1 * abs(old)
    # the Euclidean metric of the chart phi(x), pulled back, gives the old number
    _, g1 = oracle.pull_back_jets(jm, JetMatrix(np.eye(4), np.zeros((4, 4, 4))), dphi, ddphi)
    assert report_from_jets(j1, g1, x)["obstruction"] == pytest.approx(old, rel=1e-12)
