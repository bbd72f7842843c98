"""The report kernels run unchanged on exact rationals.

`oracle.exact_jets` gives J and dJ of a structure at a point as object
arrays of Fractions; `nijenhuis_standard`, `obstruction_scalar`,
`term_ledger`, `contraction_scalar` and `double_trace` then return exact
Fractions, so the package's own code is its exact oracle.  The float report
at the same point is checked against those values.  So is the metric path:
`NormalChange.transform_endomorphism` runs on a rational frame A, the metric
g = A^-T A^-1 (whose inverse A A^T is exact) and its exact Christoffel symbols.
"""

from fractions import Fraction

import numpy as np
import pytest
import sympy

import oracle
from acscheck.geometry import ChartSpec, JetMatrix, NormalChange, random_conjugation_acs
from acscheck.nijenhuis import contraction_scalar, double_trace, nijenhuis_standard
from acscheck.obstruction import TERM_NAMES, obstruction_scalar, report_from_jets, term_ledger
from acscheck.structures import StructureFile, gallery, parse_structure

U = 2.0**-53
# |float - exact| <= C_REPORT * U * (1 + sum of |exact ledger terms|) for the
# report's obstruction, contraction, double trace and ledger total.  The
# largest ratio measured on seeds 0-9 below was 46.7 (ledger total, seed 5,
# frame_cond 43, kappa_1 of the frame); most of it is the rounding of J and dJ themselves, which
# come through the frame's inverse.  Under the rational metrics below, the
# obstruction's largest ratio on seeds 0-11 was 35.8 (seed 5 again).
C_REPORT = 50
SEEDS = range(6)


def _exact_scalars(jm) -> dict:
    n = jm.n
    eye = np.array([[Fraction(int(i == j)) for j in range(n)] for i in range(n)], dtype=object)
    comps = nijenhuis_standard(jm)
    ledger = term_ledger(jm)
    return {
        "comps": comps,
        "obstruction": obstruction_scalar(jm),
        "contraction": contraction_scalar(comps, jm.values),
        "double_trace": double_trace(comps, jm.values, eye),
        "total": ledger["total"],
        "first_quadratic": ledger["first_quadratic"],
        "terms": {name: ledger[name] for name in TERM_NAMES},
    }


def _all_fractions(ex) -> bool:
    values = [*ex["comps"].flat, *ex["terms"].values()]
    values += [ex[k] for k in ("obstruction", "contraction", "double_trace", "total", "first_quadratic")]
    return all(type(v) is Fraction for v in values)


def test_pullback4_exact():
    point = (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(1, 2))
    ex = _exact_scalars(oracle.exact_jets(gallery("pullback4"), point))
    assert _all_fractions(ex)
    assert not ex["comps"].any()  # N = 0: the structure is integrable
    assert ex["obstruction"] == Fraction(20, 3)  # 20 * x1
    assert ex["contraction"] == ex["double_trace"] == ex["total"] == ex["first_quadratic"] == 0
    assert set(ex["terms"].values()) <= {Fraction(k * 10, 3) for k in (-2, -1, 0, 1, 2)}


@pytest.mark.parametrize("seed", SEEDS)
def test_conjugation_frame_exact_and_float_report_within_rounding(seed):
    chart = ChartSpec.default(4)
    sf = StructureFile(chart, random_conjugation_acs(4, 2, seed), None)
    point = np.random.default_rng(seed).uniform(0.0, 1.0, 4)
    ex = _exact_scalars(oracle.exact_jets(sf, point))
    assert _all_fractions(ex)
    assert ex["contraction"] == ex["double_trace"] == ex["total"] == ex["first_quadratic"] == 0
    assert ex["obstruction"] != 0
    rep = report_from_jets(sf.j_field.eval(chart, point), None, point)
    got = {
        "obstruction": rep["obstruction"],
        "contraction": rep["contraction"],
        "double_trace": rep["double_trace"],
        "total": rep["ledger"]["total"],
    }
    bound = C_REPORT * U * (1 + float(sum(abs(v) for v in ex["terms"].values())))
    errors = {name: float(abs(Fraction(value) - ex[name])) for name, value in got.items()}
    assert all(e <= bound for e in errors.values()), (errors, bound)


def _fractions(m: sympy.Matrix) -> np.ndarray:
    return np.array([[Fraction(int(v.p), int(v.q)) for v in row] for row in m.tolist()], dtype=object)


def _exact_metric(rng, n: int):
    """A rational frame A near I, the metric jets of g = A^-T A^-1 with random
    symmetric rational partials, and NormalChange(A, A^-1, Gamma) on Fractions."""
    a = sympy.Matrix(n, n, lambda i, j: sympy.Rational(8 * int(i == j) + int(rng.integers(-2, 3)), 8))
    a_inv = a.inv()
    g, g_inv = _fractions(a_inv.T * a_inv), _fractions(a * a.T)
    p = rng.integers(-4, 5, (n, n, n))
    dg = np.vectorize(lambda k: Fraction(int(k), 16), otypes=[object])(p + np.swapaxes(p, 1, 2))
    gamma = np.empty((n, n, n), dtype=object)  # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)
    for k, i, j in np.ndindex(n, n, n):
        gamma[k, i, j] = Fraction(1, 2) * sum(g_inv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j]) for l in range(n))
    return JetMatrix(g, dg), NormalChange(_fractions(a), _fractions(a_inv), gamma)


@pytest.mark.parametrize("seed", SEEDS)
def test_metric_path_exact_and_float_report_within_rounding(seed):
    # the float report takes A from the Cholesky factor of g, which differs from
    # the rational A by a rotation; the obstruction does not see it
    chart = ChartSpec.default(4)
    sf = StructureFile(chart, random_conjugation_acs(4, 2, seed), None)
    rng = np.random.default_rng(seed)
    point = rng.uniform(0.0, 1.0, 4)
    g, change = _exact_metric(rng, 4)
    tj = change.transform_endomorphism(oracle.exact_jets(sf, point))
    ex = _exact_scalars(tj)
    assert _all_fractions(ex)
    assert ex["contraction"] == ex["total"] and ex["obstruction"] != 0
    g_float = JetMatrix(g.values.astype(float), g.partials.astype(float))
    rep = report_from_jets(sf.j_field.eval(chart, point), g_float, point)
    bound = C_REPORT * U * (1 + float(sum(abs(v) for v in ex["terms"].values())))
    assert float(abs(Fraction(rep["obstruction"]) - ex["obstruction"])) <= bound


def test_exact_jets_refuses_a_function_call():
    with pytest.raises(ValueError, match="function"):
        oracle.exact_jets(gallery("expblock4"), (0.0, 0.0, 0.0, 0.0))


def test_exact_jets_refuses_an_irrational_value():
    sf = parse_structure("[chart]\ndim = 2\n[J]\n1 2 = -(1+x1^2)^0.5\n2 1 = (1+x1^2)^-0.5\n")
    with pytest.raises(ValueError, match="not rational"):
        oracle.exact_jets(sf, (1.0, 0.0))
