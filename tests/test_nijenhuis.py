import numpy as np
import pytest

import oracle
from acscheck import parse_expr
from acscheck.geometry import ChartSpec, ExplicitField, JetMatrix, random_conjugation_acs
from acscheck.nijenhuis import (
    big_n,
    contraction_scalar,
    double_trace,
    j_swap_residual,
    nijenhuis_reduced,
    nijenhuis_standard,
)
from acscheck.structures import gallery


def _constant_jm(n=4):
    from acscheck.geometry import standard_block

    return JetMatrix(standard_block(n), np.zeros((n, n, n)))


def test_constant_structure_has_zero_tensor():
    jm = _constant_jm()
    assert np.array_equal(nijenhuis_standard(jm), np.zeros((4, 4, 4)))
    assert np.array_equal(nijenhuis_reduced(jm), np.zeros((4, 4, 4)))


def test_pullback_is_integrable_at_random_points(rng):
    sf = gallery("pullback4")
    for _ in range(20):
        point = rng.uniform(-1.0, 1.0, 4)
        jm = sf.j_field.eval(sf.chart, point)
        assert np.max(np.abs(nijenhuis_standard(jm))) < 1e-8


def test_expblock4_components_at_origin():
    # hand-derived sparse pattern, confirmed by the finite-difference oracle
    sf = gallery("expblock4")
    jm = sf.j_field.eval(sf.chart, (0.0, 0.0, 0.0, 0.0))
    comps = nijenhuis_standard(jm)
    want = np.zeros((4, 4, 4))
    want[2, 1, 3] = 1.0
    want[3, 1, 2] = 1.0
    want[3, 0, 3] = 1.0
    want[2, 0, 2] = -1.0
    want = want - want.transpose(0, 2, 1)
    assert np.allclose(comps, want, atol=1e-14)
    fd = oracle.nijenhuis_loops(
        oracle.field_values(sf.j_field, sf.chart, (0.0,) * 4),
        oracle.fd_field_partials(sf.j_field, sf.chart, (0.0,) * 4),
    )
    assert np.max(np.abs(comps - fd)) < 1e-6


def test_formula_equivalence_on_valid_structures(rng):
    chart = ChartSpec.default(4)
    for seed in (7, 8, 9):
        field = random_conjugation_acs(4, 2, seed)
        for _ in range(5):
            point = rng.uniform(0.0, 1.0, 4)
            jm = field.eval(chart, point)
            a = nijenhuis_standard(jm)
            b = nijenhuis_reduced(jm)
            scale = 1.0 + np.max(np.abs(a))
            assert np.max(np.abs(a - b)) <= 1e-9 * scale


def test_formulas_disagree_for_invalid_input():
    # a non-constant field violating J^2 = -I: the reduced formula folded two
    # terms with J^2 = -I, so the variants must split apart here
    chart = ChartSpec.default(2)
    field = ExplicitField(
        ((parse_expr("1 + x1"), parse_expr("x1*x2")), (parse_expr("x2"), ("const", 1.0)))
    )
    jm = field.eval(chart, (0.4, -0.7))
    a = nijenhuis_standard(jm)
    b = nijenhuis_reduced(jm)
    assert np.max(np.abs(a - b)) > 0.1


def test_antisymmetry_exact(rng):
    chart = ChartSpec.default(6)
    field = random_conjugation_acs(6, 2, 11)
    jm = field.eval(chart, rng.uniform(0.0, 1.0, 6))
    for comps in (nijenhuis_standard(jm), nijenhuis_reduced(jm)):
        assert np.array_equal(comps, -comps.transpose(0, 2, 1))


def test_swap_identity(rng):
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 21)
    for _ in range(10):
        jm = field.eval(chart, rng.uniform(0.0, 1.0, 4))
        comps = nijenhuis_standard(jm)
        scale = 1.0 + np.max(np.abs(comps))
        assert j_swap_residual(comps, jm.values) <= 1e-9 * scale


def test_big_n_zero_for_zero_tensor():
    bn = big_n(np.zeros((4, 4, 4)), standardish := np.eye(4), np.eye(4))
    assert np.array_equal(bn, np.zeros((4, 4, 4, 4)))


def test_big_n_swap_symmetry_exact(rng):
    comps = rng.normal(size=(4, 4, 4))
    comps = comps - comps.transpose(0, 2, 1)
    j = rng.normal(size=(4, 4))
    g = np.eye(4) + 0.1 * np.ones((4, 4))
    bn = big_n(comps, j, g)
    assert np.array_equal(bn, bn.transpose(2, 3, 0, 1))


def test_big_n_matches_loops(rng):
    comps = rng.normal(size=(4, 4, 4))
    comps = comps - comps.transpose(0, 2, 1)
    j = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    g = np.eye(4) + 0.05 * (b + b.T)
    bn = big_n(comps, j, g)
    assert np.allclose(bn, oracle.big_n_loops(comps, j, g), atol=1e-10)


def test_big_n_diagonal_slice_is_unsymmetrised_term(rng):
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 31)
    point = rng.uniform(0.0, 1.0, 4)
    jm = field.eval(chart, point)
    comps = nijenhuis_standard(jm)
    g = np.eye(4)
    bn = big_n(comps, jm.values, g)
    for i in range(4):
        for k in range(4):
            direct = sum(
                comps[r, i, k] * comps[s, r, i] * jm.values[t, s] * g[t, k]
                for r in range(4)
                for s in range(4)
                for t in range(4)
            )
            assert abs(bn[i, k, i, k] - direct) <= 1e-12 * (1.0 + abs(direct))


def test_double_trace_euclidean_equals_diagonal_sum(rng):
    comps = rng.normal(size=(4, 4, 4))
    comps = comps - comps.transpose(0, 2, 1)
    j = rng.normal(size=(4, 4))
    bn = big_n(comps, j, np.eye(4))
    direct = sum(bn[i, k, i, k] for i in range(4) for k in range(4))
    assert oracle.double_trace_loops(bn, np.eye(4)) == pytest.approx(direct, rel=1e-12, abs=1e-12)
    assert double_trace(comps, j, np.eye(4)) == pytest.approx(direct, rel=1e-12, abs=1e-12)
    assert double_trace(np.zeros((4, 4, 4)), j, np.eye(4)) == 0.0


def test_double_trace_collapses_to_contraction(rng):
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 41)
    for _ in range(10):
        jm = field.eval(chart, rng.uniform(0.0, 1.0, 4))
        comps = nijenhuis_standard(jm)
        bn = big_n(comps, jm.values, np.eye(4))
        dtr = double_trace(comps, jm.values, np.eye(4))
        contr = contraction_scalar(comps, jm.values)
        scale = 1.0 + float(np.sum(np.abs(np.einsum("ikik->ik", bn))))
        assert abs(dtr - contr) <= 1e-10 * scale


def test_contraction_zero_for_zero_tensor():
    assert contraction_scalar(np.zeros((4, 4, 4)), np.eye(4)) == 0.0


def test_contraction_matches_loops(rng):
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 51)
    jm = field.eval(chart, rng.uniform(0.0, 1.0, 4))
    comps = nijenhuis_standard(jm)
    a = contraction_scalar(comps, jm.values)
    b = oracle.contraction_loops(comps, jm.values)
    assert a == pytest.approx(b, abs=1e-12)
