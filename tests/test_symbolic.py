"""Exact closed forms behind numbers quoted in the README and the acceptance
tests, derived with sympy from the gallery definitions themselves."""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

import symbolic  # noqa: E402
from acscheck.nijenhuis import contraction_scalar, double_trace  # noqa: E402
from acscheck.obstruction import obstruction_scalar  # noqa: E402
from acscheck.structures import gallery, parse_structure  # noqa: E402
from test_acceptance import PULLBACK4_COMPATIBLE  # noqa: E402


def test_pullback4_is_integrable_with_euclidean_obstruction_20_x1():
    sf = gallery("pullback4")
    xs = symbolic.coordinates(sf.chart)
    j = symbolic.field_matrix(sf.j_field, xs)
    assert sympy.simplify(j * j + sympy.eye(4)) == sympy.zeros(4)
    assert all(c == 0 for c in symbolic.nijenhuis(j, xs))
    assert sympy.simplify(symbolic.obstruction(j, xs) - 20 * xs[0]) == 0


def test_pullback4_compatible_metric_is_dphi_t_dphi():
    # the metric acceptance criterion 2 uses for pullback4 is exactly
    # Dphi^T Dphi, and that metric is J-compatible: J^T g J = g
    sf = gallery("pullback4")
    xs = symbolic.coordinates(sf.chart)
    j = symbolic.field_matrix(sf.j_field, xs)
    dphi = symbolic.jacobian(sf.j_field.components, xs)
    g = dphi.T * dphi
    typed = parse_structure(PULLBACK4_COMPATIBLE).metric
    assert sympy.expand(symbolic.matrix(typed.entries, xs) - g) == sympy.zeros(4)
    assert sympy.simplify(j.T * g * j - g) == sympy.zeros(4)


def test_symbolic_obstruction_matches_jets(rng):
    # the transcription in tests/symbolic.py is the formula the package
    # evaluates: exact value at sample points equals the jet value
    for name in ("expblock4", "shear4", "pullback4"):
        sf = gallery(name)
        xs = symbolic.coordinates(sf.chart)
        exact = symbolic.obstruction(symbolic.field_matrix(sf.j_field, xs), xs)
        for _ in range(3):
            point = rng.uniform(-1.0, 1.0, 4)
            want = float(exact.subs(dict(zip(xs, point))))
            got = obstruction_scalar(sf.j_field.eval(sf.chart, point))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), name


def test_shear4_is_nowhere_integrable():
    # eight constant components +-1 and N^2_34 = -x1 = -N^2_43 (1-indexed,
    # N^r_ab the e_r component of N(e_a, e_b)): sum N^2 = 8 + 2 x1^2 > 0
    sf = gallery("shear4")
    xs = symbolic.coordinates(sf.chart)
    comps = symbolic.nijenhuis(symbolic.field_matrix(sf.j_field, xs), xs)
    keys = [(r + 1, a + 1, b + 1) for a in range(4) for b in range(4) for r in range(4)]
    nonzero = {key: c for key, c in zip(keys, comps) if c != 0}
    assert nonzero == {
        (1, 1, 3): -1, (1, 3, 1): 1, (1, 2, 4): 1, (1, 4, 2): -1,
        (2, 1, 4): 1, (2, 4, 1): -1, (2, 2, 3): 1, (2, 3, 2): -1,
        (2, 3, 4): -xs[0], (2, 4, 3): xs[0],
    }
    assert sympy.expand(sum(c * c for c in comps)) == 8 + 2 * xs[0] ** 2


def _generic_data(n):
    """J = A J0 A^-1 for a fixed rational A, the exact basis of the tensors
    with the symmetries of its Nijenhuis tensor, and the inverse of a
    rational SPD metric that is not J-compatible."""
    a = sympy.eye(n) + sympy.Matrix(n, n, lambda i, k: sympy.Rational((3 * i + 5 * k) % 7 - 3, 10))
    j = symbolic.conjugated_block(a)
    assert j * j == -sympy.eye(n)
    m = sympy.Matrix(n, n, lambda i, k: sympy.Rational((2 * i + 3 * k) % 5 - 2, 4))
    g = sympy.eye(n) + m * m.T
    assert j.T * g * j != g
    return j, symbolic.nijenhuis_like_basis(j), g.inv()


@pytest.mark.parametrize("n,rank", [(4, 4), (6, 18)])
def test_contraction_and_double_trace_vanish_identically(n, rank):
    # the contraction and the double trace are algebraic zeros: on a generic
    # N with the two symmetries of a Nijenhuis tensor both expand to the
    # zero polynomial in its coefficients, under any metric
    j, basis, g_inv = _generic_data(n)
    assert len(basis) == rank
    cs = sympy.symbols(f"c0:{rank}")
    squares = {(key, key): 1 for key in basis[0]}
    assert not symbolic.quadratic_poly(basis, cs, squares).is_zero  # N itself is generic
    assert symbolic.quadratic_poly(basis, cs, symbolic.contraction_weights(j)).is_zero
    assert symbolic.quadratic_poly(basis, cs, symbolic.double_trace_weights(j, g_inv)).is_zero


def test_weights_transcribe_the_package_formulas(rng):
    # on a tensor without the symmetries, the weights give what
    # contraction_scalar and double_trace compute
    j, _, g_inv = _generic_data(4)
    jf, gf = np.array(j, dtype=float), np.array(g_inv, dtype=float)
    comps = rng.standard_normal((4, 4, 4))
    for weights, got in (
        (symbolic.contraction_weights(j), contraction_scalar(comps, jf)),
        (symbolic.double_trace_weights(j, g_inv), double_trace(comps, jf, gf)),
    ):
        want = sum(float(w) * comps[x] * comps[y] for (x, y), w in weights.items())
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
