import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acscheck import jets
from acscheck.expr import ExprDomainError, bind_and_eval, parse_expr
from acscheck.jets import Jet, JetDomainError, jet_apply, seed_variable


def _op(name, *args):
    return jet_apply(name, args)


def test_seed_first_order():
    j = seed_variable(0, 3.0, 2, order=1)
    assert j.value == 3.0
    assert np.array_equal(j.grad, [1.0, 0.0])


def test_seed_second_order():
    j = seed_variable(1, -2.5, 3, order=2)
    assert j.value == -2.5
    assert np.array_equal(j.grad, [0.0, 1.0, 0.0])
    assert np.array_equal(j.hess, np.zeros((3, 3)))


def test_seed_out_of_range():
    with pytest.raises(ValueError):
        seed_variable(5, 1.0, 4, order=1)
    with pytest.raises(ValueError):
        seed_variable(-1, 1.0, 4, order=1)


def test_seed_bad_order():
    with pytest.raises(ValueError):
        seed_variable(0, 1.0, 2, order=3)


def test_product_rule():
    x = seed_variable(0, 3.0, 1)
    y = jet_apply("mul", [x, x])
    assert y.value == 9.0
    assert np.array_equal(y.grad, [6.0])


def test_sin_at_zero():
    x = seed_variable(0, 0.0, 1)
    y = jet_apply("sin", [x])
    assert y.value == 0.0
    assert np.array_equal(y.grad, [1.0])


def test_exp_neg_composition():
    x = seed_variable(0, 0.0, 2)
    y = jet_apply("exp", [jet_apply("neg", [x])])
    assert y.value == 1.0
    assert np.array_equal(y.grad, [-1.0, 0.0])


def test_quotient_rule():
    x = seed_variable(0, 2.0, 1)
    y = _op("div", _op("add", 1.0, x), x)  # d/dx (1 + 1/x)... = -1/x^2
    assert y.value == pytest.approx(1.5)
    assert y.grad[0] == pytest.approx(-0.25)


def test_arity_errors():
    x = seed_variable(0, 1.0, 1)
    with pytest.raises(ValueError):
        jet_apply("add", [x])
    with pytest.raises(ValueError):
        jet_apply("sin", [x, x])
    with pytest.raises(ValueError):
        jet_apply("nope", [x])


def test_mixing_orders_rejected():
    a = seed_variable(0, 1.0, 2, order=1)
    b = seed_variable(0, 1.0, 2, order=2)
    for op in ("add", "sub", "mul", "div"):
        for args in ((a, b), (b, a)):
            with pytest.raises(TypeError, match="^cannot mix jets of different orders$"):
                jet_apply(op, args)


@pytest.mark.parametrize("op", ("add", "sub", "mul", "div", "pow"))
def test_a_constant_that_is_not_a_float_is_rejected(op):
    # on either side
    x = seed_variable(0, 1.0, 2)
    for args in ((x, "2"), ("2", x)):
        with pytest.raises(TypeError, match="^cannot use str as a jet operand$"):
            jet_apply(op, args)


@given(
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.lists(st.floats(-10, 10), min_size=3, max_size=3),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
def test_add_linearity_exact(pa, pb, va, vb):
    a = Jet(np.array(va), np.array(pa))
    b = Jet(np.array(vb), np.array(pb))
    s = jet_apply("add", [a, b])
    assert np.array_equal(s.grad, np.array(pa) + np.array(pb))


def test_product_hessian_pattern():
    # d^2/dx_a dx_b of x_a * x_b is the symmetric unit pattern, exactly
    n = 4
    xa = seed_variable(1, 0.7, n, order=2)
    xb = seed_variable(3, -1.2, n, order=2)
    h = _op("mul", xa, xb).hess
    want = np.zeros((n, n))
    want[1, 3] = want[3, 1] = 1.0
    assert np.array_equal(h, want)


def _random_poly_terms(rng, n_vars, degree, n_terms):
    terms = []
    for _ in range(n_terms):
        expo = rng.integers(0, degree + 1, n_vars)
        while expo.sum() > degree:
            expo = rng.integers(0, degree + 1, n_vars)
        terms.append((float(rng.uniform(-2, 2)), tuple(int(e) for e in expo)))
    return terms


def _poly_jet(terms, point, order):
    n = len(point)
    total = jets.constant(0.0, n, order)
    for coef, expo in terms:
        term = jets.constant(coef, n, order)
        for i, k in enumerate(expo):
            if k:
                term = _op("mul", term, jet_apply("pow", [seed_variable(i, point[i], n, order), float(k)]))
        total = _op("add", total, term)
    return total


def _poly_value(terms, point):
    return sum(c * math.prod(point[i] ** k for i, k in enumerate(expo)) for c, expo in terms)


def test_polynomial_gradients_match_central_differences(rng):
    # degree <= 4 in <= 4 variables, h = 1e-5, relative error <= 1e-6
    h = 1e-5
    for n_vars in (1, 2, 3, 4):
        for _ in range(5):
            terms = _random_poly_terms(rng, n_vars, 4, 6)
            point = [float(v) for v in rng.uniform(-1, 1, n_vars)]
            jet = _poly_jet(terms, point, order=1)
            assert jet.value == pytest.approx(_poly_value(terms, point), rel=1e-12, abs=1e-12)
            for i in range(n_vars):
                xp = list(point)
                xm = list(point)
                xp[i] += h
                xm[i] -= h
                fd = (_poly_value(terms, xp) - _poly_value(terms, xm)) / (2 * h)
                assert jet.grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_hessian_symmetry_exact_through_composites(rng):
    n = 3
    for _ in range(20):
        point = rng.uniform(0.2, 1.5, n)
        a = seed_variable(0, float(point[0]), n, order=2)
        b = seed_variable(1, float(point[1]), n, order=2)
        c = seed_variable(2, float(point[2]), n, order=2)
        # tanh(a b) + exp(b) / (c + 2) sin(a) - sqrt(c)^3
        z = _op(
            "sub",
            _op("add", _op("tanh", _op("mul", a, b)), _op("mul", _op("div", _op("exp", b), _op("add", c, 2.0)), _op("sin", a))),
            _op("pow", _op("sqrt", c), 3),
        )
        assert np.array_equal(z.hess, z.hess.T)


def test_truncation_matches_first_order_exactly(rng):
    n = 2
    for _ in range(20):
        point = rng.uniform(0.3, 1.2, n)

        def build(order):
            x = seed_variable(0, float(point[0]), n, order=order)
            y = seed_variable(1, float(point[1]), n, order=order)
            # log(x) cos(y) + (x / y)^2 - sqrt(x + y)
            product = _op("mul", _op("log", x), _op("cos", y))
            return _op("sub", _op("add", product, _op("pow", _op("div", x, y), 2)), _op("sqrt", _op("add", x, y)))

        j1 = build(1)
        full = build(2)
        j2 = Jet(full.value, full.grad)  # the order-2 jet without its Hessian
        assert j1.value == j2.value
        assert np.array_equal(j1.grad, j2.grad)


def test_domain_errors():
    x0 = seed_variable(0, 0.0, 1)
    xm = seed_variable(0, -1.0, 1)
    with pytest.raises(JetDomainError):
        _op("div", x0, x0)
    with pytest.raises(JetDomainError):
        _op("log", x0)
    with pytest.raises(JetDomainError):
        _op("sqrt", xm)
    with pytest.raises(JetDomainError):
        jet_apply("pow", [xm, jets.constant(0.5, 1, 1)])
    with pytest.raises(JetDomainError):
        jet_apply("pow", [x0, jets.constant(-2.0, 1, 1)])
    with pytest.raises(JetDomainError):
        # variable exponent requires positive base
        jet_apply("pow", [xm, seed_variable(0, 2.0, 1)])


def test_integer_power_on_negative_base():
    x = seed_variable(0, -2.0, 1)
    y = _op("pow", x, 3)
    assert y.value == -8.0
    assert y.grad[0] == 12.0
    z = _op("pow", x, 0)
    assert z.value == 1.0
    assert z.grad[0] == 0.0


def test_real_power_positive_base_second_order():
    x = seed_variable(0, 4.0, 1, order=2)
    y = _op("pow", x, 1.5)
    assert y.value == pytest.approx(8.0)
    assert y.grad[0] == pytest.approx(3.0)
    assert y.hess[0, 0] == pytest.approx(0.375)


def test_variable_exponent_positive_base():
    x = seed_variable(0, 2.0, 2)
    e = seed_variable(1, 3.0, 2)
    y = _op("pow", x, e)
    assert y.value == pytest.approx(8.0)
    assert y.grad[0] == pytest.approx(12.0)  # e * x^(e-1)
    assert y.grad[1] == pytest.approx(8.0 * math.log(2.0))


def test_float_base_to_a_jet_exponent():
    # 2^x1 is exp(x1 log 2): slope 2^x ln 2, curvature 2^x (ln 2)^2, and each
    # batch row has the bits of its own point
    xs = [-1.5, -0.0, 0.3, 2.0, 7.25]
    ln2 = math.log(2.0)
    node = parse_expr("2^x1")
    batch = bind_and_eval(node, ["x1"], np.array(xs)[:, None], order=2)
    for k, x in enumerate(xs):
        one = bind_and_eval(node, ["x1"], [x], order=2)
        assert one.value == pytest.approx(2.0**x, rel=1e-15, abs=0)
        assert one.grad[0] == pytest.approx(2.0**x * ln2, rel=1e-15, abs=0)
        assert one.hess[0, 0] == pytest.approx(2.0**x * ln2 * ln2, rel=1e-15, abs=0)
        assert batch.value[k] == one.value
        assert np.array_equal(batch.grad[k], one.grad)
        assert np.array_equal(batch.hess[k], one.hess)


@pytest.mark.parametrize("order", (1, 2))
def test_jet_exponent_needs_a_positive_base(order):
    x = seed_variable(0, -1.0, 1, order=order)
    for base, exponent in ((-2.0, x), (x, jets.constant(2.0, 1, order))):
        with pytest.raises(JetDomainError, match="^variable exponent requires positive base$"):
            jets.power(base, exponent)
    with pytest.raises(ExprDomainError, match="^variable exponent requires positive base in "):
        bind_and_eval(parse_expr("(-2)^x1"), ["x1"], [0.5], order=order)
    assert jets.power(x, 2.0).value == 1.0  # a float exponent keeps the integer kernel


def test_exponent_reading_a_variable_follows_one_rule():
    # x1^(x2*x2): the exponent's gradient vanishes at x2 = 0, its Hessian
    # does not; the rule is exp(x2*x2 * log x1) at both orders and at every
    # point, so a batch raises only where one of its points raises alone
    node = parse_expr("x1^(x2*x2)")
    pts = np.array([[0.5, -1.0], [0.5, 0.0], [2.0, 0.0], [2.0, 1.0]])
    for order in (1, 2):
        batch = bind_and_eval(node, ["x1", "x2"], pts, order=order)
        for k, point in enumerate(pts):
            one = bind_and_eval(node, ["x1", "x2"], point, order=order)
            assert batch.value[k] == one.value
            assert np.array_equal(batch.grad[k], one.grad)
        for point in ([-0.5, 0.0], [0.0, 1.0]):
            with pytest.raises(ExprDomainError, match="^variable exponent requires positive base"):
                bind_and_eval(node, ["x1", "x2"], point, order=order)
            with pytest.raises(ExprDomainError, match="^variable exponent requires positive base"):
                bind_and_eval(node, ["x1", "x2"], np.vstack([pts, point]), order=order)


# One batched case per operation: a jet over a batch of points carries, at
# every point, the bits of the same operation evaluated at that point alone.
_BATCH_OPS = {
    "neg": lambda x, y: _op("neg", x),
    "add": lambda x, y: _op("add", x, y),
    "sub": lambda x, y: _op("sub", x, y),
    "mul": lambda x, y: _op("mul", x, y),
    "div": lambda x, y: _op("div", x, y),
    "pow": lambda x, y: _op("pow", x, y),
    "float-first": lambda x, y: _op("add", _op("sub", 2.5, _op("div", 1.5, x)), _op("mul", 3.0, y)),
    "const-pow": lambda x, y: _op("mul", _op("pow", _op("add", x, 2.0), 1.5), _op("pow", y, 3)),
    "sin": lambda x, y: _op("sin", _op("mul", x, y)),
    "cos": lambda x, y: _op("cos", _op("sub", x, y)),
    "exp": lambda x, y: _op("exp", _op("mul", x, y)),
    "log": lambda x, y: _op("log", _op("add", x, y)),
    "sqrt": lambda x, y: _op("sqrt", _op("mul", x, y)),
    "tanh": lambda x, y: _op("tanh", _op("div", x, y)),
}


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("name", sorted(_BATCH_OPS))
def test_batch_matches_pointwise_bit_for_bit(rng, name, order):
    op = _BATCH_OPS[name]
    points = rng.uniform(0.2, 1.5, (7, 2))
    batch = op(
        seed_variable(0, points[:, 0], 2, order=order),
        seed_variable(1, points[:, 1], 2, order=order),
    )
    assert batch.value.shape == (7,) and batch.grad.shape == (7, 2)
    for k, (x, y) in enumerate(points):
        single = op(seed_variable(0, x, 2, order=order), seed_variable(1, y, 2, order=order))
        assert batch.value[k] == single.value
        assert np.array_equal(batch.grad[k], single.grad)
        if order == 2:
            assert np.array_equal(batch.hess[k], single.hess)


def test_batch_domain_error_at_one_point():
    x = seed_variable(0, np.array([1.0, 0.0, 2.0]), 1)
    with pytest.raises(JetDomainError):
        _op("div", 1.0, x)
    with pytest.raises(JetDomainError):
        _op("log", x)


def test_overflow_is_a_domain_error():
    with pytest.raises(JetDomainError, match="exp overflow"):
        _op("exp", seed_variable(0, 800.0, 1))
    with pytest.raises(JetDomainError, match="power overflow"):
        _op("pow", seed_variable(0, 100.0, 1), 200)
    with pytest.raises(JetDomainError, match="exp overflow"):
        _op("exp", seed_variable(0, np.array([0.0, 800.0]), 1))


@pytest.mark.parametrize(
    "name,v,value,slope",
    [
        ("reciprocal", 1e-110, 1.0 / 1e-110, -1.0 / (1e-110 * 1e-110)),
        ("log", 1e-170, math.log(1e-170), 1.0 / 1e-170),
        ("sqrt", 1e-220, math.sqrt(1e-220), 0.5 / math.sqrt(1e-220)),
    ],
)
def test_second_derivative_overflow_fails_only_order_2(name, v, value, slope):
    # the second derivative's denominator underflows to 0 at v: an order-1
    # jet does not use it and keeps its value and slope, an order-2 jet
    # refuses it, alone or at one point of a batch
    f = {"reciprocal": lambda x: _op("div", 1.0, x), "log": lambda x: _op("log", x), "sqrt": lambda x: _op("sqrt", x)}[name]
    one = f(seed_variable(0, v, 1))
    assert one.value == value and np.array_equal(one.grad, [slope])
    assert one.hess is None
    with pytest.raises(JetDomainError, match=f"{name} overflow"):
        f(seed_variable(0, v, 1, order=2))
    with pytest.raises(JetDomainError, match=f"{name} overflow"):
        f(seed_variable(0, np.array([1.0, v]), 1, order=2))


def test_reciprocal_hessian_bits():
    for v in (3.0, -0.7, 1e-100):
        y = _op("div", 1.0, seed_variable(0, v, 1, order=2))
        assert y.value == 1.0 / v and y.grad[0] == -1.0 / (v * v)
        assert y.hess[0, 0] == 2.0 / (v * v * v)


def test_constants_stay_floats():
    assert jet_apply("mul", [2.0, 3.0]) == 6.0
    assert jet_apply("div", [1.0, 4.0]) == 0.25
    assert jet_apply("exp", [0.0]) == 1.0
    with pytest.raises(JetDomainError):
        jet_apply("div", [1.0, 0.0])


def _jet_and_constant(points, order):
    """x1 * x2 + sin(x1) at a batch of points, or at one, and a constant of one value per point."""
    x, y = (seed_variable(i, points[..., i], 2, order=order) for i in range(2))
    return _op("add", _op("mul", x, y), _op("sin", x)), -1.5 * points[..., 0] + 0.25


def _same_bits(batch, b, single):
    if not isinstance(single, Jet):
        assert np.asarray(batch)[b].tobytes() == np.float64(single).tobytes()
        return
    assert np.asarray(batch.value)[b].tobytes() == np.float64(single.value).tobytes()
    assert batch.grad[b].tobytes() == single.grad.tobytes()
    assert (batch.hess is None) == (single.hess is None)
    if batch.hess is not None:
        assert batch.hess[b].tobytes() == single.hess.tobytes()


def _arguments(op, u, c):
    """Each order of arguments with an array constant `c`, against a jet `u` or a float."""
    if jets._OPS[op][0] == 1:
        return [(c,)]
    return [(u, c), (c, u), (c, 0.75), (0.75, c), (c, c)]


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("op", ("add", "sub", "mul", "neg"))
def test_an_array_constant_gives_each_point_the_bits_of_its_own_float(rng, op, order):
    points = rng.uniform(0.2, 1.5, (6, 2))
    u, c = _jet_and_constant(points, order)
    for args in _arguments(op, u, c):
        batch = jet_apply(op, args)
        for b, point in enumerate(points):
            ub, cb = _jet_and_constant(point, order)
            single = jet_apply(op, [ub if a is u else float(cb) if a is c else a for a in args])
            _same_bits(batch, b, single)


@pytest.mark.parametrize("op", ("neg", "add", "sub", "mul"))
def test_a_constant_array_that_is_not_of_floats_is_rejected(op):
    x = seed_variable(0, np.array([1.0, 2.0]), 2)
    for bad in ("2", np.array([1, 2]), np.array(["1", "2"])):
        name = type(bad).__name__
        for args in ((bad,),) if op == "neg" else ((x, bad), (bad, x)):
            with pytest.raises(TypeError, match=f"^cannot use {name} as a jet operand$"):
                jet_apply(op, args)


@pytest.mark.parametrize("op", ("div", "pow", "sin", "cos", "exp", "log", "sqrt", "tanh"))
def test_other_operations_take_an_array_constant_point_by_point_or_refuse_it(rng, op):
    # never numpy's "truth value of an array is ambiguous" ValueError
    points = rng.uniform(0.2, 1.5, (6, 2))
    u, c = _jet_and_constant(points, 1)
    c = np.abs(c) + 0.5  # in every operation's domain
    for args in _arguments(op, u, c):
        try:
            batch = jet_apply(op, args)
        except TypeError as exc:
            assert str(exc) == "cannot use ndarray as a jet operand"
            continue
        for b, point in enumerate(points):
            ub, cb = _jet_and_constant(point, 1)
            single = jet_apply(op, [ub if a is u else abs(float(cb)) + 0.5 if a is c else a for a in args])
            _same_bits(batch, b, single)


def _power_per_point(v: float, k: float):
    """The reference: v ** k with its exponent classified at every point."""
    if math.isfinite(k) and k == round(k):
        ki = int(round(k))
        if ki == 0:
            return 1.0, 0.0, 0.0
        if ki == 1:
            return v, 1.0, 0.0
        if v == 0.0 and ki < 0:
            raise JetDomainError("zero base with negative exponent")
        if v == 0.0:
            return 0.0, 0.0, 2.0 if ki == 2 else 0.0
        return v**ki, ki * v ** (ki - 1), ki * (ki - 1) * v ** (ki - 2)
    if v <= 0.0:
        raise JetDomainError("non-integer exponent requires positive base")
    return v**k, k * v ** (k - 1.0), k * (k - 1.0) * v ** (k - 2.0)


_POWER_BASES = (
    0.687611213910762, -1.3747364402296864,  # v ** 2 != v * v for these two
    0.0, -0.0, 1.0, -1.0, 0.3, -0.3, 2.5, -7.0, 1e-300, -1e-300,
    5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e100, -1e100, 1.3e154, -1.3e154, 1e200, 1e308, -1.7976931348623157e308,
)
_POWER_EXPONENTS = (-2.0, -1.0, 0.0, 1.0, 2.0, 3.0, 0.5)


def _outcome(call):
    """The bits of a kernel's result, or its exception's type and text."""
    try:
        return tuple(float(x).hex() for x in call())
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("k", _POWER_EXPONENTS)
def test_power_kernel_equals_per_point_classification(k):
    kernel = jets._power_kernel(k)
    for v in _POWER_BASES:
        assert _outcome(lambda: kernel(v)) == _outcome(lambda: _power_per_point(v, k)), v


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("k", _POWER_EXPONENTS)
def test_batched_power_equals_per_point_kernel(k, order):
    ok = [v for v in _POWER_BASES if len(_outcome(lambda: _power_per_point(v, k))) == 3]
    ok = [v for v in ok if all(math.isfinite(x) for x in _power_per_point(v, k)[: order + 1])]
    out = jets.power(seed_variable(0, np.array(ok), 1, order=order), k)
    ref = np.array([_power_per_point(v, k) for v in ok])
    assert out.value.tobytes() == ref[:, 0].tobytes()
    assert out.grad[:, 0].tobytes() == ref[:, 1].tobytes()
    if order == 2:
        chained = ref[:, 1] * 0.0 + ref[:, 2] * 1.0  # the chain rule on the seed's jet
        assert out.hess[:, 0, 0].tobytes() == chained.tobytes()
    for v in set(_POWER_BASES) - set(ok):  # one refused point refuses the batch
        with pytest.raises(JetDomainError):
            jets.power(seed_variable(0, np.array(ok + [v]), 1, order=order), k)


def test_power_overflow_is_a_domain_error_in_a_batch():
    with pytest.raises(JetDomainError, match="^power overflow$"):
        jets.power(seed_variable(0, np.array([1.0, 1e200]), 1), 2.0)
