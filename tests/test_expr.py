import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acscheck import expr
from acscheck.expr import (
    Binary,
    Call,
    Const,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    Unary,
    Var,
    bind_and_eval,
    free_variables,
    parse_expr,
    to_source,
)


def test_grammar_example():
    ast = parse_expr("x1*x2 + sin(x3)")
    assert ast == Binary(
        "add", Binary("mul", Var("x1"), Var("x2")), Call("sin", Var("x3"))
    )


def test_unary_minus_binds_looser_than_power():
    assert parse_expr("-x1^2") == Unary("neg", Binary("pow", Var("x1"), Const(2.0)))
    assert parse_expr("(-x1)^2") == Binary("pow", Unary("neg", Var("x1")), Const(2.0))


def test_power_right_associative():
    assert parse_expr("2^3^2") == Binary(
        "pow", Const(2.0), Binary("pow", Const(3.0), Const(2.0))
    )


def test_power_negative_exponent():
    assert parse_expr("x1^-2") == Binary("pow", Var("x1"), Unary("neg", Const(2.0)))


def test_left_associative_subtraction():
    assert parse_expr("1 - 2 - 3") == Binary(
        "sub", Binary("sub", Const(1.0), Const(2.0)), Const(3.0)
    )


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 + * x2")
    assert err.value.offset == 5


def test_unexpected_character_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 ? 2")
    assert err.value.offset == 3


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 x2")


def test_unclosed_paren():
    with pytest.raises(ExprSyntaxError):
        parse_expr("(x1 + 2")


def test_empty_expression():
    with pytest.raises(ExprSyntaxError):
        parse_expr("   ")


def test_unknown_function():
    with pytest.raises(ExprNameError):
        parse_expr("foo(x1)")


def test_number_forms():
    assert parse_expr("1.5e-3") == Const(1.5e-3)
    assert parse_expr(".5") == Const(0.5)
    assert parse_expr("2.") == Const(2.0)
    assert parse_expr("3E2") == Const(300.0)


def test_named_constants():
    assert parse_expr("pi") == Const(math.pi)
    assert parse_expr("e") == Const(math.e)
    # still usable inside expressions
    j = bind_and_eval(parse_expr("sin(pi)"), ("x1",), (0.0,))
    assert j.value == pytest.approx(0.0, abs=1e-15)


_NAMES = st.sampled_from(["x1", "x2", "x3", "x4", "u", "alpha_2"])


def _asts():
    leaves = st.one_of(
        st.floats(0, 100, allow_nan=False).map(lambda v: Const(float(v))),
        _NAMES.map(Var),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), children, children).map(
                lambda t: Binary(*t)
            ),
            children.map(lambda c: Unary("neg", c)),
            st.tuples(st.sampled_from(expr.FUNCTIONS), children).map(lambda t: Call(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(_asts())
def test_round_trip_pretty_print(ast):
    assert parse_expr(to_source(ast)) == ast


def test_round_trip_examples():
    for text in ("x1*x2 + sin(x3)", "-x1^2", "x1^-2", "1 - 2 - 3", "-(x1 + x2)*x3",
                 "exp(-x1)/sqrt(x2 + 1)", "x1^(x2 + 1)", "--x1"):
        ast = parse_expr(text)
        assert parse_expr(to_source(ast)) == ast


def test_free_variables():
    ast = parse_expr("x1*x2 + sin(x3) - 4")
    assert free_variables(ast) == {"x1", "x2", "x3"}


def test_bind_and_eval_square():
    j = bind_and_eval(parse_expr("x1^2"), ("x1",), (3.0,))
    assert j.value == 9.0
    assert np.array_equal(j.grad, [6.0])


def test_bind_and_eval_exp_neg():
    j = bind_and_eval(parse_expr("exp(-x1)"), ("x1", "x2"), (0.0, 7.0))
    assert j.value == 1.0
    assert np.array_equal(j.grad, [-1.0, 0.0])


def test_bind_and_eval_domain_error_names_subexpression():
    with pytest.raises(ExprDomainError) as err:
        bind_and_eval(parse_expr("1 + log(x1)"), ("x1",), (-1.0,))
    assert "log(x1)" in str(err.value)


def test_bind_and_eval_unbound_variable():
    with pytest.raises(ExprNameError):
        bind_and_eval(parse_expr("x1 + y"), ("x1",), (1.0,))


def test_bind_and_eval_point_dimension_mismatch():
    with pytest.raises(ValueError):
        bind_and_eval(parse_expr("x1"), ("x1", "x2"), (1.0,))


def test_order_two_truncates_to_order_one_exactly(rng):
    texts = (
        "x1*x2 + sin(x3)",
        "exp(-x1)/sqrt(x2 + 2)",
        "tanh(x1*x3) - cos(x2)^3",
        "(x1 + x2)^2*log(x3 + 2)",
    )
    names = ("x1", "x2", "x3")
    for text in texts:
        ast = parse_expr(text)
        for _ in range(5):
            point = tuple(float(v) for v in rng.uniform(0.1, 1.0, 3))
            j1 = bind_and_eval(ast, names, point, order=1)
            j2 = bind_and_eval(ast, names, point, order=2)
            assert j2.value == j1.value
            assert np.array_equal(j2.grad, j1.grad)
            assert np.array_equal(j2.hess, j2.hess.T)


def test_bind_and_eval_batch_matches_single_points(rng):
    names = ("x1", "x2", "x3")
    points = rng.uniform(0.1, 1.0, (6, 3))
    for text in ("x1*x2 + sin(x3)", "exp(-x1)/sqrt(x2 + 2)", "(x1 + x2)^2*log(x3 + 2)", "2^3 - 1"):
        ast = parse_expr(text)
        for order in (1, 2):
            batch = bind_and_eval(ast, names, points, order=order)
            assert batch.value.shape == (6,)
            for k, point in enumerate(points):
                single = bind_and_eval(ast, names, tuple(point), order=order)
                assert batch.value[k] == single.value
                assert np.array_equal(batch.grad[k], single.grad)
                if order == 2:
                    assert np.array_equal(batch.hess[k], single.hess)


def test_bind_and_eval_overflow_names_subexpression():
    with pytest.raises(ExprDomainError, match="exp overflow in 'exp"):
        bind_and_eval(parse_expr("1 + exp(x1)"), ("x1",), (800.0,))
    with pytest.raises(ExprDomainError, match="power overflow"):
        bind_and_eval(parse_expr("x1^200"), ("x1",), (100.0,))
