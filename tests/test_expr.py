import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from acscheck import expr, jets
from acscheck.expr import (
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    bind_and_eval,
    eval_table,
    free_variables,
    parse_expr,
    to_source,
)


def test_grammar_example():
    ast = parse_expr("x1*x2 + sin(x3)")
    assert ast == ("add", ("mul", ("var", "x1"), ("var", "x2")), ("sin", ("var", "x3")))


def test_unary_minus_binds_looser_than_power():
    assert parse_expr("-x1^2") == ("neg", ("pow", ("var", "x1"), ("const", 2.0)))
    assert parse_expr("(-x1)^2") == ("pow", ("neg", ("var", "x1")), ("const", 2.0))


def test_power_right_associative():
    assert parse_expr("2^3^2") == ("pow", ("const", 2.0), ("pow", ("const", 3.0), ("const", 2.0)))


def test_power_negative_exponent():
    assert parse_expr("x1^-2") == ("pow", ("var", "x1"), ("neg", ("const", 2.0)))


def test_left_associative_subtraction():
    assert parse_expr("1 - 2 - 3") == ("sub", ("sub", ("const", 1.0), ("const", 2.0)), ("const", 3.0))


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


_END = "expected a number, name, unary minus or '(', found"


@pytest.mark.parametrize(
    "text, error, message, offset",
    [
        ("x1 ? 2", ExprSyntaxError, "unexpected character '?'", 3),
        ("x1 ² 2", ExprSyntaxError, "unexpected character '²'", 3),
        ("x1 + * ?", ExprSyntaxError, "unexpected character '?'", 7),  # before any grammar error
        ("x1 x2", ExprSyntaxError, "expected an operator or end of input, found 'x2'", 3),
        ("1.5.2", ExprSyntaxError, "expected an operator or end of input, found '.2'", 3),
        ("x1 )", ExprSyntaxError, "expected an operator or end of input, found ')'", 3),
        ("x1 + * x2", ExprSyntaxError, f"{_END} '*'", 5),
        ("+x1", ExprSyntaxError, f"{_END} '+'", 0),
        ("x**2", ExprSyntaxError, f"{_END} '*'", 2),
        ("x1^", ExprSyntaxError, f"{_END} 'end of input'", 3),
        ("sqrt(", ExprSyntaxError, f"{_END} 'end of input'", 5),
        ("(x1 + 2", ExprSyntaxError, "expected ')', found 'end of input'", 7),
        ("(x1 + 2   ", ExprSyntaxError, "expected ')', found 'end of input'", 10),
        ("(x1 x2)", ExprSyntaxError, "expected ')', found 'x2'", 4),
        ("sin(x1", ExprSyntaxError, "expected ')', found 'end of input'", 6),
        ("foo(x1)", ExprNameError, "unknown function 'foo' (offset 0)", None),
        ("1 + bar (x1)", ExprNameError, "unknown function 'bar' (offset 4)", None),
        ("", ExprSyntaxError, "empty expression", 0),
        (" \t\n", ExprSyntaxError, "empty expression", 0),
    ],
)
def test_parse_error_type_message_and_offset(text, error, message, offset):
    with pytest.raises(error) as err:
        parse_expr(text)
    assert type(err.value) is error
    if offset is None:
        assert str(err.value) == message
        assert not hasattr(err.value, "offset")
    else:
        assert str(err.value) == f"{message} (offset {offset})"
        assert err.value.offset == offset


def test_number_forms():
    assert parse_expr("1.5e-3") == ("const", 1.5e-3)
    assert parse_expr(".5") == ("const", 0.5)
    assert parse_expr("2.") == ("const", 2.0)
    assert parse_expr("3E2") == ("const", 300.0)


def test_named_constants():
    assert parse_expr("pi") == ("const", math.pi)
    assert parse_expr("e") == ("const", math.e)
    # still usable inside expressions
    j = bind_and_eval(parse_expr("sin(pi)"), ("x1",), (0.0,))
    assert j.value == pytest.approx(0.0, abs=1e-15)


_NAMES = st.sampled_from(["x1", "x2", "x3", "x4", "u", "alpha_2"])


def _asts():
    leaves = st.one_of(
        st.tuples(st.just("const"), st.floats(0, 100, allow_nan=False).map(float)),
        st.tuples(st.just("var"), _NAMES),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["add", "sub", "mul", "div", "pow"]), children, children),
            st.tuples(st.just("neg"), children),
            st.tuples(st.sampled_from(expr.FUNCTIONS), children),
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
    with pytest.raises(ValueError, match=r"^point has 0 coordinates, chart has 1$"):
        bind_and_eval(parse_expr("x1"), ("x1",), 0.5)  # a scalar is not a coordinate vector


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


@pytest.mark.parametrize(
    "call",
    [
        lambda order: bind_and_eval(("const", 1.0), ["x1"], [0.5], order=order),
        lambda order: bind_and_eval(parse_expr("x1"), ["x1"], [0.5], order=order),
        lambda order: eval_table(((("const", 1.0), ("const", 2.0)),), ["x1"], [[0.5], [0.7]], order=order),
    ],
    ids=["one-constant", "one-variable", "constant-table"],
)
@pytest.mark.parametrize("order", [0, 3])
def test_an_order_other_than_one_or_two_is_refused(call, order):
    with pytest.raises(ValueError, match=r"^order must be 1 or 2$"):
        call(order)


@pytest.mark.parametrize("text", ["x1*x2 + sin(x3)", "exp(-x1)/sqrt(x2 + 2)", "2^3 - 1", "-0"])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("shape", [(3,), (4, 3), (2, 2, 3)], ids=["point", "batch", "grid"])
def test_bind_and_eval_is_the_one_entry_table(rng, text, order, shape):
    node, names = parse_expr(text), ("x1", "x2", "x3")
    points = rng.uniform(0.1, 1.0, shape)
    jet = bind_and_eval(node, names, points, order=order)
    values, partials, hessians = eval_table(((node,),), names, points, order=order)
    if len(shape) == 1:
        assert type(jet.value) is float
    assert np.asarray(jet.value).tobytes() == values[..., 0, 0].tobytes()
    assert jet.grad.shape == shape and jet.grad.tobytes() == partials[..., 0, 0].tobytes()
    if order == 1:
        assert jet.hess is None and hessians is None
    else:
        assert jet.hess.shape == shape + (3,) and jet.hess.tobytes() == hessians[..., 0, 0, :, :].tobytes()


def test_eval_table_upper_copies_the_evaluated_entries(rng):
    # below the diagonal stand trees that cannot be evaluated: they are never walked
    rows = [["x1*x2", "sin(x2)", "2"], ["y", "exp(x1)", "x1 - x2"], ["log(-1)", "y", "x2^2"]]
    table = tuple(tuple(map(parse_expr, row)) for row in rows)
    points = rng.uniform(0.1, 1.0, (5, 2))
    values, partials, _ = eval_table(table, ("x1", "x2"), points, upper=True)
    for i in range(3):
        for j in range(i, 3):
            one = bind_and_eval(table[i][j], ("x1", "x2"), points)
            for a, b in ((i, j), (j, i)):
                assert values[:, a, b].tobytes() == np.asarray(one.value, dtype=float).tobytes()
                assert partials[:, :, a, b].tobytes() == one.grad.tobytes()
    with pytest.raises(ExprNameError):
        eval_table(table, ("x1", "x2"), points)


def test_eval_table_seeds_each_variable_once(monkeypatch, rng):
    seeded = []

    def spy(index, *args):
        seeded.append(index)
        return seed(index, *args)

    seed = jets.seed_variable
    monkeypatch.setattr(jets, "seed_variable", spy)
    table = tuple(tuple(map(parse_expr, row)) for row in [["x1*x3", "x3^2", "1"], ["x1 + x3", "sin(x1)", "x3"]])
    for order in (1, 2):
        seeded.clear()
        eval_table(table, ("x1", "x2", "x3"), rng.uniform(0.1, 1.0, (4, 3)), order=order)
        assert sorted(seeded) == [0, 2]


def test_eval_table_names_the_first_failing_entry_in_row_major_order():
    table = ((parse_expr("x1"), parse_expr("log(x1 - 2)")), (parse_expr("y"), parse_expr("sqrt(-x1)")))
    with pytest.raises(ExprDomainError, match=r"in 'log\(x1 - 2.0\)'$"):
        eval_table(table, ("x1",), (0.5,))


# Nesting is refused before the parser or an AST walker could reach Python's
# recursion limit: past 200 parentheses, calls, unary minuses and powers around
# a token (at the token that opens the 201st), or a tree more than 800 levels
# deep (at the token after the node that passes 800).
@pytest.mark.parametrize(
    "text, offset",
    [
        ("-" + "(" * 400 + "1" + ")" * 400, 200),  # the 200th parenthesis
        ("-" * 1200 + "1", 200),
        ("-" * 985 + "x1", 200),
        ("(" * 201 + "x1" + ")" * 201, 200),
        ("sin(" * 201 + "x1" + ")" * 201, 4 * 201 - 1),  # the 201st call's parenthesis
        ("x1^" * 201 + "x1", 3 * 201 - 1),  # the 201st ^
        ("+".join(["x1"] * 803), 3 * 802 - 1),  # the 802nd +, after the sum of 802 terms
        ("-(" + "*".join(["x1"] * 801) + ")", 2 + 3 * 801),  # the end, after a minus over 800 levels
    ],
    ids=["parentheses", "minuses", "minuses-x1", "parentheses-x1", "calls", "powers", "sum", "minus-product"],
)
def test_nesting_past_the_limit_is_refused(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert str(err.value) == f"expression nested too deeply (offset {offset})"
    assert err.value.offset == offset


@pytest.mark.parametrize(
    "text",
    [
        "(" * 199 + "-x1" + ")" * 199,  # 200 levels around x1
        "sin(" * 199 + "-x1" + ")" * 199,
        "x1^" * 199 + "-x1",
        "+".join(["x1"] * 801),  # a tree of 800 levels
        "sin(" * 199 + "+".join(["x1"] * 601) + ")" * 199,  # 199 + 600 levels
    ],
    ids=["parentheses", "calls", "powers", "sum", "calls-sum"],
)
def test_nesting_at_the_limit_parses_and_every_walker_runs(text):
    ast = parse_expr(text)
    source = to_source(ast)
    assert to_source(parse_expr(source)) == source
    again = parse_expr(text)
    assert again == ast and again is not ast
    assert hash(again) == hash(ast)
    assert repr(ast).count("('var', 'x1')") == source.count("x1")  # prints as the nested tuples it is
    assert free_variables(ast) == {"x1"}
    jet = bind_and_eval(ast, ("x1",), (0.5,))
    assert np.isfinite(jet.value) and np.isfinite(jet.grad).all()


def test_a_domain_error_at_the_limit_names_its_subexpression():
    ast = parse_expr("log(" + "+".join(["x1"] * 800) + ")")  # 800 levels
    with pytest.raises(ExprDomainError, match=r"log of non-positive value in 'log\(x1 \+ x1"):
        bind_and_eval(ast, ("x1",), (-0.5,))
