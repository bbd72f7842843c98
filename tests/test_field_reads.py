"""What a field's jets read: `reads` of each field record, and the partials
rule of `expr.partial_variables` behind a pullback's.

A scan keys its rows by the coordinates its fields read, so a coordinate
that a field does not read must change no bit of the field's jets, nor the
error its evaluation raises.
"""

import numpy as np
import pytest

import oracle
from acscheck import expr
from acscheck.geometry import ChartSpec, ConjugationField, ExplicitField, MetricField, PullbackField
from acscheck.structures import gallery, parse_structure
from test_acceptance import PULLBACK4_COMPATIBLE

CHART = ChartSpec.default(4)
NAMES = CHART.var_names


@pytest.mark.parametrize(
    "text,reads",
    [
        ("1.5", set()),
        ("x1", set()),
        ("-x1 + 2*x2 - x3/4", set()),
        ("(1 + pi)*x1 - x2*(3 - e)/(2^3)", set()),
        ("x2 + x1^2", {"x1"}),
        ("x4 + x1*x3", {"x1", "x3"}),
        ("x1*x2*0", {"x1", "x2"}),
        ("2/x1", {"x1"}),
        ("x1/(2*x2)", {"x1", "x2"}),
        ("sin(x1) + x2", {"x1"}),
        ("x1^1", {"x1"}),
        ("exp(2)*x3 + x4*x4", {"x4"}),
        ("x3 + x1^x2", {"x1", "x2"}),
    ],
)
def test_partial_variables(text, reads):
    assert expr.partial_variables(expr.parse_expr(text)) == reads


def test_the_gallery_fields_read_fewer_coordinates_than_their_chart():
    assert gallery("standard2n:8").j_field.reads() == set()
    assert gallery("expblock4").j_field.reads() == {"x1"}
    assert gallery("shear4").j_field.reads() == {"x1"}
    assert gallery("pullback4").j_field.reads() == {"x1", "x3"}
    assert parse_structure(PULLBACK4_COMPATIBLE).metric.reads() == {"x1", "x3"}


def _tree(rng, names, depth):
    """A random AST over `names`: sums, differences, negations and products,
    more often than quotients, powers and function calls."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return ("var", str(rng.choice(names)))
        return ("const", float(rng.choice([0.5, 2.0, -1.5, 3.0])))
    op = str(rng.choice(["add", "sub", "neg", "mul", "mul", "add", "div", "pow", *expr.FUNCTIONS]))
    if op in ("neg", *expr.FUNCTIONS):
        return (op, _tree(rng, names, depth - 1))
    return (op, _tree(rng, names, depth - 1), _tree(rng, names, depth - 1))


def _entry(rng, names):
    """A table entry: a random AST a time in four, else a constant, so that
    most tables evaluate."""
    return _tree(rng, names, 3) if rng.random() < 0.25 else ("const", float(rng.uniform(-1.0, 1.0)))


def _scaled(rng, names, diagonal):
    return ("add", ("const", diagonal), ("mul", ("const", 0.1), _entry(rng, names)))


def _fields(rng):
    """One field of each kind: tables over a random part of the chart's
    names, pullback components over all of them."""
    part = list(rng.choice(NAMES, int(rng.integers(1, 4)), replace=False))
    n = len(NAMES)
    yield ExplicitField(tuple(tuple(_entry(rng, part) for _ in range(n)) for _ in range(n)))
    yield ConjugationField(tuple(tuple(_scaled(rng, part, float(i == j)) for j in range(n)) for i in range(n)))
    upper = {(i, j): _scaled(rng, part, 4.0 * (i == j)) for i in range(n) for j in range(i, n)}
    yield MetricField(tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n)))
    yield PullbackField(tuple(("add", ("var", name), ("mul", ("const", 0.1), _tree(rng, NAMES, 4))) for name in NAMES))
    # phi = x + q(x, x) / 2 + c(x, x, x) / 6 in the variables of `part` alone
    q, c = (a[0] for a in oracle.random_polynomial_coefficients(rng, 1, n))
    others = [k for k, name in enumerate(NAMES) if name not in part]
    for axis in range(1, 3):
        np.moveaxis(q, axis, 0)[others] = 0.0
    for axis in range(1, 4):
        np.moveaxis(c, axis, 0)[others] = 0.0
    yield PullbackField(oracle.polynomial_map_components(q, c, NAMES))


def _outcome(field, points):
    try:
        jm = field.eval(CHART, points)
    except ValueError as exc:
        return type(exc), str(exc)
    return jm.values.tobytes(), jm.partials.tobytes()


def test_a_coordinate_a_field_does_not_read_changes_no_bit_of_its_jets():
    rng = np.random.default_rng(36)
    kept = dict.fromkeys(["ExplicitField", "ConjugationField", "MetricField", "PullbackField"], 0)
    for _ in range(150):
        points = rng.uniform(0.2, 1.5, (8, len(NAMES)))
        for field in _fields(rng):
            unread = [k for k, name in enumerate(NAMES) if name not in field.reads()]
            moved = points.copy()
            moved[:, unread] = rng.choice([0.0, -0.0, -0.7, 2.5, 1e300], (len(points), len(unread)))
            outcome = _outcome(field, points)
            assert _outcome(field, moved) == outcome, (field, unread)
            kept[type(field).__name__] += bool(unread) and isinstance(outcome[0], bytes)
    # every kind has jets, not errors, on half its draws or more that move a coordinate
    assert min(kept.values()) >= 75, kept


def test_polynomial_map_components_are_the_oracles_map():
    rng, n = np.random.default_rng(5), len(NAMES)
    point = rng.uniform(-1.0, 1.0, (1, n))
    phi, dphi, ddphi = oracle.random_polynomial_maps(np.random.default_rng(6), point)
    q, c = oracle.random_polynomial_coefficients(np.random.default_rng(6), 1, n)
    components = oracle.polynomial_map_components(q[0], c[0], NAMES)
    values, partials, hessians = expr.eval_table([[node] for node in components], CHART, point[0], order=2)
    np.testing.assert_allclose(values[:, 0], phi[0], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(partials[:, :, 0].T, dphi[0], rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(np.moveaxis(hessians[:, 0], -1, 0), ddphi[0], rtol=1e-13, atol=1e-15)
