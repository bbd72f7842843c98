import numpy as np
import pytest

import oracle
from acscheck import parse_expr
from acscheck.geometry import (
    ChartSpec,
    ConjugationField,
    ExplicitField,
    JetMatrix,
    MetricError,
    MetricField,
    NormalChange,
    SingularFrameError,
    christoffel,
    random_conjugation_acs,
    standard_block,
    validate_acs,
)
from acscheck.obstruction import identity_report
from acscheck.structures import gallery


def _metric_from_texts(rows):
    return MetricField(tuple(tuple(parse_expr(t) for t in row) for row in rows))


def test_chart_validation():
    with pytest.raises(ValueError):
        ChartSpec(3, ("x1", "x2", "x3"))
    with pytest.raises(ValueError):
        ChartSpec(2, ("x1", "x1"))
    with pytest.raises(ValueError):
        ChartSpec(2, ("x1",))
    for name in ("pi", "e", "1a", ""):
        with pytest.raises(ValueError, match=f"^bad variable name {name!r}"):
            ChartSpec(2, (name, "y"))
    chart = ChartSpec.default(4)
    assert chart.var_names == ("x1", "x2", "x3", "x4")


def test_library_chart_variable_named_pi_is_not_shadowed():
    # with `pi` accepted, 'exp(pi*y)' read the constant, J was constant and the obstruction 0.0
    def report(name):
        texts = (("0", f"-exp({name}*y)"), (f"exp(-{name}*y)", "0"))
        field = ExplicitField(tuple(tuple(parse_expr(t) for t in row) for row in texts))
        return identity_report(field, None, ChartSpec(2, (name, "y")), (0.5, 0.5))

    with pytest.raises(ValueError, match="bad variable name 'pi'"):
        report("pi")
    assert report("u")["obstruction"] == pytest.approx(0.2526123168081683, rel=1e-12)


def test_standard_block_squares_to_minus_identity():
    for n in (2, 4, 6, 8):
        j0 = standard_block(n)
        assert np.array_equal(j0 @ j0, -np.eye(n))
    assert standard_block(4)[1, 0] == 1.0
    assert standard_block(4)[0, 1] == -1.0


def test_explicit_constant_field():
    chart = ChartSpec.default(2)
    field = ExplicitField(
        ((("const", 0.0), ("const", -1.0)), (("const", 1.0), ("const", 0.0)))
    )
    jm = field.eval(chart, (0.3, -0.8))
    assert np.array_equal(jm.values, [[0.0, -1.0], [1.0, 0.0]])
    assert np.array_equal(jm.partials, np.zeros((2, 2, 2)))


def test_expblock4_values_and_partials_at_origin():
    sf = gallery("expblock4")
    jm = sf.j_field.eval(sf.chart, (0.0, 0.0, 0.0, 0.0))
    assert jm.values[2, 3] == -1.0
    assert jm.values[3, 2] == 1.0
    assert jm.partials[0, 2, 3] == -1.0
    assert jm.partials[0, 3, 2] == -1.0
    # the finite-difference oracle agrees
    fd = oracle.fd_field_partials(sf.j_field, sf.chart, (0.0, 0.0, 0.0, 0.0))
    assert np.max(np.abs(fd - jm.partials)) < 1e-9


def test_identity_conjugation_reproduces_base():
    chart = ChartSpec.default(4)
    frame = tuple(
        tuple(("const", 1.0 if i == j else 0.0) for j in range(4)) for i in range(4)
    )
    field = ConjugationField(frame)
    jm = field.eval(chart, (0.2, 0.4, -0.1, 0.9))
    assert np.allclose(jm.values, standard_block(4), atol=1e-15)
    assert np.allclose(jm.partials, 0.0, atol=1e-15)


def test_shear4_matches_hand_formula():
    sf = gallery("shear4")
    x1 = 0.7
    jm = sf.j_field.eval(sf.chart, (x1, 0.0, 0.0, 0.0))
    want = standard_block(4)
    want[0, 3] = -x1
    want[1, 2] = -x1
    assert np.allclose(jm.values, want, atol=1e-14)
    assert validate_acs(jm)[0]


def test_singular_frame_raises():
    chart = ChartSpec.default(2)
    # A = diag(1 + x1, 1) is singular at x1 = -1
    frame = ((parse_expr("1 + x1"), ("const", 0.0)), (("const", 0.0), ("const", 1.0)))
    field = ConjugationField(frame)
    with pytest.raises(SingularFrameError):
        field.eval(chart, (-1.0, 0.0))
    jm = field.eval(chart, (0.5, 0.0))
    assert jm.frame_cond is not None and jm.frame_cond < 10.0


def test_pullback_jets_match_fd_oracle():
    sf = gallery("pullback4")
    point = (0.4, -0.3, 0.8, 0.1)
    jm = sf.j_field.eval(sf.chart, point)
    vals = oracle.field_values(sf.j_field, sf.chart, point)
    fd = oracle.fd_field_partials(sf.j_field, sf.chart, point)
    assert np.max(np.abs(vals - jm.values)) < 1e-9
    assert np.max(np.abs(fd - jm.partials)) < 1e-6
    assert validate_acs(jm)[0]


def test_validate_acs_examples():
    ok, residual = validate_acs(JetMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros((2, 2, 2))))
    assert ok and residual == 0.0
    ok, residual = validate_acs(JetMatrix(np.eye(2), np.zeros((2, 2, 2))))
    assert not ok
    assert residual == 2.0


def test_christoffel_euclidean_zero():
    g = JetMatrix(np.eye(3), np.zeros((3, 3, 3)))
    assert np.array_equal(christoffel(g, np.linalg.inv(g.values)), np.zeros((3, 3, 3)))


def test_christoffel_polar_like_metric():
    # g = diag(1, x1^2) at x1 = 2
    chart = ChartSpec.default(2)
    g = _metric_from_texts((("1", "0"), ("0", "x1^2")))
    gm = g.eval(chart, (2.0, 0.0))
    gamma = christoffel(gm, np.linalg.inv(gm.values))
    assert gamma[0, 1, 1] == pytest.approx(-2.0, rel=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(0.5, rel=1e-12)
    assert gamma[1, 1, 0] == pytest.approx(0.5, rel=1e-12)
    # against the finite-difference oracle
    gv = oracle.field_values(g, chart, (2.0, 0.0))
    gp = oracle.fd_field_partials(g, chart, (2.0, 0.0))
    assert np.max(np.abs(gamma - oracle.christoffel_loops(gv, gp))) < 1e-6


def test_christoffel_conformal_metric():
    chart = ChartSpec.default(2)
    g = _metric_from_texts((("exp(2*x1)", "0"), ("0", "exp(2*x1)")))
    gm = g.eval(chart, (0.0, 0.0))
    gamma = christoffel(gm, np.linalg.inv(gm.values))
    assert gamma[0, 0, 0] == pytest.approx(1.0, rel=1e-12)
    assert gamma[0, 1, 1] == pytest.approx(-1.0, rel=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(1.0, rel=1e-12)


def test_christoffel_exactly_symmetric(rng):
    chart = ChartSpec.default(4)
    metric = oracle.random_spd_metric_ast(rng, chart, np.zeros(4))
    gm = metric.eval(chart, rng.uniform(-0.3, 0.3, 4))
    gamma = christoffel(gm, np.linalg.inv(gm.values))
    assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_metric_eval_symmetric_and_spd_checked():
    chart = ChartSpec.default(2)
    g = _metric_from_texts((("1", "x1*x2"), ("x1*x2", "2")))
    gm = g.eval(chart, (0.3, 0.5))
    assert np.array_equal(gm.values, gm.values.T)
    assert np.array_equal(gm.partials, gm.partials.transpose(0, 2, 1))
    bad = _metric_from_texts((("-1", "0"), ("0", "1")))
    assert np.array_equal(bad.eval(chart, (0.0, 0.0)).values, np.diag([-1.0, 1.0]))  # eval returns it
    j = ExplicitField(tuple(tuple(parse_expr(t) for t in row) for row in (("0", "-1"), ("1", "0"))))
    refusal = "^metric is not positive definite at the point$"
    with pytest.raises(MetricError, match=refusal):  # the report refuses it
        identity_report(j, bad, chart, (0.0, 0.0))
    one_bad = _metric_from_texts((("x1", "0"), ("0", "1")))  # indefinite at x1 = -1 only
    identity_report(j, one_bad, chart, np.array([[1.0, 0.0], [0.5, 0.0]]))
    with pytest.raises(MetricError, match=refusal):
        identity_report(j, one_bad, chart, np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]]))


def test_christoffel_and_normal_change_refuse_a_metric_they_cannot_use():
    zero = JetMatrix(np.zeros((2, 2)), np.zeros((2, 2, 2)))
    indefinite = JetMatrix(np.diag([-1.0, 1.0]), np.zeros((2, 2, 2)))
    for g in (zero, indefinite):  # christoffel takes g^-1 from its caller: from_metric is the one refusal
        with pytest.raises(MetricError, match="^metric is not positive definite at the point$"):
            NormalChange.from_metric(g)


def test_normal_transform_euclidean_is_identity_exactly():
    sf = gallery("expblock4")
    jm = sf.j_field.eval(sf.chart, (0.5, 0.1, -0.2, 0.3))
    g = JetMatrix(np.eye(4), np.zeros((4, 4, 4)))
    tj = NormalChange.from_metric(g).transform_endomorphism(jm)
    assert np.array_equal(tj.values, jm.values)
    assert np.array_equal(tj.partials, jm.partials)


def test_normal_change_kills_metric_derivatives(rng):
    for dim in (2, 4):
        chart = ChartSpec.default(dim)
        point = rng.uniform(0.0, 1.0, dim)
        metric = oracle.random_spd_metric_ast(rng, chart, point)
        gm = metric.eval(chart, point)
        change = NormalChange.from_metric(gm)
        tg = oracle.transform_metric(change, gm)
        assert np.max(np.abs(tg.values - np.eye(dim))) < 1e-10
        assert np.max(np.abs(christoffel(tg, np.linalg.inv(tg.values)))) < 1e-8
        assert np.max(np.abs(tg.partials)) < 1e-8


def test_normal_transform_matches_fd_reparameterisation():
    # diag(1, x1^2, 1, 1) metric with the warped-block structure, away from
    # the metric's degeneracy locus
    chart = ChartSpec.default(4)
    metric = _metric_from_texts(
        (
            ("1", "0", "0", "0"),
            ("0", "x1^2", "0", "0"),
            ("0", "0", "1", "0"),
            ("0", "0", "0", "1"),
        )
    )
    sf = gallery("expblock4")
    for point in ((2.0, 0.0, 0.0, 0.0), (1.0, 0.5, -0.3, 0.2)):
        jm = sf.j_field.eval(chart, point)
        gm = metric.eval(chart, point)
        tj = NormalChange.from_metric(gm).transform_endomorphism(jm)
        vals, partials = oracle.normal_transform_fd(sf.j_field, metric, chart, point)
        scale = 1.0 + np.max(np.abs(vals))
        assert np.max(np.abs(tj.values - vals)) < 1e-9 * scale
        pscale = 1.0 + np.max(np.abs(partials))
        assert np.max(np.abs(tj.partials - partials)) < 1e-5 * pscale


def test_random_conjugation_deterministic():
    a = random_conjugation_acs(4, 2, 1234)
    b = random_conjugation_acs(4, 2, 1234)
    assert a == b
    assert random_conjugation_acs(4, 2, 1235) != a


def test_random_conjugation_degree_zero_constant():
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 0, 9)
    jm1 = field.eval(chart, (0.1, 0.2, 0.3, 0.4))
    jm2 = field.eval(chart, (0.9, -0.5, 0.0, 0.7))
    assert np.allclose(jm1.values, jm2.values, atol=1e-12)
    assert np.max(np.abs(jm1.partials)) < 1e-12


def test_random_conjugation_valid_acs_at_100_points(rng):
    for dim in (2, 4):
        chart = ChartSpec.default(dim)
        field = random_conjugation_acs(dim, 2, 77)
        for _ in range(100):
            point = rng.uniform(0.0, 1.0, dim)
            assert validate_acs(field.eval(chart, point), tol=1e-9)[0]


def test_random_conjugation_bad_arguments():
    with pytest.raises(ValueError):
        random_conjugation_acs(3, 2, 0)
    with pytest.raises(ValueError):
        random_conjugation_acs(4, -1, 0)


def test_generated_conjugation_round_trips_through_file_format():
    from acscheck.structures import StructureFile, parse_structure, serialize_structure

    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 5)
    sf = StructureFile(chart, field, None, name="randconj")
    text = serialize_structure(sf)
    assert "kind = conjugation" in text
    again = parse_structure(text)
    point = (0.3, 0.1, 0.7, 0.2)
    a = field.eval(chart, point)
    b = again.j_field.eval(again.chart, point)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.partials, b.partials)
