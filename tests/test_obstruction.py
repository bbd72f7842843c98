import json
from pathlib import Path

import numpy as np
import pytest

import oracle
from test_cli_scan import NEAR_ACS4, NEAR_ACS4_POINT
from acscheck import parse_expr
from acscheck.cli import main
from acscheck.geometry import (
    ChartSpec,
    ConjugationField,
    ExplicitField,
    JetMatrix,
    random_conjugation_acs,
    standard_block,
)
from acscheck.nijenhuis import big_n, contraction_scalar, nijenhuis_standard
from acscheck.obstruction import (
    CANCELLATION_LABELS,
    SCALARS,
    TERM_NAMES,
    VERDICT_CONSISTENT,
    VERDICT_INVALID_ACS,
    VERDICT_LEDGER_ANOMALY,
    cancellation_residuals,
    identity_report,
    obstruction_scalar,
    render_report,
    report_from_jets,
    term_ledger,
)
from acscheck.structures import gallery, load_structure, parse_structure


def test_constant_structure_all_zero():
    jm = JetMatrix(standard_block(4), np.zeros((4, 4, 4)))
    assert obstruction_scalar(jm) == 0.0
    ledger = term_ledger(jm)
    assert all(ledger[name] == 0.0 for name in TERM_NAMES)
    assert ledger["first_quadratic"] == 0.0
    assert ledger["total"] == 0.0


def test_pointwise_antisymmetric_family_vanishes():
    # J = R J0 R^T with R(x) a rotation mixing two block planes: J stays
    # antisymmetric, so sum_l J^i_l J^k_l is the identity and the obstruction
    # formula must vanish even though J varies
    chart = ChartSpec.default(4)
    rot = (
        ("1", "0", "0", "0"),
        ("0", "cos(x1)", "-sin(x1)", "0"),
        ("0", "sin(x1)", "cos(x1)", "0"),
        ("0", "0", "0", "1"),
    )
    frame = tuple(tuple(parse_expr(t) for t in row) for row in rot)
    field = ConjugationField(frame)
    for x1 in (0.0, 0.4, 1.3):
        jm = field.eval(chart, (x1, 0.0, 0.0, 0.0))
        assert np.max(np.abs(jm.values + jm.values.T)) < 1e-12
        assert np.max(np.abs(jm.partials)) > 0.1  # the family really varies
        assert abs(obstruction_scalar(jm)) < 1e-12


def test_obstruction_matches_loop_oracle(rng):
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 61)
    jm = field.eval(chart, rng.uniform(0.0, 1.0, 4))
    assert obstruction_scalar(jm) == pytest.approx(
        oracle.obstruction_loops(jm.values, jm.partials), rel=1e-10, abs=1e-12
    )


def test_ledger_total_equals_sum_of_terms(rng):
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 71)
    jm = field.eval(chart, rng.uniform(0.0, 1.0, 4))
    ledger = term_ledger(jm)
    assert ledger["total"] == pytest.approx(
        sum(ledger[name] for name in TERM_NAMES), abs=1e-15
    )
    assert list(ledger) == [*TERM_NAMES, "first_quadratic", "total"]


def test_ledger_total_matches_contraction(rng):
    chart = ChartSpec.default(4)
    for seed in (3, 13, 23):
        field = random_conjugation_acs(4, 2, seed)
        jm = field.eval(chart, rng.uniform(0.0, 1.0, 4))
        ledger = term_ledger(jm)
        contr = contraction_scalar(nijenhuis_standard(jm), jm.values)
        scale = 1.0 + abs(contr) + sum(abs(ledger[name]) for name in TERM_NAMES)
        assert abs(ledger["total"] - contr) <= 1e-9 * scale


def test_quadratic_scaling_of_derivative_quantities(rng):
    # pulling the field back under x -> 2x scales first partials by 1/2 and
    # every derivative-quadratic scalar by 1/4
    lam = 2.0
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 81)
    point = rng.uniform(0.0, 0.5, 4)
    jm = field.eval(chart, lam * point)
    scaled = JetMatrix(jm.values, jm.partials / lam)
    for fn in (obstruction_scalar, lambda m: term_ledger(m)["total"]):
        a = fn(jm)
        b = fn(scaled)
        assert b == pytest.approx(a / lam**2, rel=1e-9, abs=1e-12)
    ca = contraction_scalar(nijenhuis_standard(jm), jm.values)
    cb = contraction_scalar(nijenhuis_standard(scaled), scaled.values)
    assert cb == pytest.approx(ca / lam**2, rel=1e-9, abs=1e-12)


def test_zero_propagation_for_integrable_inputs(rng):
    sf = gallery("pullback4")
    for _ in range(10):
        point = rng.uniform(-1.0, 1.0, 4)
        jm = sf.j_field.eval(sf.chart, point)
        comps = nijenhuis_standard(jm)
        assert np.max(np.abs(comps)) < 1e-8
        assert abs(contraction_scalar(comps, jm.values)) < 1e-12
        bn = big_n(comps, jm.values, np.eye(4))
        assert np.max(np.abs(bn)) < 1e-12


def test_report_constant_structure():
    sf = gallery("standard2n:2")
    rep = identity_report(sf.j_field, sf.metric, sf.chart, (0.0, 0.0))
    assert rep["verdict"] == VERDICT_CONSISTENT
    assert rep["j_squared_residual"] == 0.0
    assert rep["n_max_abs"] == 0.0
    assert rep["obstruction"] == 0.0
    assert rep["contraction"] == 0.0
    assert rep["double_trace"] == 0.0
    assert rep["identity_residual_trace"] == 0.0
    assert rep["identity_residual_contraction"] == 0.0


# one 4-D structure per J kind, and one with a metric section
DIM4_STRUCTURES = {
    "explicit": "[chart]\ndim = 4\n[J]\n1 2 = -1\n2 1 = 1\n3 4 = -exp(x1)\n4 3 = exp(-x1)\n",
    "conjugation": "[chart]\ndim = 4\n[J]\nkind = conjugation\n1 3 = x1\n",
    "pullback": "[chart]\ndim = 4\n[J]\nkind = pullback\n2 = x2 + x1^2\n",
    "metric": "[chart]\ndim = 4\n[J]\nkind = pullback\n2 = x2 + x1^2\n[metric]\n1 1 = 1 + x1^2\n",
}


@pytest.mark.parametrize("kind", sorted(DIM4_STRUCTURES))
def test_report_point_dimension_checked(kind):
    sf = parse_structure(DIM4_STRUCTURES[kind])
    with pytest.raises(ValueError, match=r"^point has 3 coordinates, chart has 4$"):
        identity_report(sf.j_field, sf.metric, sf.chart, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"^point has 0 coordinates, chart has 4$"):
        identity_report(sf.j_field, sf.metric, sf.chart, 0.5)


@pytest.mark.parametrize("kind", sorted(DIM4_STRUCTURES))
def test_cli_check_refuses_a_point_of_the_wrong_length(kind, tmp_path, capsys):
    path = tmp_path / "structure.acs"
    path.write_text(DIM4_STRUCTURES[kind], encoding="utf-8")
    assert main(["check", str(path), "--point", "0,0,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "acscheck: error: point has 3 coordinates, chart has 4\n"


def test_report_invalid_acs():
    chart = ChartSpec.default(2)
    field = ExplicitField(
        ((parse_expr("1"), parse_expr("0")), (parse_expr("0"), parse_expr("1")))
    )
    rep = identity_report(field, None, chart, (0.0, 0.0))
    assert rep["verdict"] == VERDICT_INVALID_ACS
    assert rep["j_squared_residual"] == 2.0


def test_report_ledger_anomaly_under_absurd_tolerance():
    sf = parse_structure(NEAR_ACS4)
    rep = identity_report(
        sf.j_field, sf.metric, sf.chart, NEAR_ACS4_POINT, tol_alg=1, tol_identity=1e-30
    )
    assert rep["verdict"] == VERDICT_LEDGER_ANOMALY


def test_report_uses_normal_coordinates_for_metric(rng):
    # with a non-Euclidean metric the obstruction side runs on transformed
    # jets; for the Euclidean metric written as an explicit field the result
    # must agree with the metric-omitted path exactly up to rounding
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 91)
    point = rng.uniform(0.0, 1.0, 4)
    euclid = tuple(
        tuple(parse_expr("1" if i == j else "0") for j in range(4)) for i in range(4)
    )
    from acscheck.geometry import MetricField

    rep_none = identity_report(field, None, chart, point)
    rep_euclid = identity_report(field, MetricField(euclid), chart, point)
    assert rep_euclid["obstruction"] == pytest.approx(rep_none["obstruction"], rel=1e-12, abs=1e-12)
    assert rep_euclid["double_trace"] == pytest.approx(rep_none["double_trace"], rel=1e-12, abs=1e-12)


# |covariant form - report obstruction| <= C_COVARIANT * u * S * max(1, |J|)^2,
# S = 1 + sum of |ledger terms|: the obstruction carries two factors of J, so its
# rounding grows with |J|^2.  The largest ratio measured over 450 samples (n = 2, 4
# and 6, numpy seeds 0-4) was 8.1; frames up to kappa_1 = 2e3 give |J| up to 300.
C_COVARIANT = 32


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_covariant_form_equals_the_report_obstruction(dim):
    # -nabla_j(J g^-1 J^T)^{ik} nabla_i J^j_k in the original chart: the report's
    # jets in the Cholesky frame are nabla J, so the two agree under any SPD metric
    rng = np.random.default_rng(dim)
    chart = ChartSpec.default(dim)
    for _ in range(8):
        field = random_conjugation_acs(dim, 2, int(rng.integers(1 << 30)))
        point = rng.uniform(0.0, 1.0, dim)
        jm = field.eval(chart, point)
        gm = oracle.random_spd_metric_ast(rng, chart, point).eval(chart, point)
        rep = report_from_jets(jm, gm, point)
        cov = oracle.covariant_obstruction_loops(jm.values, jm.partials, gm.values, gm.partials)
        scale = (1 + sum(abs(rep["ledger"][name]) for name in TERM_NAMES)) * max(1.0, np.max(np.abs(jm.values))) ** 2
        assert abs(cov - rep["obstruction"]) <= C_COVARIANT * 2.0**-53 * scale
        assert abs(cov) > 1e-3  # not a rounding of 0


def test_report_with_random_metric_consistent(rng):
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 101)
    point = rng.uniform(0.0, 1.0, 4)
    metric = oracle.random_spd_metric_ast(rng, chart, point)
    rep = identity_report(field, metric, chart, point)
    assert rep["verdict"] == VERDICT_CONSISTENT
    assert np.isfinite(rep["obstruction"])
    assert np.isfinite(rep["double_trace"])
    for value in rep["cancellation_residuals"].values():
        assert np.isfinite(value)


def test_json_dict_schema():
    sf = gallery("expblock4")
    payload = identity_report(sf.j_field, sf.metric, sf.chart, (0.0, 0.0, 0.0, 0.0))
    assert list(payload) == [
        "point",
        "j_squared_residual",
        "n_max_abs",
        "obstruction",
        "contraction",
        "double_trace",
        "identity_residual_trace",
        "identity_residual_contraction",
        "ledger",
        "cancellation_residuals",
        "verdict",
    ]
    assert list(payload["ledger"]) == list(TERM_NAMES) + ["first_quadratic", "total"]
    labels = ["II3+IV3", "II2+III2", "II5+IV2", "II1+II4", "I2+I3", "I4+III1", "III1-III3", "first_quadratic"]
    assert list(CANCELLATION_LABELS) == labels
    assert list(payload["cancellation_residuals"]) == labels


# the five structures of the benchmark's cold checks
COLD_CHECKS = ("standard2n:4", "expblock4", "shear4", "pullback4", "pullback4_compatible.acs")


@pytest.mark.parametrize("name", COLD_CHECKS)
def test_check_prints_the_report_identity_report_returns(name, capsys):
    if name.endswith(".acs"):
        spec = str(Path(__file__).resolve().parent.parent / "bench" / "structures" / name)
        sf = load_structure(spec)
    else:
        spec, sf = f"gallery:{name}", gallery(name)
    point = (0.3, -0.7, 0.1, 0.9)
    rep = identity_report(sf.j_field, sf.metric, sf.chart, point)
    argv = ["check", spec, "--point=" + ",".join(map(str, point))]
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == rep
    assert main(argv) == 0
    assert capsys.readouterr().out == render_report(rep)
    assert main(["verify-derivation", *argv[1:]]) == 0
    assert capsys.readouterr().out == render_report(rep, ledger_detail=True)


def test_cancellation_residuals_match_their_labels(rng):
    # arbitrary jets, not a structure: no cancellation holds, so the eight
    # residuals differ and a value under the wrong label would show
    ledger = term_ledger(JetMatrix(rng.normal(size=(4, 4)), rng.normal(size=(4, 4, 4))))
    terms = ledger
    expected = {f"{a}+{b}": abs(terms[a] + terms[b]) for a, b in (
        ("II3", "IV3"), ("II2", "III2"), ("II5", "IV2"), ("II1", "II4"), ("I2", "I3"), ("I4", "III1"))}
    expected["III1-III3"] = abs(terms["III1"] - terms["III3"])
    expected["first_quadratic"] = abs(ledger["first_quadratic"])
    assert len(set(expected.values())) == len(expected)
    assert cancellation_residuals(ledger) == expected


def test_scalars_are_the_report_fields_in_output_order():
    sf = gallery("shear4")
    rep = identity_report(sf.j_field, sf.metric, sf.chart, (0.3, 0.7, 0.1, 0.9))
    assert list(rep)[1 : 1 + len(SCALARS)] == list(SCALARS)
    lines = render_report(rep).splitlines()
    assert lines[2 : 2 + len(SCALARS)] == [f"{name}: {rep[name]:.17g}" for name in SCALARS]


def test_cli_check_json_cancellation_residuals_in_label_order(capsys):
    assert main(["check", "gallery:shear4", "--point", "0.3,0.7,0.1,0.9", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["cancellation_residuals"]) == list(CANCELLATION_LABELS)
    assert main(["check", "gallery:shear4", "--point", "0.3,0.7,0.1,0.9"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = lines[lines.index("cancellation residuals:") + 1 :]
    assert [row.split()[0] for row in rows] == list(CANCELLATION_LABELS)


def test_report_from_jets_reuses_evaluated_jets(rng):
    chart = ChartSpec.default(4)
    field = random_conjugation_acs(4, 2, 111)
    point = rng.uniform(0.0, 1.0, 4)
    jm = field.eval(chart, point)
    rep1 = report_from_jets(jm, None, point)
    rep2 = identity_report(field, None, chart, point)
    assert rep1["obstruction"] == rep2["obstruction"]
    assert rep1["ledger"]["total"] == rep2["ledger"]["total"]


@pytest.mark.parametrize(
    "text, euclidean",
    [
        # shear4, A = I + x1 E13
        (
            "[J]\nkind = conjugation\n1 3 = x1\n"
            "[metric]\n1 3 = -x1\n3 3 = 1 + x1^2\n",
            lambda x: 0.0,
        ),
        # A = I + x2 E12 + x1 E13; N^1_12 = -(1 + x2^2)
        (
            "[J]\nkind = conjugation\n1 2 = x2\n1 3 = x1\n"
            "[metric]\n1 2 = -x2\n1 3 = -x1\n2 2 = 1 + x2^2\n2 3 = x1*x2\n"
            "3 3 = 1 + x1^2\n",
            lambda x: 2.0 * x[1] * (x[0] + 1.0),
        ),
    ],
)
def test_obstruction_vanishes_under_compatible_metric(rng, text, euclidean):
    # J = A J0 A^-1 satisfies J^T g J = g for g = A^-T A^-1 (here A^-1 = 2I - A):
    # in coordinates normal for a J-compatible g, J J^T = I to first order at
    # the point, so the obstruction vanishes although N does not
    sf = parse_structure("[chart]\ndim = 4\n" + text)
    for _ in range(10):
        point = rng.uniform(-1.0, 1.0, 4)
        jm = sf.j_field.eval(sf.chart, point)
        g = sf.metric.eval(sf.chart, point).values
        assert np.max(np.abs(jm.values.T @ g @ jm.values - g)) < 1e-12
        rep = identity_report(sf.j_field, sf.metric, sf.chart, point)
        assert rep["n_max_abs"] >= 1.0
        assert abs(rep["obstruction"]) < 1e-12
        assert obstruction_scalar(jm) == pytest.approx(
            euclidean(point), rel=1e-9, abs=1e-12
        )
