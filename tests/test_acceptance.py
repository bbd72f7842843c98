"""Acceptance gate: each criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Identity comparisons between near-cancelling sums use tolerances relative to
the magnitude of the summed terms (the conditioning scale of a
cancellation); see the per-criterion comments.
"""

import csv
import json
import time

import numpy as np
import pytest

import oracle
from test_cli_scan import NEAR_ACS4
from acscheck.cli import main
from acscheck.geometry import ChartSpec, NormalChange, christoffel
from acscheck.nijenhuis import contraction_scalar, double_trace, nijenhuis_standard
from acscheck.obstruction import identity_report, obstruction_scalar, term_ledger
from acscheck.scan import GridSpec, run_scan
from acscheck.selftest import run_selftest
from acscheck.structures import gallery, parse_structure, serialize_structure

SUITE_DIMS = (2, 4, 6)
SUITE_SAMPLES = 100
SUITE_DEGREE = 2
SUITE_SEED = 42


@pytest.fixture(scope="module")
def suite():
    t0 = time.perf_counter()
    report = run_selftest(SUITE_DIMS, SUITE_SAMPLES, SUITE_DEGREE, SUITE_SEED)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def _announce(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")


def test_criterion_1_formula_equivalence_suite(suite):
    report, elapsed = suite
    names = [
        "acs validity (max |J^2+I| <= 1e-09)",
        "formula equivalence (standard vs reduced, rel <= 1e-09)",
        "antisymmetry (max |N^k_ij + N^k_ji| <= 1e-09)",
        "swap identity N(Je_i,Je_j) = -N(e_i,e_j) (scaled <= 1e-09)",
    ]
    counts = {n: tuple(report.checks[n]) for n in names}
    ok = all(p == t and t == len(SUITE_DIMS) * SUITE_SAMPLES for p, t in counts.values())
    ok = ok and elapsed < 30.0
    _announce(1, "formula equivalence over the random suite", ok,
              f"elapsed {elapsed:.1f}s, counts {sorted(counts.values())}")
    assert ok


# pullback4 with the metric g = Dphi^T Dphi, phi = (x1, x2 + x1^2, x3, x4 + x1*x3);
# g is J-compatible, g(JX, JY) = g(X, Y), for J = Dphi^-1 J0 Dphi
PULLBACK4_COMPATIBLE = """\
[chart]
dim = 4
[J]
kind = pullback
2 = x2 + x1^2
4 = x4 + x1*x3
[metric]
1 1 = 1 + 4*x1^2 + x3^2
1 2 = 2*x1
1 3 = x1*x3
1 4 = x3
3 3 = 1 + x1^2
3 4 = x1
"""


def test_criterion_2_zero_propagation():
    # constant structures and the integrable pullback, 100 random points
    # each: |N|, the contraction and the double trace <= 1e-8, and the
    # obstruction <= 1e-8 in coordinates normal for a J-compatible metric
    # (Euclidean for the constant structures, Dphi^T Dphi for pullback4).
    # Under the Euclidean metric pullback4's obstruction is not zero but the
    # closed form 20*x1, derived exactly in tests/test_symbolic.py.
    rng = np.random.default_rng(20250809)
    compatible = parse_structure(PULLBACK4_COMPATIBLE)
    assert compatible.j_field.components == gallery("pullback4").j_field.components
    cases = (
        ("standard2n:2", None),
        ("standard2n:4", None),
        ("standard2n:6", None),
        ("pullback4", compatible.metric),
    )
    failures = []
    details = []
    for name, metric in cases:
        sf = gallery(name)
        n = sf.chart.n
        maxima = {
            "n": 0.0,
            "obstruction": 0.0,
            "contraction": 0.0,
            "double_trace": 0.0,
            "j_compatibility": 0.0,
        }
        euclid_max = 0.0
        euclid_misses = []
        for _ in range(100):
            point = rng.uniform(-1.0, 1.0, n)
            jm = sf.j_field.eval(sf.chart, point)
            g = np.eye(n) if metric is None else metric.eval(sf.chart, point).values
            comps = nijenhuis_standard(jm)
            rep = identity_report(sf.j_field, metric, sf.chart, point)
            maxima["n"] = max(maxima["n"], float(np.max(np.abs(comps))))
            maxima["obstruction"] = max(maxima["obstruction"], abs(rep["obstruction"]))
            maxima["contraction"] = max(
                maxima["contraction"], abs(contraction_scalar(comps, jm.values))
            )
            maxima["double_trace"] = max(
                maxima["double_trace"], abs(double_trace(comps, jm.values, np.eye(n)))
            )
            maxima["j_compatibility"] = max(
                maxima["j_compatibility"],
                float(np.max(np.abs(jm.values.T @ g @ jm.values - g))),
            )
            if name == "pullback4":
                euclidean = obstruction_scalar(jm)
                euclid_max = max(euclid_max, abs(euclidean))
                if euclidean != pytest.approx(20.0 * point[0], rel=1e-9):
                    euclid_misses.append((float(point[0]), euclidean))
        bad = {k: v for k, v in maxima.items() if v > 1e-8}
        if bad:
            failures.append((name, bad))
        if euclid_misses:
            failures.append((name, {"euclidean obstruction != 20*x1": euclid_misses}))
        metric_name = "euclidean" if metric is None else "Dphi^T Dphi"
        details.append(
            f"{name}: max|obstruction|={maxima['obstruction']:.3e} ({metric_name})"
        )
        if name == "pullback4":
            details[-1] += (
                f", max|obstruction|={euclid_max:.3e} (euclidean),"
                f" {100 - len(euclid_misses)}/100 equal to 20*x1"
            )
    ok = not failures
    _announce(2, "zero propagation on integrable inputs", ok, "; ".join(details))
    assert ok, f"zero propagation or the euclidean closed form failed: {failures}"


def test_criterion_3_ledger_total_identity(suite):
    report, _ = suite
    passed, total = report.checks["ledger total vs contraction (scaled <= 1e-09)"]
    worst = max(report.residuals["ledger total vs contraction (hard identity)"])
    ok = passed == total == len(SUITE_DIMS) * SUITE_SAMPLES and worst <= 1e-9
    _announce(3, "ledger total equals contraction", ok,
              f"{passed}/{total}, worst scaled residual {worst:.3e}")
    assert ok


def test_criterion_4_euclidean_trace_collapse(suite):
    report, _ = suite
    passed, total = report.checks["euclidean trace collapse (scaled <= 1e-10)"]
    worst = max(report.residuals["double trace vs contraction (hard identity)"])
    ok = passed == total == len(SUITE_DIMS) * SUITE_SAMPLES and worst <= 1e-10
    _announce(4, "euclidean trace collapse", ok,
              f"{passed}/{total}, worst scaled residual {worst:.3e}")
    assert ok


def test_criterion_5_normal_coordinates():
    rng = np.random.default_rng(555)
    worst_metric = 0.0
    worst_gamma = 0.0
    for k in range(50):
        dim = (2, 4, 6)[k % 3]
        chart = ChartSpec.default(dim)
        point = rng.uniform(0.0, 1.0, dim)
        metric = oracle.random_spd_metric_ast(rng, chart, point)
        gm = metric.eval(chart, point)
        change = NormalChange.from_metric(gm)
        tg = oracle.transform_metric(change, gm)
        worst_metric = max(worst_metric, float(np.max(np.abs(tg.values - np.eye(dim)))))
        worst_gamma = max(worst_gamma, float(np.max(np.abs(christoffel(tg)))))
    ok = worst_metric <= 1e-10 and worst_gamma <= 1e-8
    _announce(5, "normal coordinates", ok,
              f"worst |g~-I| {worst_metric:.3e}, worst |Gamma~| {worst_gamma:.3e}")
    assert ok


def test_criterion_6_oracle_agreement_and_anchors():
    worst = 0.0
    for (name, point), anchors in oracle.ANCHORS.items():
        sf = gallery(name)
        jm = sf.j_field.eval(sf.chart, point)
        j = oracle.field_values(sf.j_field, sf.chart, point)
        d = oracle.fd_field_partials(sf.j_field, sf.chart, point)
        comps = nijenhuis_standard(jm)
        oracle_comps = oracle.nijenhuis_loops(j, d)
        got = {
            "n_max_abs": float(np.max(np.abs(comps))),
            "obstruction": obstruction_scalar(jm),
            "contraction": contraction_scalar(comps, jm.values),
            "double_trace": double_trace(comps, jm.values, np.eye(4)),
            "ledger_total": term_ledger(jm)["total"],
        }
        want = {
            "n_max_abs": float(np.max(np.abs(oracle_comps))),
            "obstruction": oracle.obstruction_loops(j, d),
            "contraction": oracle.contraction_loops(oracle_comps, j),
            "double_trace": oracle.double_trace_loops(
                oracle.big_n_loops(oracle_comps, j, np.eye(4)), np.eye(4)
            ),
            "ledger_total": oracle.contraction_loops(
                oracle.nijenhuis_reduced_loops(j, d), j
            ),
        }
        for key in want:
            rel = abs(got[key] - want[key]) / (1.0 + abs(want[key]))
            worst = max(worst, rel)
            assert rel <= 1e-5, (name, point, key)
            frozen = anchors[key]
            assert got[key] == pytest.approx(frozen, rel=1e-10, abs=1e-12), (
                name,
                point,
                key,
            )
    _announce(6, "finite-difference oracle agreement and frozen anchors", True,
              f"worst oracle deviation {worst:.3e}")


def test_criterion_7_experimental_tables_deterministic(suite):
    report, _ = suite
    rerun = run_selftest(SUITE_DIMS, SUITE_SAMPLES, SUITE_DEGREE, SUITE_SEED)
    same = report.render_text() == rerun.render_text()
    finite = all(np.isfinite(values).all() for values in report.residuals.values())
    ok = same and finite
    _announce(7, "experimental residual tables deterministic and finite", ok,
              f"byte-identical={same}, all-finite={finite}")
    assert ok


def test_criterion_8_cli_contract(tmp_path, capsys):
    # exit-code mapping
    ok = main(["check", "gallery:standard2n:2", "--point", "0,0"]) == 0
    path = tmp_path / "identity.txt"
    path.write_text("[chart]\ndim = 2\n[J]\n1 1 = 1\n2 2 = 1\n", encoding="utf-8")
    ok = ok and main(["check", str(path), "--point", "0,0"]) == 2
    near = tmp_path / "near.acs"
    near.write_text(NEAR_ACS4, encoding="utf-8")
    ok = ok and main(
        ["check", str(near), "--point", "0.3,0.7,0.1,0.9",
         "--tol-alg", "1", "--tol-identity", "1e-30"]
    ) == 3
    ok = ok and main(["check", str(tmp_path / "missing.txt"), "--point", "0,0"]) == 1
    capsys.readouterr()

    # structure-file round trip: load -> serialize -> load gives equal fields
    for name in ("standard2n:4", "expblock4", "shear4", "pullback4"):
        sf = gallery(name)
        text = serialize_structure(sf)
        again = parse_structure(text)
        ok = ok and serialize_structure(again) == text

    # scan row count and enumeration order
    out = tmp_path / "scan.csv"
    grid = GridSpec.parse("0:1:2,0:1:3")
    summary = run_scan(gallery("standard2n:2"), grid, out)
    with out.open() as handle:
        rows = list(csv.reader(handle))[1:]
    ok = ok and summary.rows == 6 == len(rows)
    coords = [(float(r[0]), float(r[1])) for r in rows]
    ok = ok and coords == sorted(coords)  # row-major = lexicographic here

    # JSON report determinism through the CLI
    main(["check", "gallery:expblock4", "--point", "1,0,0,0", "--json"])
    first = capsys.readouterr().out
    main(["check", "gallery:expblock4", "--point", "1,0,0,0", "--json"])
    second = capsys.readouterr().out
    ok = ok and first == second and json.loads(first)["verdict"] == "consistent"

    _announce(8, "CLI contract", ok)
    assert ok
