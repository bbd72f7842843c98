"""Randomised self-test suite.

Draws random conjugation structures, evaluates them at random points of the
unit box [0,1]^n, counts the hard invariants (facts that must hold for any
well-formed input), and tabulates the residuals of the identities whose
truth is the package's experimental subject: the double-trace identity, the
final reduction to the obstruction scalar, the individual cancellation
claims, and the metric independence of the double trace.

Each sample uses its own child generator seeded by (seed, dim, index), so a
sample's draws never depend on how many experiments earlier samples ran.

Cancellation identities are compared at tolerances relative to the magnitude
of the summed terms: that sum is the conditioning scale of the cancellation,
and the two sides of such an identity are near zero by construction.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from . import expr, geometry, nijenhuis
from .geometry import ChartSpec, MetricField
from .obstruction import report_from_jets

__all__ = ["SelfTestReport", "run_selftest"]

TOL_ACS = 1e-9
TOL_EQUIV = 1e-9
TOL_ANTISYM = 1e-9
TOL_SWAP = 1e-9
TOL_LEDGER = 1e-9
TOL_ZERO_N = 1e-8
TOL_ZERO_PROP = 1e-12
TOL_COLLAPSE = 1e-10

_CHECK_NAMES = (
    "acs validity (max |J^2+I| <= 1e-09)",
    "formula equivalence (standard vs reduced, rel <= 1e-09)",
    "antisymmetry (max |N^k_ij + N^k_ji| <= 1e-09)",
    "swap identity N(Je_i,Je_j) = -N(e_i,e_j) (scaled <= 1e-09)",
    "ledger total vs contraction (scaled <= 1e-09)",
    "zero propagation (N=0 => scalars <= 1e-12)",
    "euclidean trace collapse (scaled <= 1e-10)",
)

_RESIDUAL_NAMES = (
    "ledger total vs contraction (hard identity)",
    "double trace vs contraction (hard identity)",
    "double trace vs obstruction (euclidean)",
    "double trace vs obstruction (random SPD metric)",
    "contraction vs obstruction (final reduction)",
    "cancellation II3+IV3",
    "cancellation II2+III2",
    "cancellation II5+IV2",
    "cancellation II1+II4",
    "cancellation I2+I3",
    "cancellation I4+III1",
    "cancellation III1-III3",
    "cancellation first_quadratic",
    "metric independence of double trace",
)

_HISTO_EDGES = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)


@dataclass
class SelfTestReport:
    dims: tuple[int, ...]
    samples: int
    degree: int
    seed: int
    checks: dict[str, list[int]]  # name -> [passed, applicable]
    residuals: dict[str, list[float]]
    failures: list[str]  # one line per failed check of a sample, to replay it

    def all_passed(self) -> bool:
        return all(p == t for p, t in self.checks.values())

    def render_text(self) -> str:
        lines = [
            "self-test: dims="
            + ",".join(str(d) for d in self.dims)
            + f" samples={self.samples} degree={self.degree} seed={self.seed}",
            "fields: random conjugation frames; points uniform in [0,1]^n",
            "metrics: euclidean plus one random SPD polynomial metric per sample",
            "",
            "hard invariants",
            "  pass/total  check",
        ]
        for name in _CHECK_NAMES:
            passed, total = self.checks[name]
            lines.append(f"  {passed:>4}/{total:<5} {name}")
        lines.extend(self.failures)
        lines.append("")
        lines.append("identity residuals (min / median / max over samples)")
        for name in _RESIDUAL_NAMES:
            values = self.residuals[name]
            lines.append(
                "  "
                + format(min(values), ".3e")
                + " / "
                + format(statistics.median(values), ".3e")
                + " / "
                + format(max(values), ".3e")
                + "  "
                + name
            )
        lines.append("")
        lines.append("residual histograms (samples per magnitude bin)")
        header = ["<=1e-15"] + [
            f"..1e{int(np.log10(e)):+03d}" for e in _HISTO_EDGES[1:]
        ] + [">1e-03"]
        lines.append("  bins: " + " | ".join(header))
        for name in _RESIDUAL_NAMES:
            counts = _histogram(self.residuals[name])
            lines.append("  " + " ".join(f"{c:>5}" for c in counts) + "  " + name)
        lines.append("")
        lines.append("overall: " + ("PASS" if self.all_passed() else "FAIL"))
        return "\n".join(lines) + "\n"


def _histogram(values) -> list[int]:
    counts = [0] * (len(_HISTO_EDGES) + 1)
    for v in values:
        for idx, edge in enumerate(_HISTO_EDGES):
            if v <= edge:
                counts[idx] += 1
                break
        else:
            counts[-1] += 1
    return counts


def _random_spd_metric(rng: np.random.Generator, chart: ChartSpec, point) -> MetricField:
    """I + 0.2 (B + B^T) + small linear perturbation, redrawn until SPD at point."""
    n = chart.n
    names = chart.var_names
    for _ in range(64):
        b = rng.uniform(-1.0, 1.0, (n, n))
        sym = 0.2 * (b + b.T)
        lin = rng.uniform(-0.05, 0.05, (n, n, n))  # lin[k, i, j]: x_k coefficient
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                const = (1.0 if i == j else 0.0) + sym[i, j]
                node: expr.ExprNode = expr.Const(const)
                for k in range(n):
                    c = float(lin[k, min(i, j), max(i, j)])
                    term = expr.Binary("mul", expr.Const(abs(c)), expr.Var(names[k]))
                    if c < 0:
                        term = expr.Unary("neg", term)
                    node = expr.Binary("add", node, term)
                row.append(node)
            rows.append(tuple(row))
        field = MetricField(tuple(rows))
        try:
            field.eval(chart, point)
        except geometry.MetricError:
            continue
        return field
    raise RuntimeError("failed to draw an SPD metric")


def run_selftest(dims, samples: int, degree: int, seed: int) -> SelfTestReport:
    """Run the suite; deterministic in (dims, samples, degree, seed)."""
    dims = tuple(int(d) for d in dims)
    if samples < 1:
        raise ValueError("samples must be at least 1")
    for d in dims:
        if d <= 0 or d % 2:
            raise ValueError("dims must be positive even integers")
    checks = {name: [0, 0] for name in _CHECK_NAMES}
    residuals: dict[str, list[float]] = {name: [] for name in _RESIDUAL_NAMES}
    failures: list[str] = []

    def record(k: int, residual: float, tol: float, scale: float = 1.0) -> None:
        name = _CHECK_NAMES[k]
        checks[name][1] += 1
        if residual <= tol * scale:
            checks[name][0] += 1
            return
        pt = ", ".join(format(v, ".17g") for v in point)
        failures.append(
            f"  failed: {name} at dim={dim} sample={index} field_seed={field_seed}"
            f" point=({pt}): {residual / scale:.3e} > {tol:.0e}"
        )

    for dim in dims:
        chart = ChartSpec.default(dim)
        for index in range(samples):
            rng = np.random.default_rng([seed, dim, index])
            field_seed = int(rng.integers(0, 2**63 - 1))
            field = geometry.random_conjugation_acs(dim, degree, field_seed)
            point = rng.uniform(0.0, 1.0, dim)
            metric = _random_spd_metric(rng, chart, point)

            j_jm = field.eval(chart, point)
            record(0, float(geometry.validate_acs(j_jm).residual), TOL_ACS)

            n_std = nijenhuis.nijenhuis_standard(j_jm)
            n_red = nijenhuis.nijenhuis_reduced(j_jm)
            scale_n = float(np.max(np.abs(n_std)))
            record(1, float(np.max(np.abs(n_std - n_red))), TOL_EQUIV, 1.0 + scale_n)
            record(2, float(np.max(np.abs(n_std + n_std.transpose(0, 2, 1)))), TOL_ANTISYM)
            record(3, nijenhuis.j_swap_residual(n_std, j_jm.values), TOL_SWAP, 1.0 + scale_n)

            rep_e = report_from_jets(j_jm, None, point)
            terms_scale = 1.0 + sum(abs(v) for v in rep_e.ledger.terms.values())
            res_ledger = abs(rep_e.ledger.total - rep_e.contraction)
            record(4, res_ledger, TOL_LEDGER, terms_scale)

            if rep_e.n_max_abs <= TOL_ZERO_N:
                bn = nijenhuis.big_n(n_std, j_jm.values, np.eye(dim))
                scalars = (abs(rep_e.contraction), abs(rep_e.double_trace), np.max(np.abs(bn)))
                record(5, float(max(scalars)), TOL_ZERO_PROP)
            # the Euclidean big_n diagonal B_ikik = N^r_ik N^s_ri J^k_s
            diag = np.einsum("rik,sri,ks->ik", n_std, n_std, j_jm.values)
            diag_scale = 1.0 + float(np.sum(np.abs(diag)))
            res_collapse = abs(rep_e.double_trace - rep_e.contraction)
            record(6, res_collapse, TOL_COLLAPSE, diag_scale)

            g_jm = metric.eval(chart, point)
            rep_g = report_from_jets(j_jm, g_jm, point)

            values = (
                res_ledger / terms_scale,
                res_collapse / diag_scale,
                rep_e.identity_residual_trace,
                rep_g.identity_residual_trace,
                rep_e.identity_residual_contraction,
                *rep_e.cancellation_residuals.values(),  # II3+IV3 ... first_quadratic
                abs(rep_e.double_trace - rep_g.double_trace),
            )
            for name, value in zip(_RESIDUAL_NAMES, values, strict=True):
                residuals[name].append(value)

    return SelfTestReport(dims, samples, degree, seed, checks, residuals, failures)
