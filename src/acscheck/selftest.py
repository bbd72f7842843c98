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

from . import geometry, nijenhuis
from .geometry import ChartSpec, JetMatrix
from .obstruction import CANCELLATION_LABELS, report_from_jets

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
    *(f"cancellation {label}" for label in CANCELLATION_LABELS),
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
            f"self-test: dims={','.join(map(str, self.dims))} samples={self.samples}"
            f" degree={self.degree} seed={self.seed}",
            "fields: random conjugation frames; points uniform in [0,1]^n",
            "metrics: euclidean plus one random SPD polynomial metric per sample",
            "",
            "hard invariants",
            "  pass/total  check",
        ]
        for name in _CHECK_NAMES:
            passed, total = self.checks[name]
            lines.append(f"  {passed:>4}/{total:<5} {name}")
        lines += self.failures
        lines += ["", "identity residuals (min / median / max over samples)"]
        for name in _RESIDUAL_NAMES:
            values = self.residuals[name]
            low, mid, high = min(values), statistics.median(values), max(values)
            lines.append(f"  {low:.3e} / {mid:.3e} / {high:.3e}  {name}")
        lines += ["", "residual histograms (samples per magnitude bin)"]
        header = ["<=1e-15"] + [f"..1e{int(np.log10(e)):+03d}" for e in _HISTO_EDGES[1:]] + [">1e-03"]
        lines.append("  bins: " + " | ".join(header))
        for name in _RESIDUAL_NAMES:
            # a residual counts in the bin of the first edge it does not exceed
            bins = np.searchsorted(_HISTO_EDGES, self.residuals[name], side="left")
            counts = np.bincount(bins, minlength=len(_HISTO_EDGES) + 1)
            lines.append("  " + " ".join(f"{c:>5}" for c in counts) + "  " + name)
        lines += ["", "overall: " + ("PASS" if self.all_passed() else "FAIL")]
        return "\n".join(lines) + "\n"


def _draw_spd_metric(rng: np.random.Generator, point):
    """I + 0.2 (B + B^T) + small linear perturbation, redrawn until SPD at
    point: exponents and coefficients ``(n, n, n + 1)`` of 1, x1, ..., xn,
    and the metric's jets at the point."""
    n = len(point)
    expo = np.vstack([np.zeros((1, n), dtype=int), np.eye(n, dtype=int)])
    lo, hi = np.minimum.outer(range(n), range(n)), np.maximum.outer(range(n), range(n))
    for _ in range(64):
        b = rng.uniform(-1.0, 1.0, (n, n))
        lin = rng.uniform(-0.05, 0.05, (n, n, n))  # lin[k, i, j]: x_k coefficient
        const = np.eye(n) + 0.2 * (b + b.T)
        coeffs = np.concatenate([const[..., None], np.moveaxis(lin[:, lo, hi], 0, -1)], axis=-1)
        try:
            return expo, coeffs, geometry._metric_jets(*geometry._polynomial_jets(expo, coeffs, point))
        except geometry.MetricError:
            continue
    raise RuntimeError("failed to draw an SPD metric")


def run_selftest(dims, samples: int, degree: int, seed: int) -> SelfTestReport:
    """Run the suite; deterministic in (dims, samples, degree, seed).  The
    samples of a dimension run as one batch, each with the bits it has alone."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    dims = tuple(ChartSpec.default(int(d)).n for d in dims)
    checks = {name: [0, 0] for name in _CHECK_NAMES}
    residuals: dict[str, list[float]] = {name: [] for name in _RESIDUAL_NAMES}
    failures: list[str] = []

    for dim in dims:
        field_seeds, frames, points, metrics = [], [], [], []
        for index in range(samples):
            rng = np.random.default_rng([seed, dim, index])
            field_seeds.append(int(rng.integers(0, 2**63 - 1)))
            expo, frame = geometry._random_frame(dim, degree, field_seeds[-1])
            frames.append(frame)
            points.append(rng.uniform(0.0, 1.0, dim))
            metrics.append(_draw_spd_metric(rng, points[-1])[2])
        points = np.array(points)
        av, ap = geometry._polynomial_jets(expo, np.array(frames), points)
        av[..., range(dim), range(dim)] += 1.0  # the frame's 1 + poly on the diagonal
        j_jm = geometry._conjugate(av, ap)
        g_jm = JetMatrix(np.array([g.values for g in metrics]), np.array([g.partials for g in metrics]))

        n_std = nijenhuis.nijenhuis_standard(j_jm)
        n_red = nijenhuis.nijenhuis_reduced(j_jm)
        rep_e = report_from_jets(j_jm, None, points)
        scale_n = 1.0 + rep_e.n_max_abs
        terms_scale = 1.0 + sum(abs(v) for v in rep_e.ledger.terms.values())
        res_ledger = abs(rep_e.ledger.total - rep_e.contraction)
        # the Euclidean big_n diagonal B_ikik = N^r_ik N^s_ri J^k_s
        diag = np.einsum("...rik,...sri,...ks->...ik", n_std, n_std, j_jm.values)
        diag_scale = 1.0 + np.abs(diag).reshape(samples, -1).sum(-1)
        res_collapse = abs(rep_e.double_trace - rep_e.contraction)
        one, every = np.ones(samples), np.full(samples, True)
        # per check: residual, tolerance, scale and the samples it applies to
        hard = (
            (rep_e.j_squared_residual, TOL_ACS, one, every),
            (np.max(np.abs(n_std - n_red), axis=(-3, -2, -1)), TOL_EQUIV, scale_n, every),
            (np.max(np.abs(n_std + np.swapaxes(n_std, -1, -2)), axis=(-3, -2, -1)), TOL_ANTISYM, one, every),
            (nijenhuis.j_swap_residual(n_std, j_jm.values), TOL_SWAP, scale_n, every),
            (res_ledger, TOL_LEDGER, terms_scale, every),
            (np.maximum(abs(rep_e.contraction), abs(rep_e.double_trace)), TOL_ZERO_PROP, one,
             rep_e.n_max_abs <= TOL_ZERO_N),
            (res_collapse, TOL_COLLAPSE, diag_scale, every),
        )
        failed = []
        for name, (residual, tol, scale, applies) in zip(_CHECK_NAMES, hard, strict=True):
            passed = applies & (residual <= tol * scale)
            checks[name][0] += int(passed.sum())
            checks[name][1] += int(applies.sum())
            failed.append(applies & ~passed)
        for b, k in zip(*np.nonzero(np.transpose(failed))):  # sample by sample, checks in table order
            residual, tol, scale, _ = hard[k]
            pt = ", ".join(format(v, ".17g") for v in points[b])
            failures.append(
                f"  failed: {_CHECK_NAMES[k]} at dim={dim} sample={b} field_seed={field_seeds[b]}"
                f" point=({pt}): {residual[b] / scale[b]:.3e} > {tol:.0e}"
                f" frame_cond={j_jm.frame_cond[b]:.3e}"
            )

        rep_g = report_from_jets(j_jm, g_jm, points)
        values = (
            res_ledger / terms_scale,
            res_collapse / diag_scale,
            rep_e.identity_residual_trace,
            rep_g.identity_residual_trace,
            rep_e.identity_residual_contraction,
            *(rep_e.cancellation_residuals[label] for label in CANCELLATION_LABELS),
            abs(rep_e.double_trace - rep_g.double_trace),
        )
        for name, value in zip(_RESIDUAL_NAMES, values, strict=True):
            residuals[name].extend(value.tolist())

    return SelfTestReport(dims, samples, degree, seed, checks, residuals, failures)
