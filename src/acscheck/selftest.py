"""Randomised self-test suite.

Draws random conjugation structures, evaluates them at random points of the
unit box [0,1]^n, counts the hard invariants (facts that must hold for any
well-formed input), and tabulates the residuals of the identities whose
truth is the package's experimental subject: the double-trace identity, the
final reduction to the obstruction scalar, the individual cancellation
claims, and the metric independence of the double trace.

Each sample draws from its own stream, numpy's ``default_rng([seed, dim,
index])``, so its draws never depend on how many experiments earlier samples ran.

Cancellation identities are compared at tolerances relative to the magnitude
of the summed terms: that sum is the conditioning scale of the cancellation,
and the two sides of such an identity are near zero by construction.
"""

from __future__ import annotations

from array import array

import numpy as np

from . import geometry, nijenhuis
from ._pcg64 import Streams
from ._record import Record
from .geometry import ChartSpec, JetMatrix
from .obstruction import CANCELLATION_LABELS, TERM_NAMES, batch_size, report_from_jets

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
    f"acs validity (max |J^2+I| <= {TOL_ACS:.0e})",
    f"formula equivalence (standard vs reduced, rel <= {TOL_EQUIV:.0e})",
    f"antisymmetry (max |N^k_ij + N^k_ji| <= {TOL_ANTISYM:.0e})",
    f"swap identity N(Je_i,Je_j) = -N(e_i,e_j) (scaled <= {TOL_SWAP:.0e})",
    f"ledger total vs contraction (scaled <= {TOL_LEDGER:.0e})",
    f"zero propagation (N=0 => scalars <= {TOL_ZERO_PROP:.0e})",
    f"euclidean trace collapse (scaled <= {TOL_COLLAPSE:.0e})",
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


class SelfTestReport(Record):
    dims: tuple[int, ...]
    samples: int
    degree: int
    seed: int
    checks: dict[str, list[int]]  # name -> [passed, applicable]
    residuals: dict[str, array]  # doubles, dimension by dimension in the order of dims
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
            values = sorted(self.residuals[name])
            half = len(values) // 2
            mid = values[half] if len(values) % 2 else (values[half - 1] + values[half]) / 2
            lines.append(f"  {values[0]:.3e} / {mid:.3e} / {values[-1]:.3e}  {name}")
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


def _metric_coeffs(streams: Streams, n: int) -> np.ndarray:
    """One draw of a random metric I + 0.2 (B + B^T) + small linear
    perturbation for each row of `streams`: coefficients ``(rows, n, n, n + 1)``
    of 1, x1, ..., xn."""
    b = streams.uniform(-1.0, 1.0, (n, n))
    lin = streams.uniform(-0.05, 0.05, (n, n, n))  # lin[:, k, i, j]: x_k coefficient
    lo, hi = np.minimum.outer(range(n), range(n)), np.maximum.outer(range(n), range(n))
    const = np.eye(n) + 0.2 * (b + np.swapaxes(b, -1, -2))
    return np.concatenate([const[..., None], np.moveaxis(lin[:, :, lo, hi], 1, -1)], axis=-1)


def _metric_exponents(n: int) -> np.ndarray:
    return np.vstack([np.zeros((1, n), dtype=int), np.eye(n, dtype=int)])


def _spd_metrics(streams: Streams, points) -> JetMatrix:
    """Each sample's random metric jets, one draw from the sample's own
    stream.  A draw that is not positive definite at its point has its
    constant term shifted by (1 - lambda_min) I, lambda_min its smallest
    eigenvalue at the point: positive definite by construction, with the
    partials unchanged."""
    n = points.shape[-1]
    expo, coeffs = _metric_exponents(n), _metric_coeffs(streams, n)
    values, partials = geometry._polynomial_jets(expo, coeffs, points)
    shift = []
    try:  # one factorisation of the stack; it raises if any sample's fails
        np.linalg.cholesky(values)
    except np.linalg.LinAlgError:
        for b, v in enumerate(values):
            try:
                np.linalg.cholesky(v)
            except np.linalg.LinAlgError:
                shift.append(b)
    if shift:
        coeffs = coeffs[shift]
        coeffs[:, range(n), range(n), 0] += 1.0 - np.linalg.eigvalsh(values[shift])[:, :1]
        values[shift], partials[shift] = geometry._polynomial_jets(expo, coeffs, points[shift])
    return JetMatrix(values, partials)


def run_selftest(dims, samples: int, degree: int, seed: int) -> SelfTestReport:
    """Run the suite; deterministic in (dims, samples, degree, seed).  The
    samples of a dimension run in batches of `batch_size`, counting a sample's frame
    coefficients, dim^2 C(dim + degree, degree) floats, or its report tensors, dim^3;
    each sample has the bits it has alone."""
    if samples < 1:
        raise ValueError("samples must be at least 1")
    dims = tuple(ChartSpec.default(int(d)).n for d in dims)
    if not dims:
        raise ValueError("dims must name at least one dimension")
    blocks = [batch_size(max(d * d * geometry._term_count(d, degree), d**3)) for d in dims]
    checks = {name: [0, 0] for name in _CHECK_NAMES}
    try:  # each row holds the samples of dims[0], then those of dims[1], ...
        residuals = {name: array("d", [0.0]) * (len(dims) * samples) for name in _RESIDUAL_NAMES}
    except (MemoryError, OverflowError):
        raise ValueError(f"residuals of {len(dims)} x {samples} samples are too large to allocate") from None
    failures: list[str] = []

    for at, start in ((at, s) for at, block in enumerate(blocks) for s in range(0, samples, block)):
        dim, stop = dims[at], min(start + blocks[at], samples)
        streams = Streams([[seed, dim, index] for index in range(start, stop)])
        field_seeds = streams.integers63()
        expo, frames = geometry._random_frames(dim, degree, field_seeds)
        points = streams.uniform(0.0, 1.0, (dim,))
        av, ap = geometry._polynomial_jets(expo, frames, points)
        av[..., range(dim), range(dim)] += 1.0  # the frame's 1 + poly on the diagonal
        j_jm = geometry._conjugate(av, ap)
        g_jm = _spd_metrics(streams, points)

        n_std = nijenhuis.nijenhuis_standard(j_jm)
        n_red = nijenhuis.nijenhuis_reduced(j_jm)
        rep_e = report_from_jets(j_jm, None, points)
        scale_n = 1.0 + rep_e["n_max_abs"]
        # N(Je_i, Je_j) carries two factors of J, so its rounding grows with |J|^2
        j_max = np.maximum(1.0, np.max(np.abs(j_jm.values), axis=(-2, -1)))
        scale_swap = scale_n * (j_max * j_max)
        ledger = rep_e["ledger"]
        terms_scale = 1.0 + sum(abs(ledger[name]) for name in TERM_NAMES)
        res_ledger = abs(ledger["total"] - rep_e["contraction"])
        # the Euclidean big_n diagonal B_ikik = N^r_ik N^s_ri J^k_s
        diag = np.einsum("...rik,...sri,...ks->...ik", n_std, n_std, j_jm.values)
        diag_scale = 1.0 + np.abs(diag).reshape(len(points), -1).sum(-1)
        res_collapse = abs(rep_e["double_trace"] - rep_e["contraction"])
        one, every = np.ones(len(points)), np.full(len(points), True)
        # per check: residual, tolerance, scale and the samples it applies to
        hard = (
            (geometry._j_squared_residuals(j_jm.values)[1], TOL_ACS, one, every),  # validate_acs's scale
            (np.max(np.abs(n_std - n_red), axis=(-3, -2, -1)), TOL_EQUIV, scale_n, every),
            (np.max(np.abs(n_std + np.swapaxes(n_std, -1, -2)), axis=(-3, -2, -1)), TOL_ANTISYM, one, every),
            (nijenhuis.j_swap_residual(n_std, j_jm.values), TOL_SWAP, scale_swap, every),
            (res_ledger, TOL_LEDGER, terms_scale, every),
            (np.maximum(abs(rep_e["contraction"]), abs(rep_e["double_trace"])), TOL_ZERO_PROP, one,
             rep_e["n_max_abs"] <= TOL_ZERO_N),
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
                f"  failed: {_CHECK_NAMES[k]} at dim={dim} sample={start + b} field_seed={field_seeds[b]}"
                f" point=({pt}): {residual[b] / scale[b]:.3e} > {tol:.0e}"
                f" frame_cond={j_jm.frame_cond[b]:.3e}"
            )

        rep_g = report_from_jets(j_jm, g_jm, points)
        values = (
            res_ledger / terms_scale,
            res_collapse / diag_scale,
            rep_e["identity_residual_trace"],
            rep_g["identity_residual_trace"],
            rep_e["identity_residual_contraction"],
            *(rep_e["cancellation_residuals"][label] for label in CANCELLATION_LABELS),
            abs(rep_e["double_trace"] - rep_g["double_trace"]),
        )
        for name, value in zip(_RESIDUAL_NAMES, values, strict=True):
            np.frombuffer(residuals[name])[at * samples + start : at * samples + stop] = value

    return SelfTestReport(dims, samples, degree, seed, checks, residuals, failures)
