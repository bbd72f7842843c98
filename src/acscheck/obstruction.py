"""The obstruction scalar, the sixteen-term expansion ledger, and the point
report tying every quantity together.

The headline chain, all at a single point with J^2 = -I and coordinates
normal for the working metric:

    double trace of the symmetrised (4,0) tensor
        = N^r_ik N^s_ri J^k_s                     (the contraction scalar)
        = sixteen-term expansion total            (the ledger)
        = -d_j(J^i_l J^k_l) d_i J^j_k             (the obstruction scalar)

The first and last links hold only up to claimed cancellations among the
ledger terms; those are *recorded* as residuals here, never assumed.  The
middle link (ledger total = contraction) is algebraically forced for any
valid structure and is the report's consistency gate.
"""

from __future__ import annotations

import numpy as np

from . import geometry, nijenhuis
from .geometry import ChartSpec, JetMatrix

__all__ = [
    "TERM_NAMES",
    "CANCELLATION_PAIRS",
    "CANCELLATION_LABELS",
    "SCALARS",
    "VERDICT_CONSISTENT",
    "VERDICT_LEDGER_ANOMALY",
    "VERDICT_INVALID_ACS",
    "obstruction_scalar",
    "term_ledger",
    "cancellation_residuals",
    "report_from_jets",
    "identity_report",
    "render_report",
]

TERM_NAMES = (
    "I1", "I2", "I3", "I4",
    "II1", "II2", "II3", "II4", "II5",
    "III1", "III2", "III3",
    "IV1", "IV2", "IV3", "IV4",
)

# Pairs whose sums are claimed to cancel, plus the claimed equality
# III1 = III3 and the claimed vanishing of the quadratic remainder term.
CANCELLATION_PAIRS = (
    ("II3+IV3", "II3", "IV3"),
    ("II2+III2", "II2", "III2"),
    ("II5+IV2", "II5", "IV2"),
    ("II1+II4", "II1", "II4"),
    ("I2+I3", "I2", "I3"),
    ("I4+III1", "I4", "III1"),
)
CANCELLATION_LABELS = tuple(label for label, _, _ in CANCELLATION_PAIRS) + ("III1-III3", "first_quadratic")

# The report's scalar keys, in output order.
SCALARS = (
    "j_squared_residual", "n_max_abs", "obstruction", "contraction", "double_trace",
    "identity_residual_trace", "identity_residual_contraction",
)

VERDICT_CONSISTENT = "consistent"
VERDICT_LEDGER_ANOMALY = "ledger-anomaly"
VERDICT_INVALID_ACS = "invalid-acs"


def obstruction_scalar(jm: JetMatrix):
    """-d_j(J^i_l J^k_l) d_i J^j_k, all repeated indices summed: a float
    (possibly -0.0), an array over a batch, or a Fraction for Fraction jets.

    Meaningful on J's jets in coordinates normal for the working metric at
    the point, nabla J read in the Cholesky frame (geometry.NormalChange);
    with the Euclidean metric any chart qualifies.  Vanishes identically
    wherever J is pointwise antisymmetric (then J^i_l J^k_l = delta^ik).
    More generally it vanishes whenever the working metric is J-compatible,
    g(JX, JY) = g(X, Y), integrable or not: then J g^-1 J^T = g^-1, so in
    normal coordinates d(J J^T) = 0 at the point.
    """
    j, d = jm.values, jm.partials
    # grad_jjt[j, i, k] = d_j sum_l J[i, l] J[k, l] = x[j, i, k] + x[j, k, i]
    x = d @ np.swapaxes(j, -1, -2)[..., None, :, :]  # x[j, i, k] = (d_j J[i, l]) J[k, l]
    grad_jjt = x + np.swapaxes(x, -1, -2)
    return -nijenhuis.product_sum("jik,ijk", grad_jjt, d)


def term_ledger(jm: JetMatrix) -> dict:
    """The ledger of the expanded product N^r_ik N^s_ri J^k_s: a dict of
    scalars (arrays over a batch) in the report's JSON order, the sixteen
    terms of TERM_NAMES, then ``first_quadratic`` and ``total``.

    The expansion writes the contraction as a product of two four-term
    factors and distributes; the sixteen products are grouped into four
    lines (I..IV) and numbered within each line.  ``total`` is their sum.
    ``first_quadratic`` is the separate remainder term
    -J_t^k J_p^i J_p^j d_i J^l_k d_j J^t_l whose vanishing the reduction to
    the obstruction scalar depends on.

    Same coordinate requirements and value types as :func:`obstruction_scalar`.
    Notation in the per-term comments: J_a f = J^m_a d_m f is the derivative
    of f along J(e_a); array labels follow geometry's row/column layout, so
    the symbol J^b_a (equivalently J_a^b) is the array element J[b, a] and
    d_a J^b_c is D[a, b, c].  Each term is one product-sum of two of jd, d
    and the shared products x = jd @ J and y = d @ J.
    """
    j, d = jm.values, jm.partials
    ps = nijenhuis.product_sum
    # jd[a, r, k] = J_a J^r_k = sum_m J[m, a] d_m J[r, k]
    jd = geometry.contract_first(j, d)
    # x[a, r, q] = (J_a J^r_k) J^k_q and y[i, s, q] = (d_i J^s_k) J^k_q
    x, y = jd @ j[..., None, :, :], d @ j[..., None, :, :]
    ledger = {
        # line I: products of two J-directional derivatives
        "I1": -ps("irs,isr", x, jd),   # -J_s^k (J_i J^r_k)(J_i J^s_r)
        "I2": +ps("irs,rsi", x, jd),   # +J_s^k (J_i J^r_k)(J_r J^s_i)
        "I3": +ps("sri,isr", x, jd),   # +J_i^p (J_s J^r_p)(J_i J^s_r)
        "I4": -ps("sri,rsi", x, jd),   # -J_i^p (J_s J^r_p)(J_r J^s_i)
        # line II: one J-directional derivative and one bare partial
        "II1": -ps("irs,isr", x, y),   # -J_r^q J_s^k (J_i J^r_k) d_i J^s_q
        "II2": +ps("irs,rsi", x, y),   # +J_i^q J_s^k (J_i J^r_k) d_r J^s_q
        "II3": -ps("rsi,irs", jd, d),  # -(J_r J^s_i) d_i J^r_s
        "II4": +ps("isr,irs", jd, d),  # +(J_i J^s_r) d_i J^r_s
        "II5": +ps("sri,isr", x, y),   # +J_r^q J_i^p (J_s J^r_p) d_i J^s_q
        # line III
        "III1": -ps("sri,rsi", x, y),  # -J_i^q J_i^p (J_s J^r_p) d_r J^s_q
        "III2": -ps("isr,sri", jd, d),  # -(J_i J^s_r) d_s J^r_i
        "III3": +ps("rsi,sri", jd, d),  # +(J_r J^s_i) d_s J^r_i
        # line IV: products of two bare partials
        "IV1": +ps("isr,irs", y, d),  # +J_r^q (d_i J^s_q)(d_i J^r_s)
        "IV2": -ps("rsi,irs", y, d),  # -J_i^q (d_r J^s_q)(d_i J^r_s)
        "IV3": -ps("isr,sri", y, d),  # -J_r^q (d_i J^s_q)(d_s J^r_i)
        "IV4": +ps("rsi,sri", y, d),  # +J_i^q (d_r J^s_q)(d_s J^r_i)
    }
    # -J_t^k J_p^i J_p^j (d_i J^l_k)(d_j J^t_l), as -[(J J^T)^ij y[i, l, t]] d_j J^t_l
    jjt_y = geometry.contract_first(j @ np.swapaxes(j, -1, -2), y)
    ledger["first_quadratic"] = -ps("jlt,jtl", jjt_y, d)
    ledger["total"] = sum(ledger[name] for name in TERM_NAMES)
    return ledger


def cancellation_residuals(ledger: dict) -> dict:
    """|a + b| of each claimed cancelling pair, |III1 - III3| and
    |first_quadratic|, by CANCELLATION_LABELS."""
    values = [abs(ledger[a] + ledger[b]) for _, a, b in CANCELLATION_PAIRS]
    values += [abs(ledger["III1"] - ledger["III3"]), abs(ledger["first_quadratic"])]
    return dict(zip(CANCELLATION_LABELS, values, strict=True))


def render_report(report: dict, ledger_detail: bool = False) -> str:
    """The text form of a one-point report: what `check` prints, and with
    `ledger_detail` what `verify-derivation` prints."""
    g17 = lambda x: format(x, ".17g")
    ledger = report["ledger"]
    lines = [
        "point: (" + ", ".join(g17(v) for v in report["point"]) + ")",
        f"verdict: {report['verdict']}",
        *(f"{name}: {g17(report[name])}" for name in SCALARS),
        f"ledger_total: {g17(ledger['total'])}",
    ]
    if ledger_detail:
        lines.append("ledger terms:")
        for name in TERM_NAMES:
            lines.append(f"  {name:<5} {g17(ledger[name])}")
        lines.append(f"  {'first_quadratic':<16} {g17(ledger['first_quadratic'])}")
    lines.append("cancellation residuals:")
    for name, value in report["cancellation_residuals"].items():
        lines.append(f"  {name:<16} {g17(value)}")
    return "\n".join(lines) + "\n"


def _verdict(acs_ok, ledger: dict, contraction, tol_identity: float):
    # tol_identity is relative to the magnitude of the summed terms: that is
    # the conditioning scale of the cancellation (both sides are near zero
    # for a valid structure, so scaling by the result would mean "absolute").
    scale = 1.0 + abs(contraction) + sum(abs(ledger[name]) for name in TERM_NAMES)
    anomaly = abs(ledger["total"] - contraction) > tol_identity * scale
    verdict = np.where(anomaly, VERDICT_LEDGER_ANOMALY, VERDICT_CONSISTENT)
    return np.where(acs_ok, verdict, VERDICT_INVALID_ACS)


def _tolerance_fault(tol: float) -> str | None:
    """Why the library and the command line refuse `tol`, or None: a NaN,
    infinite or negative tolerance gives every point one verdict."""
    return None if 0 <= tol < np.inf else f"must be finite and non-negative, got {tol}"


def _check_tolerances(tol_alg: float, tol_identity: float) -> None:
    for name, tol in (("tol_alg", tol_alg), ("tol_identity", tol_identity)):
        if fault := _tolerance_fault(tol):
            raise ValueError(f"{name} {fault}")


BATCH = 128  # the most points one report evaluates (README, "How points are evaluated")
FLOATS = 1 << 18  # the most floats of one kind a batch holds: bounds the memory a report needs


def batch_size(floats_per_point: int) -> int:
    """Points of one batch: at most BATCH, and at most FLOATS // floats_per_point."""
    return max(1, min(BATCH, FLOATS // floats_per_point))


@np.errstate(all="ignore")  # a non-finite result is refused below
def report_from_jets(
    j_jm: JetMatrix,
    g_jm: JetMatrix | None,
    point,
    tol_alg: float = 1e-9,
    tol_identity: float = 1e-9,
) -> dict:
    """Build a report from already-evaluated jets at one point, or at a batch
    of points along leading axes: the dict `check --json` prints, keyed
    ``point``, the SCALARS, ``ledger``, ``cancellation_residuals`` and
    ``verdict`` in that order.

    For one point ``point`` is a list of floats, each scalar a float and the
    verdict a str; for a batch every value is an array over the batch whose
    entries have the bits of each point's own report.  `g_jm` is None for
    the Euclidean metric, in which case the Cholesky frame is skipped (it
    would be the identity).  The Nijenhuis components and the double trace
    use the original coordinates with the metric; the obstruction scalar,
    the ledger and the contraction use J's jets in coordinates normal at
    the point, nabla J read in the Cholesky frame, so that repeated-index
    summation is legitimate.  This is the one place where a negative zero
    becomes +0.0 (``x + 0.0`` changes no other bit), so the kernels stay
    exact on Fractions.  Raises GeometryError if any number of
    the report is not finite (an overflowing structure): NaN never gets a
    verdict.  Raises ValueError for a NaN, infinite or negative tolerance.
    """
    _check_tolerances(tol_alg, tol_identity)
    acs_ok, j_squared_residual = geometry.validate_acs(j_jm, tol_alg)
    n_std = nijenhuis.nijenhuis_standard(j_jm)
    if g_jm is None:
        tj, tn, g_inv = j_jm, n_std, np.eye(j_jm.n)
    else:
        change = geometry.NormalChange.from_metric(g_jm)
        tj, g_inv = change.transform_endomorphism(j_jm), change.g_inv
        tn = nijenhuis.nijenhuis_standard(tj)
    dtr = nijenhuis.double_trace(n_std, j_jm.values, g_inv) + 0.0
    obs = obstruction_scalar(tj) + 0.0
    contraction = nijenhuis.contraction_scalar(tn, tj.values) + 0.0
    ledger = {name: v + 0.0 for name, v in term_ledger(tj).items()}
    scalars = dict(  # in the order of SCALARS
        j_squared_residual=j_squared_residual,
        n_max_abs=np.max(np.abs(n_std), axis=(-3, -2, -1)),
        obstruction=obs,
        contraction=contraction,
        double_trace=dtr,
        identity_residual_trace=np.abs(dtr - obs),
        identity_residual_contraction=np.abs(contraction - obs),
    )
    verdict = _verdict(acs_ok, ledger, contraction, tol_identity)
    point = np.asarray(point, dtype=float)
    if point.ndim == 1:
        scalars = {name: float(v) for name, v in scalars.items()}
        point, verdict = point.tolist(), str(verdict)
    report = {
        "point": point,
        **scalars,
        "ledger": ledger,
        "cancellation_residuals": cancellation_residuals(ledger),
        "verdict": verdict,
    }
    bad = [
        k
        for k, v in report.items()
        if k not in ("point", "verdict")
        and not np.isfinite(list(v.values()) if isinstance(v, dict) else v).all()
    ]
    if bad:
        raise geometry.GeometryError("non-finite " + ", ".join(bad) + " at the point")
    return report


def identity_report(
    j_field,
    metric,
    chart: ChartSpec,
    point,
    tol_alg: float = 1e-9,
    tol_identity: float = 1e-9,
) -> dict:
    """Evaluate the fields at `point`, or at a batch of points along leading
    axes, and build the full report (see :func:`report_from_jets`).

    `metric` is a MetricField or None for the Euclidean default.  A point of
    the wrong length is refused (ValueError) by the field evaluation.
    """
    j_jm = j_field.eval(chart, point)
    g_jm = metric.eval(chart, point) if metric is not None else None
    return report_from_jets(j_jm, g_jm, point, tol_alg=tol_alg, tol_identity=tol_identity)
