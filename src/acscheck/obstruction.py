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

from dataclasses import dataclass

import numpy as np

from . import geometry, nijenhuis
from .geometry import ChartSpec, JetMatrix

__all__ = [
    "TERM_NAMES",
    "CANCELLATION_PAIRS",
    "VERDICT_CONSISTENT",
    "VERDICT_LEDGER_ANOMALY",
    "VERDICT_INVALID_ACS",
    "TermLedger",
    "ObstructionReport",
    "obstruction_scalar",
    "term_ledger",
    "report_from_jets",
    "scan_columns",
    "identity_report",
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

VERDICT_CONSISTENT = "consistent"
VERDICT_LEDGER_ANOMALY = "ledger-anomaly"
VERDICT_INVALID_ACS = "invalid-acs"


def _reduce(subscripts: str, x: np.ndarray, y: np.ndarray):
    """Two-operand einsum down to one scalar per point.

    numpy sums such a contraction in an order that depends on the batch
    layout, so a batch is reduced point by point: every point then gets the
    bits its single-point evaluation gives.
    """
    lead = x.ndim - subscripts.index(",")
    if not lead:
        return np.einsum(subscripts, x, y)
    pairs = zip(x.reshape((-1,) + x.shape[lead:]), y.reshape((-1,) + y.shape[lead:]))
    return np.array([np.einsum(subscripts, *pair) for pair in pairs]).reshape(x.shape[:lead])


def obstruction_scalar(jm: JetMatrix) -> float:
    """-d_j(J^i_l J^k_l) d_i J^j_k, all repeated indices summed.

    Meaningful in coordinates normal for the working metric at the point;
    with the Euclidean metric any chart qualifies.  Vanishes identically
    wherever J is pointwise antisymmetric (then J^i_l J^k_l = delta^ik).
    More generally it vanishes whenever the working metric is J-compatible,
    g(JX, JY) = g(X, Y), integrable or not: then J g^-1 J^T = g^-1, so in
    normal coordinates d(J J^T) = 0 at the point.
    """
    j, d = jm.values, jm.partials
    # grad_jjt[j, i, k] = d_j sum_l J[i, l] J[k, l]
    grad_jjt = np.einsum("...jil,...kl->...jik", d, j) + np.einsum("...il,...jkl->...jik", j, d)
    # + 0.0 canonicalises IEEE negative zero for the reports
    return -_reduce("jik,ijk->", grad_jjt, d) + 0.0


@dataclass(frozen=True)
class TermLedger:
    """Named scalars of the expanded product N^r_ik N^s_ri J^k_s (arrays over a batch).

    The expansion writes the contraction as a product of two four-term
    factors and distributes; the sixteen products are grouped into four
    lines (I..IV) and numbered within each line.  ``total`` is their sum.
    ``first_quadratic`` is the separate remainder term
    -J_t^k J_p^i J_p^j d_i J^l_k d_j J^t_l whose vanishing the reduction to
    the obstruction scalar depends on.
    """

    terms: dict[str, float]
    first_quadratic: float
    total: float

    def cancellation_residuals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for label, a, b in CANCELLATION_PAIRS:
            out[label] = abs(self.terms[a] + self.terms[b])
        out["III1-III3"] = abs(self.terms["III1"] - self.terms["III3"])
        out["first_quadratic"] = abs(self.first_quadratic)
        return out


def _terms(j: np.ndarray, d: np.ndarray) -> dict:
    """The sixteen expansion terms (arrays over a batch); see term_ledger."""
    # jd[a, r, k] = J_a J^r_k = sum_m J[m, a] d_m J[r, k]
    jd = np.einsum("...ma,...mrk->...ark", j, d)

    def es(spec, *operands):
        if len(operands) == 2:
            return _reduce(spec, *operands)
        inputs, output = spec.split("->")
        return np.einsum(",".join("..." + s for s in inputs.split(",")) + "->..." + output, *operands)

    terms = {
        # line I: products of two J-directional derivatives
        "I1": -es("ks,irk,isr->", j, jd, jd),   # -J_s^k (J_i J^r_k)(J_i J^s_r)
        "I2": +es("ks,irk,rsi->", j, jd, jd),   # +J_s^k (J_i J^r_k)(J_r J^s_i)
        "I3": +es("pi,srp,isr->", j, jd, jd),   # +J_i^p (J_s J^r_p)(J_i J^s_r)
        "I4": -es("pi,srp,rsi->", j, jd, jd),   # -J_i^p (J_s J^r_p)(J_r J^s_i)
        # line II: one J-directional derivative and one bare partial
        "II1": -es("qr,ks,irk,isq->", j, j, jd, d),  # -J_r^q J_s^k (J_i J^r_k) d_i J^s_q
        "II2": +es("qi,ks,irk,rsq->", j, j, jd, d),  # +J_i^q J_s^k (J_i J^r_k) d_r J^s_q
        "II3": -es("rsi,irs->", jd, d),              # -(J_r J^s_i) d_i J^r_s
        "II4": +es("isr,irs->", jd, d),              # +(J_i J^s_r) d_i J^r_s
        "II5": +es("qr,pi,srp,isq->", j, j, jd, d),  # +J_r^q J_i^p (J_s J^r_p) d_i J^s_q
        # line III
        "III1": -es("qi,pi,srp,rsq->", j, j, jd, d),  # -J_i^q J_i^p (J_s J^r_p) d_r J^s_q
        "III2": -es("isr,sri->", jd, d),              # -(J_i J^s_r) d_s J^r_i
        "III3": +es("rsi,sri->", jd, d),              # +(J_r J^s_i) d_s J^r_i
        # line IV: products of two bare partials
        "IV1": +es("qr,isq,irs->", j, d, d),  # +J_r^q (d_i J^s_q)(d_i J^r_s)
        "IV2": -es("qi,rsq,irs->", j, d, d),  # -J_i^q (d_r J^s_q)(d_i J^r_s)
        "IV3": -es("qr,isq,sri->", j, d, d),  # -J_r^q (d_i J^s_q)(d_s J^r_i)
        "IV4": +es("qi,rsq,sri->", j, d, d),  # +J_i^q (d_r J^s_q)(d_s J^r_i)
    }
    # + 0.0 canonicalises IEEE negative zeros for the reports
    return {name: terms[name] + 0.0 for name in TERM_NAMES}


def term_ledger(jm: JetMatrix) -> TermLedger:
    """Evaluate the sixteen expansion terms verbatim from their index patterns.

    Same coordinate requirements as :func:`obstruction_scalar`.  Notation in
    the per-term comments of ``_terms``: J_a f = J^m_a d_m f is the
    derivative of f along J(e_a); array labels follow geometry's row/column
    layout, so the symbol J^b_a (equivalently J_a^b) is the array element
    J[b, a] and d_a J^b_c is D[a, b, c].
    """
    j, d = jm.values, jm.partials
    terms = _terms(j, d)
    # -J_t^k J_p^i J_p^j (d_i J^l_k)(d_j J^t_l)
    first_quadratic = -np.einsum("...kt,...ip,...jp,...ilk,...jtl->...", j, j, j, d, d) + 0.0
    total = sum(terms[name] for name in TERM_NAMES) + 0.0
    return TermLedger(terms, first_quadratic, total)


@dataclass(frozen=True)
class ObstructionReport:
    """Every scalar, residual and verdict for one structure at one point."""

    point: tuple[float, ...]
    j_squared_residual: float
    n_max_abs: float
    obstruction: float
    contraction: float
    double_trace: float
    identity_residual_trace: float
    identity_residual_contraction: float
    ledger: TermLedger
    cancellation_residuals: dict[str, float]
    verdict: str

    def to_json_dict(self) -> dict:
        ledger = {name: self.ledger.terms[name] for name in TERM_NAMES}
        ledger["first_quadratic"] = self.ledger.first_quadratic
        ledger["total"] = self.ledger.total
        return {
            "point": list(self.point),
            "j_squared_residual": self.j_squared_residual,
            "n_max_abs": self.n_max_abs,
            "obstruction": self.obstruction,
            "contraction": self.contraction,
            "double_trace": self.double_trace,
            "identity_residual_trace": self.identity_residual_trace,
            "identity_residual_contraction": self.identity_residual_contraction,
            "ledger": ledger,
            "cancellation_residuals": dict(self.cancellation_residuals),
            "verdict": self.verdict,
        }

    def render_text(self, ledger_detail: bool = False) -> str:
        g17 = lambda x: format(x, ".17g")
        lines = [
            "point: (" + ", ".join(g17(v) for v in self.point) + ")",
            f"verdict: {self.verdict}",
            f"j_squared_residual: {g17(self.j_squared_residual)}",
            f"n_max_abs: {g17(self.n_max_abs)}",
            f"obstruction: {g17(self.obstruction)}",
            f"contraction: {g17(self.contraction)}",
            f"double_trace: {g17(self.double_trace)}",
            f"identity_residual_trace: {g17(self.identity_residual_trace)}",
            f"identity_residual_contraction: {g17(self.identity_residual_contraction)}",
            f"ledger_total: {g17(self.ledger.total)}",
        ]
        if ledger_detail:
            lines.append("ledger terms:")
            for name in TERM_NAMES:
                lines.append(f"  {name:<5} {g17(self.ledger.terms[name])}")
            lines.append(f"  {'first_quadratic':<16} {g17(self.ledger.first_quadratic)}")
        lines.append("cancellation residuals:")
        for name, value in self.cancellation_residuals.items():
            lines.append(f"  {name:<16} {g17(value)}")
        return "\n".join(lines) + "\n"


def _normal_form(j_jm: JetMatrix, g_jm, n_std: np.ndarray):
    """J and its Nijenhuis components in coordinates normal for the metric,
    and the change to them (None for the Euclidean metric: the identity)."""
    if g_jm is None:
        return j_jm, n_std, None
    change = geometry.NormalChange.from_metric(g_jm)
    tj = change.transform_endomorphism(j_jm)
    return tj, nijenhuis.nijenhuis_standard(tj), change


def _verdict(acs_ok, total, contraction, terms: dict, tol_identity: float):
    # tol_identity is relative to the magnitude of the summed terms: that is
    # the conditioning scale of the cancellation (both sides are near zero
    # for a valid structure, so scaling by the result would mean "absolute").
    scale = 1.0 + abs(contraction) + sum(abs(v) for v in terms.values())
    anomaly = abs(total - contraction) > tol_identity * scale
    verdict = np.where(anomaly, VERDICT_LEDGER_ANOMALY, VERDICT_CONSISTENT)
    return np.where(acs_ok, verdict, VERDICT_INVALID_ACS)


@np.errstate(all="ignore")  # a non-finite result is refused below
def report_from_jets(
    j_jm: JetMatrix,
    g_jm: JetMatrix | None,
    point,
    tol_alg: float = 1e-9,
    tol_identity: float = 1e-9,
) -> ObstructionReport:
    """Build a report from already-evaluated jets at one point.

    `g_jm` is None for the Euclidean metric, in which case the coordinate
    change is skipped (it would be the identity).  The Nijenhuis components,
    the (4,0) tensor and its double trace use the original coordinates with
    the metric; the obstruction scalar, the ledger and the contraction use
    the normal-coordinate jets so that repeated-index summation is
    legitimate.  Raises GeometryError if any field of the report is not
    finite (an overflowing structure): NaN never gets a verdict.
    """
    acs = geometry.validate_acs(j_jm, tol_alg)
    n_std = nijenhuis.nijenhuis_standard(j_jm)
    if g_jm is None:
        g_vals = g_inv = np.eye(j_jm.n)
    else:
        g_vals = g_jm.values
        g_inv = np.linalg.inv(g_vals)
    tj, tn, _ = _normal_form(j_jm, g_jm, n_std)
    bn = nijenhuis.big_n(n_std, j_jm.values, g_vals)
    dtr = float(nijenhuis.double_trace(bn, g_inv))
    obs = float(obstruction_scalar(tj))
    contraction = float(nijenhuis.contraction_scalar(tn, tj.values))
    ledger = term_ledger(tj)
    report = ObstructionReport(
        point=tuple(float(v) for v in point),
        j_squared_residual=float(acs.residual),
        n_max_abs=float(np.max(np.abs(n_std))),
        obstruction=obs,
        contraction=contraction,
        double_trace=dtr,
        identity_residual_trace=abs(dtr - obs),
        identity_residual_contraction=abs(contraction - obs),
        ledger=ledger,
        cancellation_residuals=ledger.cancellation_residuals(),
        verdict=str(_verdict(acs.ok, ledger.total, contraction, ledger.terms, tol_identity)),
    )
    bad = [
        k
        for k, v in report.to_json_dict().items()
        if k not in ("point", "verdict")
        and not np.isfinite(list(v.values()) if isinstance(v, dict) else v).all()
    ]
    if bad:
        raise geometry.GeometryError("non-finite " + ", ".join(bad) + " at the point")
    return report


# Batched jets with entries up to this size keep every report field finite:
# each is a sum of at most n^11 products of at most ten such entries (the
# double trace, through g^-1 = A A^T), far below the float range.
_BATCH_BOUND = 1e25


@np.errstate(all="ignore")
def scan_columns(j_jm: JetMatrix, g_jm, tol_alg: float = 1e-9, tol_identity: float = 1e-9) -> dict:
    """The fields a scan writes, over a batch of points, as arrays:
    n_max_abs, obstruction, contraction, identity_residual_contraction and
    verdict.  Each equals, bit for bit, the field of the point's own report;
    the rest of the report (the (4,0) tensor and its double trace,
    ``first_quadratic``, the cancellation residuals) is not computed.

    Raises GeometryError if an entry of the jets is not finite or exceeds
    ``_BATCH_BOUND``; such points need :func:`report_from_jets`, which
    refuses a non-finite report.
    """
    acs = geometry.validate_acs(j_jm, tol_alg)
    n_std = nijenhuis.nijenhuis_standard(j_jm)
    tj, tn, change = _normal_form(j_jm, g_jm, n_std)
    bounded = [j_jm.values, j_jm.partials, tj.values, tj.partials]
    if g_jm is not None:
        bounded += [g_jm.values, change.a]
    if not all(np.all(np.abs(x) <= _BATCH_BOUND) for x in bounded):
        raise geometry.GeometryError("jets out of the batched range; evaluate point by point")
    obs = obstruction_scalar(tj)
    contraction = nijenhuis.contraction_scalar(tn, tj.values)
    terms = _terms(tj.values, tj.partials)
    total = sum(terms[name] for name in TERM_NAMES) + 0.0
    return {
        "n_max_abs": np.max(np.abs(n_std), axis=(-3, -2, -1)),
        "obstruction": obs,
        "contraction": contraction,
        "identity_residual_contraction": np.abs(contraction - obs),
        "verdict": _verdict(acs.ok, total, contraction, terms, tol_identity),
    }


def identity_report(
    j_field,
    metric,
    chart: ChartSpec,
    point,
    tol_alg: float = 1e-9,
    tol_identity: float = 1e-9,
) -> ObstructionReport:
    """Evaluate the fields at `point` and build the full report.

    `metric` is a MetricField or None for the Euclidean default.
    """
    pt = tuple(float(v) for v in point)
    if len(pt) != chart.n:
        raise ValueError(f"point has {len(pt)} coordinates, chart has {chart.n}")
    j_jm = j_field.eval(chart, pt)
    g_jm = metric.eval(chart, pt) if metric is not None else None
    return report_from_jets(j_jm, g_jm, pt, tol_alg=tol_alg, tol_identity=tol_identity)
