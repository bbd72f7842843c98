"""Charts, almost-complex-structure and metric fields, Christoffel symbols,
and the pointwise change to normal coordinates.

Index conventions used across the package: an endomorphism J is stored as a
matrix with ``J[i, j]`` the coefficient of e_i in J(e_j) (row = output
index), and first partials of matrix data are stored as
``partials[k, i, j] = d_k entry(i, j)``.  A metric uses the same layout with
entry (i, j) = g_ij.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import expr

__all__ = [
    "GeometryError",
    "SingularFrameError",
    "MetricError",
    "ChartSpec",
    "JetMatrix",
    "ExplicitField",
    "ConjugationField",
    "PullbackField",
    "MatrixField",
    "MetricField",
    "AcsValidation",
    "standard_block",
    "validate_acs",
    "christoffel",
    "NormalChange",
    "normal_transform",
    "random_conjugation_acs",
]

_MAX_FRAME_COND = 1e12


class GeometryError(ValueError):
    """Base class for chart/field evaluation failures."""


class SingularFrameError(GeometryError):
    """Conjugation frame or pullback Jacobian is not invertible at the point."""


class MetricError(GeometryError):
    """Metric is singular or not positive definite at the point."""


@dataclass(frozen=True)
class ChartSpec:
    """A single coordinate chart: even dimension plus variable names."""

    n: int
    var_names: tuple[str, ...]

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise ValueError("dimension must be a positive even integer")
        if len(self.var_names) != self.n:
            raise ValueError("number of variable names must equal the dimension")
        if len(set(self.var_names)) != self.n:
            raise ValueError("variable names must be distinct")

    @classmethod
    def default(cls, n: int) -> "ChartSpec":
        return cls(n, tuple(f"x{i + 1}" for i in range(n)))


@dataclass(frozen=True)
class JetMatrix:
    """Matrix values and their first partials at a point, or at a batch of
    points along leading axes.

    ``partials[..., k, i, j]`` is the derivative of entry (i, j) along
    coordinate k.  ``frame_cond`` carries the condition number of the frame
    that produced a conjugation or pullback field, for diagnostics.
    """

    values: np.ndarray
    partials: np.ndarray
    frame_cond: Optional[float] = None

    @property
    def n(self) -> int:
        return self.values.shape[-1]


def standard_block(n: int) -> np.ndarray:
    """Block-diagonal structure mapping e_{2a} -> e_{2a+1} -> -e_{2a}."""
    j0 = np.zeros((n, n))
    for a in range(n // 2):
        j0[2 * a + 1, 2 * a] = 1.0
        j0[2 * a, 2 * a + 1] = -1.0
    return j0


# Overflow in field evaluation is refused by the non-finite checks below, so
# numpy's floating-point warnings are switched off there.
_quiet = np.errstate(all="ignore")


def _require_finite(values: np.ndarray, partials: np.ndarray) -> None:
    if not (np.isfinite(values).all() and np.isfinite(partials).all()):
        raise GeometryError("field evaluation produced non-finite entries")


def _eval_table(rows, chart: ChartSpec, point, order: int = 1, upper: bool = False):
    """Evaluate a table of expressions at a point or a batch of points.

    Returns values ``(..., r, c)``, partials ``(..., n, r, c)`` and, at
    order 2, Hessians ``(..., r, c, n, n)``.  With `upper`, entries below
    the diagonal are not evaluated but copied from their mirror images.
    """
    pts = np.asarray(point, dtype=float)
    batch, n, r, c = pts.shape[:-1], chart.n, len(rows), len(rows[0])
    values = np.zeros(batch + (r, c))
    partials = np.zeros(batch + (n, r, c))
    hessians = np.zeros(batch + (r, c, n, n)) if order == 2 else None
    for i in range(r):
        for j in range(i if upper else 0, c):
            jet = expr.bind_and_eval(rows[i][j], chart, pts, order=order)
            for ij in {(i, j), (j, i)} if upper else ((i, j),):
                values[(..., *ij)] = jet.value
                partials[(..., slice(None), *ij)] = jet.grad
            if hessians is not None:
                hessians[..., i, j, :, :] = jet.hess
    return values, partials, hessians


def _frame_cond(frame: np.ndarray, what: str):
    """Condition numbers of a frame; refuses one that is nearly singular."""
    cond = np.linalg.cond(frame)
    bad = ~(cond <= _MAX_FRAME_COND)
    if np.any(bad):
        worst = np.extract(bad, cond)[0]  # the first singular point of a batch
        raise SingularFrameError(f"{what} is singular at the point (cond={worst:.3e})")
    return cond


@dataclass(frozen=True)
class ExplicitField:
    """n x n matrix of expressions defining each entry directly."""

    entries: tuple[tuple[expr.ExprNode, ...], ...]

    @_quiet
    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        values, partials, _ = _eval_table(self.entries, chart, point)
        _require_finite(values, partials)
        return JetMatrix(values, partials)


@dataclass(frozen=True)
class ConjugationField:
    """J(x) = A(x) J0 A(x)^-1 for an expression-valued frame A.

    Satisfies J^2 = -I wherever A is invertible, which makes it the generic
    well-formed test input.
    """

    frame: tuple[tuple[expr.ExprNode, ...], ...]
    base: np.ndarray

    @_quiet
    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        av, ap, _ = _eval_table(self.frame, chart, point)
        if not np.isfinite(av).all():
            raise GeometryError("frame evaluation produced non-finite entries")
        cond = _frame_cond(av, "conjugation frame")
        ainv = np.linalg.inv(av)
        values = av @ self.base @ ainv
        core = self.base @ ainv
        partials = np.stack(
            [
                ap[..., k, :, :] @ core - av @ core @ ap[..., k, :, :] @ ainv
                for k in range(chart.n)
            ],
            axis=-3,
        )
        _require_finite(values, partials)
        return JetMatrix(values, partials, frame_cond=cond)


@dataclass(frozen=True)
class PullbackField:
    """J = (Dphi)^-1 J0 (Dphi) for an expression-valued map phi.

    The pullback of a constant structure under a diffeomorphism; its
    Nijenhuis tensor vanishes identically, so it serves as the
    zero-Nijenhuis (integrable) control.
    """

    components: tuple[expr.ExprNode, ...]
    base: np.ndarray

    @_quiet
    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        _, p, h = _eval_table([[c] for c in self.components], chart, point, order=2)
        f = np.ascontiguousarray(np.swapaxes(p[..., 0], -1, -2))  # f[i, j] = d_j phi^i
        h = h[..., 0, :, :]  # h[i, j, k] = d_j d_k phi^i
        if not np.isfinite(f).all():
            raise GeometryError("map Jacobian has non-finite entries")
        cond = _frame_cond(f, "pullback Jacobian")
        finv = np.linalg.inv(f)
        values = finv @ self.base @ f
        # d_k (Dphi)[i, j] = h[i, j, k]
        partials = np.stack(
            [
                -finv @ h[..., k] @ finv @ self.base @ f + finv @ self.base @ h[..., k]
                for k in range(chart.n)
            ],
            axis=-3,
        )
        _require_finite(values, partials)
        return JetMatrix(values, partials, frame_cond=cond)


MatrixField = Union[ExplicitField, ConjugationField, PullbackField]


@dataclass(frozen=True)
class MetricField:
    """Symmetric matrix of expressions; must be SPD at queried points.

    Only the upper triangle of `entries` is read; values and partials are
    mirrored so the evaluated jets are exactly symmetric.
    """

    entries: tuple[tuple[expr.ExprNode, ...], ...]

    @_quiet
    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        values, partials, _ = _eval_table(self.entries, chart, point, upper=True)
        _require_finite(values, partials)
        try:
            np.linalg.cholesky(values)
        except np.linalg.LinAlgError as exc:
            raise MetricError("metric is not positive definite at the point") from exc
        return JetMatrix(values, partials)


@dataclass(frozen=True)
class AcsValidation:
    """Verdict of the pointwise J^2 = -I check (arrays over a batch)."""

    ok: bool
    residual: float
    residual_matrix: np.ndarray


def validate_acs(jm: JetMatrix, tol: float = 1e-9) -> AcsValidation:
    """Check ||J^2 + I||_max <= tol at the point."""
    r = jm.values @ jm.values + np.eye(jm.n)
    res = np.max(np.abs(r), axis=(-2, -1))
    return AcsValidation(res <= tol, res, r)


def christoffel(g: JetMatrix) -> np.ndarray:
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij).

    Exactly symmetric in (i, j) because the two symmetric contractions are
    added commutatively and metric partials are stored symmetrically.
    """
    try:
        ginv = np.linalg.inv(g.values)
    except np.linalg.LinAlgError as exc:
        raise MetricError("singular metric") from exc
    p = g.partials
    t1 = np.einsum("...kl,...ijl->...kij", ginv, p)
    t2 = np.einsum("...kl,...jil->...kij", ginv, p)
    t3 = np.einsum("...kl,...lij->...kij", ginv, p)
    return 0.5 * (t1 + t2 - t3)


@dataclass(frozen=True)
class NormalChange:
    """Pointwise coordinate change making the metric normal at the point.

    New coordinates y satisfy x = p + A y + 1/2 quad[:, b, c] y^b y^c with
    A^T g A = I (A from the Cholesky factor of g) and
    quad[k, b, c] = -Gamma^k_ij A^i_b A^j_c, which kills the transformed
    Christoffel symbols at the point.  Only the point values and first
    partials of transformed tensors are produced; no chart is actually
    re-parameterised.  Every array may carry leading batch axes.
    """

    a: np.ndarray
    a_inv: np.ndarray
    gamma: np.ndarray
    quad: np.ndarray

    @classmethod
    def from_metric(cls, g: JetMatrix) -> "NormalChange":
        try:
            lo = np.linalg.cholesky(g.values)
        except np.linalg.LinAlgError as exc:
            raise MetricError("metric is not positive definite at the point") from exc
        a = np.swapaxes(np.linalg.inv(lo), -1, -2)
        a_inv = np.swapaxes(lo, -1, -2)
        gamma = christoffel(g)
        quad = -np.einsum("...kij,...ib,...jc->...kbc", gamma, a, a)
        return cls(a, a_inv, gamma, quad)

    def transform_endomorphism(self, jm: JetMatrix) -> JetMatrix:
        """Values A^-1 J A plus partials with the quadratic-term corrections."""
        a, a_inv, gamma = self.a, self.a_inv, self.gamma
        vals = a_inv @ jm.values @ a
        # d~_c J~^a_b = [A^-1]^a_i (d_k J^i_j) A^k_c A^j_b
        #             + [A^-1]^a_i Gamma^i_mn A^m_e A^n_c J~^e_b
        #             - J~^a_e [A^-1]^e_i Gamma^i_mn A^m_b A^n_c
        t1 = np.einsum("...ai,...kij,...kc,...jb->...cab", a_inv, jm.partials, a, a)
        t2 = np.einsum("...ai,...imn,...me,...nc,...eb->...cab", a_inv, gamma, a, a, vals)
        t3 = np.einsum("...ae,...ei,...imn,...mb,...nc->...cab", vals, a_inv, gamma, a, a)
        return JetMatrix(vals, t1 + t2 - t3, frame_cond=jm.frame_cond)

    def transform_metric(self, g: JetMatrix) -> JetMatrix:
        """Values A^T g A (identity up to rounding) plus transformed partials."""
        a = self.a
        vals = np.swapaxes(a, -1, -2) @ g.values @ a
        t1 = np.einsum("...iac,...ij,...jb->...cab", self.quad, g.values, a)
        t2 = np.einsum("...ia,...kij,...kc,...jb->...cab", a, g.partials, a, a)
        t3 = np.einsum("...ia,...ij,...jbc->...cab", a, g.values, self.quad)
        return JetMatrix(vals, t1 + t2 + t3)


def normal_transform(jm: JetMatrix, g: JetMatrix) -> JetMatrix:
    """Endomorphism jets re-expressed in coordinates normal for g at the point."""
    return NormalChange.from_metric(g).transform_endomorphism(jm)


def _monomials(n: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with total degree <= degree, in a fixed order."""
    return sorted(
        e for e in itertools.product(range(degree + 1), repeat=n) if sum(e) <= degree
    )


def _coefficient_term(c: float, expo: tuple[int, ...], names) -> expr.ExprNode:
    node: expr.ExprNode = expr.Const(abs(c))
    for name, k in zip(names, expo):
        if k == 0:
            continue
        factor: expr.ExprNode = expr.Var(name)
        if k > 1:
            factor = expr.Binary("pow", factor, expr.Const(float(k)))
        node = expr.Binary("mul", node, factor)
    if c < 0:
        node = expr.Unary("neg", node)
    return node


def random_conjugation_acs(dim: int, degree: int, seed: int) -> ConjugationField:
    """Conjugation field with frame A = I + P, P a random polynomial matrix.

    Every monomial of total degree <= degree appears with a coefficient drawn
    uniformly from [-0.3, 0.3]; the draw order is fixed, so the field is
    bit-identical for a given seed.
    """
    if dim <= 0 or dim % 2:
        raise ValueError("dimension must be a positive even integer")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    rng = np.random.default_rng(seed)
    names = ChartSpec.default(dim).var_names
    monos = _monomials(dim, degree)
    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            poly: Optional[expr.ExprNode] = None
            for expo in monos:
                c = float(rng.uniform(-0.3, 0.3))
                term = _coefficient_term(c, expo, names)
                poly = term if poly is None else expr.Binary("add", poly, term)
            assert poly is not None
            if i == j:
                poly = expr.Binary("add", expr.Const(1.0), poly)
            row.append(poly)
        rows.append(tuple(row))
    return ConjugationField(tuple(rows), standard_block(dim))
