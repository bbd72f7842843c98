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

from . import expr, jets

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
    """A single coordinate chart: even dimension plus variable names; the
    one place the chart rules are checked."""

    n: int
    var_names: tuple[str, ...]

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise ValueError("dimension must be even and positive")
        for name in self.var_names:
            try:
                ok = expr.parse_expr(name) == expr.Var(name)
            except expr.ExprError:
                ok = False
            if not ok:  # a constant such as pi would shadow the variable
                raise ValueError(f"bad variable name {name!r}: reserved, or not a name")
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

    @_quiet
    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        av, ap, _ = _eval_table(self.frame, chart, point)
        return _conjugate(av, ap)


@_quiet
def _conjugate(av: np.ndarray, ap: np.ndarray) -> JetMatrix:
    """A J0 A^-1 and its partials from the frame's values and partials, at a
    point or a batch of points (each with its own frame)."""
    if not np.isfinite(av).all():
        raise GeometryError("frame evaluation produced non-finite entries")
    cond = _frame_cond(av, "conjugation frame")
    ainv = np.linalg.inv(av)
    base = standard_block(av.shape[-1])
    values = av @ base @ ainv
    core = base @ ainv
    # per coordinate k: ap_k @ core - av @ core @ ap_k @ ainv
    partials = ap @ core[..., None, :, :] - (av @ core)[..., None, :, :] @ ap @ ainv[..., None, :, :]
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

    @_quiet
    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        _, p, h = _eval_table([[c] for c in self.components], chart, point, order=2)
        f = np.ascontiguousarray(np.swapaxes(p[..., 0], -1, -2))  # f[i, j] = d_j phi^i
        h = h[..., 0, :, :]  # h[i, j, k] = d_j d_k phi^i
        if not np.isfinite(f).all():
            raise GeometryError("map Jacobian has non-finite entries")
        cond = _frame_cond(f, "pullback Jacobian")
        finv, j0 = np.linalg.inv(f), standard_block(f.shape[-1])
        values = finv @ j0 @ f
        # per coordinate k, with h_k = d_k Dphi: -finv @ h_k @ finv @ J0 @ f + finv @ J0 @ h_k
        hk, fi, fk = np.moveaxis(h, -1, -3), finv[..., None, :, :], f[..., None, :, :]
        partials = -fi @ hk @ fi @ j0 @ fk + (finv @ j0)[..., None, :, :] @ hk
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
        return _metric_jets(*_eval_table(self.entries, chart, point, upper=True)[:2])


def _metric_jets(values: np.ndarray, partials: np.ndarray) -> JetMatrix:
    """Metric jets, refused unless finite and positive definite."""
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


def validate_acs(jm: JetMatrix, tol: float = 1e-9) -> AcsValidation:
    """Check ||J^2 + I||_max <= tol at the point."""
    r = jm.values @ jm.values + np.eye(jm.n)
    res = np.max(np.abs(r), axis=(-2, -1))
    return AcsValidation(res <= tol, res)


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
    quad: np.ndarray

    @classmethod
    def from_metric(cls, g: JetMatrix) -> "NormalChange":
        try:
            lo = np.linalg.cholesky(g.values)
        except np.linalg.LinAlgError as exc:
            raise MetricError("metric is not positive definite at the point") from exc
        a = np.swapaxes(np.linalg.inv(lo), -1, -2)
        a_inv = np.swapaxes(lo, -1, -2)
        quad = -np.einsum("...kij,...ib,...jc->...kbc", christoffel(g), a, a)
        return cls(a, a_inv, quad)

    def _conjugate_partials(self, left: np.ndarray, partials: np.ndarray) -> np.ndarray:
        """left @ d~_c @ A, with the derivative index turned to the new
        coordinates: d~_c = A^k_c d_k."""
        rotated = np.einsum("...kc,...kij->...cij", self.a, partials)
        return left[..., None, :, :] @ rotated @ self.a[..., None, :, :]

    def transform_endomorphism(self, jm: JetMatrix) -> JetMatrix:
        """Values A^-1 J A plus partials with the quadratic-term corrections."""
        vals = self.a_inv @ jm.values @ self.a
        # d~_c J~^a_b = [A^-1]^a_i (d_k J^i_j) A^k_c A^j_b
        #             + [A^-1]^a_i Gamma^i_mn A^m_e A^n_c J~^e_b
        #             - J~^a_e [A^-1]^e_i Gamma^i_mn A^m_b A^n_c
        # As Gamma^i_mn A^m_e A^n_c = -quad[i, e, c], the last two lines are
        # r_c @ J~ - J~ @ r_c with r[c, a, e] = -[A^-1]^a_i quad[i, e, c].
        r = -np.einsum("...ai,...iec->...cae", self.a_inv, self.quad)
        vt = vals[..., None, :, :]
        t1 = self._conjugate_partials(self.a_inv, jm.partials)
        return JetMatrix(vals, t1 + r @ vt - vt @ r, frame_cond=jm.frame_cond)

    def transform_metric(self, g: JetMatrix) -> JetMatrix:
        """Values A^T g A (identity up to rounding) plus transformed partials."""
        a = self.a
        a_t = np.swapaxes(a, -1, -2)
        vals = a_t @ g.values @ a
        t1 = np.einsum("...iac,...ij,...jb->...cab", self.quad, g.values, a)
        t2 = self._conjugate_partials(a_t, g.partials)
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


def _polynomial_ast(expo, coeffs, names) -> expr.ExprNode:
    """sum_t coeffs[t] x^expo[t] as an AST, added left to right; a term is
    ((|c| x_a^k) x_b^l)... in variable order, negated where c < 0."""
    node = None
    for e, c in zip(expo, coeffs):
        term: expr.ExprNode = expr.Const(abs(float(c)))
        for name, k in zip(names, e):
            if k:
                factor = expr.Var(name) if k == 1 else expr.Binary("pow", expr.Var(name), expr.Const(float(k)))
                term = expr.Binary("mul", term, factor)
        term = expr.Unary("neg", term) if c < 0 else term
        node = term if node is None else expr.Binary("add", node, term)
    return node


@_quiet
def _polynomial_jets(expo: np.ndarray, coeffs: np.ndarray, point):
    """Values ``(..., r, c)`` and partials ``(..., n, r, c)`` of the table
    ``sum_t coeffs[..., r, c, t] x^expo[t]`` at a point or a batch of points
    ``(..., n)``, each with its own coefficients: the bits of
    :func:`_polynomial_ast`'s AST under :func:`expr.bind_and_eval`, whose
    order of operations this follows (a constant adds nothing to partials).
    """
    pts = np.asarray(point, dtype=float)
    n, factors, value, grad = pts.shape[-1], {}, None, None
    for t, e in enumerate(expo):
        c = np.abs(coeffs[..., t])
        tv, tg = c, None
        for v in np.flatnonzero(e):
            if (v, e[v]) not in factors:  # the jet of x_v^k, against the table's axes
                f = jets.seed_variable(v, pts[..., v], n)
                f = f if e[v] == 1 else jets.power(f, float(e[v]))
                factors[v, e[v]] = np.asarray(f.value)[..., None, None], f.grad[..., None, None, :]
            fv, fg = factors[v, e[v]]
            if tg is None:
                tv, tg = fv * c, c[..., None] * fg
            else:
                tv, tg = tv * fv, tv[..., None] * fg + fv[..., None] * tg
        neg = coeffs[..., t] < 0
        tv = np.where(neg, -tv, tv)
        value = tv if value is None else value + tv
        if tg is not None:
            tg = np.where(neg[..., None], -tg, tg)
            grad = tg if grad is None else grad + tg
    if grad is None:
        grad = np.zeros(value.shape + (n,))
    return value, np.ascontiguousarray(np.moveaxis(grad, -1, -3))


def _random_frame(dim: int, degree: int, seed: int):
    """P of random_conjugation_acs's frame A = I + P: exponents ``(m, dim)``
    of the monomials of degree <= degree, coefficients ``(dim, dim, m)``."""
    ChartSpec.default(dim)  # refuses an odd or non-positive dimension
    if degree < 0:
        raise ValueError("degree must be non-negative")
    expo = np.array(_monomials(dim, degree))
    return expo, np.random.default_rng(seed).uniform(-0.3, 0.3, (dim, dim, len(expo)))


def random_conjugation_acs(dim: int, degree: int, seed: int) -> ConjugationField:
    """Conjugation field with frame A = I + P, P a random polynomial matrix.

    Every monomial of total degree <= degree appears with a coefficient drawn
    uniformly from [-0.3, 0.3]; the draw order is fixed, so the field is
    bit-identical for a given seed.
    """
    expo, coeffs = _random_frame(dim, degree, seed)
    names = ChartSpec.default(dim).var_names
    rows = []
    for i in range(dim):
        row = [_polynomial_ast(expo, coeffs[i, j], names) for j in range(dim)]
        row[i] = expr.Binary("add", expr.Const(1.0), row[i])
        rows.append(tuple(row))
    return ConjugationField(tuple(rows))
