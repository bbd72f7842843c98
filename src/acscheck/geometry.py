"""Charts, almost-complex-structure and metric fields, Christoffel symbols,
and J's jets in coordinates normal at a point: nabla J read in the frame of
the metric's Cholesky factor.

Index conventions used across the package: an endomorphism J is stored as a
matrix with ``J[i, j]`` the coefficient of e_i in J(e_j) (row = output
index), and first partials of matrix data are stored as
``partials[k, i, j] = d_k entry(i, j)``.  A metric uses the same layout with
entry (i, j) = g_ij.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Optional, Union

import numpy as np

from . import expr, jets
from ._record import Record

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
    "standard_block",
    "validate_acs",
    "contract_first",
    "christoffel",
    "NormalChange",
    "random_conjugation_acs",
]

_MAX_FRAME_COND = 1e12


class GeometryError(ValueError):
    """Base class for chart/field evaluation failures."""


class SingularFrameError(GeometryError):
    """Conjugation frame or pullback Jacobian is not invertible at the point."""


class MetricError(GeometryError):
    """Metric is singular or not positive definite at the point."""


class ChartSpec(Record):
    """A single coordinate chart: even dimension plus variable names; the
    one place the chart rules are checked."""

    n: int
    var_names: tuple[str, ...]

    def __post_init__(self):
        if self.n <= 0 or self.n % 2:
            raise ValueError("dimension must be even and positive")
        for name in self.var_names:
            try:
                ok = expr.parse_expr(name) == ("var", name)
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


class JetMatrix(Record):
    """Matrix values and their first partials at a point, or at a batch of
    points along leading axes.

    ``partials[..., k, i, j]`` is the derivative of entry (i, j) along
    coordinate k.  ``frame_cond`` carries the 1-norm condition number
    kappa_1 of the frame that produced a conjugation or pullback field, for
    diagnostics.
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


def _frame_inverse(frame: np.ndarray, what: str):
    """A frame's inverse and its 1-norm condition number
    kappa_1 = ||F||_1 ||F^-1||_1 (the quantity LAPACK's gecon estimates),
    per point of a batch; refuses a frame unless kappa_1 <= 1e12."""
    try:
        inv = np.linalg.inv(frame)
    except np.linalg.LinAlgError:  # exactly singular
        raise SingularFrameError(f"{what} is singular at the point (cond=inf)") from None
    cond = np.linalg.norm(frame, 1, axis=(-2, -1)) * np.linalg.norm(inv, 1, axis=(-2, -1))
    bad = ~(cond <= _MAX_FRAME_COND)  # also NaN and inf
    if np.any(bad):
        worst = np.extract(bad, cond)[0]  # the first singular point of a batch
        raise SingularFrameError(f"{what} is singular at the point (cond={worst:.3e})")
    return inv, cond


class ExplicitField(Record):
    """n x n matrix of expressions defining each entry directly."""

    entries: tuple[tuple[expr.ExprNode, ...], ...]

    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        values, partials, _ = expr.eval_table(self.entries, chart, point)
        _require_finite(values, partials)
        return JetMatrix(values, partials)


class ConjugationField(Record):
    """J(x) = A(x) J0 A(x)^-1 for an expression-valued frame A.

    Satisfies J^2 = -I wherever A is invertible, which makes it the generic
    well-formed test input.
    """

    frame: tuple[tuple[expr.ExprNode, ...], ...]

    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        av, ap, _ = expr.eval_table(self.frame, chart, point)
        return _conjugate(av, ap)


@_quiet
def _conjugate(av: np.ndarray, ap: np.ndarray) -> JetMatrix:
    """A J0 A^-1 and its partials from the frame's values and partials, at a
    point or a batch of points (each with its own frame)."""
    if not np.isfinite(av).all():
        raise GeometryError("frame evaluation produced non-finite entries")
    ainv, cond = _frame_inverse(av, "conjugation frame")
    base = standard_block(av.shape[-1])
    values = av @ base @ ainv
    core = base @ ainv
    # per coordinate k: ap_k @ core - av @ core @ ap_k @ ainv
    partials = ap @ core[..., None, :, :] - (av @ core)[..., None, :, :] @ ap @ ainv[..., None, :, :]
    _require_finite(values, partials)
    return JetMatrix(values, partials, frame_cond=cond)


class PullbackField(Record):
    """J = (Dphi)^-1 J0 (Dphi) for an expression-valued map phi.

    The pullback of a constant structure under a diffeomorphism; its
    Nijenhuis tensor vanishes identically, so it serves as the
    zero-Nijenhuis (integrable) control.
    """

    components: tuple[expr.ExprNode, ...]

    @_quiet
    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        _, p, h = expr.eval_table([[c] for c in self.components], chart, point, order=2)
        f = np.ascontiguousarray(np.swapaxes(p[..., 0], -1, -2))  # f[i, j] = d_j phi^i
        h = h[..., 0, :, :]  # h[i, j, k] = d_j d_k phi^i
        if not np.isfinite(f).all():
            raise GeometryError("map Jacobian has non-finite entries")
        finv, cond = _frame_inverse(f, "pullback Jacobian")
        j0 = standard_block(f.shape[-1])
        values = finv @ j0 @ f
        # per coordinate k, with h_k = d_k Dphi: -finv @ h_k @ finv @ J0 @ f + finv @ J0 @ h_k
        hk, fi, fk = np.moveaxis(h, -1, -3), finv[..., None, :, :], f[..., None, :, :]
        partials = -fi @ hk @ fi @ j0 @ fk + (finv @ j0)[..., None, :, :] @ hk
        _require_finite(values, partials)
        return JetMatrix(values, partials, frame_cond=cond)


MatrixField = Union[ExplicitField, ConjugationField, PullbackField]


class MetricField(Record):
    """Symmetric matrix of expressions; must be SPD at queried points.

    Only the upper triangle of `entries` is read; values and partials are
    mirrored so the evaluated jets are exactly symmetric.
    """

    entries: tuple[tuple[expr.ExprNode, ...], ...]

    def eval(self, chart: ChartSpec, point) -> JetMatrix:
        values, partials = expr.eval_table(self.entries, chart, point, upper=True)[:2]
        _require_finite(values, partials)
        try:
            np.linalg.cholesky(values)
        except np.linalg.LinAlgError as exc:
            raise MetricError("metric is not positive definite at the point") from exc
        return JetMatrix(values, partials)


def _j_squared_residuals(values: np.ndarray):
    """max |J^2 + I|, and max of |J^2 + I| / max(1, |J| |J|) entry by entry: each
    entry against the rounding bound of J J (Higham §3.5); a conjugation has J^2 = -I."""
    r = np.abs(values @ values + np.eye(values.shape[-1]))
    a = np.abs(values)
    return np.max(r, axis=(-2, -1)), np.max(r / np.maximum(1.0, a @ a), axis=(-2, -1))


def validate_acs(jm: JetMatrix, tol: float = 1e-9):
    """The pair (ok, residual): whether |J^2 + I| <= tol * max(1, |J| |J|)
    entry by entry at the point, and max |J^2 + I| (arrays over a batch)."""
    res, scaled = _j_squared_residuals(jm.values)
    return scaled <= tol, res


def contract_first(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """out[a, r, k] = sum_p m[p, a] t[p, r, k], over any leading batch axes.

    One matrix product, m^T against t flattened to (p, r k), so every batch
    row is one BLAS call with the bits of its point alone.
    """
    lead, p = t.shape[:-3], t.shape[-3:]
    flat = t.reshape(lead + (p[0], p[1] * p[2]))
    return (np.swapaxes(m, -1, -2) @ flat).reshape(lead + (m.shape[-1],) + p[1:])


def _metric_inverse(g: JetMatrix) -> np.ndarray:
    """g^{kl} at the point; MetricError for a singular metric."""
    try:
        return np.linalg.inv(g.values)
    except np.linalg.LinAlgError as exc:
        raise MetricError("singular metric") from exc


def christoffel(g: JetMatrix, ginv: np.ndarray | None = None) -> np.ndarray:
    """Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij); `ginv`, g^{kl}
    at the point, is inverted from g when it is not given.

    Exactly symmetric in (i, j): the second term is the first with (i, j)
    swapped and the two are added commutatively, and the metric partials are
    stored symmetrically, so the last term's columns (i, j) and (j, i) are
    products of the same numbers.
    """
    if ginv is None:
        ginv = _metric_inverse(g)
    p = g.partials
    t1 = np.moveaxis(p @ np.swapaxes(ginv, -1, -2)[..., None, :, :], -1, -3)  # g^{kl} d_i g_jl
    t2 = np.swapaxes(t1, -1, -2)  # g^{kl} d_j g_il
    t3 = contract_first(np.swapaxes(ginv, -1, -2), p)  # g^{kl} d_l g_ij
    return 0.5 * (t1 + t2 - t3)


class NormalChange(Record):
    """The frame A with A^T g A = I, taken from the Cholesky factor of g, the
    Christoffel symbols of g and its inverse g^{kl} at a point.  J's first
    jets in coordinates normal at the point are its covariant derivative
    nabla J read in the frame A (Kobayashi & Nomizu II); no chart is
    re-parameterised.  Every array may carry leading batch axes.
    """

    a: np.ndarray
    a_inv: np.ndarray
    gamma: np.ndarray
    g_inv: np.ndarray

    @classmethod
    def from_metric(cls, g: JetMatrix) -> "NormalChange":
        try:
            lo = np.linalg.cholesky(g.values)
        except np.linalg.LinAlgError as exc:
            raise MetricError("metric is not positive definite at the point") from exc
        ginv = _metric_inverse(g)
        return cls(np.swapaxes(np.linalg.inv(lo), -1, -2), np.swapaxes(lo, -1, -2), christoffel(g, ginv), ginv)

    def transform_endomorphism(self, jm: JetMatrix) -> JetMatrix:
        """Values A^-1 J A; partials A^-1 (sum_k A^k_c nabla_k J) A, where
        nabla_k J = d_k J + Gamma_k J - J Gamma_k and (Gamma_k)^i_m = Gamma^i_km."""
        vals = self.a_inv @ jm.values @ self.a
        gk, j = np.swapaxes(self.gamma, -3, -2), jm.values[..., None, :, :]
        nabla = jm.partials + gk @ j - j @ gk
        partials = self.a_inv[..., None, :, :] @ contract_first(self.a, nabla) @ self.a[..., None, :, :]
        return JetMatrix(vals, partials, frame_cond=jm.frame_cond)


@functools.cache
def _monomials(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent tuples with total degree <= degree, in a fixed order."""
    return tuple(sorted(
        tuple(map(c.count, range(n)))  # how often each variable occurs in the multiset c
        for d in range(degree + 1) for c in itertools.combinations_with_replacement(range(n), d)
    ))


def _term_count(n: int, degree: int) -> int:
    """len(_monomials(n, degree)), C(n + degree, degree), without listing them."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return math.comb(n + degree, degree)


def _polynomial_ast(expo, coeffs, names) -> expr.ExprNode:
    """sum_t coeffs[t] x^expo[t] as an AST, added left to right; a term is
    ((|c| x_a^k) x_b^l)... in variable order, negated where c < 0."""
    node = None
    for e, c in zip(expo, coeffs):
        term: expr.ExprNode = ("const", abs(float(c)))
        for name, k in zip(names, e):
            if k:
                factor = ("var", name) if k == 1 else ("pow", ("var", name), ("const", float(k)))
                term = ("mul", term, factor)
        term = ("neg", term) if c < 0 else term
        node = term if node is None else ("add", node, term)
    return node


@_quiet
def _polynomial_jets(expo: np.ndarray, coeffs: np.ndarray, point):
    """Values ``(..., r, c)`` and partials ``(..., n, r, c)`` of the table
    ``sum_t coeffs[..., r, c, t] x^expo[t]`` at a point or a batch of points
    ``(..., n)``, each with its own coefficients: the :func:`jets.jet_apply`
    operations of :func:`_polynomial_ast`'s AST, in its order, on per-point
    constants.  A term starts from its signed coefficient: ``(-|c|) x`` and
    ``-(|c| x)`` round alike (-0.0, which no draw gives, would not)."""
    pts = np.asarray(point, dtype=float)[..., None, None]  # against the table's axes
    n, factors, total = pts.shape[-3], {}, None
    for t, e in enumerate(expo.tolist()):  # Python ints, cheap to walk: small batches run this often
        term = coeffs[..., t]
        for v, k in ((v, k) for v, k in enumerate(e) if k):
            if (v, k) not in factors:  # the jet of x_v^k
                f = jets.seed_variable(v, pts[..., v, :, :], n)
                factors[v, k] = f if k == 1 else jets.jet_apply("pow", [f, float(k)])
            term = jets.jet_apply("mul", [term, factors[v, k]])
        total = term if total is None else jets.jet_apply("add", [total, term])
    if not isinstance(total, jets.Jet):  # a constant table: copied, with zero partials
        total = jets.constant(total, n)
    return total.value, np.ascontiguousarray(np.moveaxis(total.grad, -1, -3))


def _random_frames(dim: int, degree: int, seeds):
    """P of random_conjugation_acs's frame A = I + P per seed: exponents ``(m, dim)`` of the
    monomials of degree <= degree, coefficients ``(seeds, dim, dim, m)``.  The caller checks `dim`
    and, by `_term_count`, `degree`."""
    from ._pcg64 import Streams  # only selftest and its replays draw

    expo = np.array(_monomials(dim, degree))
    return expo, Streams(seeds).uniform(-0.3, 0.3, (dim, dim, len(expo)))


def random_conjugation_acs(dim: int, degree: int, seed: int) -> ConjugationField:
    """Conjugation field with frame A = I + P, P a random polynomial matrix.

    Every monomial of total degree <= degree appears with a coefficient drawn
    uniformly from [-0.3, 0.3]; the draw order is fixed, so the field is
    bit-identical for a given seed.
    """
    names = ChartSpec.default(dim).var_names  # refuses a bad dimension before drawing
    terms = _term_count(dim, degree)  # a diagonal entry's levels are at most
    if terms + degree + 1 > 4 * expr._MAX_DEPTH:  # terms - 1 sums, degree in a term, a sign and 1 +
        raise ValueError(f"a random frame with {terms} terms per entry nests too deeply for a structure file")
    expo, (coeffs,) = _random_frames(dim, degree, [seed])
    rows = []
    for i in range(dim):
        row = [_polynomial_ast(expo, coeffs[i, j], names) for j in range(dim)]
        row[i] = ("add", ("const", 1.0), row[i])
        rows.append(tuple(row))
    return ConjugationField(tuple(rows))
