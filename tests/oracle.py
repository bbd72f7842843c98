"""Independent reference implementations used to validate the package.

Everything here deliberately avoids the package's jet and matrix-product
code paths: expression values come from a plain recursive evaluator,
derivatives from central finite differences (h = 1e-5), and contractions
from explicit Python loops or, for the kernels' references, from `einsum`.
The frozen ANCHORS at the bottom are regression values recorded from the
first build that agreed with this oracle.  The one exception is the
per-sample self-test reference, which is the suite's earlier
expression-tree code and is compared with it bit for bit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from acscheck import expr, geometry, nijenhuis
from acscheck import expr as expr_mod
from acscheck.geometry import (
    ChartSpec,
    ConjugationField,
    ExplicitField,
    MetricField,
    PullbackField,
    _monomials,
    standard_block,
)
from acscheck.obstruction import TERM_NAMES, report_from_jets
from acscheck.selftest import (
    _CHECK_NAMES,
    _RESIDUAL_NAMES,
    TOL_ACS,
    TOL_ANTISYM,
    TOL_COLLAPSE,
    TOL_EQUIV,
    TOL_LEDGER,
    TOL_SWAP,
    TOL_ZERO_N,
    TOL_ZERO_PROP,
    SelfTestReport,
)

FD_H = 1e-5

_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "tanh": math.tanh,
}


def eval_value(node, env: dict) -> float:
    """Plain float evaluation of an expression AST."""
    op = node[0]
    if op == "const":
        return float(node[1])
    if op == "var":
        return float(env[node[1]])
    if op == "neg":
        return -eval_value(node[1], env)
    if op in ("add", "sub", "mul", "div", "pow"):
        a = eval_value(node[1], env)
        b = eval_value(node[2], env)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            return a / b
        return a**b
    if op in _FUNCS:
        return _FUNCS[op](eval_value(node[1], env))
    raise TypeError(node)


def field_values(field, chart, point) -> np.ndarray:
    """Matrix of field values at a point, via plain evaluation and numpy."""
    env = dict(zip(chart.var_names, point))
    n = chart.n
    if isinstance(field, (ExplicitField, MetricField)):
        entries = field.entries
        return np.array(
            [[eval_value(entries[i][j], env) for j in range(n)] for i in range(n)]
        )
    if isinstance(field, ConjugationField):
        a = np.array(
            [[eval_value(field.frame[i][j], env) for j in range(n)] for i in range(n)]
        )
        return a @ standard_block(n) @ np.linalg.inv(a)
    if isinstance(field, PullbackField):
        # Jacobian of the map by finite differences (values-only path)
        f = np.zeros((n, n))
        for j in range(n):
            ep = dict(env)
            em = dict(env)
            ep[chart.var_names[j]] = point[j] + FD_H
            em[chart.var_names[j]] = point[j] - FD_H
            for i in range(n):
                f[i, j] = (
                    eval_value(field.components[i], ep)
                    - eval_value(field.components[i], em)
                ) / (2 * FD_H)
        return np.linalg.inv(f) @ standard_block(n) @ f
    raise TypeError(field)


def fd_field_partials(field, chart, point, h: float = FD_H) -> np.ndarray:
    """Central-difference first partials of the field values: out[k, i, j]."""
    n = chart.n
    out = np.zeros((n, n, n))
    pt = np.asarray(point, dtype=float)
    for k in range(n):
        xp = pt.copy()
        xm = pt.copy()
        xp[k] += h
        xm[k] -= h
        out[k] = (field_values(field, chart, xp) - field_values(field, chart, xm)) / (
            2 * h
        )
    return out


def nijenhuis_loops(j: np.ndarray, d: np.ndarray) -> np.ndarray:
    n = j.shape[0]
    comps = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for jj in range(n):
                acc = 0.0
                for p in range(n):
                    acc += (
                        j[p, i] * d[p, k, jj]
                        - j[p, jj] * d[p, k, i]
                        - j[k, p] * d[i, p, jj]
                        + j[k, p] * d[jj, p, i]
                    )
                comps[k, i, jj] = acc
    return comps


def nijenhuis_reduced_loops(j: np.ndarray, d: np.ndarray) -> np.ndarray:
    n = j.shape[0]
    comps = np.zeros((n, n, n))
    for r in range(n):
        for i in range(n):
            for k in range(n):
                acc = 0.0
                for p in range(n):
                    acc += j[p, i] * (d[p, r, k] - d[k, r, p])
                    acc -= j[p, k] * (d[p, r, i] - d[i, r, p])
                comps[r, i, k] = acc
    return comps


def contraction_loops(comps: np.ndarray, j: np.ndarray) -> float:
    n = j.shape[0]
    total = 0.0
    for i in range(n):
        for k in range(n):
            for r in range(n):
                for s in range(n):
                    total += comps[r, i, k] * comps[s, r, i] * j[k, s]
    return total


def big_n_loops(comps: np.ndarray, j: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = j.shape[0]

    def term(a, b, c, dd):
        acc = 0.0
        for r in range(n):
            for s in range(n):
                for t in range(n):
                    acc += comps[r, a, b] * comps[s, r, c] * j[t, s] * g[t, dd]
        return acc

    out = np.zeros((n, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for dd in range(n):
                    out[a, b, c, dd] = 0.25 * (
                        term(a, b, c, dd)
                        + term(c, b, a, dd)
                        + term(a, dd, c, b)
                        + term(c, dd, a, b)
                    )
    return out


def double_trace_loops(bn: np.ndarray, g_inv: np.ndarray) -> float:
    n = g_inv.shape[0]
    total = 0.0
    for i in range(n):
        for k in range(n):
            for a in range(n):
                for b in range(n):
                    total += g_inv[i, a] * g_inv[k, b] * bn[i, k, a, b]
    return total


def obstruction_loops(j: np.ndarray, d: np.ndarray) -> float:
    n = j.shape[0]
    total = 0.0
    for i in range(n):
        for jj in range(n):
            for k in range(n):
                inner = 0.0
                for l in range(n):
                    inner += d[jj, i, l] * j[k, l] + j[i, l] * d[jj, k, l]
                total -= inner * d[i, jj, k]
    return total


def christoffel_loops(gv: np.ndarray, gp: np.ndarray) -> np.ndarray:
    n = gv.shape[0]
    ginv = np.linalg.inv(gv)
    out = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for jj in range(n):
                acc = 0.0
                for l in range(n):
                    acc += ginv[k, l] * (gp[i, jj, l] + gp[jj, i, l] - gp[l, i, jj])
                out[k, i, jj] = 0.5 * acc
    return out


def covariant_obstruction_loops(j: np.ndarray, d: np.ndarray, gv: np.ndarray, gp: np.ndarray) -> float:
    """obs = -nabla_j(J g^-1 J^T)^{ik} nabla_i J^j_k in the original chart,
    with nabla_i J^j_k = d_i J^j_k + Gamma^j_im J^m_k - Gamma^m_ik J^j_m and
    d_j g^{ab} = -g^{ac} d_j g_cd g^{db}."""
    n = j.shape[0]
    ginv = np.linalg.inv(gv)
    gamma = christoffel_loops(gv, gp)
    dginv = np.zeros((n, n, n))
    for q in range(n):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for e in range(n):
                        dginv[q, a, b] -= ginv[a, c] * gp[q, c, e] * ginv[e, b]
    h = np.zeros((n, n))  # h^{ik} = J^i_a g^{ab} J^k_b
    dh = np.zeros((n, n, n))  # dh[q, i, k] = d_q h^{ik}
    for i in range(n):
        for k in range(n):
            for a in range(n):
                for b in range(n):
                    h[i, k] += j[i, a] * ginv[a, b] * j[k, b]
                    for q in range(n):
                        dh[q, i, k] += (
                            d[q, i, a] * ginv[a, b] * j[k, b]
                            + j[i, a] * dginv[q, a, b] * j[k, b]
                            + j[i, a] * ginv[a, b] * d[q, k, b]
                        )
    nabla_h = dh.copy()
    nabla_j = d.copy()
    for q in range(n):
        for i in range(n):
            for k in range(n):
                for m in range(n):
                    nabla_h[q, i, k] += gamma[i, q, m] * h[m, k] + gamma[k, q, m] * h[i, m]
                    nabla_j[q, i, k] += gamma[i, q, m] * j[m, k] - gamma[m, q, k] * j[i, m]
    total = 0.0
    for i in range(n):
        for jj in range(n):
            for k in range(n):
                total -= nabla_h[jj, i, k] * nabla_j[i, jj, k]
    return total


def normal_transform_fd(j_field, g_field, chart, point, h: float = FD_H):
    """Re-derive the normal-coordinate change as an actual reparameterisation.

    Builds x(y) = p + A y + 1/2 quad[:,b,c] y^b y^c from finite-difference
    Christoffel symbols, then differentiates the transformed endomorphism
    F(y)^-1 J(x(y)) F(y) numerically in y.  Returns (values, partials).
    """
    pt = np.asarray(point, dtype=float)
    n = chart.n
    g0 = field_values(g_field, chart, pt)
    gp = fd_field_partials(g_field, chart, pt, h)
    lo = np.linalg.cholesky(g0)
    a = np.linalg.inv(lo).T
    gamma = christoffel_loops(g0, gp)
    quad = np.zeros((n, n, n))
    for k in range(n):
        for b in range(n):
            for c in range(n):
                acc = 0.0
                for i in range(n):
                    for jj in range(n):
                        acc += gamma[k, i, jj] * a[i, b] * a[jj, c]
                quad[k, b, c] = -acc

    def x_of(y):
        return pt + a @ y + 0.5 * np.einsum("kbc,b,c->k", quad, y, y)

    def frame_of(y):
        return a + np.einsum("kbc,c->kb", quad, y)

    def transformed(y):
        f = frame_of(y)
        return np.linalg.inv(f) @ field_values(j_field, chart, x_of(y)) @ f

    values = transformed(np.zeros(n))
    partials = np.zeros((n, n, n))
    for c in range(n):
        yp = np.zeros(n)
        ym = np.zeros(n)
        yp[c] += h
        ym[c] -= h
        partials[c] = (transformed(yp) - transformed(ym)) / (2 * h)
    return values, partials


# ---------------------------------------------------------------------------
# Random jets and the package's kernels as einsums.  The kernels now run as
# batched matrix products, which round differently; these are their earlier
# einsum forms, kept as the references they are checked against.  Every
# function takes leading batch axes.


def random_jets(rng: np.random.Generator, dim: int, batch: int):
    """A structure J = A J0 A^-1 with random partials and an SPD metric with
    random symmetric partials, at `batch` points."""
    a = np.eye(dim) + 0.3 * rng.standard_normal((batch, dim, dim))
    j = geometry.JetMatrix(a @ standard_block(dim) @ np.linalg.inv(a), rng.standard_normal((batch, dim, dim, dim)))
    m = rng.standard_normal((batch, dim, dim))
    p = rng.standard_normal((batch, dim, dim, dim))
    g = geometry.JetMatrix(np.eye(dim) + 0.2 * m @ np.swapaxes(m, -1, -2), p + np.swapaxes(p, -1, -2))
    return j, g


def nijenhuis_standard_einsum(j: np.ndarray, d: np.ndarray) -> np.ndarray:
    m = np.einsum("...pi,...pkj->...kij", j, d) - np.einsum("...kp,...ipj->...kij", j, d)
    return m - np.swapaxes(m, -1, -2)


def nijenhuis_reduced_einsum(j: np.ndarray, d: np.ndarray) -> np.ndarray:
    dd = d - np.swapaxes(d, -1, -3)
    b = np.einsum("...pi,...prk->...rik", j, dd)
    return b - np.swapaxes(b, -1, -2)


def j_swap_residual_einsum(comps: np.ndarray, j: np.ndarray) -> np.ndarray:
    lhs = np.einsum("...pi,...qj,...kpq->...kij", j, j, comps)
    return np.max(np.abs(lhs + comps), axis=(-3, -2, -1))


def double_trace_einsum(comps: np.ndarray, j: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    nj = comps @ j[..., None, :, :]
    return np.einsum("...ac,...ras,...src->...", g_inv, nj, comps)


def obstruction_scalar_einsum(j: np.ndarray, d: np.ndarray) -> np.ndarray:
    grad_jjt = np.einsum("...jil,...kl->...jik", d, j) + np.einsum("...il,...jkl->...jik", j, d)
    return -np.einsum("...jik,...ijk->...", grad_jjt, d)


def ledger_jd_einsum(j: np.ndarray, d: np.ndarray) -> np.ndarray:
    """jd[a, r, k] = J^m_a d_m J^r_k, the ledger's directional derivatives."""
    return np.einsum("...ma,...mrk->...ark", j, d)


def first_quadratic_einsum(j: np.ndarray, d: np.ndarray) -> np.ndarray:
    y = d @ j[..., None, :, :]
    jjt_y = np.einsum("...ij,...ilt->...jlt", j @ np.swapaxes(j, -1, -2), y)
    return -np.einsum("...jlt,...jtl->...", jjt_y, d)


def christoffel_einsum(g_values: np.ndarray, g_partials: np.ndarray) -> np.ndarray:
    ginv, p = np.linalg.inv(g_values), g_partials
    t1 = np.einsum("...kl,...ijl->...kij", ginv, p)
    t2 = np.einsum("...kl,...jil->...kij", ginv, p)
    t3 = np.einsum("...kl,...lij->...kij", ginv, p)
    return 0.5 * (t1 + t2 - t3)


def normal_quad_einsum(gamma: np.ndarray, a: np.ndarray) -> np.ndarray:
    """quad[k, b, c] = -Gamma^k_ij A^i_b A^j_c: the change x = p + A y +
    1/2 quad[:, b, c] y^b y^c has A^T g A = I and kills the Christoffel
    symbols at the point, so the tests can transform the metric itself."""
    return -np.einsum("...kij,...ib,...jc->...kbc", gamma, a, a)


def transform_endomorphism_partials_einsum(a, a_inv, gamma, j_values, j_partials) -> np.ndarray:
    """A^-1 (sum_k A^k_c nabla_k J) A, nabla_k J^i_j = d_k J^i_j + Gamma^i_km J^m_j - J^i_m Gamma^m_kj."""
    nabla = (
        j_partials
        + np.einsum("...ikm,...mj->...kij", gamma, j_values)
        - np.einsum("...im,...mkj->...kij", j_values, gamma)
    )
    rotated = np.einsum("...kc,...kij->...cij", a, nabla)
    return a_inv[..., None, :, :] @ rotated @ a[..., None, :, :]


def transform_metric(change: geometry.NormalChange, g: geometry.JetMatrix) -> geometry.JetMatrix:
    """Values A^T g A (identity up to rounding) plus the partials of the
    metric in the normal coordinates of `change`, which vanish at the point.
    Only the tests need the transformed metric; this is the form it had as a
    method of geometry.NormalChange."""
    a, quad = change.a, normal_quad_einsum(change.gamma, change.a)
    a_t = np.swapaxes(a, -1, -2)
    vals = a_t @ g.values @ a
    t1 = np.einsum("...iac,...ij,...jb->...cab", quad, g.values, a)
    t2 = a_t[..., None, :, :] @ geometry.contract_first(a, g.partials) @ a[..., None, :, :]
    t3 = np.einsum("...ia,...ij,...jbc->...cab", a, g.values, quad)
    return geometry.JetMatrix(vals, t1 + t2 + t3)


# ---------------------------------------------------------------------------
# A change of chart.  A polynomial map phi = x + quadratic + cubic is a
# diffeomorphism near the unit box for small coefficients; pulling (J, g)
# back by it gives the same structure and metric in the chart x.


def random_polynomial_maps(rng: np.random.Generator, points, scale: float = 0.1):
    """phi(x) = x + q(x, x) / 2 + c(x, x, x) / 6 at each of `points` ``(batch, n)``,
    with q and c symmetric in their lower indices and drawn from
    [-scale, scale]: returns phi ``(batch, n)``, Dphi ``(batch, n, n)`` with
    ``Dphi[i, j] = d_j phi^i``, and d Dphi ``(batch, n, n, n)`` with
    ``[k, i, j] = d_k d_j phi^i``."""
    x = np.asarray(points, dtype=float)
    batch, n = x.shape
    q, c = random_polynomial_coefficients(rng, batch, n, scale)
    phi = x + np.einsum("...ijk,...j,...k->...i", q, x, x) / 2
    phi = phi + np.einsum("...ijkl,...j,...k,...l->...i", c, x, x, x) / 6
    dphi = np.eye(n) + np.einsum("...ijk,...k->...ij", q, x) + np.einsum("...ijkl,...k,...l->...ij", c, x, x) / 2
    ddphi = np.einsum("...ijk->...kij", q + np.einsum("...ijkl,...l->...ijk", c, x))
    return phi, dphi, ddphi


def random_polynomial_coefficients(rng: np.random.Generator, batch: int, n: int, scale: float = 0.1):
    """The q ``(batch, n, n, n)`` and c ``(batch, n, n, n, n)`` of
    `random_polynomial_maps`, drawn as it draws them."""
    q = rng.uniform(-scale, scale, (batch, n, n, n))
    q = (q + np.swapaxes(q, -1, -2)) / 2
    c = rng.uniform(-scale, scale, (batch, n, n, n, n))
    c = sum(np.moveaxis(c, (-3, -2, -1), p) for p in itertools.permutations((-3, -2, -1))) / 6
    return q, c


def polynomial_map_components(q, c, names) -> tuple:
    """phi^i = x_i + q^i(x, x) / 2 + c^i(x, x, x) / 6 as pullback components,
    from one map's q ``(n, n, n)`` and c ``(n, n, n, n)``: one term a nonzero
    coefficient, ``((q/2) x_j) x_k`` or ``(((c/6) x_j) x_k) x_l``."""
    components = []
    for i, name in enumerate(names):
        node = ("var", name)
        for coeffs, scale in ((q[i], 2.0), (c[i], 6.0)):
            for index in zip(*np.nonzero(coeffs)):
                term = ("const", float(coeffs[index]) / scale)
                for j in index:
                    term = ("mul", term, ("var", names[j]))
                node = ("add", node, term)
        components.append(node)
    return tuple(components)


def pull_back_jets(j: geometry.JetMatrix, g: Optional[geometry.JetMatrix], dphi, ddphi):
    """The jets of J' = Dphi^-1 (J o phi) Dphi and g' = Dphi^T (g o phi) Dphi
    (g' symmetrised) from J's and g's jets at phi(x), by the chain rule:
    d_k J' = -Dphi^-1 H_k Dphi^-1 J Dphi + Dphi^-1 (sum_m d_m J d_k phi^m) Dphi
    + Dphi^-1 J H_k, with H_k = d_k Dphi, and d_k g' by the same rule."""
    t = lambda m: np.swapaxes(m, -1, -2)
    k = lambda m: m[..., None, :, :]  # against the derivative axis k
    chain = lambda partials: np.einsum("...mij,...mk->...kij", partials, dphi)  # sum_m d_m X d_k phi^m
    fi = np.linalg.inv(dphi)
    jv = fi @ j.values @ dphi
    jp = -k(fi) @ ddphi @ k(jv) + k(fi) @ chain(j.partials) @ k(dphi) + k(fi @ j.values) @ ddphi
    if g is None:
        return geometry.JetMatrix(jv, jp), None
    gv = t(dphi) @ g.values @ dphi
    gp = t(ddphi) @ k(g.values @ dphi) + k(t(dphi)) @ chain(g.partials) @ k(dphi) + k(t(dphi) @ g.values) @ ddphi
    return geometry.JetMatrix(jv, jp), geometry.JetMatrix((gv + t(gv)) / 2, (gp + t(gp)) / 2)


# ---------------------------------------------------------------------------
# Exact jets.  The report kernels take object arrays of Fractions unchanged,
# so on these jets the package's own code gives exact values: J and dJ come
# from sympy, evaluated at the point's exact rationals (a float is a dyadic
# rational), through exact matrix algebra and no simplification.


def _calls(node) -> bool:
    """Whether an expression AST calls a function (sin, exp, sqrt, ...)."""
    if node[0] in expr_mod.FUNCTIONS:
        return True
    if node[0] in ("const", "var"):
        return False
    return any(_calls(child) for child in node[1:])


def exact_jets(sf, point) -> geometry.JetMatrix:
    """J and its first partials of the structure `sf` at `point` (floats or
    Fractions), as object arrays of Fractions in the package's layout.

    The metric is not read: the exact path is the Euclidean one.  A field
    that calls a function is refused (ValueError), and so is one whose
    value at the point is not rational (a fractional power).
    """
    import sympy

    import symbolic

    field, xs = sf.j_field, symbolic.coordinates(sf.chart)
    if isinstance(field, PullbackField):
        table = [field.components]
    else:
        table = field.frame if isinstance(field, ConjugationField) else field.entries
    if any(_calls(node) for row in table for node in row):
        raise ValueError("exact jets need a field without function calls")
    env = {x: sympy.Rational(Fraction(v)) for x, v in zip(xs, point)}  # exact for a float

    def at(m: sympy.Matrix) -> sympy.Matrix:
        out = m.xreplace(env)
        if not all(v.is_Rational for v in out):
            raise ValueError("the field is not rational at the point")
        return out

    if isinstance(field, PullbackField):
        m = symbolic.jacobian(field.components, xs)  # F[i, j] = d_j phi^i
    else:
        m = symbolic.matrix(table, xs)
    m0, dm = at(m), [at(m.diff(x)) for x in xs]
    if isinstance(field, ExplicitField):
        j, dj = m0, dm
    else:
        j0 = sympy.Matrix(standard_block(sf.chart.n).astype(int).tolist())
        inv = m0.inv()
        if isinstance(field, ConjugationField):  # J = A J0 A^-1, dJ = (dA J0 - J dA) A^-1
            j = m0 * j0 * inv
            dj = [(d * j0 - j * d) * inv for d in dm]
        else:  # J = F^-1 J0 F, dJ = F^-1 (J0 dF - dF J)
            j = inv * j0 * m0
            dj = [inv * (j0 * d - d * j) for d in dm]

    def fractions(m: sympy.Matrix) -> list:
        return [[Fraction(int(v.p), int(v.q)) for v in row] for row in m.tolist()]

    return geometry.JetMatrix(
        np.array(fractions(j), dtype=object), np.array([fractions(d) for d in dj], dtype=object)
    )


# ---------------------------------------------------------------------------
# The randomised self-test as it ran before it was batched, kept verbatim as
# the reference for the batched suite: it builds every random frame and
# metric as an expression tree, one monomial at a time, and evaluates and
# reports one sample at a time.  Only the names of the three public
# functions (and their calls) are changed.


def _coefficient_term(c: float, expo: tuple[int, ...], names) -> expr.ExprNode:
    node: expr.ExprNode = ("const", abs(c))
    for name, k in zip(names, expo):
        if k == 0:
            continue
        factor: expr.ExprNode = ("var", name)
        if k > 1:
            factor = ("pow", factor, ("const", float(k)))
        node = ("mul", node, factor)
    if c < 0:
        node = ("neg", node)
    return node


def random_conjugation_acs_ast(dim: int, degree: int, seed: int) -> ConjugationField:
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
                poly = term if poly is None else ("add", poly, term)
            assert poly is not None
            if i == j:
                poly = ("add", ("const", 1.0), poly)
            row.append(poly)
        rows.append(tuple(row))
    return ConjugationField(tuple(rows))


def random_spd_metric_ast(rng: np.random.Generator, chart: ChartSpec, point) -> MetricField:
    """I + 0.2 (B + B^T) + small linear perturbation, one draw; a draw that
    is not SPD at point has its constant term shifted by (1 - lambda_min) I,
    lambda_min its smallest eigenvalue at the point."""
    n = chart.n
    names = chart.var_names

    def field(shift: float) -> MetricField:
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                const = (1.0 if i == j else 0.0) + sym[i, j]
                node: expr.ExprNode = ("const", const + shift if i == j else const)
                for k in range(n):
                    c = float(lin[k, min(i, j), max(i, j)])
                    term = ("mul", ("const", abs(c)), ("var", names[k]))
                    if c < 0:
                        term = ("neg", term)
                    node = ("add", node, term)
                row.append(node)
            rows.append(tuple(row))
        return MetricField(tuple(rows))

    b = rng.uniform(-1.0, 1.0, (n, n))
    sym = 0.2 * (b + b.T)
    lin = rng.uniform(-0.05, 0.05, (n, n, n))  # lin[k, i, j]: x_k coefficient
    metric = field(0.0)
    try:
        metric.eval(chart, point)
    except geometry.MetricError:
        values = ExplicitField(metric.entries).eval(chart, point).values  # not refused as indefinite
        return field(float(1.0 - np.linalg.eigvalsh(values)[0]))
    return metric


def pcg64_state(streams, row: int) -> dict:
    """Row `row` of an `acscheck._pcg64.Streams` as numpy's
    `PCG64().state["state"]`, to compare with a generator's."""
    (sh, sl), (ih, il) = streams.s[:, row].tolist(), streams.inc[:, row].tolist()
    return {"state": sh << 64 | sl, "inc": ih << 64 | il}


def run_selftest_per_sample(dims, samples: int, degree: int, seed: int) -> SelfTestReport:
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
            field = random_conjugation_acs_ast(dim, degree, field_seed)
            point = rng.uniform(0.0, 1.0, dim)
            metric = random_spd_metric_ast(rng, chart, point)

            j_jm = field.eval(chart, point)
            record(0, float(geometry.validate_acs(j_jm)[1]), TOL_ACS)

            n_std = nijenhuis.nijenhuis_standard(j_jm)
            n_red = nijenhuis.nijenhuis_reduced(j_jm)
            scale_n = float(np.max(np.abs(n_std)))
            record(1, float(np.max(np.abs(n_std - n_red))), TOL_EQUIV, 1.0 + scale_n)
            record(2, float(np.max(np.abs(n_std + n_std.transpose(0, 2, 1)))), TOL_ANTISYM)
            j_max = max(1.0, float(np.max(np.abs(j_jm.values))))
            record(3, nijenhuis.j_swap_residual(n_std, j_jm.values), TOL_SWAP, (1.0 + scale_n) * (j_max * j_max))

            rep_e = report_from_jets(j_jm, None, point)
            terms_scale = 1.0 + sum(abs(rep_e["ledger"][name]) for name in TERM_NAMES)
            res_ledger = abs(rep_e["ledger"]["total"] - rep_e["contraction"])
            record(4, res_ledger, TOL_LEDGER, terms_scale)

            if rep_e["n_max_abs"] <= TOL_ZERO_N:
                bn = nijenhuis.big_n(n_std, j_jm.values, np.eye(dim))
                scalars = (abs(rep_e["contraction"]), abs(rep_e["double_trace"]), np.max(np.abs(bn)))
                record(5, float(max(scalars)), TOL_ZERO_PROP)
            # the Euclidean big_n diagonal B_ikik = N^r_ik N^s_ri J^k_s
            diag = np.einsum("rik,sri,ks->ik", n_std, n_std, j_jm.values)
            diag_scale = 1.0 + float(np.sum(np.abs(diag)))
            res_collapse = abs(rep_e["double_trace"] - rep_e["contraction"])
            record(6, res_collapse, TOL_COLLAPSE, diag_scale)

            g_jm = metric.eval(chart, point)
            rep_g = report_from_jets(j_jm, g_jm, point)

            values = (
                res_ledger / terms_scale,
                res_collapse / diag_scale,
                rep_e["identity_residual_trace"],
                rep_g["identity_residual_trace"],
                rep_e["identity_residual_contraction"],
                *rep_e["cancellation_residuals"].values(),  # II3+IV3 ... first_quadratic
                abs(rep_e["double_trace"] - rep_g["double_trace"]),
            )
            for name, value in zip(_RESIDUAL_NAMES, values, strict=True):
                residuals[name].append(value)

    return SelfTestReport(dims, samples, degree, seed, checks, residuals, failures)


# ---------------------------------------------------------------------------
# Frozen regression anchors, recorded from the first oracle-verified build.
# Points are dicts keyed by quantity; all scalars at the stated chart point.
# ---------------------------------------------------------------------------

ANCHORS = {
    ("expblock4", (0.0, 0.0, 0.0, 0.0)): {
        "n_max_abs": 1.0,
        "obstruction": 0.0,
        "contraction": 0.0,
        "double_trace": 0.0,
        "ledger_total": 0.0,
    },
    ("expblock4", (1.0, 0.0, 0.0, 0.0)): {
        "n_max_abs": 2.718281828459045,
        "obstruction": 0.0,
        "contraction": 0.0,
        "double_trace": 0.0,
        "ledger_total": 0.0,
    },
    ("shear4", (0.0, 0.0, 0.0, 0.0)): {
        "n_max_abs": 1.0,
        "obstruction": 0.0,
        "contraction": 0.0,
        "double_trace": 0.0,
        "ledger_total": 0.0,
    },
    ("shear4", (1.0, 0.0, 0.0, 0.0)): {
        "n_max_abs": 1.0,
        "obstruction": 0.0,
        "contraction": 0.0,
        "double_trace": 0.0,
        "ledger_total": 0.0,
    },
    ("pullback4", (0.3, -0.2, 0.5, 0.7)): {
        "n_max_abs": 0.0,
        "obstruction": 6.0,
        "contraction": 0.0,
        "double_trace": 0.0,
        "ledger_total": 0.0,
    },
}

# random conjugation field (dim 4, degree 2, seed 42) at the origin
RANDOM_CONJUGATION_ANCHOR = {
    "obstruction": -0.5638880493363554,
    "contraction": 0.0,
}

# max |contraction| of shear4 over the 5^4 grid on [-1, 1]^4
SHEAR4_GRID_MAX_CONTRACTION = 0.0
