"""Exact (sympy) counterparts of the package's field evaluation and scalars.

Independent of the jet and einsum code: an expression AST becomes a sympy
expression (float literals as the exact rationals they store), J is built
from the field definition, the Nijenhuis tensor comes straight from Lie
brackets of the vector fields J(e_i), and the obstruction scalar is
transcribed index by index from its documented formula.  Matrix layout as in
the package: J[i, j] is the coefficient of e_i in J(e_j).

For the pointwise algebra, a generic tensor with the symmetries of a
Nijenhuis tensor is a combination of an exact rational basis with symbolic
coefficients, and the contraction and the direct double trace are exact
quadratic polynomials in those coefficients.
"""

from __future__ import annotations

import itertools

import sympy
from sympy.polys.domains import QQ
from sympy.polys.matrices import DomainMatrix

from acscheck import expr as expr_mod
from acscheck.geometry import ConjugationField, ExplicitField, PullbackField, standard_block

_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "pow": lambda a, b: a**b,
}


def coordinates(chart) -> tuple[sympy.Symbol, ...]:
    return tuple(sympy.Symbol(name, real=True) for name in chart.var_names)


def to_sympy(node, xs) -> sympy.Expr:
    """Exact sympy expression of an AST over the chart symbols `xs`."""
    op = node[0]
    if op == "const":
        return sympy.Rational(node[1])
    if op == "var":
        return next(x for x in xs if x.name == node[1])
    if op == "neg":
        return -to_sympy(node[1], xs)
    if op in _BINARY:
        return _BINARY[op](to_sympy(node[1], xs), to_sympy(node[2], xs))
    if op in expr_mod.FUNCTIONS:
        return getattr(sympy, op)(to_sympy(node[1], xs))
    raise TypeError(node)


def matrix(rows, xs) -> sympy.Matrix:
    """Exact matrix of a table of expression ASTs."""
    return sympy.Matrix([[to_sympy(node, xs) for node in row] for row in rows])


def field_matrix(field, xs) -> sympy.Matrix:
    """Exact J of an explicit, conjugation or pullback field."""
    if isinstance(field, ExplicitField):
        return matrix(field.entries, xs)
    base = sympy.Matrix(standard_block(len(xs)).tolist()).applyfunc(sympy.Rational)
    if isinstance(field, ConjugationField):
        a = matrix(field.frame, xs)
        return sympy.simplify(a * base * a.inv())
    if isinstance(field, PullbackField):
        dphi = jacobian(field.components, xs)
        return sympy.simplify(dphi.inv() * base * dphi)
    raise TypeError(field)


def jacobian(components, xs) -> sympy.Matrix:
    """Dphi[i, j] = d_j phi^i for a map given by expression ASTs."""
    return sympy.Matrix([to_sympy(c, xs) for c in components]).jacobian(xs)


def _bracket(v, w, xs) -> sympy.Matrix:
    """Lie bracket [V, W]^k = V^p d_p W^k - W^p d_p V^k of column fields."""
    return w.jacobian(xs) * v - v.jacobian(xs) * w


def nijenhuis(j: sympy.Matrix, xs) -> list[sympy.Expr]:
    """All components of N(e_a, e_b) = [Je_a, Je_b] - J[e_a, Je_b] - J[Je_a, e_b]
    (the bracket of two coordinate fields vanishes), simplified."""
    n = len(xs)
    cols = [j[:, a] for a in range(n)]
    unit = [sympy.Matrix([1 if i == a else 0 for i in range(n)]) for a in range(n)]
    out = []
    for a in range(n):
        for b in range(n):
            v = (
                _bracket(cols[a], cols[b], xs)
                - j * _bracket(unit[a], cols[b], xs)
                - j * _bracket(cols[a], unit[b], xs)
            )
            out.extend(sympy.simplify(e) for e in v)
    return out


def obstruction(j: sympy.Matrix, xs) -> sympy.Expr:
    """-d_j(J^i_l J^k_l) d_i J^j_k summed over all indices (J^a_b = J[a, b])."""
    n = len(xs)
    jjt = j * j.T
    total = sympy.Integer(0)
    for i in range(n):
        for jj in range(n):
            for k in range(n):
                total -= sympy.diff(jjt[i, k], xs[jj]) * sympy.diff(j[jj, k], xs[i])
    return sympy.simplify(total)


def conjugated_block(a: sympy.Matrix) -> sympy.Matrix:
    """J = A J0 A^-1 for the package's standard block J0 (e_2a -> e_2a+1)."""
    n = a.shape[0]
    j0 = sympy.zeros(n)
    for b in range(n // 2):
        j0[2 * b + 1, 2 * b], j0[2 * b, 2 * b + 1] = 1, -1
    return a * j0 * a.inv()


def nijenhuis_like_basis(j: sympy.Matrix) -> list[dict]:
    """An exact basis of the tensors T^r_ik antisymmetric in (i, k) with
    T(X, JY) = -J T(X, Y): the pointwise symmetries of the Nijenhuis tensor
    of a J with J^2 = -I (Kobayashi & Nomizu II, ch. IX).  Each element maps
    (r, i, k) to its component."""
    n = j.shape[0]
    free = [(r, i, k) for r in range(n) for i in range(n) for k in range(i + 1, n)]
    column = {key: c for c, key in enumerate(free)}

    def entry(row, r, i, k, factor):
        # T^r_ik as +-(the free unknown) by antisymmetry; T^r_ii = 0
        if i != k:
            sign = 1 if i < k else -1
            row[column[(r, min(i, k), max(i, k))]] += sign * factor

    rows = []
    for r, i, k in itertools.product(range(n), repeat=3):
        # sum_p T^r_ip J^p_k + sum_p J^r_p T^p_ik = 0
        row = [sympy.Integer(0)] * len(free)
        for p in range(n):
            entry(row, r, i, p, j[p, k])
            entry(row, p, i, k, j[r, p])
        rows.append(row)
    dm = DomainMatrix.from_Matrix(sympy.Matrix(rows)).convert_to(QQ)
    basis = []
    for vec in dm.nullspace().to_Matrix().tolist():
        comps = {}
        for (r, i, k), value in zip(free, vec):
            comps[(r, i, k)], comps[(r, k, i)] = value, -value
        for r, i in itertools.product(range(n), repeat=2):
            comps[(r, i, i)] = sympy.Integer(0)
        basis.append(comps)
    return basis


def quadratic_poly(basis: list[dict], cs, weights: dict) -> sympy.Poly:
    """sum of w N[x] N[y] over `weights` {(x, y): w}, for N = sum_k c_k B_k,
    as an exact polynomial in the symbols `cs`: with V the matrix of the
    basis (component by basis index) and W that of the weights, the
    coefficient of c_k c_l is (V^T W V)[k, l]."""
    keys = sorted(basis[0])
    row = {key: p for p, key in enumerate(keys)}
    entries = {(row[x], row[y]): w for (x, y), w in weights.items()}
    w = sympy.SparseMatrix(len(keys), len(keys), entries)
    v = sympy.Matrix([[b[key] for b in basis] for key in keys])
    v, w = (DomainMatrix.from_Matrix(m).convert_to(QQ) for m in (v, w))
    q = (v.transpose() * w * v).to_Matrix()
    quadratic = sum((q[k, l] * ck * cl for k, ck in enumerate(cs) for l, cl in enumerate(cs)), 0)
    return sympy.Poly(quadratic, *cs, domain=QQ)


def contraction_weights(j: sympy.Matrix) -> dict:
    """N^r_ik N^s_ri J^k_s summed over i, k, r, s, as weights of N-pairs."""
    n = j.shape[0]
    weights: dict = {}
    for i, k, r, s in itertools.product(range(n), repeat=4):
        pair = ((r, i, k), (s, r, i))
        weights[pair] = weights.get(pair, 0) + j[k, s]
    return weights


def double_trace_weights(j: sympy.Matrix, g_inv: sympy.Matrix) -> dict:
    """The direct double trace g^{ac} N^r_ab J^b_s N^s_rc summed over a, b,
    c, r, s, as weights of N-pairs."""
    n = j.shape[0]
    weights: dict = {}
    for a, b, c, r, s in itertools.product(range(n), repeat=5):
        pair = ((r, a, b), (s, r, c))
        weights[pair] = weights.get(pair, 0) + g_inv[a, c] * j[b, s]
    return weights
