"""Nijenhuis tensor components and the contractions built from them.

Components live in dense arrays indexed ``comps[k, i, j] = N^k_ij`` where
N(e_i, e_j) = N^k_ij e_k on coordinate fields (whose Lie brackets vanish).
All contractions sum repeated indices over the full range; with the matrix
layout of :mod:`acscheck.geometry` that convention is legitimate exactly in
coordinates orthonormal for the working metric at the point.  Every function
also takes a batch of points along leading axes and then returns arrays.
"""

from __future__ import annotations

import numpy as np

from .geometry import JetMatrix, contract_first

__all__ = [
    "nijenhuis_standard",
    "nijenhuis_reduced",
    "big_n",
    "double_trace",
    "contraction_scalar",
    "j_swap_residual",
    "product_sum",
]


def product_sum(spec: str, x: np.ndarray, y: np.ndarray):
    """Full contraction of x and y over their trailing axes: one scalar per point.

    `spec` names those axes in each operand, e.g. "irs,isr" for the sum over
    i, r, s of x[i,r,s] y[i,s,r].  The second operand is transposed into the
    first's index order and each point's products are summed as one C-ordered
    row, so a point's sum has the same bits alone as in a batch.  Leading
    batch axes broadcast.
    """
    xs, ys = spec.split(",")
    lead = y.ndim - len(ys)
    z = x * y.transpose((*range(lead), *(lead + ys.index(c) for c in xs)))
    return z.reshape(z.shape[: z.ndim - len(xs)] + (-1,)).sum(-1)


def nijenhuis_standard(jm: JetMatrix) -> np.ndarray:
    """Components of [JX,JY] - J[X,JY] - J[JX,Y] - [X,Y] on coordinate fields.

    comps[k,i,j] = J^p_i d_p J^k_j - J^p_j d_p J^k_i
                 - J^k_p d_i J^p_j + J^k_p d_j J^p_i

    Antisymmetry in (i, j) is exact: the array is a difference of one half
    and its transpose.
    """
    j, d = jm.values, jm.partials
    # both products indexed [i, k, j]: J^p_i d_p J^k_j and J^k_p d_i J^p_j
    m = np.swapaxes(contract_first(j, d) - j[..., None, :, :] @ d, -3, -2)
    return m - np.swapaxes(m, -1, -2)


def nijenhuis_reduced(jm: JetMatrix) -> np.ndarray:
    """Components in the form reduced with J^2 = -I:

    comps[r,i,k] = J^p_i (d_p J^r_k - d_k J^r_p) - J^p_k (d_p J^r_i - d_i J^r_p)

    Agrees with :func:`nijenhuis_standard` exactly when J^2 = -I holds at the
    point; disagreement is a usable detector for invalid input.
    """
    j, d = jm.values, jm.partials
    dd = d - np.swapaxes(d, -1, -3)
    b = np.swapaxes(contract_first(j, dd), -3, -2)  # b[r, i, k] = J^p_i dd[p, r, k]
    return b - np.swapaxes(b, -1, -2)


def big_n(comps: np.ndarray, j_values: np.ndarray, g_values: np.ndarray) -> np.ndarray:
    """Symmetrised (4,0) tensor on coordinate slots (X, Z, Y, W):

    1/4 { <J N(N(X,Z),Y), W>_g + <J N(N(Y,Z),X), W>_g
        + <J N(N(X,W),Y), Z>_g + <J N(N(Y,W),X), Z>_g }

    The construction pairs the four addends so that the simultaneous swap
    (X <-> Y, Z <-> W) leaves the array exactly invariant.
    """
    t = np.einsum("...rab,...src,...ts,...td->...abcd", comps, comps, j_values, g_values)
    # t.transpose(2, 3, 0, 1), (2, 1, 0, 3) and (0, 3, 2, 1) on the slot axes
    s1 = t + np.swapaxes(np.swapaxes(t, -4, -2), -3, -1)
    s2 = np.swapaxes(t, -4, -2) + np.swapaxes(t, -3, -1)
    return 0.25 * (s1 + s2)


def double_trace(comps: np.ndarray, j_values: np.ndarray, g_inv: np.ndarray):
    """Trace of :func:`big_n`'s slots (1,3) and (2,4) against the inverse
    metric, contracted without forming the tensor.  A float (possibly -0.0),
    an array over a batch, or a Fraction for object arrays of Fractions.

    Under that trace the four addends of big_n are equal, and
    g_td g^{bd} = delta_t^b, so it is sum g^{ac} N^r_ab J^b_s N^s_rc: the
    sum over (r, s) is one matrix product, M[a, c], and M is then
    product-summed against g^-1.
    """
    lead, n = comps.shape[:-3], comps.shape[-1]
    nj = comps @ j_values[..., None, :, :]  # nj[r, a, s] = N^r_ab J^b_s
    # rows nj[., a, .] against columns N^._.c, both flattened over (r, s)
    rows = np.swapaxes(nj, -3, -2).reshape(lead + (n, n * n))
    m = rows @ np.swapaxes(comps, -3, -2).reshape(lead + (n * n, n))
    return product_sum("ac,ac", g_inv, m)


def contraction_scalar(comps: np.ndarray, j_values: np.ndarray):
    """sum over i,k,r,s of N^r_ik N^s_ri J^k_s (J^k_s = entry row k, col s),
    as (N J)^r_is against N^s_ri; returns as :func:`double_trace` does."""
    return product_sum("ris,sri", comps @ j_values[..., None, :, :], comps)


def j_swap_residual(comps: np.ndarray, j_values: np.ndarray) -> float:
    """Max-norm residual of the identity N(J e_i, J e_j) = -N(e_i, e_j)."""
    j = j_values[..., None, :, :]
    lhs = np.swapaxes(j, -1, -2) @ comps @ j  # lhs[k] = J^T N^k J
    return np.max(np.abs(lhs + comps), axis=(-3, -2, -1))
