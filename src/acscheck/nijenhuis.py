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

from .geometry import JetMatrix

__all__ = [
    "nijenhuis_standard",
    "nijenhuis_reduced",
    "big_n",
    "double_trace",
    "contraction_scalar",
    "j_swap_residual",
]


def nijenhuis_standard(jm: JetMatrix) -> np.ndarray:
    """Components of [JX,JY] - J[X,JY] - J[JX,Y] - [X,Y] on coordinate fields.

    comps[k,i,j] = J^p_i d_p J^k_j - J^p_j d_p J^k_i
                 - J^k_p d_i J^p_j + J^k_p d_j J^p_i

    Antisymmetry in (i, j) is exact: the array is a difference of one half
    and its transpose.
    """
    j, d = jm.values, jm.partials
    m = np.einsum("...pi,...pkj->...kij", j, d) - np.einsum("...kp,...ipj->...kij", j, d)
    return m - np.swapaxes(m, -1, -2)


def nijenhuis_reduced(jm: JetMatrix) -> np.ndarray:
    """Components in the form reduced with J^2 = -I:

    comps[r,i,k] = J^p_i (d_p J^r_k - d_k J^r_p) - J^p_k (d_p J^r_i - d_i J^r_p)

    Agrees with :func:`nijenhuis_standard` exactly when J^2 = -I holds at the
    point; disagreement is a usable detector for invalid input.
    """
    j, d = jm.values, jm.partials
    dd = d - np.swapaxes(d, -1, -3)
    b = np.einsum("...pi,...prk->...rik", j, dd)
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


def double_trace(bn: np.ndarray, g_inv: np.ndarray) -> float:
    """Trace slots (1,3) and slots (2,4) against the inverse metric."""
    return np.einsum("...ia,...kb,...ikab->...", g_inv, g_inv, bn) + 0.0


def contraction_scalar(comps: np.ndarray, j_values: np.ndarray) -> float:
    """sum over i,k,r,s of N^r_ik N^s_ri J^k_s (J^k_s = entry row k, col s)."""
    return np.einsum("...rik,...sri,...ks->...", comps, comps, j_values) + 0.0


def j_swap_residual(comps: np.ndarray, j_values: np.ndarray) -> float:
    """Max-norm residual of the identity N(J e_i, J e_j) = -N(e_i, e_j)."""
    lhs = np.einsum("...pi,...qj,...kpq->...kij", j_values, j_values, comps)
    return np.max(np.abs(lhs + comps), axis=(-3, -2, -1))
