"""Banded assembly of a 1D pencil: the reference for `operator._axis_1d` and the CSR that
`DiscreteOperator.matrix` builds from it."""

import numpy as np
import scipy.sparse as sp


def axis_1d_by_diags(widths, values, ends, K):
    """`operator._axis_1d`, built the long way round.

    The matrix is `sp.diags` over every node, Dirichlet nodes included, then sliced
    down to the active nodes; a ring (``ends`` None) adds its two corner entries as a
    second sparse matrix.  Returns (matrix, mass, node potential, trim), as `_axis_1d`
    does with the matrix given as its arrays (d, e, c).
    """
    w = np.asarray(widths, float)
    v = np.asarray(values, float)
    if ends is None:
        wp, vp = np.r_[w[-1], w], np.concatenate([v[-1:], v])
    else:
        pad = np.zeros_like(v[:1])
        wp, vp = np.r_[0.0, w, 0.0], np.concatenate([pad, v, pad])
    n = len(wp) - 1
    inv = 1.0 / np.where(wp > 0, wp, np.inf)
    span = wp[:-1] + wp[1:]
    m = 0.5 * span
    col = (-1,) + (1,) * (v.ndim - 1)
    vnode = (wp[:-1] / span).reshape(col) * vp[:-1] + (wp[1:] / span).reshape(col) * vp[1:]
    d = inv[:-1] + inv[1:]
    trim = [False, False]
    for side, (kind, h) in enumerate(ends or ()):
        if kind == "robin":
            d[-side] += h
        elif kind == "dirichlet":
            trim[side] = True
    if K:
        d = d + K * vnode * m
    S = sp.diags([d, -inv[1:n], -inv[1:n]], [0, 1, -1], format="csr")
    if ends is None:
        S = S + sp.csr_matrix(([-inv[0], -inv[0]], ([0, n - 1], [n - 1, 0])), shape=(n, n))
        return S, m, vnode, (False, False)
    lo, hi = trim
    sl = slice(int(lo), n - int(hi))
    return S[sl, sl], m[sl], vnode[sl], (lo, hi)


def kron_sum_2d(S, m, K, vnode):
    """The 2D pencil matrix from one axis (S, m): kron(S, M) + kron(M, S) + K diag(v m2)."""
    M = sp.diags(m)
    m2 = np.multiply.outer(m, m).ravel()
    return (sp.kron(S, M) + sp.kron(M, S) + sp.diags(K * vnode * m2)).tocsr()
