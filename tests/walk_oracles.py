"""References for `locscape.stochastic`: the exact boundary values of the 1D cell-boundary
walk, and the FD landscape at the cell-boundary nodes that they are checked against."""

import math

import numpy as np

from locscape import PotentialField, assemble, grid_1d, landscape_from_operator, stochastic


def boundary_values(cells, K, bc):
    """The cell-boundary walk's expected occupation at the N + 1 nodes: the dense solve of
    w_j = G_j + P_L,j w_{j-1} + P_R,j w_{j+1}."""
    PL, PR, G = stochastic._node_kernels(cells, K, bc.h, bc.kind == "dirichlet")
    A = np.eye(len(G)) - np.diag(PL[1:], -1) - np.diag(PR[:-1], 1)
    return np.linalg.solve(A, G)


def in_cell_hop(dl, dr, beta, a):
    """P_L, P_R and G of the exact hop from dl right of a cell's left node and dr left of its
    right node (dl + dr = a): P_L = sinh(beta dr) / sinh(beta a), P_R likewise, and
    G = 2 sinh(beta dl / 2) sinh(beta dr / 2) / (beta^2 cosh(beta a / 2)), written in
    exp(-beta a) and expm1 so that none overflows; (dr / a, dl / a, dl dr / 2) at beta = 0."""
    if beta * a < 1e-8:
        return dr / a, dl / a, 0.5 * dl * dr
    m = math.expm1(-2.0 * beta * a)
    return (math.exp(-beta * dl) * math.expm1(-2.0 * beta * dr) / m,
            math.exp(-beta * dr) * math.expm1(-2.0 * beta * dl) / m,
            math.expm1(-beta * dl) * math.expm1(-beta * dr)
            / ((1.0 + math.exp(-beta * a)) * beta * beta))


def boundary_value_at(x, cells, K, bc):
    """The walk's expected occupation from ``x``: one exact hop to the nodes of its cell."""
    w = boundary_values(cells, K, bc)
    N = len(cells)
    u = x * N
    i = min(int(u), N - 1)
    if u == int(u):
        return w[int(u)]
    PL, PR, G = in_cell_hop((u - i) / N, (i + 1 - u) / N, math.sqrt(K * cells[i]), 1.0 / N)
    return G + PL * w[i] + PR * w[i + 1]


def richardson_fd_boundary_values(cells, K, bc, r=64):
    """The FD landscape at the cell-boundary nodes, extrapolated from r and 2r nodes per cell
    as (4 w_2r - w_r) / 3 (the scheme's error is O(spacing^2))."""
    out = []
    for rr in (r, 2 * r):
        grid = grid_1d(len(cells), rr)
        op = assemble(grid, PotentialField(grid, cells, 0), K, bc)
        out.append(op.embed(landscape_from_operator(op).w)[::rr])
    return (4.0 * out[1] - out[0]) / 3.0

