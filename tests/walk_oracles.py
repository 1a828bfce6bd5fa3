"""References for `locscape.stochastic`: the exact boundary values of the 1D cell-boundary
walk, and the 2D block scan taken one step at a time."""

import numpy as np

from locscape import PotentialField, assemble, grid_1d, landscape_from_operator, stochastic


def boundary_values(cells, K, bc):
    """The cell-boundary walk's expected occupation at the N + 1 nodes: the dense solve of
    w_j = G_j + P_L,j w_{j-1} + P_R,j w_{j+1}."""
    PL, PR, G = stochastic._node_kernels(cells, K, bc.h, bc.kind == "dirichlet")
    A = np.eye(len(G)) - np.diag(PL[1:], -1) - np.diag(PR[:-1], 1)
    return np.linalg.solve(A, G)


def boundary_value_at(x, cells, K, bc):
    """The walk's expected occupation from ``x``: one exact hop to the nodes of its cell."""
    w = boundary_values(cells, K, bc)
    N = len(cells)
    u = x * N
    i = min(int(u), N - 1)
    if u == int(u):
        return w[int(u)]
    PL, PR, G = stochastic._in_cell_kernels((u - i) / N, (i + 1 - u) / N,
                                            np.sqrt(K * cells[i]), 1.0 / N)
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


def fold(raw):
    """Mirror a raw position into [0,1] (reflection at both walls)."""
    y = np.mod(raw, 2.0)
    return np.where(y > 1.0, 2.0 - y, y)


def potential(walk, pts):
    """Cell value at each position of ``pts`` (..., d); outside points take the wall cell."""
    N = walk.cells.shape[0]
    ci = np.clip((pts * N).astype(int), 0, N - 1)
    return walk.cells[tuple(np.moveaxis(ci, -1, 0))]


def scan_by_steps(walk, x0, Y0, dW, U=None):
    """`stochastic._scan` one step at a time: the step law with increments s dW.

    ``s`` is each path's mirror orientation, flipped whenever a fold reflects the
    raw step an odd number of times.  Returns the occupation, weight, position and
    death flag of every path; weight and position freeze at a path's death step.
    """
    occupation = np.zeros(len(Y0))
    Y, x = Y0.copy(), x0.copy()
    s = np.ones_like(x0)
    live = np.ones(len(Y0), dtype=bool)
    for k in range(len(dW)):
        raw = x + s * dW[k]
        if walk.absorbing:
            new = raw
            p_survive = np.prod(
                (1.0 - np.exp(-np.maximum(x, 0.0) * np.maximum(raw, 0.0) / walk.dt))
                * (1.0 - np.exp(-np.maximum(1.0 - x, 0.0) * np.maximum(1.0 - raw, 0.0) / walk.dt)),
                axis=1)
        else:
            new = fold(raw)
            s = np.where(np.mod(raw, 2.0) > 1.0, -s, s)
        kv = walk.K * (0.5 * (potential(walk, x) + potential(walk, new)))
        decay = np.exp(-kv * walk.dt)
        step_weight = np.where(kv > 0, (1.0 - decay) / np.where(kv > 0, kv, 1.0), walk.dt)
        if walk.h > 0:
            decay = decay * np.exp(-walk.h * np.abs(new - raw).sum(axis=1))
        occupation += np.where(live, Y * step_weight, 0.0)
        Y = np.where(live, Y * decay, Y)
        x = np.where(live[:, None], new, x)
        if walk.absorbing:
            live &= U[k] < p_survive
        live &= Y >= stochastic.WEIGHT_CUTOFF
    return occupation, Y, x, ~live
