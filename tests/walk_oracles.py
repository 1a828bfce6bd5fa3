"""Per-step walks: the references for the block scan in `locscape.stochastic`."""

import numpy as np

from locscape import ParameterError, PathConfig, stochastic
from locscape.rng import stream


def fold(raw):
    """Mirror a raw position into [0,1] (reflection at both walls)."""
    y = np.mod(raw, 2.0)
    return np.where(y > 1.0, 2.0 - y, y)


def simulate_reflecting_path(dim: int, x0, cfg: PathConfig, n_steps: int):
    """One reflected path: positions (n_steps+1, dim) and local-time increments."""
    x0 = np.broadcast_to(np.asarray(x0, float), (dim,)).copy()
    if np.any(x0 < 0) or np.any(x0 > 1):
        raise ParameterError(f"start point {x0} outside the closed unit domain")
    rng = stream(cfg.seed)
    sdt = np.sqrt(2.0 * cfg.dt)
    pos = np.empty((n_steps + 1, dim))
    dF = np.zeros(n_steps)
    pos[0] = x0
    for k in range(n_steps):
        raw = pos[k] + sdt * rng.standard_normal(dim)
        folded = fold(raw)
        dF[k] = np.abs(folded - raw).sum()
        pos[k + 1] = folded
    return pos, dF


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
        kv = walk.K * (0.5 * (walk.potential(x) + walk.potential(new)))
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
