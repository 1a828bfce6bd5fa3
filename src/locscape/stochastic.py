"""Reflected-random-walk estimator for the landscape.

Independent check on the finite-difference landscape: w(x) equals the expected
discounted occupation of a diffusion with generator Laplacian (per-axis
increments sqrt(2 dt) xi), reflected at the walls, discounted by
exp(-K int V ds) in the bulk and exp(-h dF) on wall contact, where F is the
boundary local time.  Under absorbing (Dirichlet) walls the integral runs to
the first exit instead.

Scheme notes, chosen so the module-level checks pass at their stated
tolerances rather than for generality:

* killing uses the per-step closed form Y * (1 - exp(-K v dt)) / (K v) with v
  the average of the cell values at the step endpoints; for constant
  potentials the estimator is then exact for any dt;
* wall reflection folds the raw step back into the domain, and the fold
  displacement |fold - raw| is the Skorokhod push, accumulated into the local
  time F (half-space approximation, adequate for dt <= 1e-4 and h <= 1);
* absorbing walls use the Brownian-bridge crossing probability
  exp(-d_start d_end / dt) per axis, which removes the O(sqrt(dt)) exit bias;
* a path stops at its first absorption, once its weight falls below
  ``WEIGHT_CUTOFF``, or when ``t_max`` runs out; the estimate reports how many
  paths the last cut off and their largest remaining weight.

Lanes.  Paths [LANE j, LANE j + LANE) form lane j and share one counter-based
stream, ``stream(seed, j, TAG_WALK)``.  Lanes are scanned one at a time: each
block of B steps (BLOCK, fewer at ``t_max``) draws (B, n, d) normals, then under
absorbing walls (B, n) uniforms, for the n paths of the lane still alive, in
path order.  The tag keeps the lanes apart from the untagged streams of
potentials and ensembles (lane 0 of seed s is not the potential stream of seed
s) and from the lanes of every other seed.

Block scan.  A block advances every alive path by B steps with one pass of
numpy calls.  Let u = x_0 + cumsum(dW) be the unfolded walk.  Under reflecting
and Robin walls the positions are x_k = fold(u_k).  With s = +1 or -1 the
orientation of the mirror sheet holding u_{k-1}, this is the per-step rule
x_k = fold(x_{k-1} + s dW_k), with push |x_k - (x_{k-1} + s dW_k)|: the step
law above with dW_k replaced by s dW_k.  Since s is fixed by the past and dW_k
is a centred Gaussian independent of it, s dW_k has the same law as dW_k given
the past, so the scanned walk equals the stepped one in law (not path by path).
Under absorbing walls an alive path is inside, so its positions are u itself
and the bridge test is applied per step.  Weights are Y_0 cumprod(decay), and a
path's occupation sums Y_{k-1} step_weight through its first death step; the
steps a block computes after that are discarded.

The step-start/step-end sampling of V cannot resolve potential features
narrower than the walk step sqrt(2 dt); comparisons against the
finite-difference landscape should probe cells at least that wide.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .operator import BoundaryCondition
from .potential import PotentialField, runs_of_zeros
from .rng import TAG_WALK, stream

LANE = 1024             # paths per random stream
BLOCK = 32              # steps advanced per block scan
WEIGHT_CUTOFF = 1e-10   # horizon: a path stops once its weight is below this
N_PROBES = 5            # probes `probe_points_for` picks


@dataclass(frozen=True)
class PathConfig:
    dt: float = 1e-4
    t_max: float = 10.0
    n_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0 or self.t_max <= 0 or self.n_paths < 1:
            raise ParameterError("dt, t_max must be positive and n_paths >= 1")


@dataclass(frozen=True)
class FeynmanKacEstimate:
    mean: float
    std_error: float             # sample std / sqrt(n_paths)
    n_paths: int
    n_truncated: int             # paths still alive when t_max ran out
    max_truncated_weight: float  # their largest remaining weight Y (0 when none)


@dataclass(frozen=True)
class _Walk:
    """What a block scan needs besides the paths' state."""

    cells: np.ndarray
    K: float
    dt: float
    h: float            # Robin wall strength; 0 for Neumann and Dirichlet walls
    absorbing: bool

    def potential(self, pts):
        """Cell value at each position of ``pts`` (..., d); outside points take the wall cell."""
        N = self.cells.shape[0]
        ci = np.clip((pts * N).astype(int), 0, N - 1)
        return self.cells[tuple(np.moveaxis(ci, -1, 0))]


def _scan(walk: _Walk, x0, Y0, dW, U=None):
    """Advance n paths by B steps at once (see the module docstring).

    ``x0`` (n, d) positions, ``Y0`` (n,) weights, ``dW`` (B, n, d) increments and,
    under absorbing walls, ``U`` (B, n) uniforms for the bridge test.  Returns each
    path's occupation over the block through its death step, its weight and position
    after step B, and whether it died.
    """
    u = np.cumsum(np.concatenate([x0[None], dW]), axis=0)    # unfolded walk, (B+1, n, d)
    if walk.absorbing:
        x = u
    else:
        q = np.floor(0.5 * u)                # u lies in the mirror period [2q, 2q + 2)
        r = u - 2.0 * q
        odd = r > 1.0                        # on its mirrored sheet [2q + 1, 2q + 2]
        x = np.where(odd, 2.0 - r, r)        # fold(u)
    vx = walk.potential(x)
    kv = walk.K * (0.5 * (vx[:-1] + vx[1:]))
    decay = np.exp(-kv * walk.dt)
    step_weight = np.where(kv > 0, (1.0 - decay) / np.where(kv > 0, kv, 1.0), walk.dt)
    if walk.h > 0:
        # x = s u + c on each sheet, so x_k - (x_{k-1} + s_{k-1} dW_k) is
        # (s_k - s_{k-1}) u_k + c_k - c_{k-1}: exactly 0 while the sheet is unchanged
        s = 1.0 - 2.0 * odd
        c = np.where(odd, 2.0 * q + 2.0, -2.0 * q)
        push = np.abs(np.diff(s, axis=0) * u[1:] + np.diff(c, axis=0)).sum(axis=-1)
        decay *= np.exp(-walk.h * push)
    Y = np.cumprod(np.concatenate([Y0[None], decay]), axis=0)   # (B+1, n)
    dead = Y[1:] < WEIGHT_CUTOFF
    if walk.absorbing:
        # survival of both bridges per axis; 0 once a step ends on or beyond a wall
        lo = np.maximum(u, 0.0)
        hi = np.maximum(1.0 - u, 0.0)
        p_survive = np.prod((1.0 - np.exp(-lo[:-1] * lo[1:] / walk.dt))
                            * (1.0 - np.exp(-hi[:-1] * hi[1:] / walk.dt)), axis=-1)
        dead |= U >= p_survive
    died = dead.any(axis=0)
    last = np.where(died, dead.argmax(axis=0), len(dW) - 1)
    counted = np.arange(len(dW))[:, None] <= last          # steps through the death step
    occupation = (Y[:-1] * step_weight * counted).sum(axis=0)
    return occupation, Y[-1], x[-1], died


def _start(x, d: int, bc: BoundaryCondition) -> np.ndarray:
    """The start point of a walk from `x` (a scalar is broadcast over the d axes) under `bc`;
    walls the walk cannot take, or a point outside the closed unit domain, are rejected."""
    if bc.kind not in ("neumann", "robin", "dirichlet"):
        raise ParameterError(f"estimator supports neumann/robin/dirichlet, not {bc.kind}")
    x0 = np.broadcast_to(np.asarray(x, float), (d,)).copy()
    if np.any(x0 < 0) or np.any(x0 > 1):
        raise ParameterError(f"probe {x0} outside the closed unit domain")
    return x0


def estimate_landscape_mc(x, fieldv: PotentialField, K: float,
                          bc: BoundaryCondition, cfg: PathConfig) -> FeynmanKacEstimate:
    """Monte Carlo estimate of the landscape at a point."""
    d = fieldv.grid.dim
    x0 = _start(x, d, bc)
    walk = _Walk(fieldv.cell_values, K, cfg.dt, bc.h, bc.kind == "dirichlet")
    sdt = np.sqrt(2.0 * cfg.dt)
    max_steps = int(np.ceil(cfg.t_max / cfg.dt))

    acc = np.zeros(cfg.n_paths)
    n_truncated, max_truncated_weight = 0, 0.0
    for lane in range(-(-cfg.n_paths // LANE)):
        gen = stream(cfg.seed, lane, TAG_WALK)
        ids = np.arange(lane * LANE, min((lane + 1) * LANE, cfg.n_paths))
        pos = np.tile(x0, (len(ids), 1))
        Y = np.ones(len(ids))
        steps_done = 0
        while len(ids) and steps_done < max_steps:
            B = min(BLOCK, max_steps - steps_done)
            dW = sdt * gen.standard_normal((B, len(ids), d))
            U = gen.random((B, len(ids))) if walk.absorbing else None
            occupation, Y, pos, died = _scan(walk, pos, Y, dW, U)
            acc[ids] += occupation
            ids, pos, Y = ids[~died], pos[~died], Y[~died]
            steps_done += B
        n_truncated += len(ids)
        max_truncated_weight = max(max_truncated_weight, float(Y.max(initial=0.0)))
    mean = float(acc.mean())
    se = float(acc.std(ddof=1) / np.sqrt(cfg.n_paths)) if cfg.n_paths > 1 else 0.0
    return FeynmanKacEstimate(mean, se, cfg.n_paths, n_truncated, max_truncated_weight)


def probe_points_for(fieldv: PotentialField) -> np.ndarray:
    """Up to N_PROBES locations the estimator can resolve: centers of the widest
    zero runs, padded with the barrier cell farthest from any zero cell."""
    if fieldv.grid.dim != 1:
        raise ParameterError("automatic probe choice is 1D only")
    N = fieldv.grid.cells_per_side
    starts, lengths = runs_of_zeros(fieldv.cell_values)
    order = np.argsort(-lengths, kind="stable")
    probes = [(starts[i] + lengths[i] / 2.0) / N for i in order[: N_PROBES - 1]]
    zero_idx = np.flatnonzero(fieldv.cell_values == 0)
    ones_idx = np.flatnonzero(fieldv.cell_values > 0)
    if len(ones_idx):
        dist = np.abs(ones_idx[:, None] - zero_idx[None, :]).min(axis=1) if len(zero_idx) else ones_idx
        far = ones_idx[np.argmax(dist)]
        probes.append((far + 0.5) / N)
    return np.array(probes[:N_PROBES])
