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

Workspace.  One estimate allocates its scan buffers once and drops them when
it returns: one flat float64, intp or bool array per intermediate, sized for
(BLOCK + 1) x LANE x d entries (fewer for those without a step row or an axis)
by the first block, which is the largest.  Each block, the draws included,
works in the leading elements of each buffer reshaped to its (B + 1, n, d),
(B, n, d) or (B, n) shape, so a lane whose alive paths shrink still sees
C-ordered arrays of exactly its size.  Every value is the same operation on the
same operands in the same order as with a fresh array per intermediate, and
every reduction runs over the same layout in the same order, so the scans give
the same bits.  The few rewrites are exact: the fold is min(r, 2 - r), the kv = 0
case of the step weight adds a 0/1 mask, bridge exponents below -40 are clamped
there (1 - exp rounds to 1 either way), and the steps after a path's death are
set to 0 instead of multiplied by 0 (their terms are finite and >= 0).

The step-start/step-end sampling of V cannot resolve potential features
narrower than the walk step sqrt(2 dt); comparisons against the
finite-difference landscape should probe cells at least that wide.
"""

import math
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


class _Workspace:
    """Named flat buffers that one estimate's block scans reuse (see the module docstring)."""

    def __init__(self):
        self._bufs = {}

    def __call__(self, name, shape, dtype=np.float64):
        """A C-ordered ``shape`` view of the leading elements of buffer ``name``.

        The buffer is allocated on first use and replaced only by a larger request, so
        after the first block of an estimate (the largest) no block allocates one.
        """
        size = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _scan(walk: _Walk, x0, Y0, dW, U, ws: _Workspace):
    """Advance n paths by B steps at once (see the module docstring).

    ``x0`` (n, d) positions, ``Y0`` (n,) weights, ``dW`` (B, n, d) increments and,
    under absorbing walls, ``U`` (B, n) uniforms for the bridge test (else None).
    Every intermediate lives in ``ws``.  Returns each path's occupation over the block
    through its death step, its weight and position after step B, and whether it died.
    """
    B, n, d = dW.shape
    u = ws("u", (B + 1, n, d))
    u[0] = x0
    u[1:] = dW
    for k in range(B):                       # unfolded walk: cumsum row by row, which is
        np.add(u[k], u[k + 1], out=u[k + 1])  # faster than accumulating along axis 0
    if walk.absorbing:
        x = u
    else:
        q, r, x = ws("q", u.shape), ws("r", u.shape), ws("x", u.shape)
        np.multiply(u, 0.5, out=q)
        np.floor(q, out=q)                   # u lies in the mirror period [2q, 2q + 2)
        np.multiply(q, 2.0, out=x)
        np.subtract(u, x, out=r)
        if walk.h > 0:
            odd = ws("odd", u.shape, bool)
            np.greater(r, 1.0, out=odd)      # on its mirrored sheet [2q + 1, 2q + 2]
        # fold(u) = 2 - r on the mirrored sheet, else r; min(r, 2 - r) is the same value
        # because 2 - r is exact for r in [1, 2] and rounds to >= 1 >= r below
        np.subtract(2.0, r, out=x)
        np.minimum(r, x, out=x)

    # cell values at the positions; a point outside the domain takes the wall cell
    N = walk.cells.shape[0]
    f, ci = ws("f", u.shape), ws("ci", u.shape, np.intp)
    np.multiply(x, N, out=f)
    np.copyto(ci, f, casting="unsafe")       # truncation toward 0, as astype(int)
    idx = ci[..., 0]
    if d > 1:
        np.clip(ci, 0, N - 1, out=ci)
        idx = ws("idx", (B + 1, n), np.intp)
        np.copyto(idx, ci[..., 0])
        for a in range(1, d):
            idx *= N
            idx += ci[..., a]
    vx = ws("vx", (B + 1, n))
    np.take(walk.cells.reshape(-1), idx, mode="clip", out=vx)

    kv, Y = ws("kv", (B, n)), ws("Y", (B + 1, n))
    np.add(vx[:-1], vx[1:], out=kv)
    kv *= 0.5
    kv *= walk.K
    decay = Y[1:]
    np.multiply(kv, -walk.dt, out=decay)
    np.exp(decay, out=decay)
    # (1 - decay) / kv, or dt where kv = 0 (kv >= 0 since K and V are), with the 0/1
    # mask z as ((1 - decay) + z dt) / (kv + z): adding 0 changes no other entry
    step_weight, mask = ws("step_weight", (B, n)), ws("mask", (B, n), bool)
    tmp, den = ws("tmp", (B, n)), ws("den", (B, n))
    np.equal(kv, 0.0, out=mask)
    np.copyto(tmp, mask)
    np.add(kv, tmp, out=den)
    tmp *= walk.dt
    np.subtract(1.0, decay, out=step_weight)
    step_weight += tmp
    step_weight /= den
    if walk.h > 0:
        # x = s u + c on each sheet, so x_k - (x_{k-1} + s_{k-1} dW_k) is
        # (s_k - s_{k-1}) u_k + c_k - c_{k-1}: exactly 0 while the sheet is unchanged
        c, s = r, q
        np.multiply(q, -2.0, out=c)
        q *= 2.0
        q += 2.0
        np.copyto(c, q, where=odd)           # c = 2q + 2 on the mirrored sheet, else -2q
        np.copyto(s, odd)
        s *= -2.0
        s += 1.0                             # s = 1 - 2 odd
        step_push, dc = ws("f", dW.shape), ws("dc", dW.shape)
        np.subtract(s[1:], s[:-1], out=step_push)
        step_push *= u[1:]
        np.subtract(c[1:], c[:-1], out=dc)
        step_push += dc
        np.abs(step_push, out=step_push)
        np.sum(step_push, axis=-1, out=tmp)
        tmp *= -walk.h
        np.exp(tmp, out=tmp)
        decay *= tmp
    Y[0] = Y0
    for k in range(B):                       # cumprod, row by row
        np.multiply(Y[k], Y[k + 1], out=Y[k + 1])
    dead = ws("dead", (B, n), bool)
    np.less(Y[1:], WEIGHT_CUTOFF, out=dead)
    if walk.absorbing:
        # survival of both bridges per axis; 0 once a step ends on or beyond a wall
        lo, hi = ws("q", u.shape), ws("r", u.shape)
        np.maximum(u, 0.0, out=lo)
        np.subtract(1.0, u, out=hi)
        np.maximum(hi, 0.0, out=hi)
        p_lo, p_hi = ws("f", dW.shape), ws("dc", dW.shape)
        for p, m in ((p_lo, lo), (p_hi, hi)):
            np.multiply(m[:-1], m[1:], out=p)
            p /= -walk.dt
            # 1 - exp(z) rounds to 1 for every z <= -40, and exp is slow where it underflows
            np.maximum(p, -40.0, out=p)
            np.exp(p, out=p)
            np.subtract(1.0, p, out=p)
        p_lo *= p_hi
        np.prod(p_lo, axis=-1, out=tmp)
        np.greater_equal(U, tmp, out=mask)
        dead |= mask
    for k in range(1, B):                    # dead from the first death step on
        np.logical_or(dead[k - 1], dead[k], out=dead[k])
    died = dead[-1].copy()
    occupation = step_weight
    occupation *= Y[:-1]
    if died.any():                           # count steps through the death step only
        np.copyto(occupation[1:], 0.0, where=dead[:-1])
    return occupation.sum(axis=0), Y[-1].copy(), x[-1].copy(), died


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
    if K < 0:
        raise ParameterError("disorder strength K must be >= 0")
    walk = _Walk(fieldv.cell_values, K, cfg.dt, bc.h, bc.kind == "dirichlet")
    sdt = np.sqrt(2.0 * cfg.dt)
    max_steps = int(np.ceil(cfg.t_max / cfg.dt))

    acc = np.zeros(cfg.n_paths)
    n_truncated, max_truncated_weight = 0, 0.0
    ws = _Workspace()
    for lane in range(-(-cfg.n_paths // LANE)):
        gen = stream(cfg.seed, lane, TAG_WALK)
        ids = np.arange(lane * LANE, min((lane + 1) * LANE, cfg.n_paths))
        pos = np.tile(x0, (len(ids), 1))
        Y = np.ones(len(ids))
        steps_done = 0
        while len(ids) and steps_done < max_steps:
            B = min(BLOCK, max_steps - steps_done)
            dW = ws("dW", (B, len(ids), d))
            gen.standard_normal(out=dW)
            np.multiply(sdt, dW, out=dW)
            U = None
            if walk.absorbing:
                U = ws("U", (B, len(ids)))
                gen.random(out=U)
            occupation, Y, pos, died = _scan(walk, pos, Y, dW, U, ws)
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
