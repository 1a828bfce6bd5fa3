"""Random-walk estimators of the landscape.

Independent check on the finite-difference landscape: w(x) equals the expected
discounted occupation of a diffusion with generator Laplacian, reflected at the
walls, discounted by exp(-K int V ds) in the bulk and exp(-h dF) on wall contact,
where F is the boundary local time.  Under absorbing (Dirichlet) walls the
integral runs to the first exit instead.  A 1D estimate walks from cell boundary
to cell boundary with exact exit laws; a 2D estimate takes time steps of ``dt``.

The 1D cell-boundary walk.  V is constant on each cell, so from a cell-boundary
node the diffusion's next visit to a neighbouring node, the discount on the way
and the expected discounted occupation before it have closed forms: this is walk
on spheres in 1D (M. E. Muller, Ann. Math. Stat. 27, 569, 1956).  A cell of width
a with beta = sqrt(K v) carries c = beta coth(beta a), q = beta / sinh(beta a) and
t = tanh(beta a / 2) / beta (1/a, 1/a and a/2 at beta = 0).  At a node between
cells L and R,

    P_L = q_L / (c_L + c_R),  P_R = q_R / (c_L + c_R),  G = (t_L + t_R) / (c_L + c_R).

A reflecting or Robin wall acts as a cell with c = h and q = t = 0.  That gives
P = 1 / (cosh(beta a) + (h / beta) sinh(beta a)) (1 / cosh(beta a) when h = 0)
and G = t / (c + h), which solves g'' - beta^2 g = -1 with g'(0) = h g(0) and
g(a) = 0.  A Dirichlet node absorbs.  A start x inside a cell [x_l, x_r] is a node
between two cells of widths x - x_l and x_r - x and the cell's beta, so its first
hop takes the same forms.  Every form is evaluated through exp(-beta a) and expm1,
so none overflows at large beta a; below beta a = 1e-8 the beta = 0 limits stand
in, which agree with the forms to rounding there.

Each hop adds Y G to the path's occupation, multiplies its weight Y by P_L + P_R
and steps left with probability P_L / (P_L + P_R).  The expected occupation
therefore solves w_j = G_j + P_L,j w_{j-1} + P_R,j w_{j+1} at the nodes, with no
time-step bias, and ``dt`` plays no part.  A path stops at a Dirichlet node, by
Russian roulette (below), or after ceil(2 t_max N^2) hops: a^2 / 2 is a hop's mean
exit time on the uniform grid of N cells, so the budget stands for ``t_max``.  The
estimate reports how many paths the budget cut off and their largest remaining
weight.

The 2D stepped walk advances by increments sqrt(2 dt) xi per axis:

* killing uses the per-step closed form Y * (1 - exp(-K v dt)) / (K v) with v
  the average of the cell values at the step endpoints; for constant
  potentials the estimator is then exact for any dt;
* wall reflection folds the raw step x + dW back into the domain, to its
  distance from the nearest even integer (the walls mirror the line with period
  2), and the fold displacement |fold - raw| is the Skorokhod push, accumulated
  into the local time F (half-space approximation, adequate for dt <= 1e-4 and
  h <= 1);
* absorbing walls use the Brownian-bridge crossing probability
  exp(-d_start d_end / dt) per axis, which removes the O(sqrt(dt)) exit bias;
* a path stops at its first absorption (at once if it starts on an absorbing
  wall, where w = 0), by Russian roulette (below), or when ``t_max`` runs out; the
  estimate reports how many paths the last cut off and their largest remaining
  weight.

Russian roulette (I. Lux and L. Koblinger, Monte Carlo Particle Transport Methods,
CRC 1991) stops a path once its weight no longer matters, without bias.  At the end
of every block but the budget's last, a path whose weight Y is below
``ROULETTE_WEIGHT`` plays once with a uniform u: it goes on with weight
``ROULETTE_WEIGHT`` if u ``ROULETTE_WEIGHT`` < Y and stops otherwise.  So E[Y'] = Y,
the paths stay independent and identically distributed, and ``std_error`` holds.  A
play at weight Y adds (``ROULETTE_WEIGHT`` - Y) Y times the second moment of the
occupation still to come at unit weight to the path's variance.  After the budget's
last block no path plays, so the paths the budget cut off report the weights it left
them.

Lanes.  Paths [LANE j, LANE j + LANE) form lane j and share one counter-based
stream, ``stream(seed, j, TAG_WALK)``.  The tag keeps the lanes apart from the
untagged streams of potentials and ensembles (lane 0 of seed s is not the
potential stream of seed s) and from the lanes of every other seed.  One lane loop
drives both walks: it advances every alive path of every lane together, one hop or
step at a time, in blocks of B (BLOCK, fewer at the hop or step budget).  Each block
draws from each lane's stream, for the n paths of the lane still alive and in path
order, (B, n) uniforms in 1D; in 2D (B, n, d) normals, scaled by sqrt(2 dt), then
under absorbing walls (B, n) uniforms; and last, in both, n roulette uniforms, one
per path.  So a path sees the same numbers whatever the other lanes hold.  The draws
land in flat buffers sized for the first block and reused by every later one.  A
path that stops takes weight 0 and adds nothing for the rest of its block; each block
ends with the roulette and then drops the stopped paths.

The 2D walk's step-start/step-end sampling of V cannot resolve potential
features narrower than the walk step sqrt(2 dt); comparisons against the
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
BLOCK = 32              # hops or steps drawn per block
ROULETTE_WEIGHT = 1e-5  # a path below this weight plays Russian roulette between blocks
N_PROBES = 5            # probes `probe_points_for` picks
_SMALL_BA = 1e-8        # below this beta a the cell kernels take their beta = 0 limits


@dataclass(frozen=True)
class PathConfig:
    """Walk settings.  ``dt`` is the 2D walk's time step; the 1D walk hops between cell
    boundaries and ignores it.  ``t_max`` ends a 2D path after ceil(t_max / dt) steps and
    a 1D path after ceil(2 t_max N^2) hops (see the module docstring)."""

    dt: float = 1e-4
    t_max: float = 10.0
    n_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 < self.t_max < np.inf) or self.n_paths < 2:
            raise ParameterError("dt, t_max must be positive and finite and n_paths >= 2 (a "
                                 "standard error needs two samples)")


@dataclass(frozen=True)
class FeynmanKacEstimate:
    """A walk's estimate of the landscape at one point.  ``std_error`` sees only the
    branches the paths took: one rarer than about 1 / ``n_paths`` can go unsampled, and then
    ``std_error`` understates the error, so a deviation in its units overstates a gap."""

    mean: float
    std_error: float             # sample std / sqrt(n_paths)
    n_paths: int
    n_truncated: int             # paths cut off by t_max (in 1D, by the hop budget)
    max_truncated_weight: float  # their largest remaining weight Y (0 when none)


def _start(x, d: int, bc: BoundaryCondition) -> np.ndarray:
    """The start point of a walk from `x` (a scalar is broadcast over the d axes) under `bc`;
    walls the walk cannot take, or a point outside the closed unit domain, are rejected."""
    if bc.kind not in ("neumann", "robin", "dirichlet"):
        raise ParameterError(f"estimator supports neumann/robin/dirichlet, not {bc.kind}")
    x0 = np.broadcast_to(np.asarray(x, float), (d,)).copy()
    if not np.all((0 <= x0) & (x0 <= 1)):   # a NaN probe fails too
        raise ParameterError(f"probe {x0} outside the closed unit domain")
    return x0


def _cell_kernels(beta, a):
    """(c, q, t) = (beta coth(beta a), beta / sinh(beta a), tanh(beta a / 2) / beta) per cell
    of width a, written in exp(-beta a) so that none overflows (see the module docstring)."""
    beta = np.asarray(beta, float)
    small = beta * a < _SMALL_BA
    b = np.where(small, 1.0 / a, beta)      # any beta whose forms are finite; replaced below
    s = np.exp(-b * a)
    m = -np.expm1(-2.0 * b * a)              # 1 - exp(-2 beta a)
    c = np.where(small, 1.0 / a, b * (1.0 + s * s) / m)
    q = np.where(small, 1.0 / a, 2.0 * b * s / m)
    t = np.where(small, 0.5 * a, -np.expm1(-b * a) / ((1.0 + s) * b))
    return c, q, t


def _node_kernels(cells, K: float, h: float, absorbing: bool):
    """P_L, P_R and G at the N + 1 nodes of a line of N cells of width 1/N; all three are 0
    at an absorbing wall node."""
    c, q, t = _cell_kernels(np.sqrt(K * np.asarray(cells, float)), 1.0 / len(cells))
    wall, zero = [h], [0.0]                  # a wall acts as a cell with c = h, q = t = 0
    den = np.concatenate((wall, c)) + np.concatenate((c, wall))
    PL = np.concatenate((zero, q)) / den
    PR = np.concatenate((q, zero)) / den
    G = (np.concatenate((zero, t)) + np.concatenate((t, zero))) / den
    if absorbing:
        for k in (PL, PR, G):
            k[[0, -1]] = 0.0
    return PL, PR, G


def _lanes(cfg: PathConfig, max_moves: int, draws, state, block):
    """Each path's occupation, the number of paths that ``max_moves`` cut off and their
    largest weight.  ``draws`` lists a (Generator method, per-path shape) pair for each
    draw of a move, ``state`` the per-path arrays with the weight last, and
    ``block(moves, views, state)`` makes one block of moves from the draws, sets the weight
    of each path that stops to 0 and returns (occupation, state).  Between blocks the
    light paths play Russian roulette (see the module docstring)."""
    n_lanes = -(-cfg.n_paths // LANE)
    gens = [stream(cfg.seed, lane, TAG_WALK) for lane in range(n_lanes)]
    bufs = [np.empty((min(BLOCK, max_moves) * cfg.n_paths, *shape)) for _, shape in draws]
    roulette = np.empty(cfg.n_paths)
    acc = np.zeros(cfg.n_paths)
    ids = np.arange(cfg.n_paths)
    moves = 0
    while len(ids) and moves < max_moves:
        B = min(BLOCK, max_moves - moves)
        views = [buf[:B * len(ids)].reshape(B, len(ids), *buf.shape[1:]) for buf in bufs]
        u = roulette[:len(ids)]
        a = 0
        for gen, n in zip(gens, np.bincount(ids // LANE, minlength=n_lanes)):
            if n:                            # one lane's draws at a time
                for view, (method, shape) in zip(views, draws):
                    view[:, a:a + n] = getattr(gen, method)((B, n, *shape))
                gen.random(out=u[a:a + n])
                a += n
        occupation, state = block(moves, views, state)
        acc[ids] += occupation
        moves += B
        Y = state[-1]
        if moves < max_moves:                # the budget's last block leaves its weights
            light = np.flatnonzero(Y < ROULETTE_WEIGHT)
            Y[light] = ROULETTE_WEIGHT * (u[light] * ROULETTE_WEIGHT < Y[light])
        live = Y > 0
        ids, state = ids[live], [s[live] for s in state]
    return acc, len(ids), float(state[-1].max(initial=0.0))


def _hop_walk(x0, cells, K: float, bc: BoundaryCondition, cfg: PathConfig):
    """The lane loop's result for the 1D cell-boundary walk from ``x0``, with a budget of
    ceil(2 t_max N^2) hops (see the module docstring)."""
    N = len(cells)
    absorbing = bc.kind == "dirichlet"
    PL, PR, G = _node_kernels(cells, K, bc.h, absorbing)
    D = PL + PR
    pl = np.divide(PL, D, out=np.full(N + 1, 0.5), where=D > 0)
    pl[0], pl[N] = 0.0, 1.0                  # a wall node steps inward, also at zero weight
    kept = np.ones(N + 1)                    # weight factor on arrival at a node
    if absorbing:
        kept[[0, N]] = 0.0
    u = float(x0[0]) * N
    i = min(int(u), N - 1)                   # the cell holding x0, the last one at x0 = 1
    in_cell = u != int(u)
    if in_cell:                              # x0 is a node between the two parts of cell i
        c, q, t = _cell_kernels(math.sqrt(K * cells[i]), np.array([u - i, i + 1 - u]) / N)
        PL0, PR0, G0 = np.append(q, t.sum()) / c.sum()

    def block(hops, views, state):
        (U,), (j, Y) = views, state
        occupation = np.zeros(len(Y))
        for k in range(len(U)):
            if in_cell and hops + k == 0:    # every path is at x0 with weight 1
                occupation += G0
                Y *= PL0 + PR0
                j += U[0] * (PL0 + PR0) >= PL0
            else:
                occupation += Y * G[j]
                Y *= D[j]
                left = U[k] < pl[j]
                j += 1
                j -= left
                j -= left
            if absorbing:
                Y *= kept[j]                 # a stopped path adds 0 from here on
        return occupation, (j, Y)

    start = np.full(cfg.n_paths, i if in_cell else int(u), np.intp)
    return _lanes(cfg, math.ceil(2.0 * cfg.t_max * N * N), [("random", ())],
                  (start, np.ones(cfg.n_paths)), block)


def _step_walk(x0, cells, K: float, bc: BoundaryCondition, cfg: PathConfig):
    """The lane loop's result for the stepped walk from ``x0``, with a budget of
    ceil(t_max / dt) steps (see the module docstring)."""
    N, d = cells.shape[0], x0.shape[0]
    absorbing = bc.kind == "dirichlet"
    sdt = math.sqrt(2.0 * cfg.dt)

    def cell_value(x):                       # a point outside the domain takes the wall cell
        ci = np.clip((x * N).astype(int), 0, N - 1)
        return cells[ci[:, 0], ci[:, 1]]

    def block(steps, views, state):
        dW, U = views[0], views[-1]          # U is drawn only under absorbing walls
        dW *= sdt
        x, v, Y = state
        occupation = np.zeros(len(Y))
        for k in range(len(dW)):
            raw = x + dW[k]
            new = raw if absorbing else np.abs(raw - 2.0 * np.round(0.5 * raw))    # the fold
            v_new = cell_value(new)
            kv = K * (0.5 * (v + v_new))
            decay = np.exp(-kv * cfg.dt)
            # (1 - decay) / kv, or dt where kv = 0 (kv >= 0 since K and V are)
            occupation += Y * np.where(kv > 0, (1.0 - decay) / np.where(kv > 0, kv, 1.0), cfg.dt)
            if bc.h > 0:
                decay *= np.exp(-bc.h * np.abs(new - raw).sum(axis=1))
            Y *= decay
            if absorbing:
                # survival of both bridges per axis; 0 once a step ends on or beyond a wall.
                # 1 - exp(z) rounds to 1 for every z <= -40, and exp is slow where it underflows
                p = 1.0
                for m0, m1 in ((x, new), (1.0 - x, 1.0 - new)):
                    z = -np.maximum(m0, 0.0) * np.maximum(m1, 0.0) / cfg.dt
                    p = p * (1.0 - np.exp(np.maximum(z, -40.0)))
                Y *= U[k] < np.prod(p, axis=1)      # a stopped path adds 0 from here on
            x, v = new, v_new
        return occupation, (x, v, Y)

    x = np.tile(x0, (cfg.n_paths, 1))
    on_wall = absorbing and bool(np.any((x0 == 0.0) | (x0 == 1.0)))
    draws = [("standard_normal", (d,))] + [("random", ())] * absorbing
    return _lanes(cfg, math.ceil(cfg.t_max / cfg.dt), draws,
                  (x, cell_value(x), np.full(cfg.n_paths, float(not on_wall))), block)


def estimate_landscape_mc(x, fieldv: PotentialField, K: float,
                          bc: BoundaryCondition, cfg: PathConfig) -> FeynmanKacEstimate:
    """Monte Carlo estimate of the landscape at a point: by the cell-boundary walk in 1D,
    by the stepped walk in 2D."""
    d = fieldv.grid.dim
    x0 = _start(x, d, bc)
    if not 0 <= K < np.inf:
        raise ParameterError(f"disorder strength K must be >= 0 and finite, got {K}")
    walk = _hop_walk if d == 1 else _step_walk
    acc, n_truncated, max_truncated_weight = walk(x0, fieldv.cell_values, K, bc, cfg)
    mean = float(acc.mean())
    se = float(acc.std(ddof=1) / np.sqrt(cfg.n_paths))
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
