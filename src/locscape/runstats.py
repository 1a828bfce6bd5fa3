"""Closed-form run-length probabilities and their sampling oracle.

A 1D binary lattice with P(cell = 1) = p decomposes into alternating runs of
zeros and ones.  Idealizing the zero-run lengths X_1..X_M as i.i.d. geometric
on {1,2,...} with success probability p, and doubling a boundary run under a
reflective wall, three desk-scale probabilities have closed forms evaluated
here: the longest extended zero run sits strictly at a wall (which is where the
ground mode localizes under strong disorder and reflective walls), and the
longest plain/extended run is tied (so the ground mode splits over several
runs) under absorbing/reflective walls respectively.  The doubled wall run is the paper's
extended subregion; this module (closed forms, `_batch_flags`) holds that rule's one copy.

`oracle_probabilities` samples the same idealized model, giving an independent
transcription check of the series: both routes must agree to sampling error.
Its per-draw counterpart, `sample_run_config`, lives in the tests
(`tests/run_oracles.py`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .rng import stream

_TRUNC = 1e-14      # series truncated once q^n < _TRUNC
_TAIL_BOUND = 1e-10
ORACLE_BATCH = 200_000   # draws per vectorized batch of the sampling oracle


@dataclass(frozen=True)
class RunModel:
    """Geometric run-length model: p = P(cell = 1), M = round(N p q) zero runs."""

    p: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ParameterError(f"run model needs p in (0,1), got {self.p}")
        if self.M < 1:
            raise ParameterError(f"N={self.N}, p={self.p} give M={self.M} < 1")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def M(self) -> int:
        return round(self.N * self.p * (1.0 - self.p))

    @property
    def n_max(self) -> int:
        return int(np.ceil(np.log(_TRUNC) / np.log(self.q))) + 2


def _check_tail(q, n_max):
    # geometric tail of the summands: sum_{n > n_max} q^(n-1) <= q^n_max / (1-q)
    tail = q ** n_max / (1.0 - q)
    if not tail < _TAIL_BOUND:
        raise ParameterError(f"series tail bound {tail:.2e} above {_TAIL_BOUND}")


def boundary_localization_prob(model: RunModel) -> float:
    """P(longest extended zero run is strictly at a wall), reflective walls.

    Conditioning on the wall cells: with probability q^2 both end runs double
    (2X_1, X_2, ..., 2X_M), with probability 2pq one does, with p^2 none exists
    at a wall.  Each case reduces to geometric tail products.
    """
    p, q, M = model.p, model.q, model.M
    if M < 2:
        raise ParameterError("boundary probability needs at least 2 runs")
    n_max = model.n_max
    _check_tail(q, n_max)
    n = np.arange(1, n_max + 1)
    one_doubled = 2 * p**2 * q * np.sum((1 - q ** (2 * n - 1)) ** (M - 1) * q ** (n - 1))
    # both ends doubled: sum over k = X_1 + X_M of q^(k-2) * #, see the sampling oracle
    both = 0.0
    for k in range(2, 2 * n_max + 3):
        nn = np.arange(1, k)
        mx = np.maximum(k - nn, nn)
        both += q ** (k - 2) * np.sum((1 - q ** (2 * mx - 1)) ** (M - 2))
    both_doubled = q**2 * p**2 * both
    return float(both_doubled + one_doubled)


def multimodal_prob_dirichlet(model: RunModel) -> float:
    """P(the longest plain zero run is not unique), absorbing walls."""
    p, q, M = model.p, model.q, model.M
    n_max = model.n_max
    _check_tail(q, n_max)
    n = np.arange(1, n_max + 1)
    unique = M * p * np.sum((1 - q ** (n - 1)) ** (M - 1) * q ** (n - 1))
    return float(1.0 - unique)


def multimodal_prob_neumann(model: RunModel) -> float:
    """P(the longest extended zero run is not unique), reflective walls.

    Five series, one per way the unique maximum can be realized across the
    four wall configurations; [.] is the floor from P(2X < n) = 1 - q^[(n-1)/2].
    """
    p, q, M = model.p, model.q, model.M
    if M < 3:
        raise ParameterError("the reflective-wall series needs M >= 3")
    n_max = model.n_max
    _check_tail(q, n_max)
    n = np.arange(1, n_max + 1)
    fl = (n - 1) // 2
    g1 = q ** (n - 1) * p
    u = (
        q**2 * (M - 2) * np.sum((1 - q**fl) ** 2 * (1 - q ** (n - 1)) ** (M - 3) * g1)
        + 2 * q**2 * np.sum((1 - q ** (2 * n - 1)) ** (M - 2) * (1 - q ** (n - 1)) * g1)
        + 2 * p * q * (M - 1) * np.sum((1 - q**fl) * (1 - q ** (n - 1)) ** (M - 2) * g1)
        + 2 * p * q * np.sum((1 - q ** (2 * n - 1)) ** (M - 1) * g1)
        + p**2 * M * np.sum((1 - q ** (n - 1)) ** (M - 1) * g1)
    )
    return float(1.0 - u)


# --- sampling oracle ------------------------------------------------------------

def _batch_flags(X, left_zero, right_zero):
    """Per row of zero-run lengths X: is the longest extended run strictly at a wall,
    is the longest plain run unique, is the longest extended run unique."""
    ext = X.astype(float).copy()
    ext[left_zero, 0] *= 2
    ext[right_zero, -1] *= 2
    wall = np.zeros(X.shape, dtype=bool)
    wall[left_zero, 0] = True
    wall[right_zero, -1] = True
    max_wall = np.where(wall, ext, -np.inf).max(axis=1)
    max_inner = np.where(~wall, ext, -np.inf).max(axis=1)
    on_boundary = max_wall > max_inner
    mx = X.max(axis=1)
    unique_plain = (X == mx[:, None]).sum(axis=1) == 1
    mxe = ext.max(axis=1)
    unique_ext = (ext == mxe[:, None]).sum(axis=1) == 1
    return on_boundary, unique_plain, unique_ext


@dataclass(frozen=True)
class OracleEstimate:
    p_boundary: float
    p_multimodal_plain: float
    p_multimodal_extended: float
    std_error: float           # common binomial scale 0.5/sqrt(n)
    n_samples: int


def oracle_probabilities(model: RunModel, n_samples: int, seed: int) -> OracleEstimate:
    """Empirical counterparts of the three closed forms, vectorized in batches."""
    hits = np.zeros(3, dtype=np.int64)
    done = 0
    idx = 0
    while done < n_samples:
        nb = min(ORACLE_BATCH, n_samples - done)
        rng = stream(seed, idx)
        X = rng.geometric(model.p, size=(nb, model.M))
        left_zero = rng.random(nb) < model.q
        right_zero = rng.random(nb) < model.q
        b, up, ue = _batch_flags(X, left_zero, right_zero)
        hits += np.array([b.sum(), (~up).sum(), (~ue).sum()])
        done += nb
        idx += 1
    p = hits / n_samples
    return OracleEstimate(float(p[0]), float(p[1]), float(p[2]),
                          0.5 / np.sqrt(n_samples), n_samples)
