"""Monte Carlo ensembles over full eigenproblem solves.

Each trial draws a fresh potential (stream = ensemble seed xor trial index),
assembles the operator, solves for the lowest mode(s), and evaluates a
localization predicate.  Trials are independent and reproducible individually;
the reduction is by trial index, so worker-pool execution gives identical
results to a serial run.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, LocscapeError, ParameterError
from .landscape import landscape_from_operator, valley_partition
from .operator import BoundaryCondition, assemble
from .potential import DistributionSpec, GridSpec, sample_potential
from .regions import SubregionPartition
from .solver import ground_cluster, smallest_eigenpairs

THRESHOLD = 0.5   # localization detectors compare sup-normalized amplitudes to this
PREDICATES = ("boundary", "corner", "multimodal")
WILSON_Z = 1.959963984540054   # two-sided 95% normal quantile


@dataclass(frozen=True)
class ExperimentSpec:
    grid: GridSpec
    dist: DistributionSpec
    K: float
    bc: BoundaryCondition
    n_trials: int
    seed: int
    predicate: str

    def __post_init__(self):
        if self.n_trials < 1:
            raise ParameterError("n_trials must be >= 1")
        if self.predicate not in PREDICATES:
            raise ParameterError(f"predicate must be one of {PREDICATES}")
        if self.predicate == "corner" and self.grid.dim != 2:
            raise ParameterError(f"predicate 'corner' needs dim 2, got dim {self.grid.dim}")


@dataclass(frozen=True)
class ProbabilityEstimate:
    p_hat: float
    ci_low: float        # Wilson 95%
    ci_high: float
    n_trials: int
    n_hits: int
    n_failures: int = 0


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    eigenvalue: float
    hit: bool
    failed: bool


def wilson_interval(hits: int, n: int) -> tuple[float, float]:
    """Wilson 95% score interval (z = WILSON_Z); its ends are exactly 0 at hits = 0 and 1
    at hits = n, where round-off would otherwise leave p_hat outside it."""
    if n == 0:
        return (0.0, 1.0)
    z = WILSON_Z
    ph = hits / n
    denom = 1.0 + z * z / n
    center = (ph + z * z / (2 * n)) / denom
    half = z * np.sqrt(ph * (1 - ph) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return (lo, hi)


# --- predicates -----------------------------------------------------------------

def is_boundary_localized(mode_full: np.ndarray) -> bool:
    """Sup-normalized mode exceeds THRESHOLD somewhere on the domain boundary (strict)."""
    u = np.abs(np.asarray(mode_full))
    if u.ndim == 1:
        return bool(max(u[0], u[-1]) > THRESHOLD)
    if u.ndim != 2:
        raise ParameterError("boundary localization needs a 1D or 2D mode")
    edge = max(u[0, :].max(), u[-1, :].max(), u[:, 0].max(), u[:, -1].max())
    return bool(edge > THRESHOLD)


def is_corner_localized(mode_full: np.ndarray) -> bool:
    u = np.abs(np.asarray(mode_full))
    if u.ndim != 2:
        raise ParameterError("corner localization is a 2D notion")
    return bool(max(u[0, 0], u[0, -1], u[-1, 0], u[-1, -1]) > THRESHOLD)


def is_multimodal(envelope: np.ndarray, partition: SubregionPartition) -> bool:
    """At least two valley regions carry amplitude above THRESHOLD.

    ``envelope`` is |u| of the mode, or the pointwise max over a near-degenerate
    cluster (degenerate modes mix arbitrarily, the envelope does not).
    """
    if partition.n_regions == 0:
        raise ParameterError("empty partition")
    hot = partition.labels.ravel()[np.abs(np.asarray(envelope)).ravel() > THRESHOLD]
    hot = hot[hot >= 0]                     # -1 marks an unassigned node
    return hot.size > 0 and bool(hot.min() < hot.max())   # two labels or more


# --- the ensemble pipeline -------------------------------------------------------

def run_trial(spec: ExperimentSpec, trial: int) -> TrialRecord:
    trial_seed = spec.seed ^ trial
    fieldv = sample_potential(spec.grid, spec.dist, trial_seed)
    op = assemble(spec.grid, fieldv, spec.K, spec.bc)
    try:
        pairs = (ground_cluster(op) if spec.predicate == "multimodal"
                 else smallest_eigenpairs(op, k=1))
    except ConvergenceError:
        return TrialRecord(trial, trial_seed, float("nan"), False, True)
    pair = pairs[0]
    if spec.predicate == "boundary":
        hit = is_boundary_localized(op.embed(pair.mode))
    elif spec.predicate == "corner":
        hit = is_corner_localized(op.embed(pair.mode))
    else:
        envelope = (np.abs(pair.mode) if len(pairs) == 1
                    else np.max(np.abs([p.mode for p in pairs]), axis=0))
        partition = valley_partition(landscape_from_operator(op))
        hit = is_multimodal(envelope, partition)
    return TrialRecord(trial, trial_seed, pair.eigenvalue, hit, False)


def run_ensemble(spec: ExperimentSpec, workers: int = 1) -> tuple[ProbabilityEstimate, list[TrialRecord]]:
    """All trials of the experiment; aborts if more than 1% of solves fail."""
    trials = range(spec.n_trials)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_trial, [spec] * spec.n_trials, trials,
                                    chunksize=max(1, spec.n_trials // (8 * workers))))
    else:
        records = [run_trial(spec, t) for t in trials]
    n_failed = sum(r.failed for r in records)
    if n_failed > 0.01 * spec.n_trials:
        raise LocscapeError(
            f"{n_failed}/{spec.n_trials} trials failed to converge; "
            f"first failures: {[r.trial for r in records if r.failed][:5]}")
    ok = [r for r in records if not r.failed]
    hits = sum(r.hit for r in ok)
    lo, hi = wilson_interval(hits, len(ok))
    est = ProbabilityEstimate(hits / len(ok), lo, hi, len(ok), hits, n_failed)
    return est, records


# --- distribution study -----------------------------------------------------------

STUDY_KINDS = ("bernoulli", "normal", "gamma", "uniform")
STUDY_SIGMAS = (0.5, 0.5 / np.sqrt(3.0), 0.5 / 3.0)   # mean is fixed at 1/2


@dataclass(frozen=True)
class StudyRow:
    dim: int
    kind: str
    sigma: float
    h: float
    boundary: ProbabilityEstimate
    corner: ProbabilityEstimate | None


def feasible_distribution(kind: str, sigma: float) -> DistributionSpec | None:
    """Mean-1/2 distribution of the given family and (pre-clamp) std, or None.

    A {0,1} Bernoulli with mean 1/2 has std exactly 1/2, and a nonnegative
    uniform with mean 1/2 has std at most 1/(2 sqrt 3); other combinations do
    not exist in these families and are skipped.
    """
    mu = 0.5
    if kind == "bernoulli":
        return DistributionSpec.bernoulli(mu) if abs(sigma - mu) < 1e-12 else None
    if kind == "uniform":
        a = mu - sigma * np.sqrt(3.0)
        if a < -1e-12:
            return None
        return DistributionSpec.uniform(max(a, 0.0), mu + sigma * np.sqrt(3.0))
    return DistributionSpec(kind, (mu, sigma))      # normal and gamma


def distribution_study(h_list, dims=(1, 2), K: float = 1e4, n_trials: int = 200, seed: int = 0,
                       workers: int = 1) -> list[StudyRow]:
    """Boundary (and 2D corner) probabilities across potential families.

    Grids follow the desk-scale defaults: N=50 in 1D, N=15 in 2D.  Each h gives
    Robin walls, h = 0 Neumann; a negative h or a dimension other than 1 and 2 is
    rejected before any trial runs.
    """
    bcs = [BoundaryCondition.robin(h) if h != 0 else BoundaryCondition.neumann() for h in h_list]
    grids = [GridSpec(dim, 50 if dim == 1 else 15, 8 if dim == 1 else 4) for dim in dims]
    rows = []
    for grid in grids:
        for kind in STUDY_KINDS:
            for sigma in STUDY_SIGMAS:
                dist = feasible_distribution(kind, sigma)
                if dist is None:
                    continue
                for h, bc in zip(h_list, bcs):
                    spec = ExperimentSpec(grid, dist, K, bc, n_trials, seed, "boundary")
                    boundary = run_ensemble(spec, workers)[0]
                    corner = None
                    if grid.dim == 2:
                        cspec = ExperimentSpec(grid, dist, K, bc, n_trials, seed, "corner")
                        corner = run_ensemble(cspec, workers)[0]
                    rows.append(StudyRow(grid.dim, kind, float(sigma), float(h), boundary, corner))
    return rows
