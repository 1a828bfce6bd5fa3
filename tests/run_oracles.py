"""Per-draw run statistics: the references for the batched oracle in `locscape.runstats`,
and the run decomposition of a binary field."""

from dataclasses import dataclass

import numpy as np

from locscape import BoundaryCondition, PotentialField, ParameterError, RunModel
from locscape.potential import _runs, runs_of_zeros
from locscape.rng import stream
from locscape.runstats import _batch_flags


@dataclass(frozen=True)
class RunConfig:
    """One draw of the idealized model: wall cell values and zero-run lengths."""

    left_value: int
    right_value: int
    zero_runs: tuple


@dataclass(frozen=True)
class RunFlags:
    longest_extended_on_boundary: bool
    unique_longest_plain: bool
    unique_longest_extended: bool


def config_flags(config: RunConfig) -> RunFlags:
    X = np.array([config.zero_runs])
    b, up, ue = _batch_flags(X, np.array([config.left_value == 0]),
                             np.array([config.right_value == 0]))
    return RunFlags(bool(b[0]), bool(up[0]), bool(ue[0]))


def sample_run_config(model: RunModel, seed: int) -> tuple[RunConfig, RunFlags]:
    """Draw wall values (P(wall cell = 0) = q each) and M geometric run lengths."""
    rng = stream(seed)
    X = rng.geometric(model.p, size=model.M)
    left = 0 if rng.random() < model.q else 1
    right = 0 if rng.random() < model.q else 1
    config = RunConfig(left, right, tuple(int(v) for v in X))
    return config, config_flags(config)


def longest_extended_run_on_boundary(fieldv: PotentialField, bc: BoundaryCondition) -> bool:
    """Pure lattice statistic mirroring the boundary predicate: the longest
    (wall-doubled under reflective bc) zero run sits strictly at a wall."""
    if fieldv.grid.dim != 1:
        raise ParameterError("run statistic is 1D")
    N = fieldv.grid.cells_per_side
    starts, lengths = runs_of_zeros(fieldv.cell_values)
    if len(lengths) == 0:
        return False
    # a wall counts as a zero cell (its run doubles) only under reflective walls
    reflective = bc.kind != "dirichlet"
    left = 0 if reflective and starts[0] == 0 else 1
    right = 0 if reflective and starts[-1] + lengths[-1] == N else 1
    return config_flags(RunConfig(left, right, tuple(lengths))).longest_extended_on_boundary


def run_decomposition(fieldv: PotentialField) -> list[tuple[int, int]]:
    """Maximal runs of a 1D binary field as (value, length) pairs, left to right.

    Runs alternate in value and their lengths sum to N.
    """
    if fieldv.grid.dim != 1:
        raise ParameterError("run decomposition is defined for 1D fields")
    if not fieldv.is_binary:
        raise ParameterError("run decomposition needs a {0,1}-valued field")
    cells = fieldv.cell_values.astype(int)
    first, last = _runs(cells)
    return [(int(cells[a]), int(b - a + 1)) for a, b in zip(first, last)]
