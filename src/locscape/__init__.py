"""locscape: localization-landscape toolkit for random lattice potentials."""

from .bifurcation import (BASE_RATIOS, REFERENCE_PARAMS, CriticalPoint, ScalingFit, ShapeRatios,
                          SweepResult, TwoWellParams, characteristic_left, characteristic_right,
                          critical_coupling_sweep, critical_point, peak_height_ratio,
                          piecewise_potential, ratios_to_lengths, scaling_study,
                          subsystem_ground_energy, toy_operator)
from .errors import (ConstraintError, ConvergenceError, LocscapeError, NoBifurcationError,
                     NoRootError, ParameterError, SingularOperatorError)
from .experiments import (ExperimentSpec, ProbabilityEstimate, StudyRow, TrialRecord,
                          distribution_study, is_boundary_localized, is_corner_localized,
                          is_multimodal, run_ensemble, wilson_interval)
from .landscape import (Landscape, disorder_sweep, landscape_bound_violation,
                        landscape_from_operator, local_maxima_1d, save_grid, valley_partition)
from .operator import BoundaryCondition, DiscreteOperator, assemble, assemble_line, assemble_ring
from .potential import (DistributionSpec, GridSpec, PotentialField, grid_1d, grid_2d,
                        load_potential, sample_potential, save_potential)
from .regions import Region, SubregionPartition, zero_components
from .runstats import (OracleEstimate, RunModel, boundary_localization_prob,
                       multimodal_prob_dirichlet, multimodal_prob_neumann, oracle_probabilities)
from .solver import EigenPair, smallest_eigenpairs, solve_linear
from .stochastic import FeynmanKacEstimate, PathConfig, estimate_landscape_mc, probe_points_for

__version__ = "0.1.0"
