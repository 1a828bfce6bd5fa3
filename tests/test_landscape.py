import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locscape import (BoundaryCondition, DistributionSpec, GridSpec, Landscape, ParameterError,
                      assemble, assemble_line, disorder_sweep, landscape_bound_violation,
                      grid_1d, grid_2d, landscape_from_operator, local_maxima_1d,
                      sample_potential, save_grid, smallest_eigenpairs, valley_partition,
                      zero_components)
from locscape.potential import runs_of_zeros
from conftest import FIELD_DISTS


def test_constant_potential_landscape_exact():
    grid = grid_1d(20)
    ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    ls = landscape_from_operator(assemble(grid, ones, 55.0, BoundaryCondition.neumann()))
    assert np.max(np.abs(ls.w - 1 / 55.0)) < 1e-10


def test_empty_potential_landscape_is_parabola():
    grid = grid_1d(30)
    zeros = sample_potential(grid, DistributionSpec.bernoulli(0.0), 0)
    ls = landscape_from_operator(assemble(grid, zeros, 0.0, BoundaryCondition.dirichlet()))
    x = ls.op.axes[0]
    assert np.max(np.abs(ls.w - x * (1 - x) / 2)) < 1e-4


def test_landscape_peaks_predict_mode_locations():
    # 1D, strong uniform disorder, reflective walls: the cells holding the
    # landscape's local maxima contain the peaks of the first four modes.
    grid = grid_1d(30)
    fieldv = sample_potential(grid, DistributionSpec.uniform(0.0, 1.0), 1)
    op = assemble(grid, fieldv, 8000.0, BoundaryCondition.neumann())
    ls = landscape_from_operator(op)
    pairs = smallest_eigenpairs(op, 4)
    r = grid.nodes_per_cell
    peak_cells = {min(i // r, grid.cells_per_side - 1) for i in local_maxima_1d(ls.w)}
    for pair in pairs:
        mode_cell = min(int(np.argmax(np.abs(pair.mode))) // r, grid.cells_per_side - 1)
        assert mode_cell in peak_cells


def test_fm_bound_equality_for_constant_case():
    grid = grid_1d(15)
    ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    op = assemble(grid, ones, 120.0, BoundaryCondition.neumann())
    ls = landscape_from_operator(op)
    pair = smallest_eigenpairs(op, 1)[0]
    v = landscape_bound_violation(pair, ls)
    assert abs(v) < 1e-10     # u = 1, lambda = K, w = 1/K: the bound is tight


def test_fm_bound_on_strong_disorder_instance(strong_disorder_1d):
    grid, fieldv, K, bc = strong_disorder_1d
    op = assemble(grid, fieldv, K, bc)
    ls = landscape_from_operator(op)
    for pair in smallest_eigenpairs(op, 4):
        assert landscape_bound_violation(pair, ls) <= 1e-6


def test_fm_bound_random_sweep():
    for seed in range(10):
        grid = grid_1d(30)
        fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 5000 + seed)
        op = assemble(grid, fieldv, 8000.0, BoundaryCondition.neumann())
        ls = landscape_from_operator(op)
        pair = smallest_eigenpairs(op, 1)[0]
        assert landscape_bound_violation(pair, ls) <= 1e-6


@st.composite
def _bound_cases(draw):
    """A random field in 1D or 2D, K in [1, 1e5], and any wall kind the dimension takes.

    The singular case, reflecting walls with K V = 0, is not drawn.
    """
    dim = draw(st.sampled_from([1, 2]))
    if dim == 1:
        grid = GridSpec(1, draw(st.integers(2, 20)), draw(st.integers(3, 6)))
    else:
        grid = GridSpec(2, draw(st.integers(3, 6)), draw(st.integers(2, 4)))
    fieldv = sample_potential(grid, draw(FIELD_DISTS), draw(st.integers(0, 2**32)))
    K = draw(st.floats(1.0, 1e5))
    kinds = ["dirichlet", "neumann", "robin"] + (["periodic"] if dim == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("neumann", "periodic"):
        assume(fieldv.cell_values.max() > 0.0)
    h = draw(st.floats(1e-3, 100.0)) if kind == "robin" else 0.0
    return fieldv, K, BoundaryCondition(kind, h)


@settings(max_examples=100, deadline=None)
@given(_bound_cases())
def test_fm_bound_property(case):
    # |u| <= lambda w holds exactly for the M-matrix pencil; 1e-6 leaves room for solver tolerance
    fieldv, K, bc = case
    op = assemble(fieldv.grid, fieldv, K, bc)
    ls = landscape_from_operator(op)
    for pair in smallest_eigenpairs(op, 3):
        assert landscape_bound_violation(pair, ls) <= 1e-6


def test_fm_checks_shapes():
    grid = grid_1d(10)
    ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    op = assemble(grid, ones, 10.0, BoundaryCondition.neumann())
    ls = landscape_from_operator(op)
    other = assemble(grid_1d(12), sample_potential(grid_1d(12), DistributionSpec.bernoulli(1.0), 0),
                     10.0, BoundaryCondition.neumann())
    pair = smallest_eigenpairs(other, 1)[0]
    with pytest.raises(ParameterError, match="eigenpair and landscape live on different node sets"):
        landscape_bound_violation(pair, ls)


def _landscape_with_values(w):
    grid = grid_1d(max(2, (len(w) - 1) // 8), 8) if (len(w) - 1) % 8 == 0 else None
    assert grid is not None and grid.nodes_per_axis == len(w)
    ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    op = assemble(grid, ones, 1.0, BoundaryCondition.neumann())
    return Landscape(np.asarray(w, float), op)


def test_valley_1d_single_bump_one_region():
    x = np.linspace(0, 1, 17)
    ls = _landscape_with_values(np.sin(np.pi * x) + 0.1)
    part = valley_partition(ls)
    assert part.n_regions == 1
    assert np.all(part.labels == 0)


def test_valley_1d_two_bumps_split_at_minimum():
    x = np.linspace(0, 1, 17)
    w = np.abs(np.sin(2 * np.pi * x)) + 0.1
    ls = _landscape_with_values(w)
    part = valley_partition(ls)
    assert part.n_regions == 2
    m = int(np.argmin(w[1:-1])) + 1
    assert part.labels[m - 1] != part.labels[m + 1]


def test_valley_1d_plateau_splits_at_midpoint():
    w = np.array([3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 3.0, 4.0, 3.0] + [2.0] * 8)
    ls = _landscape_with_values(w)
    part = valley_partition(ls)
    assert part.n_regions == 2
    # plateau [2,4] -> ridge at node 3; joins the higher-value (left) side on ties
    assert part.labels[3] == part.labels[2]
    assert part.labels[4] == part.labels[5]


def test_watershed_separates_zero_components_at_large_K():
    grid = grid_2d(20)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.8), 3)
    op = assemble(grid, fieldv, 1e6, BoundaryCondition.neumann())
    ls = landscape_from_operator(op)
    part = valley_partition(ls)
    comps = zero_components(fieldv)
    r = grid.nodes_per_cell
    centers = (np.arange(grid.cells_per_side) * r + r // 2)
    label_grid = part.labels
    region_to_comp = {}
    covered = set()
    for c0 in range(grid.cells_per_side):
        for c1 in range(grid.cells_per_side):
            comp = comps.labels[c0, c1]
            if comp < 0:
                continue
            reg = label_grid[centers[c0], centers[c1]]
            # no valley region may straddle two zero components
            assert region_to_comp.setdefault(reg, comp) == comp
            covered.add(comp)
    assert covered == set(range(comps.n_regions))


def test_watershed_deterministic():
    grid = grid_2d(12)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.7), 9)
    ls = landscape_from_operator(assemble(grid, fieldv, 1e5, BoundaryCondition.neumann()))
    a = valley_partition(ls).labels
    b = valley_partition(ls).labels
    assert np.array_equal(a, b)


def test_ground_mode_sits_in_longest_extended_component():
    # strong disorder: the mode localizes where the extended zero run is longest
    grid = grid_1d(50)
    for seed in (101, 202, 303):
        fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), seed)
        starts, lengths = runs_of_zeros(fieldv.cell_values)
        ext = lengths.astype(float).copy()
        if starts[0] == 0:
            ext[0] *= 2
        if starts[-1] + lengths[-1] == 50:
            ext[-1] *= 2
        order = np.argsort(-ext)
        if len(ext) > 1 and ext[order[0]] == ext[order[1]]:
            continue   # tied instance: the mode may split, ordering claim is void
        best = order[0]
        op = assemble(grid, fieldv, 1e6, BoundaryCondition.neumann())
        pair = smallest_eigenpairs(op, 1)[0]
        peak_cell = min(int(np.argmax(np.abs(pair.mode))) // grid.nodes_per_cell, 49)
        assert starts[best] <= peak_cell < starts[best] + lengths[best]


def test_mirror_equivalence_of_boundary_runs():
    # a zero run of length L touching a reflective wall has the same ground
    # energy as the absorbing problem on the doubled interval
    L = 0.15
    widths = np.full(60, L / 60)
    values = np.zeros(60)
    mixed = BoundaryCondition.mixed("neumann", "dirichlet")
    lam_mixed = smallest_eigenpairs(assemble_line(widths, values, 0.0, mixed), 1)[0].eigenvalue
    widths2 = np.full(120, 2 * L / 120)
    lam_doubled = smallest_eigenpairs(
        assemble_line(widths2, np.zeros(120), 0.0, BoundaryCondition.dirichlet()), 1)[0].eigenvalue
    exact = (np.pi / (2 * L)) ** 2
    assert abs(lam_mixed - exact) / exact < 0.01
    assert abs(lam_doubled - exact) / exact < 0.01


def test_disorder_sweep_constant_case():
    grid = grid_1d(10)
    ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    Ks = [10.0, 100.0, 1000.0]
    vals = disorder_sweep(ones, BoundaryCondition.neumann(), Ks, [0.5])
    assert vals[:, 0] == pytest.approx([1 / K for K in Ks], rel=1e-9)
    assert np.all(np.diff(vals[:, 0]) < 0)


def test_disorder_sweep_reads_a_dirichlet_wall_probe_at_the_wall_node():
    # the spacing is 1/80: a probe within half of it of a wall reads the eliminated wall
    # node, where w = 0, and a probe just beyond reads the first interior node
    grid = grid_1d(10)
    ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    bc = BoundaryCondition.dirichlet()
    vals = disorder_sweep(ones, bc, [100.0], [0.0, 0.006, 0.007, 0.5, 1.0])[0]
    w = landscape_from_operator(assemble(grid, ones, 100.0, bc)).w
    assert list(vals) == [0.0, 0.0, w[0], w[39], 0.0]     # active node 39 sits at 0.5


def test_disorder_sweep_suppresses_barrier_landscape_and_modes():
    grid = grid_1d(100)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 42)
    ones_cells = np.flatnonzero(fieldv.cell_values == 1.0)
    probes = (ones_cells[:8] + 0.5) / 100.0
    vals = disorder_sweep(fieldv, BoundaryCondition.neumann(), [1e3, 1e6], probes)
    assert np.all(vals[1] < vals[0])
    op = assemble(grid, fieldv, 1e6, BoundaryCondition.neumann())
    pair = smallest_eigenpairs(op, 1)[0]
    idx = np.argmin(np.abs(op.axes[0][None, :] - probes[:, None]), axis=1)
    assert np.max(np.abs(pair.mode[idx])) < 0.05


def test_save_grid_roundtrip(tmp_path):
    grid = grid_1d(5, 2)
    ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    ls = landscape_from_operator(assemble(grid, ones, 3.0, BoundaryCondition.neumann()))
    path = tmp_path / "w.txt"
    save_grid(ls.w, path)
    back = np.array([float(v) for v in path.read_text().split()])
    assert np.array_equal(back, ls.w)
