from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator

from locscape import (REFERENCE_PARAMS, BoundaryCondition, ConvergenceError, DiscreteOperator,
                      DistributionSpec, ExperimentSpec, GridSpec, ParameterError, PotentialField,
                      SingularOperatorError, TwoWellParams, assemble, assemble_line, assemble_ring,
                      critical_coupling_sweep, experiments, grid_1d, grid_2d, peak_height_ratio,
                      sample_potential, smallest_eigenpairs, solve_linear, solver, toy_operator)
from conftest import CELLS, FIELD_DISTS, cells, dense_eigenpairs, rayleigh_quotient


def test_constant_potential_ground_state_is_constant():
    grid = grid_1d(20)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    op = assemble(grid, fieldv, 75.0, BoundaryCondition.neumann())
    pair = smallest_eigenpairs(op, 1)[0]
    assert pair.eigenvalue == pytest.approx(75.0, rel=1e-9)
    assert np.max(np.abs(pair.mode - 1.0)) < 1e-8


def test_iterative_matches_dense_oracle(strong_disorder_1d):
    grid, fieldv, K, bc = strong_disorder_1d
    op = assemble(grid, fieldv, K, bc)
    pairs = smallest_eigenpairs(op, 4)
    oracle = dense_eigenpairs(op, 4)
    for pair, (lam_d, u_d) in zip(pairs, oracle):
        assert abs(pair.eigenvalue - lam_d) <= 10 * 1e-8 * max(1.0, abs(lam_d))
        assert np.max(np.abs(np.abs(pair.mode) - np.abs(u_d))) < 1e-6
        assert pair.residual <= 1e-8 * max(1.0, pair.eigenvalue)


def test_modes_are_sup_normalized_with_positive_peak(strong_disorder_1d):
    grid, fieldv, K, bc = strong_disorder_1d
    op = assemble(grid, fieldv, K, bc)
    for pair in smallest_eigenpairs(op, 3):
        assert np.max(np.abs(pair.mode)) == 1.0
        assert pair.mode[np.argmax(np.abs(pair.mode))] == 1.0


def test_ground_mode_of_connected_problem_has_one_sign():
    grid = grid_1d(25)
    fieldv = sample_potential(grid, DistributionSpec.uniform(0.0, 1.0), 77)
    op = assemble(grid, fieldv, 200.0, BoundaryCondition.dirichlet())
    u = smallest_eigenpairs(op, 1)[0].mode
    assert u.min() * u.max() >= -1e-8


def test_degenerate_pair_is_flagged():
    # the empty 2D box has an exactly repeated second eigenvalue (mode indices 1,2 swap)
    grid = grid_2d(8)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.0), 0)
    op = assemble(grid, fieldv, 0.0, BoundaryCondition.dirichlet())
    pairs = smallest_eigenpairs(op, 3)
    assert pairs[1].cluster == pairs[2].cluster
    assert pairs[0].cluster != pairs[1].cluster
    groups = Counter(p.cluster for p in pairs)
    assert sorted(groups.values()) == [1, 2]


def test_clusters_are_anchored_at_their_lowest_value():
    # 1 + 1.2e-6 lies within the tolerance of its neighbour 1 + 6e-7 but not of 1, the
    # cluster's lowest value, so it starts a cluster of its own instead of chaining on
    assert list(solver._assign_clusters(np.array([1.0, 1.0 + 6e-7, 1.0 + 1.2e-6]))) == [0, 0, 2]


def test_k_out_of_range_rejected(strong_disorder_1d):
    grid, fieldv, K, bc = strong_disorder_1d
    op = assemble(grid, fieldv, K, bc)
    with pytest.raises(ParameterError):
        smallest_eigenpairs(op, 0)
    with pytest.raises(ParameterError):
        smallest_eigenpairs(op, op.size)


def test_solve_linear_constant_and_quadratic():
    grid = grid_1d(16)
    ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    op = assemble(grid, ones, 40.0, BoundaryCondition.neumann())
    w = solve_linear(op, 1.0)
    assert np.max(np.abs(w - 1.0 / 40.0)) < 1e-12
    zeros = sample_potential(grid, DistributionSpec.bernoulli(0.0), 0)
    opd = assemble(grid, zeros, 0.0, BoundaryCondition.dirichlet())
    w = solve_linear(opd, 1.0)
    x = opd.axes[0]
    assert np.max(np.abs(w - x * (1 - x) / 2)) < 1e-4


def test_solve_linear_residual_postcondition(strong_disorder_1d):
    grid, fieldv, K, bc = strong_disorder_1d
    op = assemble(grid, fieldv, K, bc)
    rhs = np.sin(3 * op.axes[0])
    w = solve_linear(op, rhs)
    res = np.max(np.abs(op.matrix @ w - op.mass * rhs))
    assert res <= 1e-10 * np.max(np.abs(op.mass * rhs))


@pytest.mark.parametrize("make", [
    lambda: assemble(grid_1d(20), sample_potential(grid_1d(20), DistributionSpec.uniform(0.0, 1.0),
                                                   5), 300.0, BoundaryCondition.robin(2.0)),
    lambda: assemble_ring(np.full(40, 0.025), np.random.default_rng(6).uniform(0.0, 1.0, 40), 300.0),
    lambda: assemble(grid_2d(5), sample_potential(grid_2d(5), DistributionSpec.uniform(0.0, 1.0), 5),
                     300.0, BoundaryCondition.neumann()),
], ids=["line", "ring", "2d"])
def test_solve_linear_refines_a_perturbed_first_solve(make, monkeypatch):
    # the first solve misses the residual bound by far, so only the refinement step
    # w = w + solve(r) can bring w back to the dense solution
    real, solves = solver._factor, []

    def perturbed_factor(op, shift=0.0):
        solve = real(op, shift)

        def first_solve_off(b):
            solves.append(b)
            return solve(b) * (1.0 + 1e-3 * (len(solves) == 1))

        return first_solve_off

    monkeypatch.setattr(solver, "_factor", perturbed_factor)
    op = make()
    rhs = np.random.default_rng(7).uniform(-1.0, 1.0, op.size)
    w = solve_linear(op, rhs)
    assert len(solves) == 3                 # the perturbed first solve, one refinement and
                                            # the certificate's solve of A^{-1} 1
    w_dense = np.linalg.solve(op.matrix.toarray(), op.mass * rhs)
    assert np.max(np.abs(w - w_dense)) <= 1e-12 * np.max(np.abs(w_dense))


def test_singular_pure_neumann_rejected():
    grid = grid_1d(10)
    zeros = sample_potential(grid, DistributionSpec.bernoulli(0.0), 0)
    op = assemble(grid, zeros, 0.0, BoundaryCondition.neumann())
    with pytest.raises(SingularOperatorError):
        solve_linear(op, 1.0)


# exponent of the scale on drawn cell values: 1, or 10**-200 up to 10, where K V m can fall
# below the round-off of A's diagonal
_LOG_SCALE = st.one_of(st.just(0.0), st.floats(-200.0, 1.0))

_WALL = st.one_of(st.just(("dirichlet", 0.0)), st.just(("neumann", 0.0)),
                  st.tuples(st.just("robin"), st.floats(1e-3, 100.0)))
# every non-periodic kind, and mixed ends of any two kinds
_LINE_BC = st.one_of(
    st.sampled_from([BoundaryCondition.dirichlet(), BoundaryCondition.neumann()]),
    st.floats(1e-3, 100.0).map(BoundaryCondition.robin),
    st.tuples(_WALL, _WALL).map(lambda ends: BoundaryCondition.mixed(
        ends[0][0], ends[1][0], ends[0][1], ends[1][1])))


@st.composite
def _tridiagonal_solve_cases(draw):
    """A random 1D field, its values scaled by 10**uniform(-200, 1) in about half the draws,
    K in [1, 1e5], any non-periodic walls and a source.

    The singular case, reflecting walls at both ends with K V = 0, is not drawn.  Operators
    singular to working precision, reflecting walls with K V m below the round-off of A's
    diagonal, are.
    """
    grid = GridSpec(1, draw(st.integers(2, 20)), draw(st.integers(2, 8)))
    fieldv = sample_potential(grid, draw(FIELD_DISTS), draw(st.integers(0, 2**32)))
    fieldv = replace(fieldv, cell_values=fieldv.cell_values * 10.0 ** draw(_LOG_SCALE))
    K = draw(st.floats(1.0, 1e5))
    bc = draw(_LINE_BC)
    if all(end == "neumann" for end, _ in bc.end_specs()):
        assume(fieldv.cell_values.max() > 0.0)
    rhs = draw(st.one_of(st.just(1.0), st.integers(0, 2**32).map(
        lambda seed: np.random.default_rng(seed).uniform(-1.0, 1.0, grid.nodes_per_axis))))
    return fieldv, K, bc, rhs


def _solve_unless_singular_to_working_precision(op, A, rhs):
    """solve_linear(op, rhs) where the dense eps cond_inf(A) is below 0.5; where it is 2 or
    more, check that the solve raises SingularOperatorError and return None.

    Draws in between are skipped: there the solver's own estimate of cond_inf(A), from a
    solve with A's factor, may fall on either side of 1/eps.
    """
    eps_cond = np.finfo(float).eps * np.linalg.cond(A, np.inf)
    assume(not 0.5 <= eps_cond < 2.0)
    if eps_cond < 0.5:
        return solve_linear(op, rhs)
    with pytest.raises(SingularOperatorError):
        solve_linear(op, rhs)
    return None


@settings(max_examples=200, deadline=None)
@given(_tridiagonal_solve_cases())
# K V m far below the round-off of A's diagonal: factored, but singular to working precision
@example((sample_potential(GridSpec(1, 4, 2), DistributionSpec.uniform(1e-14, 2e-14), 0), 1.0,
          BoundaryCondition.neumann(), 1.0))
# K V m = 7.1e-15 rounds up to one ulp of the diagonal 64: the residual is exactly 0, yet w is
# half of 1 / (K V), and the dense eps cond_inf(A) is 2.06
@example((PotentialField(GridSpec(1, 16, 2), np.full(16, 1e-16), 0), 2274.0,
          BoundaryCondition.neumann(), 1.0))
def test_tridiagonal_solve_matches_dense_solve(case):
    fieldv, K, bc, rhs = case
    op = assemble(fieldv.grid, fieldv, K, bc)
    rhs = rhs if np.isscalar(rhs) else rhs[:op.size]
    A = op.matrix.toarray()
    w = _solve_unless_singular_to_working_precision(op, A, rhs)
    if w is None:
        return
    w_dense = np.linalg.solve(A, op.mass * np.broadcast_to(rhs, (op.size,)))
    # two backward-stable solves differ by up to a few eps times the condition number:
    # reflecting walls with K V small near the walls reach cond ~ 1e6, where no route,
    # the dense one included, is within 1e-12 of the exact solution
    tol = max(1e-12, 4 * np.finfo(float).eps * np.linalg.cond(A, np.inf))
    assert np.max(np.abs(w - w_dense)) <= tol * np.max(np.abs(w_dense))


@pytest.mark.parametrize("grid, bc", [
    (grid_1d(50), BoundaryCondition.robin(0.0)),
    (grid_1d(5), BoundaryCondition.mixed("neumann", "neumann")),
], ids=["robin-h0", "mixed-neumann-neumann"])
def test_singular_pencil_past_the_neumann_check_rejected(grid, bc):
    # the kind is neither neumann nor periodic, so the singular operator reaches the
    # factorization, which must report it
    zeros = sample_potential(grid, DistributionSpec.bernoulli(0.0), 0)
    op = assemble(grid, zeros, 5.0, bc)
    with pytest.raises(SingularOperatorError):
        solve_linear(op, 1.0)


def _floor(op):
    """The round-off floor of `_ground_pair`: 8 eps max_i(sum_j |A_ij| / m_i)."""
    return 8 * np.finfo(float).eps * np.max(op._abs_row_sums() / op.mass)


@pytest.mark.parametrize("op", [
    assemble_line(np.array([1.0]), np.array([0.5]), 10.0,
                  BoundaryCondition.mixed("dirichlet", "neumann")),
    assemble_line(np.array([1.0, 1.0]), np.array([0.0, 0.0]), 0.0, BoundaryCondition.dirichlet()),
    assemble_ring(np.array([1.0]), np.array([0.5]), 10.0),
], ids=["one-cell-line", "two-cell-dirichlet-line", "one-cell-ring"])
def test_a_one_node_pencil_is_factored(op):
    # scipy's dpttrf wrapper refuses the empty off-diagonal of a one-node pencil
    assert op.size == 1
    assert solve_linear(op, 1.0) == pytest.approx(op.mass / op.A[0], rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(CELLS, st.sampled_from(["ring", "neumann"]), st.booleans(),
       st.floats(-6.0, 5.0), st.floats(0.0, 20.0))
@example(([0.3, 0.7, 0.2], [0.0, 0.0, 0.0]), "ring", True, 0.0, 0.0)
def test_shifted_factor_of_a_singular_operator_raises_without_the_pre_check(
        cell_data, walls, zero_values, log_K, log_shift):
    # K V = 0 under periodic or reflecting walls: A is singular, so A - shift M has the
    # eigenvalue -shift, and once the shift clears the round-off floor of the ring iteration
    # a pivot or the Sherman-Morrison denominator is not positive
    widths, values = (np.array(c) for c in cell_data)
    values, K = (0.0 * values, 10.0 ** log_K) if zero_values else (values, 0.0)
    op = (assemble_ring(widths, values, K) if walls == "ring" else
          assemble_line(widths, values, K, BoundaryCondition.neumann()))
    with pytest.raises(SingularOperatorError, match="K\\*V = 0"):
        solver._factor(op)
    with pytest.raises(SingularOperatorError, match="pivot|Sherman-Morrison denominator"):
        solver._factor(op, _floor(op) * 10.0 ** log_shift)


@settings(max_examples=300, deadline=None)
@given(cells(2), st.one_of(st.none(), st.tuples(_WALL, _WALL)), _LOG_SCALE,
       st.one_of(st.just(0.0), st.floats(-6.0, 5.0).map(lambda t: 10.0 ** t)),
       st.floats(0.0, 17.0))
@example(([0.3, 0.7, 0.2], [0.5, 2.0, 1.0]), None, 0.0, 0.0, 0.0)   # K V = 0 at the floor
@example(([1.0, 1.0], [0.0, 0.0]), (("dirichlet", 0.0), ("dirichlet", 0.0)), 0.0, 0.0, 0.0)
def test_a_factor_at_or_above_the_floor_proves_lambda_1_above_its_shift(
        cell_data, ends, log_scale, K, log_shift):
    # the shift is drawn from the floor up, without regard to lambda_1: a factor that returns
    # proves lambda_1 > shift to within the floor, which also covers the dense eigensolve's
    # own round-off
    widths, values = (np.array(c) for c in cell_data)
    values = values * 10.0 ** log_scale
    if ends is None:
        op = assemble_ring(widths, values, K)
    else:
        (left, h_left), (right, h_right) = ends
        op = assemble_line(widths, values, K,
                           BoundaryCondition.mixed(left, right, h_left, h_right))
    floor = _floor(op)
    shift = floor * 10.0 ** log_shift
    try:
        solver._factor(op, shift)
    except SingularOperatorError:
        return
    lam1 = scipy.linalg.eigh(op.matrix.toarray(), np.diag(op.mass), eigvals_only=True)[0]
    assert lam1 > shift - floor


def test_rayleigh_quotient_properties(strong_disorder_1d):
    grid, fieldv, K, bc = strong_disorder_1d
    op = assemble(grid, fieldv, K, bc)
    pairs = smallest_eigenpairs(op, 2)
    pair = pairs[0]
    assert rayleigh_quotient(pair.mode, op) == pytest.approx(
        pair.eigenvalue, abs=10 * max(pair.residual, 1e-14))
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.standard_normal(op.size)
        assert rayleigh_quotient(u, op) >= pair.eigenvalue - 1e-8
    with pytest.raises(ParameterError, match="Rayleigh quotient of the zero vector"):
        rayleigh_quotient(np.zeros(op.size), op)


def test_rayleigh_quotient_of_constant_is_zero():
    grid = grid_1d(12)
    zeros = sample_potential(grid, DistributionSpec.bernoulli(0.0), 0)
    op = assemble(grid, zeros, 0.0, BoundaryCondition.neumann())
    assert abs(rayleigh_quotient(np.ones(op.size), op)) < 1e-14


def _assert_matches_oracle(op, pairs, modes=True):
    for pair, (lam_d, u_d) in zip(pairs, dense_eigenpairs(op, len(pairs))):
        assert abs(pair.eigenvalue - lam_d) <= 10 * 1e-8 * max(1.0, abs(lam_d))
        if modes:
            assert np.max(np.abs(np.abs(pair.mode) - np.abs(u_d))) < 1e-6
        assert pair.residual <= 1e-8 * max(1.0, pair.eigenvalue)


def _no_arpack(*args, **kwargs):
    raise AssertionError("non-periodic 1D pencils must not reach ARPACK")


def _no_superlu(*args, **kwargs):
    raise AssertionError("1D pencils must not reach SuperLU")


class _NoSparse:
    """Stands in for scipy.sparse in `locscape.operator`: any use of it fails."""

    def __getattr__(self, name):
        raise AssertionError(f"a 1D path reached scipy.sparse.{name}")


def test_no_1d_path_builds_csr_or_calls_superlu(monkeypatch):
    monkeypatch.setattr("locscape.operator.sp", _NoSparse())
    monkeypatch.setattr(solver.spla, "splu", _no_superlu)
    for predicate, bc in (("boundary", BoundaryCondition.robin(0.01)),
                          ("multimodal", BoundaryCondition.dirichlet())):
        spec = ExperimentSpec(grid_1d(20), DistributionSpec.bernoulli(0.5), 5e4, bc, 1, 7,
                              predicate)
        assert not experiments.run_trial(spec, 0).failed
    rng = np.random.default_rng(4)
    solve_linear(assemble_ring(rng.uniform(0.1, 2.0, 30), rng.uniform(0.0, 1.0, 30), 50.0), 1.0)
    smallest_eigenpairs(toy_operator(REFERENCE_PARAMS, 700.0, nodes_per_unit=200), 1)


@pytest.mark.parametrize("bc", [
    BoundaryCondition.dirichlet(),
    BoundaryCondition.neumann(),
    BoundaryCondition.robin(3.0),
    BoundaryCondition.mixed("dirichlet", "robin", h_right=50.0),
], ids=["dirichlet", "neumann", "robin", "mixed"])
def test_tridiagonal_branch_matches_dense_oracle(strong_disorder_1d, bc, monkeypatch):
    grid, fieldv, K, _ = strong_disorder_1d
    monkeypatch.setattr(solver.spla, "eigsh", _no_arpack)
    monkeypatch.setattr(solver.spla, "splu", _no_superlu)
    op = assemble(grid, fieldv, K, bc)
    _assert_matches_oracle(op, smallest_eigenpairs(op, 4))
    w = solve_linear(op, 1.0)
    assert np.max(np.abs(op.matrix @ w - op.mass)) <= 1e-10 * np.max(op.mass)


def test_tridiagonal_branch_on_nonuniform_line(monkeypatch):
    rng = np.random.default_rng(31)
    widths = rng.uniform(0.5, 1.5, 150)
    widths /= widths.sum()
    values = rng.uniform(0.0, 1.0, 150)
    monkeypatch.setattr(solver.spla, "eigsh", _no_arpack)
    op = assemble_line(widths, values, 5000.0, BoundaryCondition.mixed("neumann", "dirichlet"))
    _assert_matches_oracle(op, smallest_eigenpairs(op, 4))


@st.composite
def _line_cases(draw):
    """A random 1D line under any non-periodic walls, its values scaled by 10**uniform(-200, 1)
    in about half the draws, with K = 0 or K in [1e-6, 1e7], log-uniform."""
    grid = GridSpec(1, draw(st.integers(2, 20)), draw(st.integers(2, 8)))
    fieldv = sample_potential(grid, draw(FIELD_DISTS), draw(st.integers(0, 2**32)))
    fieldv = replace(fieldv, cell_values=fieldv.cell_values * 10.0 ** draw(_LOG_SCALE))
    K = draw(st.one_of(st.just(0.0), st.floats(-6.0, 7.0).map(lambda t: 10.0 ** t)))
    return assemble(grid, fieldv, K, draw(_LINE_BC))


@settings(max_examples=300, deadline=None)
@given(_line_cases())
def test_line_ground_pair_matches_dense_and_bisection(op):
    # the certified iteration's lambda_1 (bisection's where the line's factor is singular or
    # the iteration is not certified) agrees with the dense and the bisected lambda_1 to
    # within its certificate, 1e-10 max(1, lambda), plus the round-off floor
    lam_dense = scipy.linalg.eigh(op.matrix.toarray(), np.diag(op.mass), eigvals_only=True)[0]
    d, e, _ = solver._scaled_tridiagonal(op)
    lam_bisected = solver._stebz(d, e, 2, iu=1)[0][0]
    (pair,) = smallest_eigenpairs(op, 1)
    tol = 1e-10 * max(1.0, abs(lam_dense)) + _floor(op)
    assert abs(pair.eigenvalue - lam_dense) <= tol
    assert abs(pair.eigenvalue - lam_bisected) <= tol
    assert pair.residual <= solver.EIG_TOL * max(1.0, abs(pair.eigenvalue))


@pytest.mark.parametrize("bc", [
    BoundaryCondition.neumann(),
    BoundaryCondition.robin(0.0),
    BoundaryCondition.mixed("neumann", "neumann"),
], ids=["neumann", "robin-h0", "mixed-neumann-neumann"])
@pytest.mark.parametrize("K, p", [(0.0, 0.5), (5.0, 0.0)], ids=["K0", "V0"])
def test_reflecting_line_with_zero_potential_term_has_lambda_1_zero(bc, K, p):
    # A is singular, so the line's factor at shift 0 fails, by the K V = 0 check or at a
    # pivot; the line falls back to bisection, which finds lambda_1 = 0 and a constant mode
    grid = grid_1d(10)
    op = assemble(grid, sample_potential(grid, DistributionSpec.bernoulli(p), 0), K, bc)
    with pytest.raises(SingularOperatorError):
        solver._factor(op)
    for pairs in (smallest_eigenpairs(op, 1), solver.ground_cluster(op)):
        (pair,) = pairs
        assert abs(pair.eigenvalue) <= _floor(op)
        assert np.ptp(pair.mode) <= 1e-12 and pair.mode.max() == 1.0


def test_degenerate_criterion_6_trial_solves():
    # trial 150 of the criterion-6 Dirichlet ensemble: six interior zero runs of two cells
    # give a cluster degenerate to round-off, where shift-invert Lanczos missed the residual
    # bound
    grid = grid_1d(50)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 2718 ^ 150)
    op = assemble(grid, fieldv, 3e6, BoundaryCondition.dirichlet())
    pairs = smallest_eigenpairs(op, 3)
    _assert_matches_oracle(op, pairs, modes=False)   # any basis of the cluster is valid
    assert len({p.cluster for p in pairs}) == 1
    members = solver.ground_cluster(op)              # six-fold, capped at 3
    _assert_matches_oracle(op, members, modes=False)
    assert len(members) == 3


def _recording(monkeypatch, calls, name, module=solver.spla):
    """Replace module.<name> by a wrapper that logs (name, positional arguments, keywords)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **kw: calls.append((name, a, kw)) or real(*a, **kw))


def _assert_arpack_factors_nothing(call):
    name, (A, *_), kw = call
    assert name == "eigsh" and isinstance(A, LinearOperator)
    assert "sigma" not in kw and "M" not in kw


def test_shift_invert_runs_on_the_solvers_own_factor(strong_disorder_1d, monkeypatch):
    # rings are factored by LDL^T with a corner correction and never reach SuperLU; 2D
    # operators are factored by SuperLU once per solve; either way ARPACK gets the inverse
    # as a LinearOperator, so it factors nothing itself
    grid, fieldv, K, _ = strong_disorder_1d
    calls = []
    _recording(monkeypatch, calls, "eigsh")
    _recording(monkeypatch, calls, "splu")
    op = assemble(grid, fieldv, K, BoundaryCondition.periodic())
    _assert_matches_oracle(op, smallest_eigenpairs(op, 4))
    solve_linear(op, 1.0)
    assert [call[0] for call in calls] == ["eigsh"]
    _assert_arpack_factors_nothing(calls[0])
    calls.clear()
    grid = grid_2d(5)
    op = assemble(grid, sample_potential(grid, DistributionSpec.uniform(0.0, 1.0), 3), 300.0,
                  BoundaryCondition.neumann())
    _assert_matches_oracle(op, smallest_eigenpairs(op, 3))
    solve_linear(op, 1.0)
    assert [call[0] for call in calls] == ["splu", "eigsh", "splu"]
    _assert_arpack_factors_nothing(calls[1])


# lambda_1 = 1.1e-10, within the floor 7.0e-9 of tol: rho - tol lies below the floor, where
# a factor proves nothing, so the ring's shift is raised to the floor
_RING_NEAR_THE_FLOOR = assemble_ring(np.array([2.0**-9, 0.25, 0.75]), np.array([2.0, 1.0, 2.0]),
                                     6.221994754486938e-11)


@st.composite
def _ring_cases(draw):
    """A ring on random cells, their values scaled by 10**uniform(-200, 1) in about half
    the draws, with K in [1e-6, 1e5], log-uniform, so nearly singular rings are drawn.

    Only the singular K V = 0 is left out.  Rings singular to working precision, where
    K V m is below the round-off of A's diagonal, are not.
    """
    widths, values = (np.array(c) for c in draw(CELLS))
    values = values * 10.0 ** draw(_LOG_SCALE)
    op = assemble_ring(widths, values, 10.0 ** draw(st.floats(-6.0, 5.0)))
    assume(np.max(op.coupling * op.vnode) > 0.0)
    return op


def _no_arpack_for_a_ring_ground_pair(*args, **kwargs):
    raise AssertionError("a ring's ground pair must not reach ARPACK below the step cap")


@settings(max_examples=200, deadline=None)
@given(_ring_cases(), st.integers(0, 2**32))
# K V m far below the round-off of A's diagonal: factored, but singular to working precision
@example(assemble_ring(np.array([0.5, 1.0, 2.0, 0.25, 3.0]), np.full(5, 1e-16), 1.0), 0)
# lambda_1 / lambda_2 = 0.98: rho - eta overshoots lambda_1 for 28 steps at shift 0, so the
# shift is found by bisecting the bracket that the failed factors leave
@example(assemble_ring(np.array([1.0, 1.0, 4.0]), np.array([4.5, 4.5, 4.625]), 100.0), 0)
# lambda_1 within the floor of tol: certified at the floor, not by a shift below it
@example(_RING_NEAR_THE_FLOOR, 0)
def test_ring_solves_match_dense_solves(op, seed):
    rhs = np.random.default_rng(seed).uniform(-1.0, 1.0, op.size)
    A = op.matrix.toarray()
    w = _solve_unless_singular_to_working_precision(op, A, rhs)
    if w is None:
        return
    w_dense = np.linalg.solve(A, op.mass * rhs)
    # as in test_tridiagonal_solve_matches_dense_solve: two backward-stable solves differ
    # by up to a few eps times the condition number, which small K V makes large
    tol = max(1e-12, 4 * np.finfo(float).eps * np.linalg.cond(A, np.inf))
    assert np.max(np.abs(w - w_dense)) <= tol * np.max(np.abs(w_dense))
    k = min(3, op.size - 1)
    lam = scipy.linalg.eigh(A, np.diag(op.mass), eigvals_only=True)[:k + 1]
    # a mode moves by up to its residual over its gap (Davis-Kahan), so it is pinned to
    # 1e-6 only where the gap exceeds the residual bound 1e6-fold; equal cells make a
    # ring's modes degenerate, and then any basis will do
    separated = np.diff(lam) > solver.EIG_TOL / 1e-6 * max(1.0, lam[-1])
    _assert_matches_oracle(op, smallest_eigenpairs(op, k), modes=separated.all())
    # k = 1 is certified shifted inverse iteration on the ring's own factor, never ARPACK
    with mock.patch.object(solver.spla, "eigsh", _no_arpack_for_a_ring_ground_pair):
        _assert_matches_oracle(op, smallest_eigenpairs(op, 1), modes=separated[0])


def _recording_factor(log):
    """A stand-in for solver._factor that appends (shift, factor returned) to log."""
    factor = solver._factor

    def recording_factor(op, shift=0.0):
        try:
            solve = factor(op, shift)
        except SingularOperatorError:
            log.append((shift, False))
            raise
        log.append((shift, True))
        return solve

    return recording_factor


@settings(max_examples=200, deadline=None)
@given(st.one_of(_ring_cases(), _line_cases()))     # the one iteration serves lines too
@example(_RING_NEAR_THE_FLOOR)
def test_ring_iteration_never_factors_below_the_floor(op):
    try:
        solve = solver._factor(op)
    except SingularOperatorError:           # singular to working precision: no iteration
        return
    log = []
    with mock.patch.object(solver, "_factor", _recording_factor(log)):
        solver._ground_pair(op, solve)
    assert all(shift >= _floor(op) for shift, _ in log)


def _criterion_5_pencil(trial):
    """Trial `trial` of the criterion-5 ensemble: Bernoulli(0.5) cells, Robin h = 0.01."""
    grid = grid_1d(50)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 314 ^ trial)
    return assemble(grid, fieldv, 5e4, BoundaryCondition.robin(0.01))


def _factors_per_ground_pair(log):
    # every ground pair starts from its factor at shift 0, and the iteration never factors
    # there, since the floor is positive
    return len(log) / sum(shift == 0.0 for shift, _ in log)


def test_ground_pairs_take_few_factors():
    # factor attempts per ground pair, the one at shift 0 included: the reference sweep at
    # 300 nodes per unit (74 ring solves) takes 5.88, and criterion-5 trials 0-99 take 5.94;
    # shifting only to rho - eta, far below lambda_1 while eta >> rho - lambda_1, took 7.18
    # and 7.12
    sweep, trials = [], []
    with mock.patch.object(solver, "_factor", _recording_factor(sweep)):
        critical_coupling_sweep(REFERENCE_PARAMS, nodes_per_unit=300)
    with mock.patch.object(solver, "_factor", _recording_factor(trials)):
        for trial in range(100):
            smallest_eigenpairs(_criterion_5_pencil(trial), 1)
    assert _factors_per_ground_pair(sweep) < 6.5
    assert _factors_per_ground_pair(trials) < 6.5


def test_an_overshooting_kato_temple_shift_is_bisected_away():
    # trial 1 of the criterion-5 ensemble: lambda_2 - lambda_1 = 9.2e-3, and the Kato-Temple
    # proposal of the fourth factor lands above lambda_1, so its factor fails and the step
    # falls back to rho - eta
    op = _criterion_5_pencil(1)
    log = []
    with mock.patch.object(solver, "_factor", _recording_factor(log)):
        (pair,) = smallest_eigenpairs(op, 1)
    lam = dense_eigenpairs(op, 1)[0][0]
    assert abs(pair.eigenvalue - lam) <= 1e-10 * max(1.0, lam) + _floor(op)
    assert all(shift < lam + _floor(op) for shift, returned in log if returned)
    failed = [i for i, (_, returned) in enumerate(log) if not returned]
    assert failed
    assert all(log[i + 1][0] < log[i][0] for i in failed)


def test_ring_ground_mode_resolves_a_near_degenerate_crossover(monkeypatch):
    # a two-well ring at its crossover coupling, 300 nodes/unit: lambda_2 - lambda_1 is
    # 6e-6 lambda_1, so a vector whose eigenvalue is certified to 1e-10 lambda_1 can still
    # carry up to eta / gap ~ 1e-5 of the second mode; the last solve at the proven shift
    # damps it, and the peak ratio the sweep reads must agree with the dense mode's
    monkeypatch.setattr(solver.spla, "eigsh", _no_arpack_for_a_ring_ground_pair)
    params = TwoWellParams(0.08024914575701395, 0.40393389439772037, 0.05023549884468585,
                           0.011412067758173551)
    op = toy_operator(params, 1528.5684057112098, nodes_per_unit=300)
    pair = smallest_eigenpairs(op, 1)[0]
    (lam, u), (lam2, _) = dense_eigenpairs(op, 2)
    assert lam2 - lam < 1e-5 * lam
    assert abs(pair.eigenvalue - lam) <= 1e-12 * lam
    x = op.axes[0]
    assert abs(peak_height_ratio(pair.mode, x, params) - peak_height_ratio(u, x, params)) < 1e-8


def test_ring_iteration_never_certifies_an_excited_pair():
    # started on the second mode itself, the iteration meets the eta bound at once, but no
    # factor proves a shift that close to lambda_2, so the pair is not certified: it returns
    # only once inverse iteration has drawn x to the ground mode, or hands the ring on
    op = assemble_ring(np.full(40, 0.025), np.random.default_rng(6).uniform(0.0, 1.0, 40), 300.0)
    (lam1, _), (lam2, u2) = dense_eigenpairs(op, 2)
    solve, starts = solver._factor(op), [u2]
    pairs = solver._ground_pair(op, lambda b: starts.pop().copy() if starts else solve(b))
    assert pairs is None or abs(pairs[0].eigenvalue - lam1) <= 1e-10 * lam1


@pytest.mark.parametrize("steps", [0, 2])
def test_ring_ground_pair_past_the_step_cap_falls_through_to_lanczos(steps, monkeypatch):
    # the toy ring's ground pair is certified at its 7th step and returned at its 8th, so a
    # cap of 0 or 2 hands it to shift-invert Lanczos, which must still meet the bound
    monkeypatch.setattr(solver, "_GROUND_STEPS", steps)
    calls = []
    _recording(monkeypatch, calls, "eigsh")
    op = toy_operator(REFERENCE_PARAMS, 700.0, nodes_per_unit=200)
    _assert_matches_oracle(op, smallest_eigenpairs(op, 1))
    assert [call[0] for call in calls] == ["eigsh"]
    _assert_arpack_factors_nothing(calls[0])


@pytest.mark.parametrize("steps", [0, 2])
def test_line_ground_pair_past_the_step_cap_falls_through_to_bisection(steps, strong_disorder_1d,
                                                                        monkeypatch):
    # the line's ground pair is certified at its 8th step and returned at its 9th, so a cap
    # of 0 or 2 hands it to bisection for lambda_1 and dstein for its vector, which must
    # still meet the bound
    grid, fieldv, K, bc = strong_disorder_1d
    monkeypatch.setattr(solver, "_GROUND_STEPS", steps)
    calls = []
    _recording(monkeypatch, calls, "dstebz", solver.sla.lapack)
    _recording(monkeypatch, calls, "dstein", solver.sla.lapack)
    op = assemble(grid, fieldv, K, bc)
    _assert_matches_oracle(op, smallest_eigenpairs(op, 1))
    assert [name for name, *_ in calls] == ["dstebz", "dstein"]
    assert calls[0][1][2] == 2              # RANGE='I': lambda_1 by bisection
    calls.clear()
    _assert_matches_oracle(op, solver.ground_cluster(op))
    assert [name for name, *_ in calls] == ["dstebz", "dstebz", "dstein"]


@pytest.mark.parametrize("op", [
    # cells of very unequal width: standard-mode Lanczos missed the bound at the small masses
    assemble_ring(np.array([3.0, 2.0**-8, 1e-3, 1e-3]), np.array([0.0, 0.0, 0.0, 1.0]), 1.0),
    # a ground cluster of 4 equal eigenvalues with k = 3: Lanczos left a stray Ritz vector
    assemble(grid_1d(30), sample_potential(grid_1d(30), DistributionSpec.bernoulli(0.5), 96),
             3e6, BoundaryCondition.periodic()),
], ids=["unequal-cells", "fourfold-cluster"])
def test_shift_invert_refines_pairs_short_of_the_bound(op):
    _assert_matches_oracle(op, smallest_eigenpairs(op, 3), modes=False)


@pytest.mark.parametrize("make", [
    lambda: assemble_ring(np.full(50, 0.02), np.zeros(50), 100.0),
    lambda: assemble(grid_2d(4), sample_potential(grid_2d(4), DistributionSpec.bernoulli(0.5), 1),
                     0.0, BoundaryCondition.neumann()),
], ids=["ring-zero-potential", "2d-neumann-K0"])
def test_singular_shift_invert_is_a_typed_error(make):
    op = make()
    with pytest.raises(SingularOperatorError):
        smallest_eigenpairs(op, 2)
    with pytest.raises(SingularOperatorError):
        solve_linear(op, 1.0)


# --- the ground cluster --------------------------------------------------------------

@st.composite
def _ground_cluster_cases(draw):
    """A 1D line under any non-periodic walls: a random field with K = 0 or K in [1, 1e7],
    log-uniform; or a planted degeneracy, two identical one-cell wells in a unit potential,
    at least three cells apart and two from either wall, at K in [1e5, 1e7]."""
    bc = draw(_LINE_BC)
    if draw(st.booleans()):
        grid = GridSpec(1, draw(st.integers(3, 20)), draw(st.integers(2, 8)))
        fieldv = sample_potential(grid, draw(FIELD_DISTS), draw(st.integers(0, 2**32)))
        K = draw(st.one_of(st.just(0.0), st.floats(0.0, 7.0).map(lambda x: 10.0 ** x)))
        return assemble(grid, fieldv, K, bc), False
    n = draw(st.integers(12, 30))
    grid = GridSpec(1, n, draw(st.integers(2, 8)))
    i = draw(st.integers(2, n - 7))
    j = draw(st.integers(i + 4, n - 3))
    values = np.ones(n)
    values[[i, j]] = 0.0
    K = 10.0 ** draw(st.floats(5.0, 7.0))
    return assemble(grid, PotentialField(grid, values, 0), K, bc), True


@settings(max_examples=200, deadline=None)
@given(_ground_cluster_cases())
def test_ground_cluster_matches_dense_eigenvalues(case):
    op, planted = case
    lam = scipy.linalg.eigh(op.matrix.toarray(), np.diag(op.mass), eigvals_only=True)
    near = lam[np.abs(lam - lam[0]) < solver.DEGENERACY_RTOL * np.maximum(np.abs(lam), 1e-300)]
    pairs = solver.ground_cluster(op)
    assert len(pairs) == min(len(near), 3)
    for pair, lam_d in zip(pairs, near):
        assert abs(pair.eigenvalue - lam_d) <= 10 * solver.EIG_TOL * max(1.0, abs(lam_d))
        assert pair.residual <= solver.EIG_TOL * max(1.0, abs(pair.eigenvalue))
    first = smallest_eigenpairs(op, 3)
    assert len(pairs) == sum(p.cluster == first[0].cluster for p in first)
    if planted:
        assert len(pairs) == 2


def test_ground_cluster_spanning_split_blocks():
    # an exact zero off-diagonal splits the pencil; the lower member lies in the second
    # block, so the members reach dstein in block order, not in order of eigenvalue
    d = np.array([2.0, 2.0, 2.0 - 2e-8, 2.0 - 2e-8, 5.0])
    e = np.array([-1.0, 0.0, -1.0 + 1e-8, 0.0])
    op = DiscreteOperator((d, e, 0.0), np.ones(5), BoundaryCondition.neumann(), 1.0,
                          (np.arange(5.0),), ((False, False),), np.ones(5))
    pairs = solver.ground_cluster(op)
    assert [p.eigenvalue for p in pairs] == pytest.approx([1.0 - 1e-8, 1.0], rel=1e-14)
    assert all(p.residual <= solver.EIG_TOL for p in pairs)


def _multimodal_trial(trial, bc=BoundaryCondition.dirichlet()):
    spec = ExperimentSpec(grid_1d(50), DistributionSpec.bernoulli(0.5), 3e6, bc, 1, 2718,
                          "multimodal")
    return experiments.run_trial(spec, trial)


@pytest.mark.parametrize("trial, members", [(0, 1), (150, 3)], ids=["singleton", "six-fold"])
def test_multimodal_trial_bisects_once_and_solves_only_the_members(trial, members,
                                                                   monkeypatch):
    # lambda_1 from the certified iteration, never a full-range bisection; one Sturm count of
    # its bracket; a bisection only when the count shows company, and dstein vectors for the
    # members only, so none for a singleton, whose pair is the iteration's
    calls = []
    _recording(monkeypatch, calls, "dstebz", solver.sla.lapack)
    _recording(monkeypatch, calls, "dstein", solver.sla.lapack)
    assert not _multimodal_trial(trial).failed
    stebz = [(a[2], a[7]) for name, a, _ in calls if name == "dstebz"]     # (range, tol)
    assert stebz == [(1, np.inf)] + [(1, 0.0)] * (members > 1)
    assert [len(a[2]) for name, a, _ in calls if name == "dstein"] == [members] * (members > 1)


def test_periodic_multimodal_trial_runs_shift_invert_once(monkeypatch):
    calls = []
    _recording(monkeypatch, calls, "eigsh")
    assert not _multimodal_trial(0, BoundaryCondition.periodic()).failed
    assert [call[0] for call in calls] == ["eigsh"]
    _assert_arpack_factors_nothing(calls[0])


# the coupling at which a Neumann line's route calls each routine: the LDL^T factor serves
# every line with K V > 0, and the tridiagonal routines serve the singular K V = 0 line
_ROUTE_K = {"dpttrf": 5e4, "dpttrs": 5e4, "dstebz": 0.0, "dstein": 0.0}


@pytest.mark.parametrize("name", ["dstebz", "dstein", "dpttrf", "dpttrs"])
@pytest.mark.parametrize("predicate", ["boundary", "multimodal"])
def test_tridiagonal_lapack_failure_is_a_failed_trial(name, predicate, monkeypatch):
    # a factor's failure is an invalid-argument info < 0; info > 0 from dpttrf is its proof
    # that the matrix is not positive definite
    real, calls = getattr(solver.sla.lapack, name), []
    info = -1 if name.startswith("dpt") else 1
    monkeypatch.setattr(solver.sla.lapack, name,
                        lambda *a: calls.append(name) or (*real(*a)[:-1], info))
    spec = ExperimentSpec(grid_1d(20), DistributionSpec.bernoulli(0.5), _ROUTE_K[name],
                          BoundaryCondition.neumann(), 1, 7, predicate)
    record = experiments.run_trial(spec, 0)
    assert calls, f"the {predicate} trial's route does not call {name}"
    assert record.failed and np.isnan(record.eigenvalue)
    op = assemble(spec.grid, sample_potential(spec.grid, spec.dist, 7), spec.K, spec.bc)
    with pytest.raises(ConvergenceError, match=name):
        if predicate == "multimodal":
            solver.ground_cluster(op)
        else:
            smallest_eigenpairs(op, 1)
