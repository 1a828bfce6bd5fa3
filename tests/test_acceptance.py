"""Acceptance suite: every release-gating check, one test per criterion.

Run with ``pytest tests/test_acceptance.py -rA -q`` to see one PASS/FAIL line
per criterion with its runtime.
"""

import time

import numpy as np
import pytest

from locscape import (REFERENCE_PARAMS, BoundaryCondition, DistributionSpec, ExperimentSpec,
                      PathConfig, RunModel, assemble, boundary_localization_prob,
                      characteristic_left, characteristic_right,
                      critical_coupling_sweep, critical_point, estimate_landscape_mc,
                      landscape_bound_violation, grid_1d, grid_2d, landscape_from_operator,
                      multimodal_prob_dirichlet, multimodal_prob_neumann, oracle_probabilities,
                      peak_height_ratio, probe_points_for, run_ensemble,
                      sample_potential, scaling_study,
                      smallest_eigenpairs, solve_linear, subsystem_ground_energy,
                      toy_operator, valley_partition)
from locscape.bifurcation import piecewise_potential
from locscape.operator import assemble_ring
from locscape.rng import stream
from run_oracles import run_decomposition
from twowell_oracles import characteristic_right_raw, split_well, subsystem_operator


class Gate:
    def __init__(self, number, name, budget_s):
        self.number = number
        self.name = name
        self.budget = budget_s
        self.t0 = time.perf_counter()

    def done(self, detail=""):
        elapsed = time.perf_counter() - self.t0
        print(f"[ACCEPTANCE {self.number}] {self.name}: PASS "
              f"({elapsed:.1f}s / budget {self.budget:.0f}s) {detail}")
        assert elapsed < self.budget, f"criterion {self.number} exceeded its runtime budget"

    def fail(self, detail):
        elapsed = time.perf_counter() - self.t0
        print(f"[ACCEPTANCE {self.number}] {self.name}: FAIL ({elapsed:.1f}s) {detail}")


def _zero_field(grid):
    return sample_potential(grid, DistributionSpec.bernoulli(0.0), 0)


def test_criterion_1_closed_form_spectra():
    gate = Gate(1, "closed-form interval spectra", 2.0)
    t0 = time.perf_counter()
    grid = grid_1d(30)
    op = assemble(grid, _zero_field(grid), 0.0, BoundaryCondition.dirichlet())
    pairs = smallest_eigenpairs(op, 4)
    assert time.perf_counter() - t0 < 1.0
    for j, pair in enumerate(pairs, start=1):
        exact = (j * np.pi) ** 2
        assert abs(pair.eigenvalue - exact) / exact < 0.01
    t1 = time.perf_counter()
    mixed = BoundaryCondition.mixed("neumann", "dirichlet")
    lam = smallest_eigenpairs(assemble(grid, _zero_field(grid), 0.0, mixed), 1)[0].eigenvalue
    assert time.perf_counter() - t1 < 1.0
    exact = (np.pi / 2) ** 2
    assert abs(lam - exact) / exact < 0.01
    gate.done(f"lam1..4 and mixed-wall lam1 within 1%")


def test_criterion_2_landscape_exactness():
    gate = Gate(2, "landscape closed forms", 30.0)
    grid = grid_1d(25)
    ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)
    ls = landscape_from_operator(assemble(grid, ones, 64.0, BoundaryCondition.neumann()))
    dev_const = np.max(np.abs(ls.w - 1 / 64.0))
    assert dev_const <= 1e-10
    lsd = landscape_from_operator(assemble(grid_1d(25), _zero_field(grid_1d(25)), 0.0,
                                           BoundaryCondition.dirichlet()))
    x = lsd.op.axes[0]
    dev_quad = np.max(np.abs(lsd.w - x * (1 - x) / 2))
    assert dev_quad <= 1e-4
    gate.done(f"const dev {dev_const:.1e}, parabola dev {dev_quad:.1e}")


def test_criterion_3_landscape_bound_sweep():
    gate = Gate(3, "landscape bound on modes", 120.0)
    worst = -np.inf
    for seed in range(100):
        grid = grid_1d(30)
        fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 7000 + seed)
        op = assemble(grid, fieldv, 8000.0, BoundaryCondition.neumann())
        ls = landscape_from_operator(op)
        for pair in smallest_eigenpairs(op, 4):
            worst = max(worst, landscape_bound_violation(pair, ls))
            assert worst <= 1e-6
    for seed in range(10):
        grid = grid_2d(20)
        fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 9000 + seed)
        op = assemble(grid, fieldv, 8000.0, BoundaryCondition.neumann())
        ls = landscape_from_operator(op)
        pair = smallest_eigenpairs(op, 1)[0]
        worst = max(worst, landscape_bound_violation(pair, ls))
        assert worst <= 1e-6
    gate.done(f"worst violation {worst:.2e} over 100x1D + 10x2D")


def test_criterion_4_walk_estimator():
    gate = Gate(4, "random-walk landscape estimates", 60.0)
    ones = sample_potential(grid_1d(30), DistributionSpec.bernoulli(1.0), 0)
    est = estimate_landscape_mc(0.5, ones, 100.0, BoundaryCondition.neumann(),
                                PathConfig(n_paths=10_000, seed=41))
    assert abs(est.mean - 0.01) <= max(3 * est.std_error, 1e-12)
    zeros = sample_potential(grid_1d(30), DistributionSpec.bernoulli(0.0), 0)
    est2 = estimate_landscape_mc(0.5, zeros, 1.0, BoundaryCondition.dirichlet(),
                                 PathConfig(n_paths=10_000, seed=42, t_max=4.0))
    assert abs(est2.mean - 0.125) <= 3 * est2.std_error
    fieldv = sample_potential(grid_1d(30), DistributionSpec.bernoulli(0.5), 20210)
    fine = grid_1d(30, 32)
    op = assemble(fine, sample_potential(fine, DistributionSpec.bernoulli(0.5), 20210),
                  8000.0, BoundaryCondition.neumann())
    w = landscape_from_operator(op).w
    devs = []
    for x in probe_points_for(fieldv):
        e = estimate_landscape_mc(x, fieldv, 8000.0, BoundaryCondition.neumann(),
                                  PathConfig(dt=2e-5, n_paths=10_000, seed=43))
        node = int(np.argmin(np.abs(op.axes[0] - x)))
        devs.append((e.mean - w[node]) / e.std_error)
        assert abs(devs[-1]) <= 3.0
    gate.done("const exact, exit-time parabola and 5 probes within 3 sigma "
              f"(probe devs {np.round(devs, 2)})")


def test_criterion_5_boundary_probability():
    gate = Gate(5, "boundary localization probability", 900.0)
    model = RunModel(0.5, 50)
    pb = boundary_localization_prob(model)
    # the closed form evaluates near the quoted 0.26 (see decisions ledger on
    # the 0.02 window) and must match its sampling oracle to 0.01
    assert abs(pb - 0.26) <= 0.02
    oracle = oracle_probabilities(model, 10**6, seed=555)
    assert abs(pb - oracle.p_boundary) < 0.01
    spec = ExperimentSpec(grid_1d(50), DistributionSpec.bernoulli(0.5), 5e4,
                          BoundaryCondition.robin(0.01), 1000, 314, "boundary")
    est = run_ensemble(spec)[0]
    assert est.ci_low <= pb <= est.ci_high
    gate.done(f"series {pb:.4f}, oracle {oracle.p_boundary:.4f}, "
              f"ensemble {est.p_hat:.4f} CI [{est.ci_low:.4f},{est.ci_high:.4f}]")


def test_criterion_6_multimodal_probability():
    gate = Gate(6, "multimodal probability", 1200.0)
    model = RunModel(0.5, 50)
    pd = multimodal_prob_dirichlet(model)
    pn = multimodal_prob_neumann(model)
    assert abs(pd - 0.28) <= 5e-3
    assert abs(pn - 0.25) <= 5e-3
    oracle = oracle_probabilities(model, 10**6, seed=556)
    assert abs(pd - oracle.p_multimodal_plain) < 0.01
    assert abs(pn - oracle.p_multimodal_extended) < 0.01
    results = {}
    for bc, ref in (("dirichlet", pd), ("neumann", pn)):
        spec = ExperimentSpec(grid_1d(50), DistributionSpec.bernoulli(0.5), 3e6,
                              BoundaryCondition(bc), 500, 2718, "multimodal")
        est = run_ensemble(spec)[0]
        assert abs(est.p_hat - ref) <= 0.05
        results[bc] = est.p_hat
    gate.done(f"series ({pd:.4f}, {pn:.4f}), ensembles {results}")


def test_criterion_7a_crossover_two_routes():
    gate = Gate(7, "crossover coupling, analytic vs sweep", 300.0)
    cp = critical_point(REFERENCE_PARAMS)
    sw = critical_coupling_sweep(REFERENCE_PARAMS)
    rel = abs(cp.K_c - sw.K_c) / sw.K_c
    detail = f"analytic {cp.K_c:.3f}, sweep {sw.K_c:.3f}, relative gap {rel:.2e}"
    if rel > 1e-3:
        gate.fail(detail + " (bound 1e-3; see decisions ledger)")
    assert rel <= 1e-3, detail
    gate.done(detail)


def test_criterion_7b_mode_switches_wells():
    gate = Gate(7, "mode switches wells across the crossover", 300.0)
    cp = critical_point(REFERENCE_PARAMS)
    (w1a, w1b), _ = REFERENCE_PARAMS.wells()
    peaks = {}
    for tag, K, well in (("below", 0.8 * cp.K_c, split_well(REFERENCE_PARAMS)),
                         ("above", 1.2 * cp.K_c, (w1a, w1b))):
        op = toy_operator(REFERENCE_PARAMS, K)
        pair = smallest_eigenpairs(op, 1)[0]
        x_peak = op.axes[0][np.argmax(np.abs(pair.mode))]
        peaks[tag] = x_peak
        assert well[0] <= x_peak <= well[1]
    gate.done(f"peak at {peaks['below']:.3f} below, {peaks['above']:.3f} above")


def test_criterion_7c_matching_conditions_vs_fd():
    gate = Gate(7, "matching conditions vs FD oracle", 300.0)
    worst = 0.0
    for K in (400.0, 800.0, 1600.0):
        for which in (1, 2):
            lam = subsystem_ground_energy(K, REFERENCE_PARAMS, which)
            lam_fd = smallest_eigenpairs(subsystem_operator(REFERENCE_PARAMS, K, which), 1)[0].eigenvalue
            worst = max(worst, abs(lam - lam_fd) / lam_fd)
            assert worst < 0.005
    gate.done(f"worst relative deviation {worst:.2e}")


def test_criterion_8_scaling_laws():
    gate = Gate(8, "crossover scaling laws", 600.0)
    p1 = scaling_study("P1", n_points=30, seed=808)
    assert abs(p1.slope + 2.0) <= 0.1
    assert p1.r2 > 0.99
    p2 = scaling_study("P2", n_points=30, seed=808)
    assert abs(p2.slope + 23.2) <= 0.15 * 23.2
    p3 = scaling_study("P3", n_points=30, seed=808)
    assert abs(p3.slope + 1.7) <= 0.15
    gate.done(f"slopes: P1 {p1.slope:.3f} (R2 {p1.r2:.4f}), "
              f"P2 {p2.slope:.2f}, P3 {p3.slope:.3f}")


def test_criterion_9_structural_properties():
    gate = Gate(9, "structural property suite", 60.0)
    # symmetry and reflective-wall kernel
    grid = grid_1d(20)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 1)
    op = assemble(grid, fieldv, 100.0, BoundaryCondition.robin(0.5))
    assert np.max(np.abs((op.matrix - op.matrix.T).toarray())) == 0.0
    opn = assemble(grid, _zero_field(grid), 0.0, BoundaryCondition.neumann())
    assert np.max(np.abs(opn.matrix @ np.ones(opn.size))) < 1e-12
    # watershed determinism
    g2 = grid_2d(10)
    f2 = sample_potential(g2, DistributionSpec.bernoulli(0.7), 2)
    ls = landscape_from_operator(assemble(g2, f2, 1e5, BoundaryCondition.neumann()))
    assert np.array_equal(valley_partition(ls).labels, valley_partition(ls).labels)
    # run-decomposition round trip
    f1 = sample_potential(grid_1d(40, 2), DistributionSpec.bernoulli(0.4), 3)
    runs = run_decomposition(f1)
    rebuilt = np.concatenate([np.full(n, v, float) for v, n in runs])
    assert np.array_equal(rebuilt, f1.cell_values)
    # stable vs raw split-well condition at moderate coupling
    for lam in (50.0, 400.0, 900.0):
        assert characteristic_right(1e3, lam, REFERENCE_PARAMS) == pytest.approx(
            characteristic_right_raw(1e3, lam, REFERENCE_PARAMS), rel=1e-10)
    # periodic spectrum invariant under cell rotation
    widths = np.full(180, 1 / 180)
    bps, values = piecewise_potential(REFERENCE_PARAMS)
    centers = (np.arange(180) + 0.5) / 180
    cells = values[np.searchsorted(bps, centers) - 1]
    lam0 = [p.eigenvalue for p in smallest_eigenpairs(assemble_ring(widths, cells, 500.0), 2)]
    rolled = assemble_ring(np.roll(widths, 61), np.roll(cells, 61), 500.0)
    lam1 = [p.eigenvalue for p in smallest_eigenpairs(rolled, 2)]
    assert lam1 == pytest.approx(lam0, rel=1e-8)
    gate.done("symmetry, kernel, watershed, runs, dual evaluation, rotation")
