import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locscape.operator as operator_mod
from locscape import (BoundaryCondition, DistributionSpec, ExperimentSpec, GridSpec, ParameterError,
                      RunModel, boundary_localization_prob, distribution_study,
                      experiments, grid_1d, is_boundary_localized, is_corner_localized,
                      is_multimodal, run_ensemble, sample_potential, wilson_interval)
from locscape.regions import SubregionPartition
from run_oracles import longest_extended_run_on_boundary


def test_boundary_predicate_threshold_is_strict():
    u = np.zeros(11)
    u[5] = 1.0
    assert not is_boundary_localized(u)
    u[0] = 0.5
    assert not is_boundary_localized(u)      # exactly 0.5 does not count
    u[0] = 0.5000001
    assert is_boundary_localized(u)
    assert is_boundary_localized(np.ones(7))  # constant mode sits on the wall


def test_boundary_predicate_2d_scans_all_edges():
    u = np.zeros((9, 9))
    u[4, 4] = 1.0
    assert not is_boundary_localized(u)
    u[8, 3] = 0.7
    assert is_boundary_localized(u)
    with pytest.raises(ParameterError, match="1D or 2D mode"):
        is_boundary_localized(np.ones((3, 3, 3)))


def test_corner_predicate():
    u = np.zeros((9, 9))
    u[4, 4] = 1.0
    assert not is_corner_localized(u)
    u[0, 8] = 0.5
    assert not is_corner_localized(u)
    u[0, 8] = 0.51
    assert is_corner_localized(u)
    assert is_corner_localized(np.ones((5, 5)))


def _two_region_partition(n):
    labels = np.zeros(n, dtype=int)
    labels[n // 2:] = 1
    return SubregionPartition(labels, 0.05)


def test_multimodal_predicate():
    part = _two_region_partition(20)
    single = np.zeros(20)
    single[3] = 1.0
    single[15] = 0.09
    assert not is_multimodal(single, part)
    double = np.zeros(20)
    double[3] = 1.0
    double[15] = 0.9
    assert is_multimodal(double, part)
    with pytest.raises(ParameterError, match="empty partition"):
        is_multimodal(double, SubregionPartition(np.full(20, -1), 0.05))


def _no_region(*args):
    raise AssertionError("a Region was built")


@pytest.mark.parametrize("grid, K", [(grid_1d(50), 3e6), (GridSpec(2, 8, 4), 8000.0)],
                         ids=["1d", "2d"])
def test_multimodal_trial_builds_no_region(grid, K, monkeypatch):
    # the predicate reads the partition's labels alone; Region records wait for a reader
    monkeypatch.setattr("locscape.regions.Region", _no_region)
    spec = ExperimentSpec(grid, DistributionSpec.bernoulli(0.5), K, BoundaryCondition.neumann(),
                          4, 2718, "multimodal")
    records = [experiments.run_trial(spec, trial) for trial in range(spec.n_trials)]
    assert not any(r.failed for r in records)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == pytest.approx(0.0, abs=1e-12) and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    lo, hi = wilson_interval(26, 100)
    assert 0.0 < lo < 0.26 < hi < 1.0


@given(st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_wilson_interval_contains_p_hat(case):
    hits, n = case
    lo, hi = wilson_interval(hits, n)
    assert 0.0 <= lo <= hits / n <= hi <= 1.0


def test_dirichlet_boundary_hits_are_impossible():
    spec = ExperimentSpec(grid_1d(20), DistributionSpec.bernoulli(0.5), 1e4,
                          BoundaryCondition.dirichlet(), 40, 5, "boundary")
    est = run_ensemble(spec)[0]
    assert est.n_hits == 0 and est.p_hat == 0.0


def test_ensemble_is_deterministic_and_parallelizable():
    spec = ExperimentSpec(grid_1d(30), DistributionSpec.bernoulli(0.5), 5e4,
                          BoundaryCondition.robin(0.01), 24, 99, "boundary")
    est1, rec1 = run_ensemble(spec, workers=1)
    est2, rec2 = run_ensemble(spec, workers=1)
    assert [r.hit for r in rec1] == [r.hit for r in rec2]
    assert est1 == est2
    est3, rec3 = run_ensemble(spec, workers=2)
    assert [r.hit for r in rec3] == [r.hit for r in rec1]
    assert [r.eigenvalue for r in rec3] == [r.eigenvalue for r in rec1]


def test_boundary_frequency_tracks_run_statistic_and_series():
    # shared instances: the eigenmode-based and the lattice-only detectors
    # agree up to marginal cases, and both sit near the closed-form value
    spec = ExperimentSpec(grid_1d(50), DistributionSpec.bernoulli(0.5), 5e4,
                          BoundaryCondition.robin(0.01), 200, 31415, "boundary")
    est, records = run_ensemble(spec)
    lattice_hits = 0
    for rec in records:
        fieldv = sample_potential(spec.grid, spec.dist, rec.seed)
        lattice_hits += longest_extended_run_on_boundary(fieldv, spec.bc)
    assert abs(est.p_hat - lattice_hits / len(records)) <= 0.05
    analytic = boundary_localization_prob(RunModel(0.5, 50))
    assert est.ci_low - 0.02 <= analytic <= est.ci_high + 0.02


def test_boundary_probability_decreases_with_h_and_K():
    grid = grid_1d(50)
    dist = DistributionSpec.bernoulli(0.5)
    n = 200

    def pb(K, h):
        bc = BoundaryCondition.robin(h)
        est = run_ensemble(ExperimentSpec(grid, dist, K, bc, n, 7, "boundary"))[0]
        return est.p_hat

    noise = 2 * np.sqrt(0.25 / n) * np.sqrt(2)
    hs = [0.001, 0.01, 0.1, 1.0]
    vals_h = [pb(1e3, h) for h in hs]
    assert all(b <= a + noise for a, b in zip(vals_h[:-1], vals_h[1:]))
    Ks = [1e2, 1e3, 1e4]
    vals_K = [pb(K, 0.01) for K in Ks]
    assert all(b <= a + noise for a, b in zip(vals_K[:-1], vals_K[1:]))


def test_multimodal_frequency_matches_series_at_strong_disorder():
    from locscape import multimodal_prob_dirichlet
    spec = ExperimentSpec(grid_1d(50), DistributionSpec.bernoulli(0.5), 3e6,
                          BoundaryCondition.dirichlet(), 150, 271828, "multimodal")
    est = run_ensemble(spec)[0]
    assert abs(est.p_hat - multimodal_prob_dirichlet(RunModel(0.5, 50))) < 0.1


def test_distribution_study_reproduces_family_effects():
    # All families see a clear wall effect at soft walls, none at stiff walls.
    # Their relative ordering is NOT asserted: with cell values clamped at 0
    # (the model used throughout), normal potentials lose the deep negative
    # traps that would otherwise pull modes into the interior, and measured
    # normal-vs-uniform orderings come out mixed at matched sigma.
    rows = distribution_study(h_list=[0.01, 1000.0], dims=(1,), n_trials=60, seed=12)
    small_h = {}
    for row in rows:
        if row.h == 0.01:
            small_h.setdefault(row.kind, []).append(row)
        else:
            assert row.boundary.p_hat <= 0.05       # stiff walls kill the effect
    assert set(small_h) == {"bernoulli", "normal", "gamma", "uniform"}
    for kind, entries in small_h.items():
        assert all(r.boundary.p_hat > 0.05 for r in entries)


def test_distribution_study_rejects_a_bad_dim_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(experiments, "run_ensemble", lambda *args: calls.append(args))
    with pytest.raises(ParameterError, match="dim must be 1 or 2, got 3"):
        distribution_study(h_list=[0.01], dims=(1, 3), n_trials=5)
    assert calls == []


def test_infeasible_family_sigma_pairs_are_skipped(monkeypatch):
    monkeypatch.setattr(experiments, "STUDY_KINDS", ("bernoulli", "uniform"))
    rows = distribution_study(h_list=[0.01], dims=(1,), n_trials=5, seed=1)
    combos = {(r.kind, round(r.sigma, 6)) for r in rows}
    assert ("bernoulli", round(0.5 / 3.0, 6)) not in combos
    assert ("uniform", 0.5) not in combos
    assert ("uniform", round(0.5 / np.sqrt(3.0), 6)) in combos


def _multimodal_by_unique(envelope, partition):
    """`is_multimodal` as np.unique states it: the distinct labels of the nodes whose
    envelope exceeds THRESHOLD, -1 left out, number at least two."""
    labels = partition.labels.ravel()
    hot = np.unique(labels[np.abs(np.asarray(envelope)).ravel() > experiments.THRESHOLD])
    return int((hot >= 0).sum()) >= 2


_AMPLITUDE = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.5, -0.5]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-1, 4), min_size=n, max_size=n),
    st.lists(_AMPLITUDE, min_size=n, max_size=n))))
def test_multimodal_predicate_matches_the_unique_formulation(case):
    labels, envelope = (np.array(x) for x in case)
    partition = SubregionPartition(labels, 1.0)
    if partition.n_regions == 0:            # every node unassigned
        with pytest.raises(ParameterError, match="empty partition"):
            is_multimodal(envelope, partition)
        return
    assert is_multimodal(envelope, partition) is _multimodal_by_unique(envelope, partition)


def test_an_ensemble_builds_its_lattice_pencil_once(monkeypatch):
    # a count names a cause: one (grid, walls) pencil per process, whatever the trial count
    # and the predicate, since each trial re-couples it with its own field
    calls = []
    axis_1d = operator_mod._axis_1d
    monkeypatch.setattr(operator_mod, "_axis_1d", lambda *args: calls.append(1) or axis_1d(*args))
    operator_mod._lattice_pencil.cache_clear()
    grid, bc = grid_1d(12), BoundaryCondition.dirichlet()
    for predicate in ("boundary", "multimodal"):
        est = run_ensemble(ExperimentSpec(grid, DistributionSpec.bernoulli(0.5), 3e4, bc, 30, 7,
                                          predicate))[0]
        assert est.n_trials == 30
    assert len(calls) == 1
