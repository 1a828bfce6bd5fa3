import numpy as np
import pytest

from locscape import (ParameterError, RunModel, runstats,
                      boundary_localization_prob, multimodal_prob_dirichlet,
                      multimodal_prob_neumann, oracle_probabilities)
from run_oracles import RunConfig, config_flags, sample_run_config


def test_model_size_and_parameter_guards():
    model = RunModel(0.5, 50)
    assert model.M == 12
    assert model.q == 0.5
    with pytest.raises(ParameterError, match=r"run model needs p in \(0,1\), got 0.0"):
        RunModel(0.0, 50)
    with pytest.raises(ParameterError, match=r"run model needs p in \(0,1\), got 1.0"):
        RunModel(1.0, 50)
    with pytest.raises(ParameterError, match="give M=0 < 1"):
        RunModel(0.01, 20)          # M = round(20 * .01 * .99) = 0


def test_boundary_probability_reference_values():
    model = RunModel(0.5, 50)
    pb = boundary_localization_prob(model)
    assert 0.0 < pb < 1.0
    assert pb == pytest.approx(0.2462, abs=5e-4)       # frozen from the sampling oracle
    assert boundary_localization_prob(RunModel(0.3, 50)) > boundary_localization_prob(RunModel(0.7, 50))


def test_multimodal_probability_reference_values():
    model = RunModel(0.5, 50)
    assert multimodal_prob_dirichlet(model) == pytest.approx(0.28, abs=5e-3)
    assert multimodal_prob_neumann(model) == pytest.approx(0.25, abs=5e-3)


def test_single_run_cannot_be_multimodal():
    model = RunModel(0.5, 4)        # M = 1
    assert multimodal_prob_dirichlet(model) == pytest.approx(0.0, abs=1e-12)


def test_neumann_series_needs_three_runs():
    with pytest.raises(ParameterError, match="the reflective-wall series needs M >= 3"):
        multimodal_prob_neumann(RunModel(0.5, 8))      # M = 2


def test_neumann_series_matches_case_decomposition():
    # reassemble 1 - P_N from the four wall-configuration series directly
    model = RunModel(0.4, 60)
    p, q, M = model.p, model.q, model.M
    n = np.arange(1, model.n_max + 1)
    fl = (n - 1) // 2
    g1 = q ** (n - 1) * p
    p1 = ((M - 2) * np.sum((1 - q**fl) ** 2 * (1 - q ** (n - 1)) ** (M - 3) * g1)
          + 2 * np.sum((1 - q ** (2 * n - 1)) ** (M - 2) * (1 - q ** (n - 1)) * g1))
    p2 = ((M - 1) * np.sum((1 - q**fl) * (1 - q ** (n - 1)) ** (M - 2) * g1)
          + np.sum((1 - q ** (2 * n - 1)) ** (M - 1) * g1))
    p4 = M * np.sum((1 - q ** (n - 1)) ** (M - 1) * g1)
    unique = q * q * p1 + p * q * p2 + p * q * p2 + p * p * p4
    assert multimodal_prob_neumann(model) == pytest.approx(1.0 - unique, abs=1e-12)


def test_hand_checked_flag_cases():
    cfg = RunConfig(0, 1, (3, 1, 1))      # extended (6,1,1): unique, at the wall
    flags = config_flags(cfg)
    assert (flags.longest_extended_on_boundary, flags.unique_longest_plain,
            flags.unique_longest_extended) == (True, True, True)
    cfg2 = RunConfig(1, 1, (2, 2))        # extended (2,2): tie
    flags2 = config_flags(cfg2)
    assert flags2.unique_longest_extended is False
    assert flags2.longest_extended_on_boundary is False
    cfg3 = RunConfig(0, 0, (1, 5, 1))     # extended (2,5,2): interior wins
    assert config_flags(cfg3).longest_extended_on_boundary is False


def test_sample_run_config_is_deterministic():
    model = RunModel(0.5, 50)
    a, fa = sample_run_config(model, 7)
    b, fb = sample_run_config(model, 7)
    assert a == b and fa == fb
    assert len(a.zero_runs) == model.M
    assert min(a.zero_runs) >= 1


def test_batch_oracle_matches_per_sample_flags():
    model = RunModel(0.4, 50)
    hits = np.zeros(3)
    n = 400
    for i in range(n):
        _, flags = sample_run_config(model, 1000 + i)
        hits += np.array([flags.longest_extended_on_boundary,
                          not flags.unique_longest_plain,
                          not flags.unique_longest_extended])
    est = oracle_probabilities(model, n, 0)
    # same model, independent streams: agree within joint sampling error
    for got, ref in zip([est.p_boundary, est.p_multimodal_plain, est.p_multimodal_extended],
                        hits / n):
        assert abs(got - ref) < 5 * np.hypot(est.std_error, 0.5 / np.sqrt(n))


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_oracle_agrees_with_series(p):
    model = RunModel(p, 50)
    n = 200_000
    est = oracle_probabilities(model, n, 2024)
    se = 3 * 0.5 / np.sqrt(n)
    assert abs(est.p_boundary - boundary_localization_prob(model)) < se
    assert abs(est.p_multimodal_plain - multimodal_prob_dirichlet(model)) < se
    assert abs(est.p_multimodal_extended - multimodal_prob_neumann(model)) < se


def test_oracle_is_deterministic(monkeypatch):
    model = RunModel(0.5, 50)
    monkeypatch.setattr(runstats, "ORACLE_BATCH", 7_000)
    a = oracle_probabilities(model, 50_000, 3)
    b = oracle_probabilities(model, 50_000, 3)
    assert a == b
