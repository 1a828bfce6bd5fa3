import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import linregress

from locscape import (REFERENCE_PARAMS, ConstraintError, ConvergenceError, LocscapeError,
                      NoBifurcationError, NoRootError, ParameterError, ShapeRatios, TwoWellParams, bifurcation,
                      characteristic_left, characteristic_right, critical_coupling_sweep,
                      critical_point, peak_height_ratio, piecewise_potential,
                      ratios_to_lengths, scaling_study, smallest_eigenpairs,
                      subsystem_ground_energy, toy_operator)
from locscape.operator import assemble_ring
from locscape.rng import stream
from conftest import assert_same_pencil
from twowell_oracles import (characteristic_right_raw, lengths_to_ratios, mirrored_ring_operator,
                             scaled_residual, split_well, subsystem_operator)


def test_reference_breakpoints():
    assert REFERENCE_PARAMS.breakpoints == pytest.approx(
        (0.2, 0.2 + 1 / 12, 0.2 + 1 / 12 + 0.4, 0.2 + 1 / 12 + 0.45,
         0.75, 0.8), abs=1e-14)
    bps, values = piecewise_potential(REFERENCE_PARAMS)
    assert np.diff(bps).sum() == pytest.approx(1.0, abs=1e-14)
    assert values.tolist() == [1, 0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize("name,params", [
    ("i", dict(L1=0.04, L2=0.4, L3=0.05, L4=0.01)),       # L1 <= L3
    ("ii", dict(L1=0.12, L2=0.38, L3=0.05, L4=0.01)),     # L1 >= 2 L3
    ("iii", dict(L1=0.08, L2=0.3795, L3=0.05, L4=0.061)), # L4 >= L3/2 (sum kept at 1)
    ("v", dict(L1=0.08, L2=0.40, L3=0.05, L4=0.01)),      # lengths do not tile
])
def test_named_constraint_violations(name, params):
    with pytest.raises(ConstraintError) as err:
        TwoWellParams(**params)
    assert err.value.name == name


def test_barrier_equal_to_arm_violates_iii():
    L3 = 0.05
    L1, L4 = 0.08, L3
    L2 = (1 - L1 - 2 * L3 - L4) / 2
    with pytest.raises(ConstraintError) as err:
        TwoWellParams(L1, L2, L3, L4)
    assert err.value.name == "iii"


def test_left_condition_limits_and_bracketing():
    K = 800.0
    val = characteristic_left(K, 1e-9, REFERENCE_PARAMS)
    beta = np.sqrt(K)
    assert val == pytest.approx(-beta * np.tanh(beta * (0.5 - REFERENCE_PARAMS.L1 / 2)), rel=1e-3)
    lam_pole = (np.pi / REFERENCE_PARAMS.L1) ** 2
    grid = np.linspace(1.0, min(K, lam_pole) * 0.999, 400)
    vals = [characteristic_left(K, lam, REFERENCE_PARAMS) for lam in grid]
    assert min(vals) < 0 < max(vals)


def test_lambda_domain_enforced():
    with pytest.raises(ParameterError, match="need 0 < lambda < K"):
        characteristic_left(100.0, 150.0, REFERENCE_PARAMS)
    with pytest.raises(ParameterError, match="need 0 < lambda < K"):
        characteristic_right(100.0, -1.0, REFERENCE_PARAMS)


def test_stable_and_raw_right_conditions_agree():
    # the stable form on Python floats against the direct exponential form on numpy scalars
    for K in (1e2, 1e3, 1e4):
        for lam in K * np.array([0.05, 0.2, 0.6, 0.95]):
            a = characteristic_right(K, float(lam), REFERENCE_PARAMS)
            b = characteristic_right_raw(K, lam, REFERENCE_PARAMS)
            assert type(a) is float
            assert a == pytest.approx(b, rel=1e-10)


def test_stable_right_condition_finite_at_huge_coupling():
    # both conditions, the left one included, stay finite floats away from their poles
    K = 1e6
    for f, pole in ((characteristic_left, "tan pole at alpha*t0"),
                    (characteristic_right, "cot pole at alpha*L3")):
        for lam in np.linspace(1.0, K - 1.0, 50):
            try:
                v = f(K, lam, REFERENCE_PARAMS)
            except ParameterError as exc:
                assert str(exc).startswith(pole)
                continue
            assert type(v) is float and math.isfinite(v)


def test_ground_energies_match_fd_oracle():
    for K in (400.0, 800.0, 1600.0):
        for which in (1, 2):
            lam = subsystem_ground_energy(K, REFERENCE_PARAMS, which)
            assert lam < K
            op = subsystem_operator(REFERENCE_PARAMS, K, which)
            lam_fd = smallest_eigenpairs(op, 1)[0].eigenvalue
            assert abs(lam - lam_fd) / lam_fd < 0.005
            f = characteristic_left if which == 1 else characteristic_right
            assert scaled_residual(f, K, lam_fd, REFERENCE_PARAMS) < 1e-5


@pytest.mark.parametrize("K,which", [(800.0, 3), (800.0, 0), (math.nan, 1), (-1.0, 2),
                                     (0.0, 1), (math.inf, 2)])
def test_ground_energy_rejects_bad_arguments(K, which):
    with pytest.raises(ParameterError, match="which must be 1 or 2|K must be finite and positive"):
        subsystem_ground_energy(K, REFERENCE_PARAMS, which)


@settings(max_examples=100, deadline=None)
@given(L3=st.floats(0.03, 0.055), f1=st.floats(1.3, 1.7), f4=st.floats(0.2, 0.4),
       logK=st.floats(math.log(200.0), math.log(1e6)), which=st.sampled_from([1, 2]))
@example(L3=0.03, f1=1.5, f4=0.25, logK=9.302447062879413, which=2)   # FD alone: -3.1e-6
@example(L3=0.054520883469405756, f1=1.574216793792278, f4=0.33009185525356327,
         logK=8.10780270726658, which=2)   # K = lam_D: the 1000/2000 value alone, -8.5e-8
def test_ground_energy_bracket_holds_the_ground_state_alone(L3, f1, f4, logK, which):
    # the route test's geometries; K stays >= 200, where the fine FD grid meets EIG_TOL
    L1, L4 = f1 * L3, f4 * L3
    params = TwoWellParams(L1, (1 - L1 - 2 * L3 - L4) / 2, L3, L4)
    K = math.exp(logK)
    f = characteristic_left if which == 1 else characteristic_right
    bound = min(K, (np.pi / (L1 if which == 1 else L3)) ** 2)   # K or the first pole
    lam = subsystem_ground_energy(K, params, which)
    assert 0.0 < lam < bound
    assert f(K, lam * (1 - 1e-9), params) < 0.0 < f(K, lam * (1 + 1e-9), params)
    # Neumann bracketing: lambda_2 >= min(K, lam_D), with equality for the split well at
    # K = lam_D, where cos(pi x / L3) across the well, constant on the barriers, is an
    # eigenfunction at lambda = K.  Lumped-mass FD approaches lambda_2 from below at second
    # order, so the check reads the Richardson value of 2000 and 4000 nodes/unit and lets it
    # fall short by its error estimate: its distance from the 1000/2000 value, which errs more
    lam2 = [smallest_eigenpairs(subsystem_operator(params, K, which, npu), 2)[1].eigenvalue
            for npu in (1000, 2000, 4000)]
    coarse, fine = ((4 * b - a) / 3 for a, b in zip(lam2, lam2[1:]))
    assert fine + abs(fine - coarse) >= bound


def test_ground_energy_reaches_isolated_well_limit():
    lam = subsystem_ground_energy(1e8, REFERENCE_PARAMS, 1)
    exact = (np.pi / REFERENCE_PARAMS.L1) ** 2
    assert abs(lam - exact) / exact < 0.01


_SMOOTH = {   # smooth functions of x with a root r and a shape parameter c > 0
    "line": lambda x, r, c: c * (x - r),
    "cubic": lambda x, r, c: (x - r) * ((x - r) ** 2 + c),
    "tanh": lambda x, r, c: math.tanh(c * (x - r)) + 0.1 * (x - r) ** 3,
    "exp": lambda x, r, c: math.expm1(math.asinh(c * (x - r))),   # asinh: no overflow
    "sine": lambda x, r, c: np.sin(c * x) - np.sin(c * r),   # several roots, numpy scalars
    "flat": lambda x, r, c: (x - r) ** 5 + c * (x - r) ** 3,
}


def _outcome(solve, f):
    """The root's bits, or a failure to converge, and every point where `f` was called."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)
    try:
        return solve(counted).hex(), calls
    except (ConvergenceError, RuntimeError):   # 100 iterations, no convergence
        return "no convergence", calls


@settings(max_examples=500, deadline=None)
@given(kind=st.sampled_from(sorted(_SMOOTH)), r=st.floats(-50.0, 50.0),
       c=st.floats(1e-3, 1e3), left=st.floats(1e-6, 100.0), right=st.floats(1e-6, 100.0),
       xtol=st.sampled_from([1e-12, 2e-12, 1e-10 * 3.7, 1e-6, 0.1]))
def test_brentq_port_matches_scipy_bit_for_bit(kind, r, c, left, right, xtol):
    f = lambda x: _SMOOTH[kind](x, r, c)
    a, b = r - left, r + right
    fa, fb = f(a), f(b)
    assume(np.isfinite(fa) and np.isfinite(fb) and np.signbit(fa) != np.signbit(fb))
    ours = _outcome(lambda g: bifurcation._brentq(g, a, b, xtol), f)
    assert ours == _outcome(lambda g: brentq(g, a, b, xtol=xtol), f)


def test_brentq_port_failures_are_typed_numerical_errors():
    def line_with_nan_hole(x):
        return math.nan if 0.4 < x < 0.6 else x - 0.5
    with pytest.raises(ConvergenceError, match="NaN"):
        bifurcation._brentq(line_with_nan_hole, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="NaN"):   # scipy fails at the same call
        brentq(line_with_nan_hole, 0.0, 1.0, xtol=1e-12)
    with pytest.raises(NoRootError, match="same sign"):
        bifurcation._brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    # a step function on a huge bracket: 100 iterations cannot shrink it to the tolerance
    step = lambda x: math.copysign(1.0, x - 1 / 3)
    with pytest.raises(ConvergenceError, match="did not converge in 100 iterations"):
        bifurcation._brentq(step, -1e300, 1e300, 1e-12)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        brentq(step, -1e300, 1e300, xtol=1e-12)
    for error in (ConvergenceError, NoRootError):
        assert issubclass(error, LocscapeError) and not issubclass(error, ParameterError)


def test_critical_point_solves_both_conditions():
    cp = critical_point(REFERENCE_PARAMS)
    assert 0 < cp.lambda_c < cp.K_c
    assert scaled_residual(characteristic_left, cp.K_c, cp.lambda_c, REFERENCE_PARAMS) < 1e-8
    assert scaled_residual(characteristic_right, cp.K_c, cp.lambda_c, REFERENCE_PARAMS) < 1e-8


def test_critical_point_evaluation_budget_and_value(monkeypatch):
    calls = []
    for name in ("characteristic_left", "characteristic_right"):
        def counted(*args, _f=getattr(bifurcation, name)):
            calls.append(1)
            return _f(*args)
        monkeypatch.setattr(bifurcation, name, counted)
    solves = []
    def counted_solve(*args, _f=bifurcation.subsystem_ground_energy):
        solves.append(1)
        return _f(*args)
    monkeypatch.setattr(bifurcation, "subsystem_ground_energy", counted_solve)
    cp = critical_point(REFERENCE_PARAMS)
    assert 0 < len(calls) <= 400
    assert len(solves) <= 30     # two per Brent evaluation; lambda_c reuses the pair at the root
    # the value found by geometric bisection in K down to the same tolerance
    assert cp.K_c == pytest.approx(724.2871998063104, rel=1e-10)


def test_no_crossing_without_a_longer_split_well():
    # L1 >= 2 L3 removes the premise; bypass the constructor check to reach the solver
    bad = object.__new__(TwoWellParams)
    object.__setattr__(bad, "L1", 0.12)
    object.__setattr__(bad, "L2", 0.3795)
    object.__setattr__(bad, "L3", 0.05)
    object.__setattr__(bad, "L4", 0.0005)
    with pytest.raises(NoBifurcationError):
        critical_point(bad)


def test_peak_height_ratio_hand_cases():
    coords = np.linspace(0, 1, 1001)
    (w1a, w1b), (w2a, w2b) = REFERENCE_PARAMS.wells()
    u = np.zeros_like(coords)
    u[(coords >= w1a) & (coords <= w1b)] = 1.0
    assert peak_height_ratio(u, coords, REFERENCE_PARAMS) == 1.0
    u[(coords >= w2a) & (coords <= w2b)] = 1.0
    assert peak_height_ratio(u, coords, REFERENCE_PARAMS) == 0.5
    with pytest.raises(ParameterError, match="mode vanishes on both wells"):
        peak_height_ratio(np.zeros_like(coords), coords, REFERENCE_PARAMS)


def test_ratio_increases_through_the_transition():
    # below the window F need not be monotone (weight first drains into the
    # split well); across the transition window it rises through 1/2
    Kc = critical_point(REFERENCE_PARAMS).K_c
    Ks = np.geomspace(0.9 * Kc, 1.5 * Kc, 8)
    ratios = []
    for K in Ks:
        op = toy_operator(REFERENCE_PARAMS, K, nodes_per_unit=1500)
        pair = smallest_eigenpairs(op, 1)[0]
        ratios.append(peak_height_ratio(pair.mode, op.axes[0], REFERENCE_PARAMS))
    assert ratios[0] < 0.5 < ratios[-1]
    assert all(b >= a - 1e-3 for a, b in zip(ratios[:-1], ratios[1:]))


def test_mode_peak_flips_wells_across_the_critical_coupling():
    cp = critical_point(REFERENCE_PARAMS)
    (w1a, w1b), _ = REFERENCE_PARAMS.wells()
    # the split-well mode peaks symmetrically in either arm -> test the full well
    for K, well in ((0.8 * cp.K_c, split_well(REFERENCE_PARAMS)), (1.2 * cp.K_c, (w1a, w1b))):
        op = toy_operator(REFERENCE_PARAMS, K, nodes_per_unit=2000)
        pair = smallest_eigenpairs(op, 1)[0]
        x_peak = op.axes[0][np.argmax(np.abs(pair.mode))]
        assert well[0] <= x_peak <= well[1]


def test_sweep_brackets_and_interpolates(monkeypatch):
    monkeypatch.setattr(bifurcation, "SWEEP_K_GRID", np.geomspace(1e2, 1e5, 16))
    sw = critical_coupling_sweep(REFERENCE_PARAMS, nodes_per_unit=1500)
    assert sw.ratios[0] < 0.5
    assert sw.ratios[-1] > 0.5
    assert 1e2 < sw.K_c < 1e5
    cp = critical_point(REFERENCE_PARAMS)
    assert abs(sw.K_c - cp.K_c) / sw.K_c < 5e-3    # tight agreement is acceptance-gated


def test_sweep_recouples_one_ring_to_the_rings_it_would_build(monkeypatch):
    # one ring per sweep, re-coupled at each K: bit for bit the ring toy_operator builds at K,
    # at every grid value and every refinement midpoint
    real_toy, real_ring, solved, built = toy_operator, bifurcation.assemble_ring, [], []
    monkeypatch.setattr(bifurcation, "toy_operator",
                        lambda *args: built.append("toy_operator") or real_toy(*args))
    monkeypatch.setattr(bifurcation, "assemble_ring",
                        lambda *args: built.append("assemble_ring") or real_ring(*args))
    monkeypatch.setattr(bifurcation, "smallest_eigenpairs",
                        lambda op, k: solved.append(op) or smallest_eigenpairs(op, k))
    critical_coupling_sweep(REFERENCE_PARAMS)
    assert built == ["toy_operator", "assemble_ring"]
    assert len(solved) == 74
    Ks = [op.coupling for op in solved]
    assert Ks[:60] == bifurcation.SWEEP_K_GRID.tolist()
    for op in solved:
        assert_same_pencil(op, real_toy(REFERENCE_PARAMS, op.coupling, 3000))


def test_periodic_spectrum_invariant_under_cell_rotation():
    widths = np.full(240, 1 / 240)
    bps, values = piecewise_potential(REFERENCE_PARAMS)
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    centers = 0.5 * (edges[:-1] + edges[1:])
    cells = values[np.searchsorted(bps, centers) - 1]
    base = assemble_ring(widths, cells, 700.0)
    lam0 = [p.eigenvalue for p in smallest_eigenpairs(base, 2)]
    for shift in (1, 57, 120):
        rolled = assemble_ring(np.roll(widths, shift), np.roll(cells, shift), 700.0)
        lam = [p.eigenvalue for p in smallest_eigenpairs(rolled, 2)]
        assert lam == pytest.approx(lam0, rel=1e-8)


def test_half_interval_fold_is_exact_on_mirrored_grids():
    for which in (1, 2):
        for K in (300.0, 900.0):
            half = subsystem_operator(REFERENCE_PARAMS, K, which, nodes_per_unit=1000)
            ring = mirrored_ring_operator(REFERENCE_PARAMS, K, which, nodes_per_unit=1000)
            lam_half = smallest_eigenpairs(half, 1)[0].eigenvalue
            lam_ring = smallest_eigenpairs(ring, 1)[0].eigenvalue
            assert abs(lam_half - lam_ring) / lam_half < 1e-6


def test_ratio_inversion_roundtrip():
    r = lengths_to_ratios(REFERENCE_PARAMS)
    back = ratios_to_lengths(r)
    for name in ("L1", "L2", "L3", "L4"):
        assert getattr(back, name) == pytest.approx(getattr(REFERENCE_PARAMS, name), rel=1e-12)
    base = ratios_to_lengths(ShapeRatios(0.25, 0.4, 0.1))   # the scaling-study pivot
    assert isinstance(base, TwoWellParams)


def test_scaling_study_runs_and_reports():
    fit = scaling_study("P1", n_points=6, seed=3)
    assert fit.model == "power"
    assert len(fit.samples) == 6
    assert fit.slope == pytest.approx(-2.0, abs=0.1)
    assert fit.r2 > 0.99
    with pytest.raises(ParameterError, match="axis must be one of"):
        scaling_study("P9", n_points=3)


@pytest.mark.parametrize("axis", ["P1", "P2", "P3"])
def test_scaling_fit_equals_linregress(axis):
    # the fit is linregress written out, clip of r included
    fit = scaling_study(axis, n_points=12, seed=0)
    P, K = np.array(fit.samples).T
    ref = linregress(P, np.log(K)) if axis == "P2" else linregress(np.log10(P), np.log10(K))
    assert (fit.slope, fit.intercept, fit.r2) == (ref.slope, ref.intercept, ref.rvalue ** 2)


def test_scaling_fit_clips_r_of_an_exact_power_law(monkeypatch):
    # an exact power law, K_c = P1**-2: at these draws round-off pushes the unclipped r past -1
    monkeypatch.setattr(bifurcation, "critical_point",
                        lambda p: bifurcation.CriticalPoint(lengths_to_ratios(p).P1 ** -2.0, 1.0))
    fit = scaling_study("P1", n_points=12, seed=6)
    x, y = np.log10(np.array(fit.samples)).T
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=True).flat
    assert abs(ssxym / np.sqrt(ssxm * ssym)) > 1.0
    assert fit.r2 == 1.0
    assert fit.slope == pytest.approx(-2.0, rel=1e-12)


def test_scaling_study_needs_two_fitted_points():
    with pytest.raises(ParameterError, match="n_points must be >= 2 for a fit, got 1"):
        scaling_study("P1", n_points=1, seed=3)      # rejected before any draw
    # P2 = 0.472 keeps L1 < 2 L3 only for P3 below 0.106: one of these two points is skipped
    with pytest.raises(LocscapeError, match="only 1 of 2 P3 points have a crossover"):
        scaling_study("P3", n_points=2, seed=1, base=ShapeRatios(0.25, 0.472, 0.1))
    # L1 >= 2 L3 at every P1: each point violates constraint (ii) and is skipped
    with pytest.raises(LocscapeError, match="only 0 of 3 P1 points have a crossover"):
        scaling_study("P1", n_points=3, seed=3, base=ShapeRatios(0.25, 0.9, 0.1))


def test_randomized_geometries_agree_between_routes():
    # geometry distribution used for validating the two routes against each
    # other; the mean relative gap over 100 draws stays below 1e-3
    rng = stream(20240501)
    gaps = []
    for _ in range(100):
        L3 = rng.uniform(0.03, 0.055)
        L1 = rng.uniform(1.3 * L3, 1.7 * L3)
        L4 = rng.uniform(0.2 * L3, 0.4 * L3)
        L2 = (1 - L1 - 2 * L3 - L4) / 2
        params = TwoWellParams(L1, L2, L3, L4)
        cp = critical_point(params)
        sw = critical_coupling_sweep(params, nodes_per_unit=2000)
        gaps.append(abs(cp.K_c - sw.K_c) / sw.K_c)
    assert np.mean(gaps) <= 1e-3
