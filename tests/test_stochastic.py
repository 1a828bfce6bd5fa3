from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locscape import (BoundaryCondition, DistributionSpec, ParameterError, PathConfig,
                      PotentialField, assemble, estimate_landscape_mc, grid_1d, grid_2d,
                      landscape_from_operator, probe_points_for, sample_potential,
                      smallest_eigenpairs)
from locscape import stochastic
from locscape.rng import TAG_WALK, stream

from walk_oracles import (boundary_value_at, boundary_values, in_cell_hop,
                          richardson_fd_boundary_values)


def test_start_point_must_lie_in_domain():
    fieldv = sample_potential(grid_1d(10), DistributionSpec.bernoulli(1.0), 0)
    for x in (-0.1, np.nan):
        with pytest.raises(ParameterError, match="probe .* outside the closed unit domain"):
            estimate_landscape_mc(x, fieldv, 10.0, BoundaryCondition.neumann(), PathConfig())


def test_a_standard_error_needs_two_paths():
    with pytest.raises(ParameterError, match="n_paths >= 2"):
        PathConfig(n_paths=1)


@pytest.mark.parametrize("settings", [{"dt": np.nan}, {"dt": np.inf}, {"t_max": np.nan},
                                      {"t_max": np.inf}, {"t_max": 0.0}], ids=str)
def test_a_walk_needs_a_positive_finite_step_and_horizon(settings):
    with pytest.raises(ParameterError, match="positive and finite"):
        PathConfig(**settings)


def test_negative_disorder_strength_rejected():
    fieldv = sample_potential(grid_1d(10), DistributionSpec.bernoulli(1.0), 0)
    for K in (-1.0, np.nan, np.inf):
        with pytest.raises(ParameterError, match="K must be >= 0"):
            estimate_landscape_mc(0.5, fieldv, K, BoundaryCondition.neumann(), PathConfig())


def test_constant_potential_estimate_is_exact():
    fieldv = sample_potential(grid_1d(30), DistributionSpec.bernoulli(1.0), 0)
    cfg = PathConfig(n_paths=10_000, seed=11)
    est = estimate_landscape_mc(0.5, fieldv, 100.0, BoundaryCondition.neumann(), cfg)
    assert abs(est.mean - 0.01) <= max(3 * est.std_error, 1e-12)
    # every node has the same hop discount P_L + P_R and occupation G here, so paths add
    # the same terms until their common weight reaches the roulette; after it, a path's
    # remaining expected occupation is ROULETTE_WEIGHT w, with w = 0.01 everywhere
    assert est.std_error <= stochastic.ROULETTE_WEIGHT * 0.01


def test_absorbing_walls_give_exit_time_parabola():
    fieldv = sample_potential(grid_1d(30), DistributionSpec.bernoulli(0.0), 0)
    cfg = PathConfig(n_paths=10_000, seed=12, t_max=4.0)
    est = estimate_landscape_mc(0.5, fieldv, 1.0, BoundaryCondition.dirichlet(), cfg)
    assert abs(est.mean - 0.125) <= 3 * est.std_error
    assert est.std_error < 0.01


def test_estimates_agree_with_fd_landscape(strong_disorder_1d):
    grid, fieldv, K, bc = strong_disorder_1d
    # fine-resolution difference oracle so its own interface bias is negligible
    fine = grid_1d(30, 32)
    fine_field = sample_potential(fine, DistributionSpec.bernoulli(0.5), fieldv.seed)
    op = assemble(fine, fine_field, K, bc)
    w = landscape_from_operator(op).w
    cfg = PathConfig(dt=2e-5, n_paths=10_000, seed=13)
    for x in probe_points_for(fieldv):
        est = estimate_landscape_mc(x, fieldv, K, bc, cfg)
        node = int(np.argmin(np.abs(op.axes[0] - x)))
        assert abs(est.mean - w[node]) <= 3 * est.std_error


def test_stiff_robin_walls_approach_absorbing_walls():
    fieldv = sample_potential(grid_1d(20), DistributionSpec.bernoulli(0.0), 0)
    cfg = PathConfig(dt=2e-5, n_paths=10_000, seed=14, t_max=4.0)
    robin = estimate_landscape_mc(0.5, fieldv, 1.0, BoundaryCondition.robin(1e4), cfg)
    absorbed = estimate_landscape_mc(0.5, fieldv, 1.0, BoundaryCondition.dirichlet(), cfg)
    combined = np.hypot(robin.std_error, absorbed.std_error)
    assert abs(robin.mean - absorbed.mean) <= 3 * combined


def test_halving_dt_moves_constant_estimate_less_than_one_se():
    # dt drives only the 2D walk; the 1D walk hops between cell boundaries.  Neither step
    # biases the estimate on a constant potential: both match w = 1 / (K V) = 0.02 within
    # 3 se (two independent roulettes differ by about sqrt(2) se, so compare each to w)
    fieldv = sample_potential(grid_2d(10), DistributionSpec.bernoulli(1.0), 0)
    bc = BoundaryCondition.neumann()
    for dt in (1e-4, 5e-5):
        est = estimate_landscape_mc(0.3, fieldv, 50.0, bc, PathConfig(dt=dt, n_paths=2000, seed=15))
        assert abs(est.mean - 0.02) <= 3 * est.std_error


def test_landscape_bound_holds_stochastically(strong_disorder_1d):
    grid, fieldv, K, bc = strong_disorder_1d
    op = assemble(grid, fieldv, K, bc)
    pair = smallest_eigenpairs(op, 1)[0]
    cfg = PathConfig(dt=2e-5, n_paths=4000, seed=17)
    for x in probe_points_for(fieldv):
        est = estimate_landscape_mc(x, fieldv, K, bc, cfg)
        node = int(np.argmin(np.abs(op.axes[0] - x)))
        assert pair.eigenvalue * est.mean + 3 * pair.eigenvalue * est.std_error >= abs(pair.mode[node])


def test_paths_cut_off_at_t_max_are_reported():
    # 2D stepped walk, uniform V=1, K=100: every path's weight is exp(-100 t), which meets
    # the roulette only after t = 0.1, and then falls further before the next roulette
    fieldv = sample_potential(grid_2d(10), DistributionSpec.bernoulli(1.0), 0)
    bc = BoundaryCondition.neumann()
    short = estimate_landscape_mc(0.5, fieldv, 100.0, bc,
                                  PathConfig(dt=1e-3, t_max=0.1, n_paths=300, seed=18))
    assert short.n_truncated == 300
    assert np.isclose(short.max_truncated_weight, np.exp(-10.0), rtol=1e-12, atol=0)
    long = estimate_landscape_mc(0.5, fieldv, 100.0, bc,
                                 PathConfig(dt=1e-3, t_max=1.0, n_paths=300, seed=18))
    assert long.n_truncated == 0 and long.max_truncated_weight == 0.0


def test_hop_budget_cuts_off_1d_paths():
    # uniform V=1, K=100, N=10: beta a = 1, so every hop multiplies the weight by
    # 1/cosh(1); t_max=0.1 gives ceil(2 t_max N^2) = 20 hops
    fieldv = sample_potential(grid_1d(10), DistributionSpec.bernoulli(1.0), 0)
    bc = BoundaryCondition.neumann()
    short = estimate_landscape_mc(0.5, fieldv, 100.0, bc,
                                  PathConfig(t_max=0.1, n_paths=300, seed=18))
    assert short.n_truncated == 300
    assert np.isclose(short.max_truncated_weight, np.cosh(1.0) ** -20, rtol=1e-12, atol=0)
    # 30 hops, one block, leave weight 2.2e-6 < ROULETTE_WEIGHT: no roulette runs after the
    # budget's last block, so every path is cut off with the weight the budget left
    last = estimate_landscape_mc(0.5, fieldv, 100.0, bc,
                                 PathConfig(t_max=0.15, n_paths=300, seed=18))
    assert last.n_truncated == 300
    assert np.isclose(last.max_truncated_weight, np.cosh(1.0) ** -30, rtol=1e-12, atol=0)
    # 200 hops take the weight to 1e-38, so the roulette stops every path first
    long = estimate_landscape_mc(0.5, fieldv, 100.0, bc,
                                 PathConfig(t_max=1.0, n_paths=300, seed=18))
    assert long.n_truncated == 0 and long.max_truncated_weight == 0.0
    # a path absorbed on the budget's last hop has stopped, so it is not cut off: with V=0
    # and N=2, t_max=0.1 gives one hop, from the middle node onto a Dirichlet wall
    zeros = sample_potential(grid_1d(2), DistributionSpec.bernoulli(0.0), 0)
    one = estimate_landscape_mc(0.5, zeros, 1.0, BoundaryCondition.dirichlet(),
                                PathConfig(t_max=0.1, n_paths=300, seed=18))
    assert one.n_truncated == 0 and one.mean == 0.125      # x(1-x)/2 at x = 1/2


_WALLS = [BoundaryCondition.neumann(), BoundaryCondition.robin(5.0), BoundaryCondition.dirichlet()]


@pytest.mark.parametrize("bc", _WALLS, ids=lambda bc: bc.kind)
@pytest.mark.parametrize("dim", [1, 2])
def test_full_lane_occupations_do_not_depend_on_n_paths(dim, bc):
    # a lane draws for its own alive paths only, so its paths see the same numbers
    # whatever the other lanes hold
    grid = grid_1d(12) if dim == 1 else grid_2d(6)
    fieldv = sample_potential(grid, DistributionSpec.uniform(0.0, 2.0), 9)
    walk = stochastic._hop_walk if dim == 1 else stochastic._step_walk
    x0 = stochastic._start(0.3, dim, bc)
    full, more = (walk(x0, fieldv.cell_values, 300.0, bc,
                       PathConfig(dt=1e-3, n_paths=n, seed=23))[0]
                  for n in (stochastic.LANE, 2500))
    assert np.array_equal(full, more[:stochastic.LANE])


@pytest.mark.parametrize("bc", _WALLS, ids=lambda bc: bc.kind)
def test_2d_step_pins_draw_order_fold_and_endpoint_average(bc):
    # t_max = dt is one block of one step: rebuild each path's step from the lane streams,
    # in lane order, and its occupation (1 - exp(-kv dt)) / kv with kv the average of K V
    # over the step's endpoints.  K V dt is of order 1, and x0 lies within sqrt(2 dt) of the
    # wall x = 0 and of the cell interfaces x = 1/12 and y = 1/2
    N, K, dt, n_paths, seed = 12, 1000.0, 1e-3, 1500, 31
    cells = sample_potential(grid_2d(N), DistributionSpec.uniform(0.0, 2.0), 3).cell_values
    x0 = np.array([0.06, 0.49])
    absorbing = bc.kind == "dirichlet"
    acc, n_truncated, max_weight = stochastic._step_walk(
        x0, cells, K, bc, PathConfig(dt=dt, t_max=dt, n_paths=n_paths, seed=seed))
    raw, U = [], []
    for lane in range(-(-n_paths // stochastic.LANE)):
        gen = stream(seed, lane, TAG_WALK)
        n = min(stochastic.LANE, n_paths - lane * stochastic.LANE)
        raw.append(x0 + np.sqrt(2 * dt) * gen.standard_normal((n, 2)))
        U.append(gen.random(n) if absorbing else np.zeros(n))
    raw, U = np.concatenate(raw), np.concatenate(U)
    new = raw if absorbing else np.abs(raw - 2 * np.round(raw / 2))
    v0, v1 = (cells[tuple(np.clip((p * N).astype(int), 0, N - 1).T)] for p in (x0[None], new))
    kv = K * (v0 + v1) / 2
    np.testing.assert_allclose(acc, np.where(kv > 0, -np.expm1(-kv * dt) / np.maximum(kv, 1e-300),
                                             dt), rtol=1e-13, atol=0)
    Y = np.exp(-kv * dt - bc.h * np.abs(new - raw).sum(axis=1))
    if absorbing:       # killed where a bridge may have crossed, or the step ends outside
        Y *= U < np.prod(-np.expm1(-np.maximum(x0, 0) * np.maximum(new, 0) / dt)
                         * -np.expm1(-np.maximum(1 - x0, 0) * np.maximum(1 - new, 0) / dt), axis=1)
    assert n_truncated == np.count_nonzero(Y > 0) > 0
    assert max_weight == pytest.approx(Y.max(), rel=1e-13)


def test_2d_walk_on_field_constant_along_y_matches_1d_boundary_values():
    # V depends on x alone and Neumann walls reflect each axis apart, so the x coordinate is
    # the 1D reflected walk and the 1D boundary values are exact.  3.5 SE per probe is a 0.23%
    # chance over the five probes that an unbiased estimate fails
    c = sample_potential(grid_1d(12), DistributionSpec.uniform(0.0, 2.0), 5).cell_values
    fieldv = PotentialField(grid_2d(12), np.repeat(c[:, None], 12, axis=1), 5)
    bc = BoundaryCondition.neumann()
    for x in (0.0, 0.2, 0.45, 0.7, 1.0):
        est = estimate_landscape_mc((x, 0.5), fieldv, 300.0, bc, PathConfig(n_paths=2000, seed=21))
        assert est.n_truncated == 0
        assert abs(est.mean - boundary_value_at(x, c, 300.0, bc)) <= 3.5 * est.std_error


@pytest.mark.parametrize("bc", [BoundaryCondition.dirichlet(), BoundaryCondition.robin(1.0)],
                         ids=lambda bc: bc.kind)
def test_2d_walk_agrees_with_fd_landscape(bc):
    # the FD landscape at 32 nodes per cell, allowing its change from 16 nodes per cell as
    # its own error; 3.5 SE per probe is a 0.14% chance over the three probes
    fieldv = sample_potential(grid_2d(6), DistributionSpec.uniform(0.0, 2.0), 4)
    w = []
    for r in (16, 32):
        grid = grid_2d(6, r)
        op = assemble(grid, PotentialField(grid, fieldv.cell_values, 4), 300.0, bc)
        w.append(op.embed(landscape_from_operator(op).w)[::r // 16, ::r // 16])
    for probe in ((0.5, 0.5), (1 / 12, 0.25), (0.25, 11 / 12)):
        est = estimate_landscape_mc(probe, fieldv, 300.0, bc, PathConfig(n_paths=2000, seed=22))
        node = tuple(round(p * 6 * 16) for p in probe)      # a node of both grids
        assert est.n_truncated == 0
        assert abs(est.mean - w[1][node]) <= 3.5 * est.std_error + abs(w[1][node] - w[0][node])


def _key(gen):
    return tuple(int(k) for k in gen.bit_generator.state["state"]["key"])


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1), st.integers(1, 7),
       st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_tagged_stream_keys_never_equal_untagged_keys(seed, index, tag, seed2, index2):
    untagged = _key(stream(seed2, index2))
    assert _key(stream(seed, index, tag)) != untagged
    assert untagged == (seed2 ^ index2, 0)    # untagged keys are unchanged


def _walk_stream_keys(monkeypatch, seed, n_paths):
    """Keys of the streams one estimate draws its paths from."""
    keys = []

    def spy(*args, **kwargs):
        gen = stream(*args, **kwargs)
        keys.append(_key(gen))
        return gen

    monkeypatch.setattr(stochastic, "stream", spy)
    fieldv = sample_potential(grid_1d(10), DistributionSpec.bernoulli(1.0), 0)
    estimate_landscape_mc(0.5, fieldv, 1e4, BoundaryCondition.neumann(),
                          PathConfig(dt=1e-3, n_paths=n_paths, seed=seed))
    return keys


def test_walk_lanes_share_no_stream_with_potentials_or_other_seeds(monkeypatch):
    seed = 20210
    keys = _walk_stream_keys(monkeypatch, seed, 2500)
    assert len(keys) == -(-2500 // stochastic.LANE)      # one stream per lane of paths
    assert _key(stream(seed)) not in keys                 # fk-check's potential stream
    assert not set(keys) & set(_walk_stream_keys(monkeypatch, seed + 1, 2500))
    assert keys[0] == (seed, TAG_WALK << 32)


def _kernel_references(ba, a, h):
    """Interior, reflecting-wall, Robin-wall and in-cell (P_L, P_R, G) at beta a = ``ba`` from
    their plain closed forms in 50-digit decimals, or their beta = 0 limits at ba = 0."""
    dl, dr = a / 4, 3 * a / 4             # exact binary fractions that sum to a exactly
    if ba == 0:
        return [(0.5, 0.5, a * a / 2), (0.0, 1.0, a * a / 2),
                (0.0, 1 / (1 + h * a), a * a / (2 * (1 + h * a))), (dr / a, dl / a, dl * dr / 2)]
    with localcontext() as ctx:
        ctx.prec = 50
        z, b = Decimal(ba), Decimal(ba) / Decimal(a)
        cosh = lambda v: (v.exp() + (-v).exp()) / 2
        sinh = lambda v: (v.exp() - (-v).exp()) / 2
        robin = cosh(z) + Decimal(h) / b * sinh(z)
        in_cell = [sinh(b * Decimal(dr)) / sinh(z), sinh(b * Decimal(dl)) / sinh(z)]
        refs = [(1 / (2 * cosh(z)),) * 2 + ((1 - 1 / cosh(z)) / b**2,),
                (0, 1 / cosh(z), (1 - 1 / cosh(z)) / b**2),
                (0, 1 / robin, (cosh(z) - 1) / (b**2 * robin)),
                (*in_cell, (1 - sum(in_cell)) / b**2)]
        return [tuple(float(v) for v in ref) for ref in refs]


@pytest.mark.parametrize("ba", [0.0, 1e-9, 1e-7, 1e-3, 1.0, 40.0, 1e4])
def test_hop_kernels_are_finite_and_match_closed_forms(ba):
    N, h = 4, 5.0
    a = 1.0 / N
    beta = ba * N
    interior, wall, robin_wall, in_cell = _kernel_references(ba, a, h)
    got = []
    for hh in (0.0, h):
        PL, PR, G = stochastic._node_kernels(np.ones(N), beta * beta, hh, False)
        assert np.isfinite(PL).all() and np.isfinite(PR).all() and np.isfinite(G).all()
        assert PL[0] == 0.0 and PR[-1] == 0.0
        got.append((PL[0], PR[0], G[0]))
        if hh == 0.0:
            interior_got = (PL[2], PR[2], G[2])
    # a start a / 4 into a cell is a node between cells of widths a / 4 and 3 a / 4
    c, q, t = stochastic._cell_kernels(beta, np.array([a / 4, 3 * a / 4]))
    got = [interior_got, *got, (q[0] / c.sum(), q[1] / c.sum(), t.sum() / c.sum()),
           in_cell_hop(a / 4, 3 * a / 4, beta, a)]
    for g, ref in zip(got, [interior, wall, robin_wall, in_cell, in_cell]):
        np.testing.assert_allclose(g, ref, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("bc", _WALLS, ids=lambda bc: bc.kind)
@pytest.mark.parametrize("dist", [DistributionSpec.bernoulli(0.5),
                                  DistributionSpec.uniform(0.0, 2.0)], ids=lambda d: d.kind)
def test_boundary_value_system_matches_richardson_fd(bc, dist):
    for seed in (1, 2, 3):
        cells = sample_potential(grid_1d(20), dist, seed).cell_values
        np.testing.assert_allclose(boundary_values(cells, 300.0, bc),
                                   richardson_fd_boundary_values(cells, 300.0, bc),
                                   rtol=1e-6, atol=0)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.sampled_from(_WALLS),
       st.sampled_from([DistributionSpec.bernoulli(0.5), DistributionSpec.uniform(0.0, 2.0)]),
       st.sampled_from([30.0, 3000.0]), st.integers(0, 2**16),
       st.one_of(st.integers(0, 12).map(lambda j: j / 12),
                 st.tuples(st.integers(0, 11), st.floats(0.25, 0.75)).map(lambda c: sum(c) / 12)))
def test_walk_mean_matches_boundary_value_system(bc, dist, K, seed, x):
    # starts are nodes or the middle half of a cell: from within about 1e-5 of a node, the
    # far node's branch has a probability near 1e-5, so 2,000 paths seldom take it and the
    # sample standard error cannot see what it adds to the mean (exact in law all the same)
    fieldv = sample_potential(grid_1d(12), dist, seed)
    assume(fieldv.cell_values.any())
    est = estimate_landscape_mc(x, fieldv, K, bc, PathConfig(n_paths=2000, seed=seed))
    exact = boundary_value_at(x, fieldv.cell_values, K, bc)
    assert est.n_truncated == 0
    # 3.75 sigma per example is 3 sigma Bonferroni-corrected over the 15 examples: a 0.27%
    # chance that some unbiased estimate fails.  Which examples run depends on what else
    # the session imported (Hypothesis draws from constants found in loaded modules).
    assert abs(est.mean - exact) <= 3.75 * est.std_error
