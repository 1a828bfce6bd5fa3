import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from locscape import (DistributionSpec, GridSpec, ParameterError, PotentialField,
                      grid_1d, grid_2d, load_potential, sample_potential, save_potential)
from locscape.potential import runs_of_zeros
from locscape.rng import stream

from run_oracles import run_decomposition


def test_degenerate_bernoulli_fields():
    grid = grid_1d(10)
    all_ones = sample_potential(grid, DistributionSpec.bernoulli(1.0), 3)
    assert np.all(all_ones.cell_values == 1.0)
    all_zero = sample_potential(grid, DistributionSpec.bernoulli(0.0), 3)
    assert np.all(all_zero.cell_values == 0.0)


def test_uniform_sample_mean_clt_bound():
    grid = grid_1d(50)
    fieldv = sample_potential(grid, DistributionSpec.uniform(0.0, 1.0), 11)
    # mean of 50 iid U(0,1) draws: within 3 sigma of 1/2, sigma = (1/sqrt 12)/sqrt 50
    bound = 3.0 * (1.0 / np.sqrt(12.0)) / np.sqrt(50.0)
    assert abs(fieldv.cell_values.mean() - 0.5) < bound


def test_sampling_is_deterministic_in_seed():
    grid = grid_2d(12)
    dist = DistributionSpec.normal(0.5, 0.25)
    a = sample_potential(grid, dist, 99)
    b = sample_potential(grid, dist, 99)
    c = sample_potential(grid, dist, 100)
    assert a.cell_values.tobytes() == b.cell_values.tobytes()
    assert a.cell_values.tobytes() != c.cell_values.tobytes()


@pytest.mark.parametrize("bad", [
    lambda: DistributionSpec.bernoulli(1.5),
    lambda: DistributionSpec.uniform(-0.1, 1.0),
    lambda: DistributionSpec.uniform(0.7, 0.7),
    lambda: DistributionSpec.normal(0.5, 0.0),
    lambda: DistributionSpec.gamma(0.5, -1.0),
])
def test_invalid_distribution_parameters(bad):
    with pytest.raises(ParameterError):
        bad()


@pytest.mark.parametrize("kind,params", [
    ("bernoulli", (2.0,)),
    ("frob", (1.0,)),
    ("uniform", (0.0,)),
    ("normal", (0.5, 0.25, 1.0)),
], ids=["p-out-of-range", "unknown-kind", "too-few-params", "too-many-params"])
def test_direct_construction_is_checked_like_the_constructors(kind, params):
    with pytest.raises(ParameterError):
        DistributionSpec(kind, params)


def test_normal_clamps_at_zero():
    fieldv = sample_potential(grid_1d(500), DistributionSpec.normal(0.5, 0.5), 4)
    vals = fieldv.cell_values
    assert vals.min() == 0.0          # Phi(-1) ~ 16% of draws hit the clamp
    assert (vals == 0.0).sum() > 20


def test_gamma_moments_match_parameterization():
    mu, sigma = 0.5, 0.5 / 3.0
    draws = DistributionSpec.gamma(mu, sigma).sample(stream(8), 200_000)
    assert draws.min() >= 0.0
    assert abs(draws.mean() - mu) < 5e-3
    assert abs(draws.std() - sigma) < 5e-3


def test_run_decomposition_examples():
    grid = GridSpec(1, 3, 2)
    f1 = PotentialField(grid, np.array([0.0, 0.0, 1.0]), 0)
    assert run_decomposition(f1) == [(0, 2), (1, 1)]
    f2 = PotentialField(grid, np.zeros(3), 0)
    assert run_decomposition(f2) == [(0, 3)]


def test_run_decomposition_roundtrip_and_alternation():
    grid = grid_1d(60, 2)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.4), 17)
    runs = run_decomposition(fieldv)
    rebuilt = np.concatenate([np.full(n, v, dtype=float) for v, n in runs])
    assert np.array_equal(rebuilt, fieldv.cell_values)
    assert sum(n for _, n in runs) == 60
    values = [v for v, _ in runs]
    assert all(a != b for a, b in zip(values[:-1], values[1:]))


def test_run_decomposition_rejects_non_binary():
    fieldv = sample_potential(grid_1d(10), DistributionSpec.uniform(0.0, 1.0), 1)
    with pytest.raises(ParameterError, match=r"needs a \{0,1\}-valued field"):
        run_decomposition(fieldv)
    with pytest.raises(ParameterError, match="defined for 1D fields"):
        run_decomposition(sample_potential(grid_2d(4), DistributionSpec.bernoulli(0.5), 1))


def test_zero_run_lengths_follow_geometric_law():
    # One run measured per field (the zero run after the field's first 1-cell,
    # kept when nonempty and not clipped by the domain end): its length is an
    # exact geometric(p) draw, independent across the 1e5 fields, so the
    # chi-square test at the 1% level applies at full strength.  Pooling every
    # run instead would expose the O(n/N) finite-window size bias of the law.
    p, N, n_fields = 0.5, 200, 100_000
    rng = stream(314159)
    cells = rng.random((n_fields, N)) < p            # True = V is 1
    has_one = cells.any(axis=1)
    first_one = cells.argmax(axis=1)
    cols = np.arange(N)[None, :]
    later_ones = cells & (cols > first_one[:, None])
    second_one = np.where(later_ones.any(axis=1), later_ones.argmax(axis=1), N)
    lengths = second_one - first_one - 1
    lengths = lengths[has_one & (second_one < N) & (lengths >= 1)]
    kmax = 14
    counts = np.bincount(np.minimum(lengths, kmax + 1), minlength=kmax + 2)[1:]
    probs = np.array([(1 - p) ** (k - 1) * p for k in range(1, kmax + 1)] + [(1 - p) ** kmax])
    expected = probs * lengths.size
    stat = np.sum((counts - expected) ** 2 / expected)
    assert stat < chi2.ppf(0.99, df=kmax)


def test_runs_of_zeros_helper():
    starts, lens = runs_of_zeros(np.array([0, 1, 0, 0, 1, 0]))
    assert starts.tolist() == [0, 2, 5]
    assert lens.tolist() == [1, 2, 1]


@pytest.mark.parametrize("dist", [
    DistributionSpec.bernoulli(0.3),
    DistributionSpec.uniform(0.0, 1.0),
    DistributionSpec.gamma(0.5, 0.25),
])
def test_serialization_roundtrip(tmp_path, dist):
    fieldv = sample_potential(grid_1d(25, 4), dist, 123)
    path = tmp_path / "potential.txt"
    save_potential(fieldv, path)
    back = load_potential(path)
    assert back.grid == fieldv.grid
    assert back.seed == fieldv.seed
    assert back.dist == fieldv.dist
    assert np.array_equal(back.cell_values, fieldv.cell_values)
    header = path.read_text().splitlines()[0].split()
    assert header[:4] == ["1", "25", "4", "123"]


_SIZE = st.floats(1e-3, 1e3)
_DISTS = st.one_of(
    st.builds(DistributionSpec.bernoulli, st.floats(0.0, 1.0)),
    st.builds(lambda a, width: DistributionSpec.uniform(a, a + width), st.floats(0.0, 1e3), _SIZE),
    st.builds(DistributionSpec.normal, st.floats(-1e3, 1e3), _SIZE),
    st.builds(DistributionSpec.gamma, _SIZE, _SIZE),
)


@st.composite
def _fields(draw):
    """A field on a random 1D or 2D grid: raw values, or sampled from any distribution kind."""
    grid = GridSpec(draw(st.sampled_from([1, 2])), draw(st.integers(2, 12)),
                    draw(st.integers(2, 9)))
    seed = draw(st.integers(-2**63, 2**64 - 1))
    dist = draw(st.none() | _DISTS)
    if dist is not None:
        return sample_potential(grid, dist, seed)
    n = grid.cells_per_side ** grid.dim
    values = draw(st.lists(st.floats(0.0, allow_infinity=False), min_size=n, max_size=n))
    return PotentialField(grid, np.reshape(values, (grid.cells_per_side,) * grid.dim), seed)


@settings(max_examples=200, deadline=None)
@given(_fields())
def test_save_load_roundtrip_property(tmp_path_factory, fieldv):
    path = tmp_path_factory.mktemp("roundtrip") / "potential.txt"
    save_potential(fieldv, path)
    back = load_potential(path)
    assert back.grid == fieldv.grid
    assert back.seed == fieldv.seed
    assert back.dist == fieldv.dist
    assert back.cell_values.tobytes() == fieldv.cell_values.tobytes()


@pytest.mark.parametrize("text", [
    "1 4 2\n0.0\n1.0\n0.0\n1.0\n",                        # header without seed and dist
    "1 4 2 7 bernoulli 0.5\n0.0\n1.0\n0.0\n",              # 3 values for 4 cells
    "1 4 2 7 frob 1.0\n0.0\n1.0\n0.0\n1.0\n",             # unknown distribution
], ids=["short-header", "value-count", "unknown-dist"])
def test_malformed_potential_file_is_a_parameter_error(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParameterError):
        load_potential(path)


def test_serialization_2d_row_major(tmp_path):
    fieldv = sample_potential(grid_2d(6), DistributionSpec.bernoulli(0.5), 9)
    path = tmp_path / "p2d.txt"
    save_potential(fieldv, path)
    body = [float(v) for v in path.read_text().splitlines()[1:]]
    assert np.array_equal(np.array(body).reshape(6, 6), fieldv.cell_values)
    assert np.array_equal(load_potential(path).cell_values, fieldv.cell_values)
