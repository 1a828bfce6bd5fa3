"""Random piecewise-constant lattice potentials on the unit interval/square."""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .rng import stream


@dataclass(frozen=True)
class GridSpec:
    """Uniform lattice over (0,1)^dim: N cells per axis, r finite-difference nodes per cell.

    Node count per axis is N*r + 1, so every cell boundary coincides with a node.
    """

    dim: int
    cells_per_side: int
    nodes_per_cell: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ParameterError(f"dim must be 1 or 2, got {self.dim}")
        if self.cells_per_side < 2:
            raise ParameterError("need at least 2 cells per side")
        if self.nodes_per_cell < 2:
            raise ParameterError("need at least 2 nodes per cell")

    @property
    def nodes_per_axis(self) -> int:
        return self.cells_per_side * self.nodes_per_cell + 1

    @property
    def spacing(self) -> float:
        return 1.0 / (self.cells_per_side * self.nodes_per_cell)


def grid_1d(n_cells: int, nodes_per_cell: int = 8) -> GridSpec:
    return GridSpec(1, n_cells, nodes_per_cell)


def grid_2d(n_cells: int, nodes_per_cell: int = 4) -> GridSpec:
    return GridSpec(2, n_cells, nodes_per_cell)


# kind -> (parameter count, test of the parameters, what the test demands); each test is a
# chain of comparisons that NaN and the infinite bound fail
_KINDS = {
    "bernoulli": (1, lambda p: 0.0 <= p <= 1.0, "p in [0, 1]"),
    "uniform": (2, lambda a, b: 0.0 <= a < b < np.inf, "0 <= a < b < inf"),
    "normal": (2, lambda mu, sigma: -np.inf < mu < np.inf and 0 < sigma < np.inf,
               "finite mu and 0 < sigma < inf"),
    # `sample` draws with shape mu^2/sigma^2 and scale sigma^2/mu, which must not reach 0
    # or overflow either; a variance of 0 fails before it divides
    "gamma": (2, lambda mu, sigma: (0 < mu < np.inf and 0 < sigma and 0 < sigma * sigma < np.inf
                                    and 0 < mu * mu / (sigma * sigma) < np.inf
                                    and 0 < sigma * sigma / mu < np.inf),
              "0 < mu < inf and 0 < sigma < inf, with mu^2/sigma^2 and sigma^2/mu in (0, inf)"),
}


@dataclass(frozen=True)
class DistributionSpec:
    """Per-cell value distribution; all draws are nonnegative.

    kinds: ``bernoulli(p)`` on {0,1} with P(V=1)=p; ``uniform(a,b)`` with
    0 <= a < b; ``normal(mu,sigma)`` clamped below at 0 (this puts an atom at 0
    of mass Phi(-mu/sigma)); ``gamma(mu,sigma)`` parameterized by mean and
    standard deviation (shape mu^2/sigma^2, scale sigma^2/mu).
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown distribution {self.kind!r}")
        arity, ok, need = _KINDS[self.kind]
        params = tuple(float(p) for p in self.params)
        if len(params) != arity:
            raise ParameterError(f"{self.kind} takes {arity} parameter(s), got {len(params)}")
        if not ok(*params):
            raise ParameterError(f"{self.kind} needs {need}, got {params}")
        object.__setattr__(self, "params", params)

    @staticmethod
    def bernoulli(p: float) -> "DistributionSpec":
        return DistributionSpec("bernoulli", (p,))

    @staticmethod
    def uniform(a: float, b: float) -> "DistributionSpec":
        return DistributionSpec("uniform", (a, b))

    @staticmethod
    def normal(mu: float, sigma: float) -> "DistributionSpec":
        return DistributionSpec("normal", (mu, sigma))

    @staticmethod
    def gamma(mu: float, sigma: float) -> "DistributionSpec":
        return DistributionSpec("gamma", (mu, sigma))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "bernoulli":
            (p,) = self.params
            return (rng.random(size) < p).astype(float)
        if self.kind == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size)
        if self.kind == "normal":
            mu, sigma = self.params
            return np.maximum(rng.normal(mu, sigma, size), 0.0)
        mu, sigma = self.params             # gamma
        return rng.gamma(mu * mu / (sigma * sigma), sigma * sigma / mu, size)


@dataclass(frozen=True)
class PotentialField:
    """Realized potential: one nonnegative, finite value per lattice cell.

    ``cell_values`` has shape (N,) in 1D or (N, N) in 2D with axis 0 = x.
    """

    grid: GridSpec
    cell_values: np.ndarray
    seed: int
    dist: DistributionSpec | None = field(default=None, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.cell_values, dtype=float)
        expect = (self.grid.cells_per_side,) * self.grid.dim
        if vals.shape != expect:
            raise ParameterError(f"cell_values shape {vals.shape} != {expect}")
        if not (0 <= vals.min() and vals.max() < np.inf):     # NaN fails as well
            raise ParameterError("cell values must be nonnegative and finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "cell_values", vals)

    @property
    def is_binary(self) -> bool:
        return bool(np.isin(self.cell_values, (0.0, 1.0)).all())


def sample_potential(grid: GridSpec, dist: DistributionSpec, seed: int) -> PotentialField:
    """Draw the N^dim independent cell values; deterministic in (grid, dist, seed)."""
    rng = stream(seed)
    shape = (grid.cells_per_side,) * grid.dim
    return PotentialField(grid, dist.sample(rng, shape), seed, dist)


def _runs(a) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each maximal run of equal values in a 1D array."""
    a = np.asarray(a)
    edge = np.ones(a.size + 1, dtype=bool)
    edge[1:-1] = a[1:] != a[:-1]
    bounds = np.flatnonzero(edge)
    return bounds[:-1], bounds[1:] - 1


def runs_of_zeros(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start indices and lengths of maximal zero runs in a 1D binary array."""
    z = np.asarray(cells) == 0
    first, last = _runs(z)
    zero = z[first]
    return first[zero], (last - first + 1)[zero]


# --- plain-text serialization -------------------------------------------------

def save_potential(fieldv: PotentialField, path) -> None:
    """Header ``dim N r seed dist...`` then the cell values row-major, one per line."""
    dist = fieldv.dist
    tag = "raw" if dist is None else " ".join([dist.kind, *(repr(p) for p in dist.params)])
    g = fieldv.grid
    lines = [f"{g.dim} {g.cells_per_side} {g.nodes_per_cell} {fieldv.seed} {tag}"]
    lines += [repr(float(v)) for v in fieldv.cell_values.ravel()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_potential(path) -> PotentialField:
    with open(path) as fh:
        header = fh.readline().split()
        values = np.array([float(line) for line in fh if line.strip()])
    if len(header) < 5:
        raise ParameterError(f"{path}: header needs 'dim N r seed dist...', got {header}")
    dim, n, r, seed = (int(t) for t in header[:4])
    dist = None
    if header[4] != "raw":
        dist = DistributionSpec(header[4], tuple(float(t) for t in header[5:]))
    grid = GridSpec(dim, n, r)
    if values.size != n ** dim:
        raise ParameterError(f"{path}: {values.size} cell values for {n}^{dim} cells")
    return PotentialField(grid, values.reshape((n,) * dim), seed, dist)
