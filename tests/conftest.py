import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st

from locscape import BoundaryCondition, DistributionSpec, ParameterError, grid_1d, sample_potential


# cell-value distributions for property tests: every family, parameters anywhere valid
FIELD_DISTS = st.one_of(
    st.builds(DistributionSpec.bernoulli, st.floats(0.0, 1.0)),
    st.builds(lambda a, width: DistributionSpec.uniform(a, a + width),
              st.floats(0.0, 2.0), st.floats(1e-3, 2.0)),
    st.builds(lambda mu, cv: DistributionSpec.gamma(mu, cv * mu),     # shape 1/cv^2 >= 1
              st.floats(0.1, 2.0), st.floats(0.1, 1.0)),
)

def cells(min_cells):
    """Cell widths and values of a 1D builder's input, min_cells to 30 cells."""
    return st.integers(min_cells, 30).flatmap(lambda n: st.tuples(
        st.lists(st.floats(1e-3, 10.0), min_size=n, max_size=n),   # widths
        st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)))   # values


CELLS = cells(2)


def dense_eigenpairs(op, k):
    """Direct dense eigendecomposition of the pencil; the oracle for the iterative solver."""
    vals, vecs = scipy.linalg.eigh(op.matrix.toarray(), np.diag(op.mass))
    out = []
    for j in range(k):
        u = vecs[:, j]
        peak = np.argmax(np.abs(u))
        out.append((vals[j], u / u[peak]))
    return out


def assert_same_pencil(op, ref):
    """op and ref hold the same 1D pencil, bit for bit: A's arrays, mass, node potential,
    coupling, coordinates, trim and boundary condition."""
    bits = lambda x: np.asarray(x, float).tobytes()
    assert [bits(a) for a in op.A] == [bits(a) for a in ref.A]
    assert (bits(op.mass), bits(op.vnode), bits(op.axes[0])) == (
        bits(ref.mass), bits(ref.vnode), bits(ref.axes[0]))
    assert (op.coupling, op.trimmed, op.bc) == (ref.coupling, ref.trimmed, ref.bc)


def rayleigh_quotient(u, op) -> float:
    """<A u, u> / <M u, u>: the discrete energy per unit norm."""
    u = np.asarray(u, float)
    denom = float(u @ (op.mass * u))
    if denom == 0.0:
        raise ParameterError("Rayleigh quotient of the zero vector")
    return float(u @ (op.matrix @ u)) / denom


@pytest.fixture(scope="session")
def strong_disorder_1d():
    """Shared 1D instance: N=30 Bernoulli(0.5) cells at K=8000, reflective walls."""
    grid = grid_1d(30)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 20210)
    return grid, fieldv, 8000.0, BoundaryCondition.neumann()
