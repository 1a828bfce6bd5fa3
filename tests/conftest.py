import numpy as np
import pytest
import scipy.linalg

from locscape import BoundaryCondition, DistributionSpec, ParameterError, grid_1d, sample_potential


def dense_eigenpairs(op, k):
    """Direct dense eigendecomposition of the pencil; the oracle for the iterative solver."""
    vals, vecs = scipy.linalg.eigh(op.matrix.toarray(), np.diag(op.mass))
    out = []
    for j in range(k):
        u = vecs[:, j]
        peak = np.argmax(np.abs(u))
        out.append((vals[j], u / u[peak]))
    return out


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
