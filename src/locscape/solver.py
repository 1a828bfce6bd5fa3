"""Eigenpairs and linear solves for assembled operators.

Non-periodic 1D pencils are tridiagonal, and both routes hand them to LAPACK's
tridiagonal routines: bisection and inverse iteration (`stebz`/`stein`, through
`eigh_tridiagonal`) for eigenpairs, and the LDL^T factorization of an SPD tridiagonal
matrix (`pttrf`/`pttrs`) for sources.  2D operators and rings use ARPACK shift-invert
and SuperLU.  `_tridiagonal` is the one place that picks the route and reads the
(diagonal, superdiagonal) pair.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, ParameterError, SingularOperatorError
from .operator import DiscreteOperator
from .rng import stream

EIG_TOL = 1e-8        # eigenpair residual bound, relative to max(1, |lambda|)
SOLVE_TOL = 1e-10     # linear-solve residual bound, relative to ||A|| ||w|| + ||M rhs||
MAX_ITER = 10_000
DEGENERACY_RTOL = 1e-6


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue and sup-normalized mode on the active nodes.

    The mode is scaled so its entry of largest magnitude equals +1 exactly.
    ``residual`` is ||M^{-1}(A u - lambda M u)||_inf.  ``cluster`` groups pairs
    whose eigenvalues agree to within DEGENERACY_RTOL (near-degenerate modes
    mix arbitrarily; any basis of the cluster subspace is acceptable).
    """

    eigenvalue: float
    mode: np.ndarray
    residual: float
    cluster: int = 0


def _assign_clusters(values):
    cluster = np.arange(len(values))
    for j in range(1, len(values)):
        if abs(values[j] - values[j - 1]) < DEGENERACY_RTOL * max(abs(values[j]), 1e-300):
            cluster[j] = cluster[j - 1]
    return cluster


def _tridiagonal(op: DiscreteOperator):
    """(diagonal, superdiagonal) of A for a non-periodic 1D pencil, else None.

    Such pencils are tridiagonal, so both `smallest_eigenpairs` and `solve_linear`
    send them to LAPACK's tridiagonal routines; 2D operators and rings return None.
    """
    if op.dim == 1 and not op.periodic:
        return op.matrix.diagonal(), op.matrix.diagonal(1)
    return None


def smallest_eigenpairs(op: DiscreteOperator, k: int) -> list[EigenPair]:
    """The k smallest eigenpairs of A u = lambda M u, eigenvalues non-decreasing.

    Non-periodic 1D pencils are tridiagonal with diagonal M, so they are solved
    directly by LAPACK's tridiagonal eigensolver on M^{-1/2} A M^{-1/2}; 2D
    operators and rings use shift-invert Lanczos at shift 0 (ARPACK), started
    from a vector drawn from a fixed counter-based stream.  Both routes are
    deterministic, and the contract is the residual bound, not the method.
    """
    n = op.size
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k >= n:
        raise ParameterError(f"k={k} too large for operator of dimension {n}")
    tri = _tridiagonal(op)
    if tri is not None:
        s = 1.0 / np.sqrt(op.mass)
        d = tri[0] / op.mass
        e = tri[1] * s[:-1] * s[1:]
        try:
            vals, vecs = sla.eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}",
                                   residual=None) from exc
        vecs = vecs * s[:, None]
    else:
        v0 = stream(0x51AC, n).standard_normal(n)
        try:
            vals, vecs = spla.eigsh(op.matrix, k=k, M=sp.diags(op.mass), sigma=0, which="LM",
                                    v0=v0, maxiter=MAX_ITER)
        except spla.ArpackNoConvergence as exc:
            got = len(exc.eigenvalues)
            raise ConvergenceError(
                f"eigensolver converged {got}/{k} pairs within {MAX_ITER} iterations",
                residual=None) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    clusters = _assign_clusters(vals)
    pairs = []
    for j in range(k):
        u = vecs[:, j]
        peak = np.argmax(np.abs(u))
        u = u / u[peak]                     # sign fix and ||u||_inf = 1 in one step
        r = op.matrix @ u - vals[j] * (op.mass * u)
        res = float(np.max(np.abs(r / op.mass)))
        if not res <= EIG_TOL * max(1.0, abs(vals[j])):
            raise ConvergenceError(
                f"eigenpair {j} residual {res:.3e} exceeds tolerance", residual=res)
        pairs.append(EigenPair(float(vals[j]), u, res, int(clusters[j])))
    return pairs


def solve_linear(op: DiscreteOperator, rhs) -> np.ndarray:
    """Solve A w = M rhs, i.e. the discrete form of (-Lap + K V) w = rhs.

    ``rhs`` is the source sampled at active nodes (scalar broadcasts).  The
    residual is checked in the mass-weighted form ||A w - M rhs||_inf <=
    SOLVE_TOL * (||A||_inf ||w||_inf + ||M rhs||_inf), with a few steps of iterative
    refinement if needed.  The ||A|| ||w|| term keeps a nearly singular operator (reflecting
    walls with small K V + h, where w is large) from failing on round-off alone.

    Non-periodic 1D pencils are factored once by LAPACK's LDL^T (`dpttrf`) and solved,
    refinement steps included, by `dpttrs`; a pivot that is not positive means the
    operator is singular.  2D operators and rings are factored by SuperLU.  Either way
    a singular operator raises SingularOperatorError.
    """
    n = op.size
    b_raw = np.broadcast_to(np.asarray(rhs, float), (n,)).copy()
    if op.bc.kind in ("neumann", "periodic") and np.max(op.coupling * op.vnode) == 0.0:
        raise SingularOperatorError("pure Neumann/periodic operator with K*V = 0 is singular")
    b = op.mass * b_raw
    tri = _tridiagonal(op)
    if tri is not None:
        d, e, info = sla.lapack.dpttrf(*tri)
        if info > 0:
            raise SingularOperatorError(
                f"operator is not positive definite: LDL^T pivot {info} is not > 0")

        def solve(r):
            return sla.lapack.dpttrs(d, e, r)[0]
    else:
        try:
            solve = spla.splu(op.matrix.tocsc()).solve
        except RuntimeError as exc:  # pragma: no cover - scipy signals singular factor this way
            raise SingularOperatorError(str(exc)) from exc
    w = solve(b)
    b_norm = np.max(np.abs(b))

    def bound(w):
        return SOLVE_TOL * (abs(op.matrix).sum(axis=1).max() * np.max(np.abs(w)) + b_norm)

    for _ in range(5):
        r = b - op.matrix @ w
        res = np.max(np.abs(r))
        if res <= SOLVE_TOL * b_norm or res <= bound(w):   # the cheap, stricter test first
            return w
        w = w + solve(r)
    res = np.max(np.abs(b - op.matrix @ w))
    if res > bound(w):
        raise ConvergenceError(f"linear solve residual {res:.3e} above {bound(w):.3e}",
                               residual=float(res))
    return w
