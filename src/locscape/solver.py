"""Eigenpairs and linear solves for assembled operators.

Every 1D pencil is factored by LAPACK's LDL^T of an SPD tridiagonal matrix
(`pttrf`/`pttrs`).  A ring is a tridiagonal chain plus one corner entry c < 0, so it is
written A = T' + c w w^T with w = e_0 + e_{n-1}: T' drops both corner entries and adds
|c| to its two end diagonals, which keeps it SPD whenever A is, and each solve is one
`pttrs` plus a Sherman-Morrison correction.  2D operators are factored by SuperLU.
`_factor` is the one place that factors A, or in 1D A - sigma M; it serves `solve_linear`,
the ground pair of every 1D pencil and shift-invert Lanczos (ARPACK in standard mode) for
the other eigenpairs of rings and 2D operators.  Every solve `solve_linear` accepts also
passes its certificate that A is not singular to working precision.

The ground pair (k = 1) of every 1D pencil, line or ring, comes from certified shifted
inverse iteration on its own factor, started from x = A^{-1} M 1.  Each step takes the
Rayleigh quotient rho and eta = ||A x - rho M x||_{M^-1} / ||x||_M, so that some eigenvalue
lies in [rho - eta, rho + eta], and tol = max(1e-10 max(1, rho), the round-off floor of eta).
A factor of A - sigma M whose LDL^T pivots (and, on a ring, Sherman-Morrison denominator)
are all positive proves, as a Sturm count does, that lambda_1 > sigma (to within that floor;
see `_factor`), and the next solve uses the last shift so proven.  While rho - max(eta, tol)
lies above that shift, a step proposes up to three shifts in this order and keeps the first
whose factor returns:

1. rho - max(8 eta^2 / g, tol), after the Kato-Temple inequality
   rho - lambda_1 <= eta^2 / (lambda_2 - rho).  g = (rho - s)(eta_prev / eta - 1) estimates
   the gap lambda_2 - lambda_1 from the last step's contraction eta / eta_prev at the shift
   s of its solve, so this shift is proposed only when 0 < eta < eta_prev and g > 0: never
   on the first step, which has no contraction, nor at an exact eigenvector;
2. rho - max(eta, tol), the lower end of the residual interval;
3. the midpoint of (last proven shift, least failed shift).

A trial outside that interval is skipped.  Below the floor a factor proves nothing, so a
shift proposed there is raised to the floor.  A factor that fails proves lambda_1 < sigma and
lowers the least failed shift to sigma, so the step's later trials lie below it, and a step
whose rho - max(eta, tol) fails too factors at the midpoint, which halves the bracket on
lambda_1; without the bracket, inverse iteration far below lambda_1 turns the iterate away
from a higher eigenvalue in [rho - eta, rho + eta] slowly when lambda_1 / lambda_2 is near 1.
The proposals only choose where to factor: a shift is proven by its own factor alone, so a
wrong gap estimate costs one failed factor, never the certificate.  Once eta <= tol at a
proven shift of at least rho - tol, |lambda_1 - rho| <= tol up to the floor: the eigenvalue
is the ground one.  One more solve at that shift polishes the vector, and the pair must still
meet the residual bound.  A pencil
not certified within _GROUND_STEPS steps falls through: a ring to Lanczos, a line to the
tridiagonal route below.

Other eigenpairs of non-periodic 1D pencils come from LAPACK's tridiagonal routines,
called directly: Sturm bisection (`dstebz`) for the eigenvalues and inverse iteration
(`dstein`) for the vectors.  A line takes that route for its ground pair only when its
factor at shift 0 is singular (reflecting walls with K V = 0) or the iteration is not
certified.  `ground_cluster` runs one Sturm count about lambda_1 to show whether any other
eigenvalue lies within DEGENERACY_RTOL of it, and bisects for the members only when one
does.  No 1D path reads A as CSR.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, ParameterError, SingularOperatorError
from .operator import DiscreteOperator
from .rng import stream

EIG_TOL = 1e-8        # eigenpair residual bound, relative to max(1, |lambda|)
SOLVE_TOL = 1e-10     # linear-solve residual bound, relative to ||A|| ||w|| + ||M rhs||
MAX_ITER = 10_000
_GROUND_STEPS = 30    # shifted inverse-iteration steps for a 1D ground pair
_GROUND_RTOL = 1e-10  # its certificate: eigenvalue within _GROUND_RTOL max(1, |lambda|)
_TEMPLE = 8.0         # safety factor on its Kato-Temple shift proposal
DEGENERACY_RTOL = 1e-6
_EPS = np.finfo(float).eps


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
    """Cluster labels of non-decreasing eigenvalues: a value joins the cluster before it if
    within DEGENERACY_RTOL of that cluster's lowest value, whose index is the label."""
    cluster = np.arange(len(values))
    for j in range(1, len(values)):
        low = cluster[j - 1]
        if abs(values[j] - values[low]) < DEGENERACY_RTOL * max(abs(values[j]), 1e-300):
            cluster[j] = low
    return cluster


def _factor(op: DiscreteOperator, shift: float = 0.0):
    """solve(b) = (A - shift M)^{-1} b from one factorization: `dpttrf` once and `dpttrs` per
    solve in 1D, with a Sherman-Morrison correction for a ring's corner; SuperLU of A in 2D,
    where the shift is always 0.

    A matrix that is not positive definite raises SingularOperatorError: reflecting or
    periodic walls with K V = 0, a pivot or Sherman-Morrison denominator that is not
    positive, or an exactly singular SuperLU factor.  A LAPACK call that reports an invalid
    argument (info < 0) raises ConvergenceError naming the routine.  In 1D, line or ring, a
    factor that returns at a shift at or above the round-off floor `_floor` is thus a proof,
    as a Sturm count is, that every eigenvalue of the pencil exceeds the shift, to within
    the floor f: the pivots' round-off acts as a perturbation of A - shift M smaller than
    f M, so a factor can return at a shift up to a fraction of f above lambda_1.  Below the
    floor it proves nothing: round-off can leave every pivot and the denominator positive
    although A - shift M is indefinite, as for a ring with K V = 0 at shifts of 1e-20 to
    1e-17 of the floor, so no caller asks for such a shift.  The K V = 0 check runs at
    shift 0 only, where A is singular and round-off can leave every pivot positive.  At a
    shift at or above the floor, A - shift M of such an operator has the eigenvalue -shift,
    and a pivot or the denominator is not positive, so the factor raises without the check.
    """
    if (not shift and op.bc.kind in ("neumann", "periodic")
            and (op.coupling * op.vnode).max() == 0.0):
        raise SingularOperatorError("pure Neumann/periodic operator with K*V = 0 is singular")
    if op.dim != 1:
        try:
            return spla.splu(op.A.tocsc()).solve
        except RuntimeError as exc:   # SuperLU reports an exactly singular factor this way
            raise SingularOperatorError(f"sparse LU failed: {exc}") from exc
    d, e, c = op.A
    if shift or c:                          # a line at shift 0 passes d as it is, since the
        d = d - shift * op.mass             # wrapper copies it; a ring folds its corners in
    if c:                                   # T' = A - c w w^T, both corners folded in
        d[0] -= c
        d[-1] -= c
    # scipy's wrapper refuses an empty off-diagonal, so a one-node pencil passes one zero
    d, e, info = sla.lapack.dpttrf(d, e if len(e) else np.zeros(1))
    if info > 0:
        raise SingularOperatorError(
            f"operator is not positive definite: LDL^T pivot {info} is not > 0")
    if info:
        raise ConvergenceError(f"LDL^T factorization (dpttrf) failed: info {info}",
                               residual=None)

    def pttrs(b):
        x, info = sla.lapack.dpttrs(d, e, b)
        if info:
            raise ConvergenceError(f"LDL^T solve (dpttrs) failed: info {info}", residual=None)
        return x

    if not c:
        return pttrs
    w = np.zeros(len(d))
    w[0] = w[-1] = 1.0
    z = pttrs(w)                            # T'^{-1} w
    denom = 1.0 + c * (z[0] + z[-1])        # Sherman-Morrison: A is SPD iff this is positive
    if not denom > 0.0:
        raise SingularOperatorError(
            f"operator is not positive definite: Sherman-Morrison denominator {denom:.3e}")
    z *= c / denom

    def solve(b):
        y = pttrs(b)
        return y - (y[0] + y[-1]) * z

    return solve


def _floor(op: DiscreteOperator) -> float:
    """The round-off floor 8 eps max_i(sum_j |A_ij| / m_i) of a 1D factor's certificate and
    of eta, which dominates where cells are short or K V m is small."""
    return 8 * _EPS * np.max(op._abs_row_sums() / op.mass)


def _ground_pair(op: DiscreteOperator, solve):
    """The ground pair of a 1D pencil by certified shifted inverse iteration, or None when
    _GROUND_STEPS steps do not certify one; ``solve`` is A^{-1} from `_factor`.

    A step whose rho - max(eta, tol) lies above the last proven shift tries, in order, the
    Kato-Temple shift rho - max(_TEMPLE eta^2 / g, tol) (g the gap lambda_2 - lambda_1
    estimated from the last step's contraction, only when 0 < eta < eta_prev), then
    rho - max(eta, tol), then the midpoint of (shift, upper), skipping any trial outside
    (shift, upper), and keeps the first whose factor returns.  Only a returned factor raises
    the proven shift and only a failed one lowers upper, so the order of the proposals
    cannot weaken the certificate (see the module docstring)."""
    noise = _floor(op)
    x, shift, upper, certified = solve(op.mass), 0.0, math.inf, False     # A^{-1} M 1
    eta_prev = 0.0                          # no contraction measured before the first step
    for _ in range(_GROUND_STEPS):
        x /= math.sqrt(x @ (op.mass * x))   # ||x||_M = 1
        Mx = op.mass * x
        Ax = op._matvec(x)
        rho = x @ Ax
        if certified:
            try:
                return _pairs(op, np.array([rho]), x[:, None])
            except ConvergenceError:
                pass
        r = Ax - rho * Mx
        eta = math.sqrt(r @ (r / op.mass))  # some eigenvalue lies in [rho - eta, rho + eta]
        tol = max(_GROUND_RTOL * max(1.0, rho), noise)
        sigma = rho - max(eta, tol)
        # lambda_2 - lambda_1 from the last step's contraction at shift; 0 when there is none
        gap = (rho - shift) * (eta_prev / eta - 1.0) if 0.0 < eta < eta_prev else 0.0
        eta_prev = eta
        if sigma > shift:
            trials = [sigma, 0.5 * (shift + min(sigma, upper))]
            if gap > 0.0:                   # Kato-Temple: rho - lambda_1 <= eta^2 / gap
                trials.insert(0, rho - max(_TEMPLE * eta * eta / gap, tol))
            for trial in trials:
                trial = max(trial, noise)   # below the floor a factor proves nothing
                if not shift < trial < upper:
                    continue
                try:                        # a factor proves lambda_1 > trial
                    solve, shift = _factor(op, trial), trial
                    break
                except SingularOperatorError:   # lambda_1 < trial: bisect (shift, upper)
                    upper = trial
        certified = eta <= tol and shift >= sigma     # so |lambda_1 - rho| <= tol
        x = solve(Mx)
    return None


def _line_ground_pair(op: DiscreteOperator):
    """The certified ground pair of a non-periodic 1D pencil, or None when its factor at
    shift 0 is singular (reflecting walls with K V = 0, where lambda_1 = 0) or the iteration
    is not certified: either way the caller bisects."""
    try:
        solve = _factor(op)
    except SingularOperatorError:
        return None
    return _ground_pair(op, solve)


def smallest_eigenpairs(op: DiscreteOperator, k: int) -> list[EigenPair]:
    """The k smallest eigenpairs of A u = lambda M u, eigenvalues non-decreasing.

    The ground pair (k = 1) of every 1D pencil, line or ring, is certified shifted inverse
    iteration on its LDL^T factor (module docstring): each step proves a shift below
    lambda_1 by factoring at it, or bisects the bracket on lambda_1 when that factor fails,
    and the pair is returned once its eigenvalue is certified to lie within
    1e-10 max(1, lambda) of lambda_1 (or the round-off floor of its residual) and it meets
    the residual bound.  Non-periodic 1D pencils are tridiagonal with diagonal M, so a line
    with k > 1, a line whose factor at shift 0 is singular and a line not certified within
    _GROUND_STEPS steps are solved directly on M^{-1/2} A M^{-1/2}: bisection (`dstebz`) for
    the k eigenvalues, then inverse iteration (`dstein`) for their vectors.  A ring not
    certified within _GROUND_STEPS steps, a ring with k > 1 and a 2D operator use
    shift-invert Lanczos at shift 0: ARPACK in standard mode on
    x -> M^{1/2} A^{-1} M^{1/2} x, with A^{-1} from `_factor`, started from a vector
    drawn from a fixed counter-based stream; its eigenvalues theta give lambda = 1/theta,
    and its vectors y give u = M^{-1/2} y.  While a pair misses the residual bound (up to
    five times), one more solve per pair, A^{-1} M u, and Rayleigh-Ritz on those k vectors
    refine them.  A singular ring or 2D operator raises SingularOperatorError.  Every route
    is deterministic, and the contract is the residual bound, not the method.
    """
    n = op.size
    if k < 1:
        raise ParameterError("k must be >= 1")
    if k >= n:
        raise ParameterError(f"k={k} too large for operator of dimension {n}")
    if op.dim == 1 and op.bc.kind != "periodic":
        pairs = _line_ground_pair(op) if k == 1 else None
        if pairs:
            return pairs
        d, e, s = _scaled_tridiagonal(op)
        w, iblock, isplit = _stebz(d, e, 2, iu=k)
        return _pairs(op, *_stein(d, e, s, w, iblock, isplit))
    solve = _factor(op)
    if k == 1 and op.dim == 1:
        pairs = _ground_pair(op, solve)
        if pairs:
            return pairs
    root_m = np.sqrt(op.mass)
    opinv = spla.LinearOperator((n, n), matvec=lambda x: root_m * solve(root_m * x.ravel()),
                                dtype=float)
    v0 = stream(0x51AC, n).standard_normal(n)
    try:
        theta, vecs = spla.eigsh(opinv, k=k, which="LM", v0=v0, maxiter=MAX_ITER)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(f"eigensolver converged {len(exc.eigenvalues)}/{k} pairs "
                               f"within {MAX_ITER} iterations", residual=None) from exc
    vals, vecs = 1.0 / theta, vecs * (1.0 / root_m)[:, None]
    # Lanczos can leave a pair short of the bound: standard mode errs by about
    # eps ||M^{-1/2} A M^{-1/2}|| at nodes of small mass, and a cluster of more than k
    # equal eigenvalues can yield a stray Ritz vector.  Block inverse iteration with
    # Rayleigh-Ritz in the M inner product damps each error component by
    # lambda_k / lambda_i per step, and runs only until every pair meets the bound.
    for step in range(6):
        try:
            return _pairs(op, vals, vecs)
        except ConvergenceError:
            if step == 5:
                raise
        U = np.column_stack([solve(op.mass * u) for u in vecs.T])
        U /= np.sqrt(np.einsum("ij,ij->j", U, op.mass[:, None] * U))
        try:
            vals, c = sla.eigh(U.T @ op._matvec(U), U.T @ (op.mass[:, None] * U))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Rayleigh-Ritz step failed: {exc}",
                                   residual=None) from exc
        vecs = U @ c


def ground_cluster(op: DiscreteOperator) -> list[EigenPair]:
    """The ground cluster: the eigenpairs whose eigenvalues lie within DEGENERACY_RTOL of the
    smallest, lambda_1, at most 3 of them, eigenvalues non-decreasing.

    A member is any lambda with |lambda - lambda_1| < DEGENERACY_RTOL |lambda|, the rule that
    gives every pair its ``cluster`` label, so the members are the pairs of cluster 0.  A
    non-periodic 1D pencil takes lambda_1 and its mode from the certified iteration of
    `smallest_eigenpairs` (or, where that route falls back, from bisection for lambda_1
    alone, `dstebz`), then runs one Sturm count on the bracket
    (lambda_1 (1 - rtol), lambda_1 / (1 - rtol)], widened by the bisection's absolute
    tolerance and by the certificate's bound on lambda_1.  When the count is 1 the ground
    pair is the cluster; only when it holds more does a bisection on the bracket find the
    members, and `dstein` computes vectors for the members only.  Rings and 2D operators
    take the ground cluster of smallest_eigenpairs(op, 3).  Every returned pair meets the
    residual bound of `smallest_eigenpairs`.
    """
    if op.dim != 1 or op.bc.kind == "periodic":
        pairs = smallest_eigenpairs(op, 3)
        return [p for p in pairs if p.cluster == pairs[0].cluster]
    if op.size < 2:
        raise ParameterError(f"ground_cluster needs an operator of dimension >= 2, got {op.size}")
    d, e, s = _scaled_tridiagonal(op)
    pairs = _line_ground_pair(op)
    if pairs:                               # certified: |lambda_1 - lam| <= slack
        lam = pairs[0].eigenvalue
        slack = max(_GROUND_RTOL * max(1.0, lam), _floor(op))
    else:
        w, iblock, isplit = _stebz(d, e, 2, iu=1)
        lam, slack = w[0], 0.0
    rtol = DEGENERACY_RTOL
    # the bracket's margin: dstebz's absolute tolerance, ulp times the Gerschgorin bound of
    # the spectrum, plus the certificate's bound
    r = np.abs(d)
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    atol = _EPS * r.max() + slack
    vl = lam - rtol * abs(lam) - atol
    vu = lam + rtol / (1.0 - rtol) * abs(lam) + atol
    count = len(_stebz(d, e, 1, vl, vu, tol=np.inf)[0])   # an infinite tol only counts
    if count < 1:
        raise ConvergenceError(f"Sturm count found no eigenvalue in ({vl:.17g}, {vu:.17g}] "
                               f"about lambda_1 = {lam:.17g}", residual=None)
    if count == 1 and pairs:
        return pairs
    if count > 1:
        w, iblock, isplit = _stebz(d, e, 1, vl, vu)
        order = np.argsort(w)
        keep = np.sort(order[_assign_clusters(w[order]) == 0][:3])   # block order, for dstein
        w, iblock[:len(keep)] = w[keep], iblock[keep]
    return _pairs(op, *_stein(d, e, s, w, iblock, isplit))


def _scaled_tridiagonal(op):
    """M^{-1/2} A M^{-1/2} of a non-periodic 1D pencil as (diagonal, off-diagonal), and the
    scaling s = M^{-1/2} that maps its eigenvectors back to modes."""
    d, e, _ = op.A
    s = 1.0 / np.sqrt(op.mass)
    return d / op.mass, e * s[:-1] * s[1:], s


def _stebz(d, e, rng, vl=0.0, vu=0.0, iu=1, tol=0.0):
    """Eigenvalues of the tridiagonal (d, e) by Sturm bisection, `dstebz` in block order:
    the iu smallest (rng 2) or those in (vl, vu] (rng 1).  tol 0 asks for full accuracy;
    an infinite tol stops at the Sturm counts.  Returns (eigenvalues, iblock, isplit)."""
    m, w, iblock, isplit, info = sla.lapack.dstebz(d, e, rng, vl, vu, 1, iu, tol, "B")
    if info:
        raise ConvergenceError(f"tridiagonal bisection (dstebz) failed: info {info}",
                               residual=None)
    return w[:m], iblock, isplit


def _stein(d, e, s, w, iblock, isplit):
    """(w, modes) in dstebz's block order: inverse-iteration vectors of the tridiagonal
    (d, e) at its eigenvalues w (`dstein`), mapped back to modes by s; `_pairs` sorts them."""
    vecs, info = sla.lapack.dstein(d, e, w, iblock, isplit)
    if info:
        raise ConvergenceError(f"tridiagonal inverse iteration (dstein) failed: info {info}",
                               residual=None)
    return w, vecs * s[:, None]


def _pairs(op, vals, vecs):
    """EigenPairs sorted by eigenvalue, each checked against the residual bound."""
    if len(vals) > 1:
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
    clusters = _assign_clusters(vals)
    pairs = []
    for j in range(len(vals)):
        u = _sup_normalized(vecs[:, j])
        res = _residual(op, vals[j], u)
        if not res <= EIG_TOL * max(1.0, abs(vals[j])):
            raise ConvergenceError(
                f"eigenpair {j} residual {res:.3e} exceeds tolerance", residual=res)
        pairs.append(EigenPair(float(vals[j]), u, res, int(clusters[j])))
    return pairs


def _sup_normalized(u):
    return u / u[np.abs(u).argmax()]        # sign fix and ||u||_inf = 1 in one step


def _residual(op, lam, u):
    """||M^{-1}(A u - lam M u)||_inf."""
    r = op._matvec(u)
    r -= lam * (op.mass * u)
    r /= op.mass
    return float(np.abs(r, out=r).max())


def solve_linear(op: DiscreteOperator, rhs) -> np.ndarray:
    """Solve A w = M rhs, i.e. the discrete form of (-Lap + K V) w = rhs.

    ``rhs`` is the source sampled at active nodes (scalar broadcasts).  A solve is accepted
    by one residual bound, ||A w - M rhs||_inf <= SOLVE_TOL * (||A||_inf ||w||_inf +
    ||M rhs||_inf), with a few steps of iterative refinement while it fails.  The
    ||A|| ||w|| term keeps a nearly singular operator (reflecting walls with small K V + h,
    where w is large) from failing on round-off alone.  Every accepted solve must also have
    eps ||A||_inf ||A^{-1}||_inf < 1, or A is singular to working precision, where even a
    zero residual can leave w off by a factor of 2; for the M-matrix A,
    ||A^{-1}||_inf = max(A^{-1} 1).

    A is factored once by `_factor` (LDL^T for every 1D pencil, with a rank-one corner
    correction on a ring; SuperLU in 2D), and that factor serves the first solve, every
    refinement step and the certificate.  A singular operator raises SingularOperatorError.
    """
    n = op.size
    solve = _factor(op)
    b = np.multiply(op.mass, np.asarray(rhs, float), out=np.empty(n))   # rhs broadcasts to n
    w = solve(b)
    a_norm, b_norm = op._abs_row_sums().max(), np.abs(b).max()
    for step in range(6):
        r = op._matvec(w)
        r = np.subtract(b, r, out=r)        # b - A w
        res = np.abs(r).max()
        bound = SOLVE_TOL * (a_norm * np.abs(w).max() + b_norm)
        if res <= bound:
            break
        if step == 5:
            raise ConvergenceError(f"linear solve residual {res:.3e} above {bound:.3e}",
                                   residual=float(res))
        w = w + solve(r)
    x = solve(np.ones(n))                   # A^{-1} 1
    cond = _EPS * a_norm * np.abs(x, out=x).max()
    if not cond < 1.0:
        raise SingularOperatorError(
            f"operator is singular to working precision: eps * cond_inf(A) = {cond:.3e}")
    return w
