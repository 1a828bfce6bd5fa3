"""Two-well periodic model: where the ground mode lives as disorder grows.

The potential on the unit circle has a single long well (length L1) and a
split well (two length-L3 wells separated by a short L4 barrier), far apart
(gap L2).  At weak coupling K the ground mode sits in the split well, whose
joint width exceeds L1; at strong coupling the barrier cuts the split well in
two and the mode jumps to the long well.  The crossover coupling solves a pair
of transcendental matching conditions, one per well, obtained by shifting each
well to the center of the period and folding the half-interval.  Dirichlet-Neumann
bracketing puts each well's ground energy, and no other root, below min(K, the
condition's first pole), so one Brent solve on that bracket finds it.  The sweep,
which solves the discretized ring's ground pair at each K and reads where its peak
heights cross, provides the independent numerical route to the same number.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConstraintError, ConvergenceError, LocscapeError, NoBifurcationError,
                     NoRootError, ParameterError)
from .operator import DiscreteOperator, assemble_ring
from .rng import stream
from .solver import smallest_eigenpairs

POLE_WIDTH = 1e-8
K_BOUNDS = (10.0, 1e8)   # couplings between which `critical_point` seeks the crossing
K_RTOL = 1e-10           # relative tolerance of `critical_point` in K
SWEEP_RTOL = 1e-5        # relative width at which the sweep stops refining its bracket
SWEEP_K_GRID = np.geomspace(1e2, 1e6, 60)   # couplings the sweep solves before refining


@dataclass(frozen=True)
class TwoWellParams:
    """Well geometry (L1, L2, L3, L4); the five constraints make the crossover exist.

    (i) L1 > L3 so the long well is the longest single piece; (ii) L1 < 2 L3 so
    the split well is jointly longer; (iii) L4 < L3/2 so its barrier is short;
    (iv) L2 > L1 + 2 L3 + L4 so the wells decouple; (v) lengths tile the circle.
    """

    L1: float
    L2: float
    L3: float
    L4: float

    def __post_init__(self):
        L1, L2, L3, L4 = self.L1, self.L2, self.L3, self.L4
        if min(L1, L2, L3, L4) <= 0:
            raise ConstraintError("positivity", "all lengths must be positive")
        if not L1 > L3:
            raise ConstraintError("i", f"L1 ={L1} must exceed L3 ={L3}")
        if not L1 < 2 * L3:
            raise ConstraintError("ii", f"L1 ={L1} must be below 2*L3 ={2*L3}")
        if not L4 < L3 / 2:
            raise ConstraintError("iii", f"L4 ={L4} must be below L3/2 ={L3/2}")
        if not L2 > L1 + 2 * L3 + L4:
            raise ConstraintError("iv", f"L2 ={L2} must exceed L1+2*L3+L4 ={L1 + 2*L3 + L4}")
        if abs(L1 + 2 * L2 + 2 * L3 + L4 - 1.0) > 1e-12:
            raise ConstraintError("v", f"lengths sum to {L1 + 2*L2 + 2*L3 + L4}, not 1")

    @property
    def breakpoints(self) -> tuple:
        x1 = self.L2 / 2
        x2 = x1 + self.L1
        x3 = x2 + self.L2
        x4 = x3 + self.L3
        x5 = x4 + self.L4
        x6 = x5 + self.L3
        return (x1, x2, x3, x4, x5, x6)

    @property
    def half_widths(self) -> tuple:
        """(t0, t1, t2, t3) = (L1/2, L4/2, L4/2 + L3, 1/2)."""
        return (self.L1 / 2, self.L4 / 2, self.L4 / 2 + self.L3, 0.5)

    def wells(self) -> tuple:
        """Peak measurement windows: [x1,x2] and [x3,x5].

        The split-well window covers one arm plus the barrier; by mirror
        symmetry its amplitude maximum equals the full well's, so peak-height
        ratios are unaffected by the truncation.
        """
        x1, x2, x3, x4, x5, x6 = self.breakpoints
        return ((x1, x2), (x3, x5))


REFERENCE_PARAMS = TwoWellParams(1 / 12, 2 / 5, 1 / 20, 1 / 60)


def piecewise_potential(params: TwoWellParams) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints (len 8, from 0 to 1) and the 0/1 value on each of the 7 pieces."""
    bps = np.array([0.0, *params.breakpoints, 1.0])
    values = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    return bps, values


def _pieces_to_cells(bps, values, nodes_per_unit):
    widths, cells = [], []
    for lo, hi, v in zip(bps[:-1], bps[1:], values):
        length = hi - lo
        n = max(2, int(round(length * nodes_per_unit)))
        widths.append(np.full(n, length / n))
        cells.append(np.full(n, v))
    return np.concatenate(widths), np.concatenate(cells)


def toy_operator(params: TwoWellParams, K: float, nodes_per_unit: int = 3000) -> DiscreteOperator:
    """Periodic operator on a grid built from the breakpoints, so V is exact on it."""
    if nodes_per_unit < 1:
        raise ParameterError(f"nodes_per_unit must be >= 1, got {nodes_per_unit}")
    widths, cells = _pieces_to_cells(*piecewise_potential(params), nodes_per_unit)
    return assemble_ring(widths, cells, K)


# --- transcendental matching conditions -------------------------------------------

def _check_lambda(K, lam):
    if not 0.0 < lam < K:
        raise ParameterError(f"need 0 < lambda < K, got lambda={lam}, K={K}")


def _check_pole(trig, arg, label):
    """Reject a lambda whose trig argument lies within POLE_WIDTH/4 of a zero of `trig`."""
    if abs(trig(arg)) < 0.25 * POLE_WIDTH:
        raise ParameterError(f"{label} = {arg}")


def characteristic_left(K: float, lam: float, params: TwoWellParams) -> float:
    """alpha tan(alpha t0) - beta tanh(beta (1/2 - t0)); zero at long-well energies."""
    _check_lambda(K, lam)
    a = math.sqrt(lam)
    b = math.sqrt(K - lam)
    t0 = params.L1 / 2
    _check_pole(math.cos, a * t0, "tan pole at alpha*t0")
    return a * math.tan(a * t0) - b * math.tanh(b * (0.5 - t0))


def characteristic_right(K: float, lam: float, params: TwoWellParams) -> float:
    """Split-well matching condition, in overflow-free form.

    The direct form carries exp(2 beta t) factors that overflow for K beyond
    ~1e5; dividing every exponential by exp(2 beta (t1 + t3)) leaves only
    nonpositive exponents (t2 < t1 + t3 always holds here), which is exact
    algebra, not an approximation.
    """
    _check_lambda(K, lam)
    a = math.sqrt(lam)
    b = math.sqrt(K - lam)
    t0, t1, t2, t3 = params.half_widths
    _check_pole(math.sin, a * (t2 - t1), "cot pole at alpha*L3")
    ea = math.exp(2 * b * (t2 - t1 - t3))
    eb = math.exp(-2 * b * t1)
    ec = math.exp(2 * b * (t2 - t3))
    ratio = ((a * a - b * b) * (ea + 1.0) + (a * a + b * b) * (eb + ec)) / (1.0 - ea)
    return ratio + 2 * a * b / math.tan(a * (t1 - t2))


def _brentq(f, xa, xb, xtol):
    """Root of `f` in [xa, xb] by Brent's method (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 4).

    A line-for-line port of scipy's ``brentq.c`` at rtol = 4 eps and 100 iterations:
    the same iterates in the same order, so the same root to the bit and the same
    function calls.  Ends of equal sign raise `NoRootError`; a NaN value of `f`, or no
    convergence in 100 iterations, raises `ConvergenceError`.
    """
    rtol = 4 * np.finfo(float).eps

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ConvergenceError(f"Brent's method: the function is NaN at x={x!r}")
        return fx

    xpre, xcur, xtol = float(xa), float(xb), float(xtol)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoRootError(f"Brent's method: f has the same sign at {xpre!r} and {xcur!r}")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2   # the tolerance is 2 delta
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:   # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:              # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf    # C divides to inf or nan here, and either fails the test below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry   # good short step
            else:
                spre = scur = sbis        # bisect
        else:
            spre = scur = sbis            # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise ConvergenceError(f"Brent's method did not converge in 100 iterations; last x={xcur!r}")


def subsystem_ground_energy(K: float, params: TwoWellParams, which: int) -> float:
    """Ground energy of well `which` at coupling K: Brent's method on a proven bracket.

    The folded well's ground energy lies below K (the constant test function) and
    below the well's Dirichlet energy lam_D (a Dirichlet test function on the
    well), and Neumann bracketing at the well's edges puts the second eigenvalue at
    or above min(K, lam_D) (Reed & Simon IV, sec. XIII.15).  lam_D is the
    condition's first pole: alpha t0 = pi/2 for the long well, alpha L3 = pi for
    the split well.  So (0, min(K, lam_D)) holds the ground energy and no other root;
    the condition is negative at its bottom and positive at its top (+inf at the
    pole).  The top end stays POLE_WIDTH clear of the pole, outside `_check_pole`'s
    guard.
    """
    if not (K > 0 and math.isfinite(K)):
        raise ParameterError(f"K must be finite and positive, got {K}")
    if which not in (1, 2):
        raise ParameterError(f"which must be 1 or 2, got {which}")
    f, width = (characteristic_left, params.L1) if which == 1 else (characteristic_right, params.L3)
    hi = min(K * (1 - 1e-12), (np.pi / width) ** 2 * (1 - POLE_WIDTH))
    return _brentq(lambda lam: f(K, lam, params), 1e-12 * hi, hi, 1e-12)


@dataclass(frozen=True)
class CriticalPoint:
    K_c: float
    lambda_c: float


def critical_point(params: TwoWellParams) -> CriticalPoint:
    """Coupling in K_BOUNDS where the two wells' ground energies cross: one Brent solve in
    log K (its tolerance K_RTOL is relative in K).  lambda_c, their mean at the root, reuses
    the energies of that point, which Brent's method evaluated.  Ends of equal sign raise
    NoBifurcationError."""
    energies = {}   # log K -> [long-well, split-well] ground energy

    def gap(u):
        K = float(np.exp(u))   # the conditions run on Python floats
        energies[u] = [subsystem_ground_energy(K, params, which) for which in (1, 2)]
        return energies[u][0] - energies[u][1]

    a, b = K_BOUNDS
    try:
        u = _brentq(gap, np.log(a), np.log(b), K_RTOL)
    except NoRootError:
        if len(energies) != 2:   # a well's own solve failed, not the sign check at the ends
            raise
        ga, gb = (e1 - e2 for e1, e2 in energies.values())
        raise NoBifurcationError(
            f"ground energies do not cross on [{a:g}, {b:g}] (gap {ga:.3g} -> {gb:.3g})") from None
    e1, e2 = energies[u]
    return CriticalPoint(float(np.exp(u)), float(0.5 * (e1 + e2)))


# --- numerical sweep ----------------------------------------------------------------

def peak_height_ratio(mode: np.ndarray, coords: np.ndarray, params: TwoWellParams) -> float:
    """Left-peak height over the sum of both peak heights, peaks read off the wells."""
    (w1a, w1b), (w2a, w2b) = params.wells()
    u = np.abs(np.asarray(mode))
    in1 = (coords >= w1a) & (coords <= w1b)
    in2 = (coords >= w2a) & (coords <= w2b)
    m1 = u[in1].max()
    m2 = u[in2].max()
    if m1 == 0.0 and m2 == 0.0:
        raise ParameterError("mode vanishes on both wells")
    return float(m1 / (m1 + m2))


def _ratio_at(ring, K, params):
    op = ring._recoupled(K)
    pair = smallest_eigenpairs(op, k=1)[0]
    return peak_height_ratio(pair.mode, op.axes[0], params)


@dataclass(frozen=True)
class SweepResult:
    K_c: float
    K_grid: np.ndarray
    ratios: np.ndarray


def critical_coupling_sweep(params: TwoWellParams, nodes_per_unit: int = 3000) -> SweepResult:
    """Independent route to the crossover: solve the ring's ground pair per K of
    SWEEP_K_GRID and find where the peak-height ratio crosses 1/2, refining the
    bracketing pair and finishing with linear interpolation.  The ring is built once,
    at K = 0, and re-coupled at each K: the one coupling step of every operator, so each K
    solves the ring `toy_operator` builds there."""
    ring = toy_operator(params, 0.0, nodes_per_unit)
    K_grid = SWEEP_K_GRID
    ratios = np.array([_ratio_at(ring, K, params) for K in K_grid])
    cross = np.flatnonzero((ratios[:-1] < 0.5) & (ratios[1:] >= 0.5))
    if len(cross) == 0:
        raise LocscapeError("peak-height ratio does not cross 1/2 on the grid")
    i = cross[0]
    a, b = K_grid[i], K_grid[i + 1]
    fa, fb = ratios[i], ratios[i + 1]
    while b - a > SWEEP_RTOL * a:
        mid = np.sqrt(a * b)
        fm = _ratio_at(ring, mid, params)
        if fm < 0.5:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    Kc = a + (0.5 - fa) * (b - a) / (fb - fa)
    return SweepResult(float(Kc), K_grid, ratios)


# --- shape ratios and scaling ---------------------------------------------------------

@dataclass(frozen=True)
class ShapeRatios:
    """(wells)/(domain), (long well)/(wells), (barrier)/(split well) fractions."""

    P1: float
    P2: float
    P3: float

    def __post_init__(self):
        for name in ("P1", "P2", "P3"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ParameterError(f"{name} must lie in (0,1), got {v}")


BASE_RATIOS = ShapeRatios(0.25, 0.4, 0.1)


def ratios_to_lengths(r: ShapeRatios) -> TwoWellParams:
    """Invert the three ratios; unique since the lengths tile the unit circle."""
    W = r.P1
    L1 = r.P2 * W
    rest = W - L1
    L4 = r.P3 * rest
    L3 = (rest - L4) / 2
    L2 = (1.0 - W) / 2
    return TwoWellParams(L1, L2, L3, L4)


AXIS_WINDOWS = {
    "P1": ("log10", (-0.7, -0.5)),
    "P2": ("linear", (0.38, 0.42)),
    "P3": ("log10", (-1.1, -0.9)),
}


@dataclass(frozen=True)
class ScalingFit:
    axis: str
    model: str                 # "power": log-log slope; "exponential": d ln Kc / dP
    slope: float
    intercept: float
    r2: float
    samples: tuple             # (P, K_c) pairs actually fitted
    skipped: tuple             # P values whose geometry violated a constraint


def scaling_study(axis: str, n_points: int = 30, seed: int = 0,
                  base: ShapeRatios = BASE_RATIOS) -> ScalingFit:
    """Fit how the crossover coupling scales along one shape-ratio axis.

    Points are drawn uniformly over the axis window (log10 scale for P1 and
    P3), the other two ratios held at the base values; each point runs the
    transcendental crossover solve.
    """
    if axis not in AXIS_WINDOWS:
        raise ParameterError(f"axis must be one of {tuple(AXIS_WINDOWS)}, got {axis!r}")
    if n_points < 2:
        raise ParameterError(f"n_points must be >= 2 for a fit, got {n_points}")
    scale, (lo, hi) = AXIS_WINDOWS[axis]
    rng = stream(seed)
    draws = rng.uniform(lo, hi, n_points)
    ps = 10.0 ** draws if scale == "log10" else draws
    samples, skipped = [], []
    for P in np.sort(ps):
        vals = {"P1": base.P1, "P2": base.P2, "P3": base.P3, axis: float(P)}
        try:
            params = ratios_to_lengths(ShapeRatios(vals["P1"], vals["P2"], vals["P3"]))
            cp = critical_point(params)
        except (ConstraintError, NoBifurcationError):
            skipped.append(float(P))
            continue
        samples.append((float(P), cp.K_c))
    if len(samples) < 2:
        raise LocscapeError(
            f"only {len(samples)} of {n_points} {axis} points have a crossover; a fit needs 2")
    P_arr = np.array([s[0] for s in samples])
    K_arr = np.array([s[1] for s in samples])
    if axis == "P2":
        x, y, model = P_arr, np.log(K_arr), "exponential"
    else:
        x, y, model = np.log10(P_arr), np.log10(K_arr), "power"
    # scipy's linregress formulas; the clip keeps round-off from pushing r2 past 1
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=True).flat
    slope = ssxym / ssxm
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    return ScalingFit(axis, model, float(slope), float(np.mean(y) - slope * np.mean(x)),
                      float(r ** 2), tuple(samples), tuple(skipped))
