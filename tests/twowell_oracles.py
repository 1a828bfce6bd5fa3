"""Independent evaluations of the two-well model that only the tests use."""

import numpy as np

from locscape.bifurcation import ShapeRatios, TwoWellParams, _check_lambda, _pieces_to_cells
from locscape.operator import BoundaryCondition, DiscreteOperator, assemble_line, assemble_ring


def split_well(params: TwoWellParams) -> tuple:
    """The full split well [x3, x6], both arms and the barrier."""
    x1, x2, x3, x4, x5, x6 = params.breakpoints
    return (x3, x6)


def subsystem_half_pieces(params: TwoWellParams, which: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-period potential of the isolated well, folded about its center.

    which=1: the long well occupies [0, t0) with walls beyond; which=2: half the
    barrier [0, t1), the split-well arm [t1, t2), walls up to 1/2.
    """
    t0, t1, t2, t3 = params.half_widths
    if which == 1:
        return np.array([0.0, t0, t3]), np.array([0.0, 1.0])
    return np.array([0.0, t1, t2, t3]), np.array([1.0, 0.0, 1.0])


def subsystem_operator(params: TwoWellParams, K: float, which: int,
                       nodes_per_unit: int = 4000) -> DiscreteOperator:
    """FD oracle for the matching conditions: the folded half-interval, both ends reflective."""
    bps, values = subsystem_half_pieces(params, which)
    widths, cells = _pieces_to_cells(bps, values, nodes_per_unit)
    return assemble_line(widths, cells, K, BoundaryCondition.neumann())


def mirrored_ring_operator(params: TwoWellParams, K: float, which: int,
                           nodes_per_unit: int = 4000) -> DiscreteOperator:
    """Full-period operator with the isolated well centered; its even modes are
    exactly the folded half-interval's (the grid mirrors node-for-node)."""
    bps, values = subsystem_half_pieces(params, which)
    widths, cells = _pieces_to_cells(bps, values, nodes_per_unit)
    ring_w = np.concatenate([widths, widths[::-1]])
    ring_v = np.concatenate([cells, cells[::-1]])
    return assemble_ring(ring_w, ring_v, K)


def characteristic_right_raw(K: float, lam: float, params: TwoWellParams) -> float:
    """Direct exponential form; kept as the dual evaluation for the stable one."""
    _check_lambda(K, lam)
    a = np.sqrt(lam)
    b = np.sqrt(K - lam)
    t0, t1, t2, t3 = params.half_widths
    denom = np.exp(2 * b * (t1 + t3)) - np.exp(2 * b * t2)
    return float((a * a - b * b) * (np.exp(2 * b * t2) + np.exp(2 * b * (t1 + t3))) / denom
                 + (a * a + b * b) * (np.exp(2 * b * t3) + np.exp(2 * b * (t1 + t2))) / denom
                 + 2 * a * b / np.tan(a * (t1 - t2)))


def scaled_residual(f, K, lam, params, rel_step=1e-6) -> float:
    """|f| normalized by lambda * |df/dlambda|: dimensionless closeness to a root."""
    d = rel_step * lam
    deriv = (f(K, lam + d, params) - f(K, lam - d, params)) / (2 * d)
    return abs(f(K, lam, params)) / max(abs(deriv) * lam, 1e-300)


def lengths_to_ratios(p: TwoWellParams) -> ShapeRatios:
    W = p.L1 + 2 * p.L3 + p.L4
    return ShapeRatios(W, p.L1 / W, p.L4 / (2 * p.L3 + p.L4))
