"""Localization landscape, valley partitions, and the landscape bound on modes.

The landscape w solves (-Lap + K V) w = 1 under the problem's boundary
condition.  Its local maxima mark candidate localization sites; splitting the
domain along the valleys of w yields the subregions that confine low-energy
modes.  For sup-normalized eigenpairs the bound |u| <= |lambda| w holds, and it
holds exactly for the discrete pencil used here because the assembled matrix is
an M-matrix (inverse-positive), so the check below should return at most
solver-tolerance violations.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import LocscapeError, ParameterError
from .operator import BoundaryCondition, DiscreteOperator, assemble
from .potential import PotentialField, _runs
from .regions import SubregionPartition
from .solver import SOLVE_TOL, EigenPair, solve_linear


@dataclass(frozen=True)
class Landscape:
    """Landscape values on the active nodes of the operator they solve."""

    w: np.ndarray
    op: DiscreteOperator

    def __post_init__(self):
        w = np.asarray(self.w, float)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)


def landscape_from_operator(op: DiscreteOperator) -> Landscape:
    w = solve_linear(op, 1.0)
    if w.min() < -SOLVE_TOL:
        raise LocscapeError(f"landscape came out negative ({w.min():.3e}); operator not inverse-positive?")
    return Landscape(w, op)


def landscape_bound_violation(pair: EigenPair, ls: Landscape) -> float:
    """Signed maximum of |u| - |lambda| w over nodes; <= ~0 when the bound holds."""
    if pair.mode.shape != ls.w.shape:
        raise ParameterError("eigenpair and landscape live on different node sets")
    return float(np.max(np.abs(pair.mode) - abs(pair.eigenvalue) * ls.w))


# --- valley partitions ----------------------------------------------------------

def local_maxima_1d(w: np.ndarray) -> list[int]:
    """Indices of local maxima (one representative per plateau, its midpoint)."""
    w = np.asarray(w)
    first, last = _runs(w)
    v = w[first]
    left_lower = np.ones(len(v), dtype=bool)    # a missing neighbour counts as lower
    left_lower[1:] = v[:-1] < v[1:]
    right_lower = np.ones(len(v), dtype=bool)
    right_lower[:-1] = v[1:] < v[:-1]
    return ((first + last) // 2)[left_lower & right_lower].tolist()


def valley_partition(ls: Landscape) -> SubregionPartition:
    """Split the domain along the valleys of the landscape.

    1D: regions are the intervals between interior local minima of w; the
    minimum node itself joins the side whose neighbor value is higher, and an
    equal-value minimum plateau is split at its midpoint node.

    2D: watershed by flooding.  Each local-maximum plateau of w seeds a region;
    nodes enter a max-heap keyed by (w, lowest node index) and are claimed by
    the first region to reach them, so ridge nodes join the adjacent region of
    higher w and plateau ties resolve by node index.  Identical landscapes give
    identical labels.
    """
    w = ls.w
    if ls.op.dim == 1:
        x = ls.op.axes[0]
        first, last = _runs(w)
        v = w[first]
        k = np.flatnonzero((v[:-2] > v[1:-1]) & (v[1:-1] < v[2:])) + 1   # interior minima
        # the split node joins the side of the higher neighbour; a tie joins the lower index
        split = (first[k] + last[k]) // 2 + (v[k - 1] >= v[k + 1])
        labels = np.zeros(len(w), dtype=int)
        labels[split] = 1
        return SubregionPartition(np.cumsum(labels), x[1] - x[0])
    shape = ls.op.shape_active
    spacing = np.prod([ax[1] - ax[0] for ax in ls.op.axes])
    return SubregionPartition(_watershed(w.reshape(shape)).reshape(shape), spacing)


def _neighbors(i, nx, ny):
    ix, iy = divmod(i, ny)
    if ix > 0:
        yield i - ny
    if ix < nx - 1:
        yield i + ny
    if iy > 0:
        yield i - 1
    if iy < ny - 1:
        yield i + 1


def _watershed(w2: np.ndarray) -> np.ndarray:
    nx, ny = w2.shape
    w = w2.ravel()
    n = w.size
    labels = np.full(n, -1, dtype=int)

    # seed regions: connected plateaus of equal value with no higher neighbor
    visited = np.zeros(n, dtype=bool)
    heap = []
    rid = 0
    for start in range(n):
        if visited[start]:
            continue
        plateau = [start]
        visited[start] = True
        has_higher = False
        qi = 0
        while qi < len(plateau):
            node = plateau[qi]
            qi += 1
            for nb in _neighbors(node, nx, ny):
                if w[nb] == w[node] and not visited[nb]:
                    visited[nb] = True
                    plateau.append(nb)
                elif w[nb] > w[node]:
                    has_higher = True
        if not has_higher:
            for node in plateau:
                labels[node] = rid
            for node in plateau:
                for nb in _neighbors(node, nx, ny):
                    if labels[nb] == -1:
                        heapq.heappush(heap, (-w[nb], nb, rid))
            rid += 1

    while heap:
        _, node, lab = heapq.heappop(heap)
        if labels[node] != -1:
            continue
        labels[node] = lab
        for nb in _neighbors(node, nx, ny):
            if labels[nb] == -1:
                heapq.heappush(heap, (-w[nb], nb, lab))
    return labels


def disorder_sweep(fieldv: PotentialField, bc: BoundaryCondition, K_list,
                   probe_x) -> np.ndarray:
    """Landscape values at probe points for each disorder strength in K_list.

    Returns an array of shape (len(K_list), len(probe_x)).  Probes are read at
    the nearest lattice node (see `_probe_values`).
    """
    probe_x = np.atleast_2d(np.asarray(probe_x, float).T).T  # (np, dim)
    out = np.empty((len(K_list), probe_x.shape[0]))
    for row, K in enumerate(K_list):
        ls = landscape_from_operator(assemble(fieldv.grid, fieldv, K, bc))
        out[row] = _probe_values(ls, probe_x)
    return out


def _probe_values(ls: Landscape, pts: np.ndarray) -> np.ndarray:
    """w at the lattice node nearest each probe (one row of ``pts`` per probe) of a landscape
    on the unit lattice: a Dirichlet wall's eliminated node, at 0 or 1, reads w = 0."""
    op = ls.op
    lattice = [np.r_[[0.0] * lo, ax, [1.0] * hi] for ax, (lo, hi) in zip(op.axes, op.trimmed)]
    per_axis = tuple(np.argmin(np.abs(ax[None, :] - pts[:, d][:, None]), axis=1)
                     for d, ax in enumerate(lattice))
    return op.embed(ls.w)[per_axis]


def save_grid(values: np.ndarray, path) -> None:
    """One value per line, row-major; the plain-text exchange format for plots."""
    with open(path, "w") as fh:
        for v in np.asarray(values).ravel():
            fh.write(f"{v.item()!r}\n")
