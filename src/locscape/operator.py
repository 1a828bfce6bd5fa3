"""Sparse discretization of the Hamiltonian -Laplacian + K*V on the lattice.

The discretization is the lumped piecewise-linear finite-element scheme: a
symmetric stiffness matrix plus a diagonal lumped mass.  Operators are kept as
the pencil (A, M) with

    A = stiffness + boundary terms + K * diag(v_node * m),   M = diag(m),

so eigenproblems are ``A u = lambda M u`` and source problems ``A w = M f``.
This form is symmetric, second-order accurate, annihilates constants under
pure Neumann conditions, and is an M-matrix whenever K*V >= 0, which makes the
discrete landscape bound exact (see `landscape.landscape_bound_violation`).

Node values of the (cell-wise constant) potential are the width-weighted
average of the adjacent cell values.  One 1D builder produces every axis: on
the lattice's equal cells this is the plain average (1 cell strictly inside, 2
across a face, 4 at an interior corner in 2D, where the Kronecker sum of two
axes gives the 2D pencil), and the same builder serves lines and rings with
arbitrary cell widths.  A 1D operator keeps A as its diagonal, off-diagonal and ring
corner and applies it by a matvec that sums each row in CSR's order; only 2D is CSR.

The builder knows only the geometry (stiffness with its wall terms, lumped mass,
Dirichlet trim and node weights), so every pencil is built at K = 0 and then coupled
by `DiscreteOperator._recoupled`: the one place K*v*m joins A and the one check of K.
A lattice pencil is built once per (grid, boundary condition), in 1D and, as the
Kronecker sum, in 2D, and each field re-couples it with its own node potential;
lines and rings build theirs on each call.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError
from .potential import GridSpec, PotentialField

_END_KINDS = ("dirichlet", "neumann", "robin")


def _check_wall(kind, h, kinds):
    if kind not in kinds:
        raise ParameterError(f"unknown boundary kind {kind!r}, expected one of {kinds}")
    if kind == "robin" and not 0 <= h < np.inf:
        raise ParameterError(f"robin h must be >= 0 and finite, got {h}")
    if kind != "robin" and h != 0:
        raise ParameterError(f"h={h} needs robin walls, not {kind}")


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary condition g du/dn + h u = 0: one kind applied on every side.

    ``h`` is nonzero on Robin walls only.  ``mixed`` (1D only) carries one
    (kind, h) spec per end, so the two ends of a line may differ: a Dirichlet end beside
    a Neumann or Robin one, say.
    """

    kind: str
    h: float = 0.0
    ends: tuple | None = None  # mixed 1D: ((kind, h), (kind, h))

    def __post_init__(self):
        _check_wall(self.kind, self.h, (*_END_KINDS, "periodic", "mixed"))
        if self.kind == "mixed":
            if self.ends is None or len(self.ends) != 2:
                raise ParameterError("mixed needs one (kind, h) spec per end")
            for kind, h in self.ends:
                _check_wall(kind, h, _END_KINDS)
        elif self.ends is not None:
            raise ParameterError(f"per-end specs need kind 'mixed', not {self.kind!r}")

    @staticmethod
    def dirichlet() -> "BoundaryCondition":
        return BoundaryCondition("dirichlet")

    @staticmethod
    def neumann() -> "BoundaryCondition":
        return BoundaryCondition("neumann")

    @staticmethod
    def robin(h: float) -> "BoundaryCondition":
        return BoundaryCondition("robin", h=h)

    @staticmethod
    def periodic() -> "BoundaryCondition":
        return BoundaryCondition("periodic")

    @staticmethod
    def mixed(left: str, right: str, h_left: float = 0.0, h_right: float = 0.0) -> "BoundaryCondition":
        return BoundaryCondition("mixed", ends=((left, h_left), (right, h_right)))

    def end_specs(self) -> tuple:
        """(kind, h) for the low and high end of an axis."""
        if self.kind == "mixed":
            return self.ends
        if self.kind == "periodic":
            raise ParameterError("periodic condition has no per-end form")
        return ((self.kind, self.h), (self.kind, self.h))


@dataclass(frozen=True)
class DiscreteOperator:
    """Assembled pencil (A, M) with grid metadata.

    ``axes`` holds the active node coordinates per axis; Dirichlet ends are
    eliminated, so active nodes may be a strict subset of the lattice nodes.  A 1D
    operator holds A as arrays (d, e, c): diagonal, off-diagonal and the corner joining
    nodes 0 and n-1 of a ring (0 on a line, and on a ring of 1 or 2 nodes, whose corner
    sums into d or e as in CSR).  A 2D operator holds A as a CSR matrix.
    """

    A: tuple | sp.csr_matrix
    mass: np.ndarray
    bc: BoundaryCondition
    coupling: float
    axes: tuple
    trimmed: tuple          # per axis: (low_end_eliminated, high_end_eliminated)
    vnode: np.ndarray       # potential value at active nodes (flattened)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape_active(self) -> tuple:
        return tuple(len(ax) for ax in self.axes)

    @property
    def size(self) -> int:
        return len(self.mass)

    @property
    def matrix(self) -> sp.csr_matrix:
        """A as CSR; built on demand in 1D, where no solver path reads it."""
        if self.dim != 1:
            return self.A
        d, e, c = self.A
        n = len(d)
        A = sp.diags([e, d, e], [-1, 0, 1], (n, n), "csr") if n else sp.csr_matrix((0, 0))
        if c:                               # a ring's corner entries, in rows 0 and n-1
            A = A + sp.csr_matrix(([c, c], ([0, n - 1], [n - 1, 0])), shape=(n, n))
        return A

    def _matvec(self, u: np.ndarray) -> np.ndarray:
        """A u, u of shape (n,) or (n, k); as in CSR, each row sums from 0 in column order."""
        if self.dim != 1:
            return self.A @ u
        d, e, c = self.A
        if u.ndim == 2:
            d, e = d[:, None], e[:, None]
        y = np.zeros(u.shape)
        if c:
            y[-1] += c * u[0]
        y[1:] += e * u[:-1]
        y += d * u
        y[:-1] += e * u[1:]
        if c:
            y[0] += c * u[-1]
        return y

    def _abs_row_sums(self) -> np.ndarray:
        """Row sums of |A| as CSR forms them: a row's first entry plus the sum of the rest."""
        if self.dim != 1:
            return np.asarray(abs(self.A).sum(axis=1)).ravel()
        d, e, c = self.A
        s, e = np.abs(d), np.abs(e)
        s[:-1] += e
        s[1:] += e                          # |e_{i-1}| + (|d_i| + |e_i|)
        if c:
            c = abs(c)
            s[0], s[-1] = abs(d[0]) + (e[0] + c), s[-1] + c
        return s

    def _recoupled(self, K: float, vnode: np.ndarray | None = None) -> "DiscreteOperator":
        """This pencil, assembled at K = 0, at coupling K on the node potential ``vnode`` (its
        own by default): the one place the potential term K*v*m joins A, on the diagonal
        array in 1D and as a CSR diagonal in 2D, and the one check of K."""
        if self.coupling != 0.0:
            raise ParameterError("only a pencil assembled at K = 0 can be re-coupled")
        if not 0.0 <= K < np.inf:
            raise ParameterError(f"disorder strength K must be >= 0 and finite, got {K}")
        v = self.vnode if vnode is None else vnode
        if self.dim != 1:
            A = (self.A + sp.diags(K * v * self.mass)).tocsr()
        else:
            d, e, c = self.A
            A = (d + K * v * self.mass if K else d, e, c)
        return DiscreteOperator(A, self.mass, self.bc, float(K), self.axes, self.trimmed, v)

    def embed(self, u: np.ndarray) -> np.ndarray:
        """Pad a vector on active nodes with zeros at eliminated Dirichlet nodes, giving the
        full lattice-node array, shape (nx,) or (nx, ny)."""
        arr = np.asarray(u).reshape(self.shape_active)
        pad = [(int(lo), int(hi)) for lo, hi in self.trimmed]
        return np.pad(arr, pad) if any(map(any, pad)) else arr


def _pad(x, ring):
    """Cell widths or values, one row per cell, padded so that node i lies between rows i
    and i + 1: a ring's last cell comes before node 0, a line gains a zero row beyond each
    end (a zero-width cell, which adds no stiffness, mass or potential)."""
    if ring:
        return np.concatenate((x[-1:], x))
    pad = np.zeros((1,) + x.shape[1:])
    return np.concatenate((pad, x, pad))


def _node_weights(wp):
    """The weights of the cells before and after each node in its potential: each cell's
    share of the node's span, on padded widths ``wp`` (see `_pad`).  They are 1/2 on equal
    cells and 0, 1 at an end, so the lattice's node potential is the plain average, exactly."""
    span = wp[:-1] + wp[1:]
    return wp[:-1] / span, wp[1:] / span


def _node_potential(weights, trim, values, ring):
    """The potential at the active nodes of an axis: the width-weighted average
    (`_node_weights`) of the cell values on either side of each node, then the (low, high)
    Dirichlet trim.  ``values`` holds one row per cell; extra trailing axes are averaged
    alongside."""
    vp = _pad(np.asarray(values, float), ring)
    col = (-1,) + (1,) * (vp.ndim - 1)
    before, after = weights
    v = before.reshape(col) * vp[:-1] + after.reshape(col) * vp[1:]
    return v[int(trim[0]):len(v) - int(trim[1])]


def _axis_1d(widths, ends):
    """One axis of the lumped-FE pencil at K = 0 on cells of the given widths.

    ``ends`` is the (kind, h) pair of the low and high end, or None for a ring whose last
    cell closes onto node 0.  Returns the stiffness with its wall terms as its pieces
    (d, e, c) (see `DiscreteOperator`) and the lumped mass m, both restricted to the
    active nodes, the (low, high) Dirichlet trim, and the node weights of
    `_node_potential`.
    """
    ring = ends is None
    wp = _pad(np.asarray(widths, float), ring)
    n = len(wp) - 1                         # node i joins cells wp[i] and wp[i + 1]
    inv = 1.0 / np.where(wp > 0, wp, np.inf)   # the zero-width cells add no stiffness
    m = 0.5 * (wp[:-1] + wp[1:])
    d = inv[:-1] + inv[1:]
    trim = [False, False]
    for side, (kind, h) in enumerate(ends or ()):
        if kind == "robin":
            d[-side] += h                   # d[0] or d[-1]
        elif kind == "dirichlet":
            trim[side] = True
    weights = _node_weights(wp)
    if ring:
        e, c = -inv[1:-1], -inv[-1]         # the last cell joins node n-1 to node 0
        if n == 2:                          # the corner lies on the off-diagonal
            e, c = e + c, 0.0
        elif n == 1:                        # and on the diagonal
            d, c = d + c + c, 0.0
        return (d, e, c), m, (False, False), weights
    sl = slice(int(trim[0]), n - int(trim[1]))
    return (d[sl], -inv[sl][1:], 0.0), m[sl], tuple(trim), weights


def assemble(grid: GridSpec, fieldv: PotentialField, K: float,
             bc: BoundaryCondition) -> DiscreteOperator:
    """Assemble -Laplacian + K*V on the lattice under the given boundary condition."""
    if fieldv.grid != grid:
        raise ParameterError("field was sampled on a different grid")
    base, weights = _lattice_pencil(grid, bc)
    r, ring, trim = grid.nodes_per_cell, bc.kind == "periodic", base.trimmed[0]
    v = _node_potential(weights, trim, np.repeat(fieldv.cell_values, r, axis=0), ring)
    if grid.dim == 2:       # v is (active x, cells y): average along y too, then index it [x, y]
        v = _node_potential(weights, trim, np.repeat(v.T, r, axis=0), ring).T
    return base._recoupled(K, v.ravel())


@lru_cache(maxsize=16)
def _lattice_pencil(grid: GridSpec, bc: BoundaryCondition):
    """The lattice pencil of (grid, bc) at K = 0 on a zero field and the node weights of its
    axis: `assemble` re-couples it with each field's node potential.  One `_axis_1d` build
    gives the 1D pencil, and the Kronecker sum of two such axes the 2D one.  Its arrays are
    read-only, since every operator of the lattice shares them."""
    periodic = bc.kind == "periodic"
    if periodic and grid.dim != 1:
        raise ParameterError("periodic conditions are implemented in 1D only")
    if bc.kind == "mixed" and grid.dim != 1:
        raise ParameterError("mixed per-end conditions are 1D only")
    n = grid.nodes_per_axis
    A, m, trim, weights = _axis_1d(np.full(n - 1, grid.spacing),
                                   None if periodic else bc.end_specs())
    coords = np.linspace(0.0, 1.0, n)
    coords = coords[:-1] if periodic else coords[int(trim[0]):n - int(trim[1])]
    if grid.dim == 2:
        d, e, _ = A
        S, M = sp.diags([e, d, e], [-1, 0, 1]), sp.diags(m)
        A, m = sp.kron(S, M) + sp.kron(M, S), np.multiply.outer(m, m).ravel()
    base = DiscreteOperator(A, m, bc, 0.0, (coords,) * grid.dim, (trim,) * grid.dim,
                            np.zeros(len(m)))
    for x in (*(A[:2] if grid.dim == 1 else (A.data, A.indices, A.indptr)), m, base.vnode,
              coords, *weights):
        x.flags.writeable = False
    return base, weights


# --- 1D operators on arbitrary cell widths ---------------------------------------
# Used by the two-well model, whose breakpoints do not sit on a uniform lattice.

def assemble_ring(widths, values, K: float) -> DiscreteOperator:
    """Periodic 1D operator from cell widths and cell values (sum of widths = circumference)."""
    A, m, trim, weights = _axis_1d(widths, None)
    coords = np.concatenate(([0.0], np.cumsum(widths)))[:-1]
    return DiscreteOperator(A, m, BoundaryCondition.periodic(), 0.0, (coords,), (trim,),
                            _node_potential(weights, trim, values, True))._recoupled(K)


def assemble_line(widths, values, K: float, bc: BoundaryCondition) -> DiscreteOperator:
    """1D operator on [0, sum(widths)] from cell widths/values, any non-periodic bc.

    A line must keep at least one active node: one cell between two Dirichlet walls has
    none and is rejected.
    """
    A, m, (lo, hi), weights = _axis_1d(widths, bc.end_specs())
    if not len(m):
        raise ParameterError(f"a line of {len(widths)} cell with Dirichlet walls at both ends "
                             "has no active node")
    coords = np.concatenate(([0.0], np.cumsum(widths)))
    coords = coords[int(lo):len(coords) - int(hi)]
    return DiscreteOperator(A, m, bc, 0.0, (coords,), ((lo, hi),),
                            _node_potential(weights, (lo, hi), values, False))._recoupled(K)
