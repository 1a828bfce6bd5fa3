import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import locscape.operator as operator_mod
from locscape import (BoundaryCondition, DistributionSpec, GridSpec, ParameterError,
                      PotentialField, assemble, assemble_line, assemble_ring, grid_1d, grid_2d,
                      sample_potential, smallest_eigenpairs)
from conftest import CELLS, cells, dense_eigenpairs
from operator_oracles import axis_1d_by_diags, kron_sum_2d


def _zero_field(grid):
    return sample_potential(grid, DistributionSpec.bernoulli(0.0), 0)


def _one_field(grid):
    return sample_potential(grid, DistributionSpec.bernoulli(1.0), 0)


@pytest.mark.parametrize("make", [
    lambda: assemble(grid_1d(10), sample_potential(grid_1d(10), DistributionSpec.bernoulli(0.5), 1),
                     100.0, BoundaryCondition.robin(0.3)),
    lambda: assemble(grid_1d(10), _zero_field(grid_1d(10)), 0.0, BoundaryCondition.dirichlet()),
    lambda: assemble(grid_2d(6), sample_potential(grid_2d(6), DistributionSpec.uniform(0, 1), 2),
                     50.0, BoundaryCondition.neumann()),
    lambda: assemble(grid_1d(8, 4), _one_field(grid_1d(8, 4)), 7.0, BoundaryCondition.periodic()),
])
def test_matrix_exactly_symmetric(make):
    op = make()
    asym = (op.matrix - op.matrix.T).toarray()
    assert np.max(np.abs(asym)) == 0.0


def test_neumann_constant_in_kernel():
    for grid in (grid_1d(12), grid_2d(5)):
        op = assemble(grid, _zero_field(grid), 0.0, BoundaryCondition.neumann())
        r = op.matrix @ np.ones(op.size)
        assert np.max(np.abs(r)) < 1e-12


def test_dirichlet_interval_spectrum():
    grid = grid_1d(30)   # 241 nodes
    op = assemble(grid, _zero_field(grid), 0.0, BoundaryCondition.dirichlet())
    pairs = smallest_eigenpairs(op, 4)
    for j, pair in enumerate(pairs, start=1):
        exact = (j * np.pi) ** 2
        assert abs(pair.eigenvalue - exact) / exact < 0.01


def test_mixed_neumann_dirichlet_ground_energy():
    grid = grid_1d(30)
    bc = BoundaryCondition.mixed("neumann", "dirichlet")
    op = assemble(grid, _zero_field(grid), 0.0, bc)
    lam = smallest_eigenpairs(op, 1)[0].eigenvalue
    exact = (np.pi / 2) ** 2
    assert abs(lam - exact) / exact < 0.01


def test_second_order_convergence_of_eigenvalues():
    errors = []
    for r in (4, 8, 16):
        grid = grid_1d(10, r)
        op = assemble(grid, _zero_field(grid), 0.0, BoundaryCondition.dirichlet())
        lam = smallest_eigenpairs(op, 1)[0].eigenvalue
        errors.append(abs(lam - np.pi ** 2))
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert 3.5 < errors[1] / errors[2] < 4.5


def test_robin_approaches_dirichlet_from_below():
    grid = grid_1d(20)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 31)
    lam_d = smallest_eigenpairs(assemble(grid, fieldv, 500.0, BoundaryCondition.dirichlet()), 1)[0].eigenvalue
    lams = [smallest_eigenpairs(assemble(grid, fieldv, 500.0, BoundaryCondition.robin(h)), 1)[0].eigenvalue
            for h in (1e2, 1e4)]
    assert lams[0] < lams[1] < lam_d
    assert lam_d - lams[1] < lam_d - lams[0]
    assert (lam_d - lams[1]) / lam_d < 1e-2


def test_interface_nodes_average_adjacent_cells():
    grid = GridSpec(1, 3, 2)
    fieldv = sample_potential(grid, DistributionSpec.uniform(0, 1), 5)
    op = assemble(grid, fieldv, 1.0, BoundaryCondition.neumann())
    v = fieldv.cell_values
    assert op.vnode[0] == v[0]
    assert op.vnode[2] == pytest.approx(0.5 * (v[0] + v[1]))
    assert op.vnode[1] == v[0]
    # 2D interior corner node averages the four surrounding cells
    g2 = GridSpec(2, 2, 2)
    f2 = sample_potential(g2, DistributionSpec.uniform(0, 1), 6)
    op2 = assemble(g2, f2, 1.0, BoundaryCondition.neumann())
    vn = op2.vnode.reshape(5, 5)
    assert vn[2, 2] == pytest.approx(f2.cell_values.mean())


def test_periodic_2d_rejected_and_bad_K():
    grid = grid_2d(4)
    fieldv = _one_field(grid)
    with pytest.raises(ParameterError, match="periodic conditions are implemented in 1D only"):
        assemble(grid, fieldv, 1.0, BoundaryCondition.periodic())
    with pytest.raises(ParameterError):
        assemble(grid, fieldv, -1.0, BoundaryCondition.neumann())


@pytest.mark.parametrize("make", [
    lambda: BoundaryCondition("mixed"),
    lambda: BoundaryCondition("neumann", h=0.3),
    lambda: BoundaryCondition("dirichlet", h=1.0),
    lambda: BoundaryCondition("robin", h=-0.1),
    lambda: BoundaryCondition("frob"),
    lambda: BoundaryCondition.mixed("periodic", "neumann"),
    lambda: BoundaryCondition.mixed("neumann", "dirichlet", h_right=2.0),
    lambda: BoundaryCondition("neumann", ends=(("neumann", 0.0), ("neumann", 0.0))),
    lambda: BoundaryCondition.robin(np.inf),
    lambda: BoundaryCondition.mixed("robin", "neumann", h_left=np.nan),
], ids=["mixed-without-ends", "h-on-neumann", "h-on-dirichlet", "negative-robin-h",
        "unknown-kind", "periodic-end", "h-on-dirichlet-end", "ends-without-mixed",
        "infinite-robin-h", "nan-robin-end-h"])
def test_inconsistent_boundary_condition_rejected(make):
    with pytest.raises(ParameterError):
        make()


def test_dirichlet_rows_diagonally_dominant():
    grid = grid_1d(15)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 2)
    op = assemble(grid, fieldv, 300.0, BoundaryCondition.dirichlet())
    A = op.matrix.toarray()
    off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
    assert np.all(np.diag(A) >= off - 1e-12)
    assert np.any(np.diag(A) > off + 1e-12)


def test_embed_pads_dirichlet_zeros():
    grid = grid_1d(5, 2)
    op = assemble(grid, _zero_field(grid), 0.0, BoundaryCondition.dirichlet())
    u = np.ones(op.size)
    full = op.embed(u)
    assert full.shape == (11,)
    assert full[0] == 0.0 and full[-1] == 0.0 and full[1:-1].min() == 1.0


@pytest.mark.parametrize("bc", [
    BoundaryCondition.dirichlet(), BoundaryCondition.neumann(), BoundaryCondition.robin(0.7),
    BoundaryCondition.periodic(), BoundaryCondition.mixed("dirichlet", "robin", h_right=2.0),
], ids=lambda bc: bc.kind)
def test_line_and_ring_match_uniform_assembly(bc):
    # the generic nonuniform builders reduce to the lattice assembly on equal cells
    grid = grid_1d(8, 4)
    fieldv = sample_potential(grid, DistributionSpec.bernoulli(0.5), 12)
    op_u = assemble(grid, fieldv, 123.0, bc)
    widths = np.full(32, 1 / 32)
    values = np.repeat(fieldv.cell_values, 4)
    op_g = (assemble_ring(widths, values, 123.0) if bc.kind == "periodic"
            else assemble_line(widths, values, 123.0, bc))
    assert op_u.trimmed == op_g.trimmed
    assert np.max(np.abs((op_u.matrix - op_g.matrix).toarray())) < 1e-9


# --- properties of the 1D builder behind every operator ----------------------------

_END = st.one_of(st.just(("dirichlet", 0.0)), st.just(("neumann", 0.0)),
                 st.tuples(st.just("robin"), st.floats(0.0, 100.0)))


def _build(cells, K, ends):
    """A ring when ends is None, else a line with one (kind, h) per end."""
    widths, values = (np.array(c) for c in cells)
    if ends is None:
        return assemble_ring(widths, values, K)
    (left, h_left), (right, h_right) = ends
    return assemble_line(widths, values, K, BoundaryCondition.mixed(left, right, h_left, h_right))


def _roundoff(A):
    """Bound on the round-off of summing each row of A."""
    return 4 * np.finfo(float).eps * np.abs(A).sum(axis=1)


@settings(max_examples=200, deadline=None)
@given(CELLS, st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
       st.one_of(st.none(), st.tuples(_END, _END)))
def test_builder_gives_symmetric_m_matrix_with_positive_mass(cells, K, ends):
    op = _build(cells, K, ends)
    A = op.matrix.toarray()
    assert np.array_equal(A, A.T)
    assert np.all(A[~np.eye(len(A), dtype=bool)] <= 0.0)
    assert np.all(A.sum(axis=1) >= -_roundoff(A))
    assert np.all(op.mass > 0)


@settings(max_examples=200, deadline=None)
@given(CELLS, st.sampled_from([None, (("neumann", 0.0), ("neumann", 0.0))]))
def test_builder_annihilates_constants_without_absorption(cells, ends):
    # K = 0 under reflective or periodic walls: constants span the kernel
    A = _build(cells, 0.0, ends).matrix.toarray()
    assert np.all(np.abs(A.sum(axis=1)) <= _roundoff(A))


# --- the direct CSR against the banded construction -------------------------------

def _assert_same_csr(A, B):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


_WALLS = [("dirichlet", 0.0), ("neumann", 0.0), ("robin", 0.7)]
_LATTICE_BCS = ([BoundaryCondition.dirichlet(), BoundaryCondition.neumann(),
                 BoundaryCondition.robin(0.7)]
                + [BoundaryCondition.mixed(lk, rk, lh, rh)
                   for lk, lh in _WALLS for rk, rh in _WALLS])


@pytest.mark.parametrize("bc", _LATTICE_BCS,
                         ids=lambda bc: "-".join(k for k, _ in bc.end_specs()))
@pytest.mark.parametrize("grid", [grid_1d(12, 5), GridSpec(1, 2, 2)], ids=["12x5", "2x2"])
def test_lattice_matrix_equals_banded_reference(grid, bc):
    fieldv = sample_potential(grid, DistributionSpec.uniform(0.0, 2.0), 8)
    op = assemble(grid, fieldv, 321.0, bc)
    S, m, v, trim = axis_1d_by_diags(np.full(grid.nodes_per_axis - 1, grid.spacing),
                                     np.repeat(fieldv.cell_values, grid.nodes_per_cell),
                                     bc.end_specs(), 321.0)
    _assert_same_csr(op.matrix, S)
    assert np.array_equal(op.mass, m) and np.array_equal(op.vnode, v)
    assert op.trimmed == (trim,)


@pytest.mark.parametrize("n_cells", [1, 2, 40])
@pytest.mark.parametrize("ends", [(("dirichlet", 0.0), ("dirichlet", 0.0)),
                                  (("robin", 3.0), ("dirichlet", 0.0)),
                                  (("neumann", 0.0), ("robin", 0.0))], ids=str)
def test_nonuniform_line_matrix_equals_banded_reference(n_cells, ends):
    rng = np.random.default_rng(n_cells)
    widths, values = rng.uniform(0.1, 2.0, n_cells), rng.uniform(0.0, 1.0, n_cells)
    (lk, lh), (rk, rh) = ends
    bc = BoundaryCondition.mixed(lk, rk, lh, rh)
    if n_cells == 1 and lk == rk == "dirichlet":   # no active node: rejected, not solved
        with pytest.raises(ParameterError, match="no active node"):
            assemble_line(widths, values, 77.0, bc)
        return
    op = assemble_line(widths, values, 77.0, bc)
    S, m, v, _ = axis_1d_by_diags(widths, values, ends, 77.0)
    _assert_same_csr(op.matrix, S)
    assert np.array_equal(op.mass, m) and np.array_equal(op.vnode, v)


def test_2d_matrix_equals_kron_sum_of_banded_reference():
    grid = grid_2d(5, 3)
    fieldv = sample_potential(grid, DistributionSpec.uniform(0.0, 1.0), 4)
    op = assemble(grid, fieldv, 50.0, BoundaryCondition.robin(0.4))
    S, m, _, _ = axis_1d_by_diags(np.full(grid.nodes_per_axis - 1, grid.spacing),
                                  np.repeat(fieldv.cell_values, grid.nodes_per_cell, axis=0),
                                  BoundaryCondition.robin(0.4).end_specs(), 0.0)
    _assert_same_csr(op.matrix, kron_sum_2d(S, m, 50.0, op.vnode))


@pytest.mark.parametrize("n_cells", [2, 3, 40])
def test_nonuniform_ring_matrix_equals_banded_reference(n_cells):
    # 2 cells is the smallest ring: its corner entries land on the off-diagonals
    rng = np.random.default_rng(n_cells)
    widths, values = rng.uniform(0.1, 2.0, n_cells), rng.uniform(0.0, 1.0, n_cells)
    op = assemble_ring(widths, values, 77.0)
    S, m, v, _ = axis_1d_by_diags(widths, values, None, 77.0)
    _assert_same_csr(op.matrix, S)
    assert np.array_equal(op.mass, m) and np.array_equal(op.vnode, v)


@pytest.mark.parametrize("grid", [grid_1d(12, 5), GridSpec(1, 2, 2)], ids=["12x5", "2x2"])
def test_periodic_lattice_matrix_equals_banded_reference(grid):
    fieldv = sample_potential(grid, DistributionSpec.uniform(0.0, 2.0), 8)
    op = assemble(grid, fieldv, 321.0, BoundaryCondition.periodic())
    S, m, v, _ = axis_1d_by_diags(np.full(grid.nodes_per_axis - 1, grid.spacing),
                                  np.repeat(fieldv.cell_values, grid.nodes_per_cell), None, 321.0)
    _assert_same_csr(op.matrix, S)
    assert np.array_equal(op.mass, m) and np.array_equal(op.vnode, v)


# --- the 1D matvec and row sums against the CSR they stand for -------------------

@settings(max_examples=300, deadline=None)
@given(cells(1), st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
       st.one_of(st.none(), st.tuples(_END, _END)), st.sampled_from([None, 1, 3]),
       st.integers(0, 2**32))
@example(([1.0], [0.5]), 10.0, None, None, 0)                 # a ring of 1 node
@example(([1.0], [0.5]), 10.0, None, 3, 0)
@example(([0.3, 1.7], [0.5, 2.0]), 10.0, None, None, 0)       # a ring of 2 nodes
@example(([0.3, 1.7], [0.5, 2.0]), 10.0, None, 3, 0)
@example(([1.0], [0.5]), 10.0, (("dirichlet", 0.0), ("dirichlet", 0.0)), None, 0)
def test_matvec_and_row_sums_are_bit_exact(cell_data, K, ends, k, seed):
    # rows summed in CSR's order: residuals and refinement decisions keep their bits
    if ends is not None and len(cell_data[0]) == 1 and ends[0][0] == ends[1][0] == "dirichlet":
        with pytest.raises(ParameterError, match="no active node"):
            _build(cell_data, K, ends)      # one cell between Dirichlet walls: rejected
        return
    op = _build(cell_data, K, ends)
    A = op.matrix
    shape = (op.size,) if k is None else (op.size, k)
    u = np.random.default_rng(seed).standard_normal(shape)
    assert np.array_equal(op._matvec(u), A @ u)
    assert np.array_equal(op._abs_row_sums(), np.asarray(abs(A).sum(axis=1)).ravel())


# --- re-coupling a pencil assembled at K = 0: the one step that adds K*V*m ------------

def test_only_a_pencil_at_K_0_is_recoupled():
    # a 2D pencil at K = 0 re-couples as a 1D one does; a pencil already coupled is refused
    grid, bc = grid_2d(4), BoundaryCondition.robin(0.4)
    fieldv = sample_potential(grid, DistributionSpec.uniform(0.0, 1.0), 3)
    _assert_same_csr(assemble(grid, fieldv, 0.0, bc)._recoupled(5.0).matrix,
                     assemble(grid, fieldv, 5.0, bc).matrix)
    for op in (assemble(grid, fieldv, 5.0, bc), assemble_ring(np.full(5, 0.2), np.ones(5), 3.0)):
        with pytest.raises(ParameterError, match="only a pencil assembled at K = 0"):
            op._recoupled(5.0)


@pytest.mark.parametrize("K", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("build", [
    lambda K: assemble(grid_1d(6), _one_field(grid_1d(6)), K, BoundaryCondition.neumann()),
    lambda K: assemble(grid_2d(4), _one_field(grid_2d(4)), K, BoundaryCondition.dirichlet()),
    lambda K: assemble_line(np.full(4, 0.25), np.ones(4), K, BoundaryCondition.robin(1.0)),
    lambda K: assemble_ring(np.full(4, 0.25), np.ones(4), K),
], ids=["lattice-1d", "lattice-2d", "line", "ring"])
def test_every_assembly_rejects_a_negative_or_non_finite_K(build, K):
    with pytest.raises(ParameterError, match="K must be >= 0 and finite"):
        build(K)


# --- the lattice pencil built once per (grid, walls) ---------------------------------

_LATTICE_BC = st.one_of(
    st.sampled_from([BoundaryCondition.dirichlet(), BoundaryCondition.neumann(),
                     BoundaryCondition.periodic()]),
    st.floats(0.0, 100.0).map(BoundaryCondition.robin),
    st.tuples(_END, _END).map(lambda ends: BoundaryCondition.mixed(
        ends[0][0], ends[1][0], ends[0][1], ends[1][1])))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 30), st.integers(2, 10), _LATTICE_BC,
       st.one_of(st.just(0.0), st.floats(0.0, 1e7)), st.data())
def test_cached_lattice_pencil_assembles_a_fresh_build(n_cells, nodes_per_cell, bc, K, data):
    # every field re-couples the (grid, walls) pencil built once at K = 0: the bits of a
    # line or ring built afresh on the lattice's widths, and no operator can write to the
    # arrays they all share, in 1D or 2D
    grid = GridSpec(1, n_cells, nodes_per_cell)
    values = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=n_cells,
                                         max_size=n_cells)))
    op = assemble(grid, PotentialField(grid, values, 0), K, bc)
    widths, cell_values = np.full(grid.nodes_per_axis - 1, grid.spacing), np.repeat(values,
                                                                                  nodes_per_cell)
    fresh = (assemble_ring(widths, cell_values, K) if bc.kind == "periodic"
             else assemble_line(widths, cell_values, K, bc))
    bits = lambda x: np.asarray(x, float).tobytes()
    assert [bits(a) for a in op.A] == [bits(a) for a in fresh.A]
    assert (bits(op.mass), bits(op.vnode)) == (bits(fresh.mass), bits(fresh.vnode))
    assert (op.coupling, op.trimmed) == (fresh.coupling, fresh.trimmed)
    other = assemble(grid, PotentialField(grid, values[::-1].copy(), 1), K, bc)
    shared = [op.A[1], op.mass, op.axes[0]] + ([op.A[0]] if K == 0 else [])
    for x, y in zip(shared, [other.A[1], other.mass, other.axes[0], other.A[0]]):
        assert x is y
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1.0
    if bc.kind in ("periodic", "mixed"):    # 1D only
        return
    grid = GridSpec(2, 3, nodes_per_cell)
    op, other = (assemble(grid, PotentialField(grid, np.full((3, 3), x), 0), K, bc)
                 for x in (1.0, 2.0))
    base = operator_mod._lattice_pencil(grid, bc)[0]
    for x, y in zip([op.mass, *op.axes], [other.mass, *other.axes]):
        assert x is y
    assert op.A is not base.A               # each field's K*V*m goes into its own CSR
    for x in (op.mass, op.axes[0], base.A.data, base.A.indices, base.A.indptr):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 1
