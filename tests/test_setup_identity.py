"""Set-up products against the scipy constructions they replace, bit for bit.

The slab operator, the nonlinear Jacobian's pattern and Hessian index map,
the band layout, the spatial mass, the weak average-flux derivative, G and
the basis tables are built by index arithmetic.  Each reference below is the
construction it replaced: scipy COO assembly, Kronecker products summed and
converted to CSR, a sort/searchsorted merge of entry keys and a loop over
basis functions.  Arrays are compared with ``np.array_equal`` and, for
floats, on their sign bits too, so that a -0.0 in place of a 0.0 shows.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse

from mspde import spaces
from mspde.mesh import (
    LagrangeBasis,
    Partition1D,
    gauss_legendre,
    quadrature_order_policy,
    uniform_partition,
)
from mspde.problems import linear_wave, nls, nonlinear_wave
from mspde.solver import SlabAssembler
from mspde.spaces import SpatialSpace

CASES = list(itertools.product([linear_wave, nonlinear_wave, nls], ["cg", "dg"],
                               [1, 2, 3], [0, 1], ["two-element", "nonuniform"]))


def assert_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    if expected.dtype.kind == "f":
        assert np.array_equal(np.signbit(actual), np.signbit(expected))


def assert_same_matrix(actual, expected):
    assert actual.format == expected.format and actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        assert_bits(getattr(actual, name), getattr(expected, name))


def make_space(length, mesh, p, continuity):
    if mesh.endswith("-element"):
        count = {"one": 1, "two": 2}[mesh.split("-")[0]]
        return SpatialSpace(uniform_partition(length, count), p, continuity)
    widths = np.random.default_rng(p).uniform(0.5, 1.5, 5)
    nodes = np.concatenate([[0.0], np.cumsum(widths)]) * (length / widths.sum())
    nodes[-1] = length
    return SpatialSpace(Partition1D(nodes), p, continuity)


# -- the replaced constructions ---------------------------------------------------

def reference_assemble(row_dofs, col_dofs, blocks, shape):
    row_dofs, col_dofs = np.asarray(row_dofs), np.asarray(col_dofs)
    full = (len(row_dofs), row_dofs.shape[1], col_dofs.shape[1])
    blocks = np.broadcast_to(np.asarray(blocks, dtype=float), full)
    rows = np.broadcast_to(row_dofs[:, :, None], full)
    cols = np.broadcast_to(col_dofs[:, None, :], full)
    return scipy.sparse.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=shape)


def reference_on_space(space, blocks):
    return reference_assemble(space.element_dofs, space.element_dofs, blocks,
                              (space.dof_count, space.dof_count))


def reference_mass(space):
    blocks = space.partition.widths[:, None, None] * space.reference_mass()
    return reference_on_space(space, blocks)


def reference_derivative(space):
    rule = gauss_legendre(quadrature_order_policy(max(2 * space.degree - 1, 0)))
    b, db = space.tabulate(rule.points), space.tabulate(rule.points, 1)
    return reference_on_space(space, np.einsum("kg,lg,g->kl", b, db, rule.weights))


def reference_node_dofs(space):
    dofs = space.element_dofs
    return np.stack([np.roll(dofs[:, -1], 1), dofs[:, 0]], axis=1)


def reference_weak_g(space):
    n, pair = space.dof_count, reference_node_dofs(space)
    return reference_derivative(space) \
        + reference_assemble(pair, pair, [[-0.5, 0.5], [-0.5, 0.5]], (n, n))


def reference_g(space):
    inverse = np.linalg.inv(space.reference_mass())
    local = inverse[None, :, :] / space.partition.widths[:, None, None]
    return (reference_on_space(space, local) @ reference_weak_g(space)).tocsr()


def reference_operator(asm):
    problem, space, d = asm.problem, asm.space, asm.problem.D
    ta1 = np.einsum("ag,bg,g->ab", asm.Ts, asm.dTt, asm.rule_t.weights)
    time_k = np.kron(problem.K, ta1)
    if asm.jacobian_is_constant:
        hess = np.zeros((d, d))
        hess[problem.hessian_pattern] = problem.hess_s(np.zeros(d))
        time_k -= np.kron(hess, asm.time_mass)
    deriv = reference_weak_g(space) if space.continuity == "dg" else reference_derivative(space)
    kron = scipy.sparse.kron
    return (kron(reference_mass(space), time_k)
            + kron(deriv, np.kron(problem.L, asm.time_mass))).tocsr()


def reference_linear_jacobian(operator, q):
    return operator.tocsc()[:, np.arange(operator.shape[1]) % (q + 2) != 0].tocsr()


def reference_pattern(asm, linear_jacobian):
    size = asm.size
    first, second = np.nonzero(asm.problem.hessian_pattern)
    index = asm.as_nodes(np.arange(size))[:, asm.space.element_dofs]
    row = index[first].transpose(3, 1, 0, 2)
    col = index[second].transpose(3, 1, 0, 2)
    hessian_keys = (row[:, None, :, :, :, None] * size + col[None, :, :, :, None, :]).ravel()
    linear = linear_jacobian.tocoo()
    linear_keys = linear.row.astype(np.int64) * size + linear.col
    keys = np.sort(np.concatenate([linear_keys, hessian_keys]))
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    data = np.zeros(len(keys))
    data[np.searchsorted(keys, linear_keys)] = linear.data
    indptr = np.searchsorted(keys // size, np.arange(size + 1))
    pattern = scipy.sparse.csr_matrix((data, keys % size, indptr), shape=(size, size))
    return pattern, np.searchsorted(keys, hessian_keys)


def reference_band_layout(asm, jac):
    n, block = asm.n, asm.size // asm.n
    dofs = np.empty(n, dtype=np.int64)
    dofs[0::2] = np.arange((n + 1) // 2)
    dofs[1::2] = n - 1 - np.arange(n // 2)
    order = (dofs[:, None] * block + np.arange(block)).ravel()
    position = np.empty_like(order)
    position[order] = np.arange(asm.size)
    row = position[np.repeat(np.arange(asm.size), np.diff(jac.indptr))]
    col = position[jac.indices]
    kl, ku = int(np.max(row - col)), int(np.max(col - row))
    return kl + ku + row - col + (2 * kl + ku + 1) * col, kl, ku, order, position


def reference_tabulate(nodes, x, order):
    def one(j):
        others = [k for k in range(len(nodes)) if k != j]
        denom = np.prod([nodes[j] - nodes[k] for k in others]) if others else 1.0
        if order == 0:
            num = np.ones_like(x)
            for k in others:
                num = num * (x - nodes[k])
            return num / denom
        total = np.zeros_like(x)
        for skip in others:
            term = np.ones_like(x)
            for k in others:
                if k != skip:
                    term = term * (x - nodes[k])
            total += term
        return total / denom

    return np.stack([one(j) for j in range(len(nodes))])


# -- the comparisons ----------------------------------------------------------------

@pytest.mark.parametrize("factory,continuity,p,q,mesh", CASES)
def test_slab_set_up_matches_the_scipy_constructions(factory, continuity, p, q, mesh):
    problem = factory()
    space = make_space(problem.domain_length, mesh, p, continuity)
    asm = SlabAssembler(problem, space, q, 0.1)

    assert_same_matrix(space.mass_operator(), reference_mass(space))
    if continuity == "dg":
        assert_same_matrix(space.weak_derivative(), reference_weak_g(space))
        assert_same_matrix(space.g_operator(), reference_g(space))
    else:
        assert_same_matrix(space.weak_derivative(), reference_derivative(space))

    operator = reference_operator(asm)
    assert_same_matrix(asm.operator, operator)
    linear = reference_linear_jacobian(operator, q)
    nodes = np.random.default_rng(p + 10 * q).uniform(
        -1.0, 1.0, (problem.D, space.dof_count, q + 2))
    jac = asm.jacobian(nodes)
    if asm.jacobian_is_constant:
        assert_same_matrix(asm.linear_jacobian, linear)
        assert_same_matrix(jac, linear)
    else:
        # The linear part on the whole pattern: the Hessian's entries are kept as +0.0.
        pattern, hessian_map = reference_pattern(asm, linear)
        assert_same_matrix(asm.linear_jacobian, pattern)
        assert_bits(asm._pattern[1], hessian_map)
    # Only a constant Jacobian on bit-identical element widths is block
    # circulant; its factor takes no band layout, which is checked all the same.
    circulant = asm.jacobian_is_constant and mesh == "two-element"
    factor = asm.factorise(nodes)
    assert type(factor) is (spaces.CirculantFactor if circulant else spaces.BandFactor)
    for actual, expected in zip(spaces.band_layout(jac, asm.n), reference_band_layout(asm, jac)):
        assert_bits(actual, expected)


@pytest.mark.parametrize("continuity,p,mesh", [
    (continuity, p, mesh) for continuity in ("cg", "dg") for p in range(4)
    for mesh in ("one-element", "two-element", "nonuniform") if p > 0 or continuity == "dg"])
def test_spatial_matrices_match_the_scipy_constructions(continuity, p, mesh):
    # One element of a continuous space sums four blocks entries on one dof pair.
    space = make_space(1.0, mesh, p, continuity)
    assert_same_matrix(space.mass_operator(), reference_mass(space))
    elementwise = spaces.assemble([(space.element_dofs, space.element_dofs,
                                    space.reference_derivative())],
                                  (space.dof_count, space.dof_count))
    assert_same_matrix(elementwise, reference_derivative(space))
    if continuity == "dg":
        assert_same_matrix(space.weak_derivative(), reference_weak_g(space))
        assert_same_matrix(space.g_operator(), reference_g(space))
    else:
        assert_same_matrix(space.weak_derivative(), reference_derivative(space))


@pytest.mark.parametrize("degree", range(6))
def test_tabulation_matches_the_node_by_node_loop(degree):
    basis = LagrangeBasis.equispaced(degree)
    rng = np.random.default_rng(degree)
    for x in (rng.uniform(-0.5, 1.5, 50), basis.nodes, gauss_legendre(degree + 2).points):
        for order in (0, 1):
            assert_bits(basis.tabulate(x, order), reference_tabulate(basis.nodes, x, order))


def test_tables_are_shared_and_read_only():
    assert LagrangeBasis.equispaced(2) is LagrangeBasis.equispaced(2)
    points = gauss_legendre(3).points
    table = LagrangeBasis.equispaced(2).table(points, 1)
    assert table is LagrangeBasis.equispaced(2).table(points.copy(), 1)
    with pytest.raises(ValueError):
        table[0, 0] = 0.0


@pytest.mark.parametrize("continuity", ["cg", "dg"])
def test_a_second_assembler_on_a_space_assembles_no_spatial_matrix(continuity, monkeypatch):
    # advance builds a second assembler for a shorter last slab.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble(*args, **kwargs)

    assemble = spaces.assemble
    monkeypatch.setattr(spaces, "assemble", counted)
    problem = nls()
    space = make_space(problem.domain_length, "nonuniform", 2, continuity)
    SlabAssembler(problem, space, 1, 0.1)
    assert calls
    calls.clear()
    SlabAssembler(problem, space, 1, 0.05)
    assert calls == []


def test_linear_jacobian_is_built_once_and_read_only():
    problem = linear_wave()
    asm = SlabAssembler(problem, make_space(problem.domain_length, "nonuniform", 2, "dg"),
                        1, 0.1)
    linear = asm.linear_jacobian
    assert asm.linear_jacobian is linear
    for array in (linear.data, linear.indices, linear.indptr):
        with pytest.raises(ValueError):
            array[0] = array[0]
    nodes = np.zeros((problem.D, asm.n, 3))
    jac = asm.jacobian(nodes)
    assert jac.indices is linear.indices and not np.shares_memory(jac.data, linear.data)


def assert_canonical_csr(matrix, sorted_indices=True):
    assert type(matrix) is scipy.sparse.csr_array
    matrix.check_format(full_check=True)
    if sorted_indices:
        assert all(np.all(np.diff(matrix.indices[start:end]) > 0)
                   for start, end in zip(matrix.indptr[:-1], matrix.indptr[1:]))


@pytest.mark.parametrize("factory,continuity", [
    (factory, continuity) for factory in (linear_wave, nls) for continuity in ("cg", "dg")])
def test_every_sparse_operator_is_csr(factory, continuity):
    problem = factory()
    space = make_space(problem.domain_length, "nonuniform", 2, continuity)
    asm = SlabAssembler(problem, space, 1, 0.1)
    nodes = np.random.default_rng(3).uniform(-1.0, 1.0, (problem.D, space.dof_count, 3))
    assert_canonical_csr(space.mass_operator())
    assert_canonical_csr(asm.jacobian(nodes))
    for matrix in (asm.linear_jacobian, asm.operator, space.weak_derivative()):
        assert_canonical_csr(matrix)
    if continuity == "dg":
        # G is scipy's product of the inverse mass blocks and the weak form,
        # whose rows keep the column order the product met them in.
        assert_canonical_csr(space.g_operator(), sorted_indices=False)
