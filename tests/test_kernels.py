"""Factorised kernels and sparse operators against the plain dense computations they replace.

Each reference below is the direct multi-operand ``np.einsum`` over the full
(time basis) x (space basis) x (quadrature) index set; the sparse spatial
operators are checked against dense einsum assemblies and the dense mass
solve.  Meshes are periodic
with elements of unequal width, so a width applied along the wrong axis
shows; the tolerance is relative to the largest reference entry.
"""

import dataclasses

import numpy as np
import pytest

from mspde.diagnostics import bochner_error
from mspde.mesh import Partition1D, gauss_legendre, uniform_partition
from mspde.problems import linear_wave, nls, nonlinear_wave
from mspde.solver import SchemeVariant, SlabAssembler, Trajectory, field_on_grid
from mspde.spaces import (
    SlabCoefficients,
    SlabGrid,
    SpatialSpace,
    TemporalSlab,
    assemble,
)
from mspde.spatial_ops import g_matrix, node_traces, weak_g_from_samples

RTOL = 1e-13
CASES = [(variant, q, p) for variant in SchemeVariant for q, p in [(0, 1), (1, 2), (2, 3)]]


def assert_close(actual, reference):
    scale = float(np.max(np.abs(reference)))
    assert np.max(np.abs(actual - reference)) <= RTOL * scale


def nonuniform_space(rng, length, count, p, continuity):
    widths = rng.uniform(0.5, 1.5, count)
    nodes = np.concatenate([[0.0], np.cumsum(widths)]) * (length / widths.sum())
    nodes[-1] = length
    return SpatialSpace(Partition1D(nodes), p, continuity)


def assembler(variant, q, p, seed):
    rng = np.random.default_rng(seed)
    problem = nls()
    space = nonuniform_space(rng, problem.domain_length, 5, p, variant.spatial_continuity)
    return SlabAssembler(problem, space, q, 0.1), rng


def reference_eval(nodes, space, basis_table, time_table):
    local = nodes[:, space.element_dofs, :]
    return np.einsum("cmkt,kh,tg->cgmh", local, basis_table, time_table)


def reference_test(grid, space, basis_table, time_table, space_weights, time_weights):
    wx = space.partition.widths[:, None] * space_weights[None, :]
    elem = np.einsum("cgmh,kh,ag,g,mh->camk", grid, basis_table, time_table,
                     time_weights, wx)
    out = np.zeros(elem.shape[:2] + (space.dof_count,))
    np.add.at(out, (slice(None), slice(None), space.element_dofs), elem)
    return np.swapaxes(out, 1, 2)


def reference_assembly(space, ref_blocks):
    """Dense sum of element blocks (M, p+1, p+1) (or one shared block)."""
    dofs = space.element_dofs
    blocks = np.broadcast_to(ref_blocks, (len(dofs),) + dofs.shape[1:] * 2)
    out = np.zeros((space.dof_count, space.dof_count))
    np.add.at(out, (dofs[:, :, None], dofs[:, None, :]), blocks)
    return out


def reference_derivative_matrix(space, b, db, weights):
    """Dense int u_x phi_i: elementwise volume term (widths cancel), plus the
    average-flux interface term -[u]_m {phi}_m on broken spaces."""
    out = reference_assembly(space, np.einsum("kg,lg,g->kl", b, db, weights))
    if space.continuity == "dg":
        m = space.partition.element_count
        for node in range(m):
            left = space.element_dofs[(node - 1) % m, -1]
            right = space.element_dofs[node, 0]
            for row in (left, right):
                out[row, left] -= 0.5
                out[row, right] += 0.5
    return out


def flat_unknowns(space, d, q1):
    """Flat (dof, c, a) unknown indices of each element, shape (M, (p+1)*D*q1)."""
    local = space.element_dofs[:, :, None, None]
    comp = np.arange(d)[None, None, :, None]
    flat = (local * d + comp) * q1 + np.arange(q1)[None, None, None, :]
    return flat.reshape(len(flat), -1)


@pytest.mark.parametrize("variant,q,p", CASES)
def test_spacetime_eval_matches_einsum(variant, q, p):
    asm, rng = assembler(variant, q, p, seed=10 * q + p)
    space, d = asm.space, asm.problem.D
    nodes = rng.standard_normal((d, space.dof_count, q + 2))

    def reference_derivative(time_table):
        if variant is SchemeVariant.DG_PRIMARY:
            g_nodes = np.einsum("ij,cjt->cit", g_matrix(space), nodes)
            return reference_eval(g_nodes, space, asm.B, time_table)
        return reference_eval(nodes, space, space.tabulate(asm.rule_x.points, 1), time_table) \
            / space.partition.widths[None, None, :, None]

    z, dz = field_on_grid(asm, nodes, asm.Tt)
    assert_close(z, reference_eval(nodes, space, asm.B, asm.Tt))
    assert_close(dz, reference_derivative(asm.Tt))
    assert_close(asm.eval(nodes, asm.dTt / asm.dt),
                 reference_eval(nodes, space, asm.B, asm.dTt) / asm.dt)
    # The shared evaluation on a time-derivative table gives Dz_t.
    _, dz_t = field_on_grid(asm, nodes, asm.dTt)
    assert_close(dz_t, reference_derivative(asm.dTt))

    test_nodes = rng.standard_normal((d, space.dof_count, q + 1))
    assert_close(asm.eval(test_nodes, asm.Ts),
                 reference_eval(test_nodes, space, asm.B, asm.Ts))


@pytest.mark.parametrize("variant,q,p", CASES)
def test_slab_grid_test_matches_einsum(variant, q, p):
    asm, rng = assembler(variant, q, p, seed=20 + 10 * q + p)
    space, weights = asm.space, asm.rule_x.weights
    grid = rng.standard_normal((asm.problem.D, len(asm.rule_t),
                                space.partition.element_count, len(asm.rule_x)))
    assert_close(asm.test(grid),
                 reference_test(grid, space, asm.B, asm.Ts, weights, asm.wt))
    # A grid on the broken space of degree p over the same partition.
    broken = SpatialSpace(space.partition, p, "dg")
    assert_close(SlabGrid(broken, q, asm.dt, asm.rule_t, asm.rule_x).test(grid),
                 reference_test(grid, broken, broken.tabulate(asm.rule_x.points), asm.Ts,
                                weights, asm.wt))


def forced_linear_wave():
    """The linear wave with S(z) + f . z: a quadratic S whose gradient does
    not vanish at zero."""
    base, force = linear_wave(), np.array([0.3, -0.7, 1.1])
    return dataclasses.replace(base, s=lambda z: base.s(z) + np.asarray(z) @ force,
                               grad_s=lambda z: base.grad_s(z) + force)


@pytest.mark.parametrize("factory", [linear_wave, forced_linear_wave, nonlinear_wave, nls])
@pytest.mark.parametrize("variant,q,p", CASES)
def test_residual_matches_einsum_quadrature(factory, variant, q, p):
    # The residual's rows int (K z_t + L Dz - grad S(z)) . phi_i tau_a as
    # one plain quadrature over the slab grid.
    rng = np.random.default_rng(200 + 10 * q + p)
    problem = factory()
    space = nonuniform_space(rng, problem.domain_length, 5, p, variant.spatial_continuity)
    asm = SlabAssembler(problem, space, q, 0.1)
    nodes = rng.uniform(-1.0, 1.0, (problem.D, space.dof_count, q + 2))

    z = reference_eval(nodes, space, asm.B, asm.Tt)
    zt = reference_eval(nodes, space, asm.B, asm.dTt) / asm.dt
    if variant is SchemeVariant.DG_PRIMARY:
        dz = reference_eval(np.einsum("ij,cjt->cit", g_matrix(space), nodes),
                            space, asm.B, asm.Tt)
    else:
        dz = reference_eval(nodes, space, space.tabulate(asm.rule_x.points, 1), asm.Tt) \
            / space.partition.widths[None, None, :, None]
    grad = np.moveaxis(problem.grad_s(np.moveaxis(z, 0, -1)), -1, 0)
    integrand = np.einsum("cd,dgmh->cgmh", problem.K, zt) \
        + np.einsum("cd,dgmh->cgmh", problem.L, dz) - grad
    rows = reference_test(integrand, space, asm.B, asm.Ts, asm.rule_x.weights, asm.wt)

    assert_close(asm.residual(nodes), np.swapaxes(rows, 0, 1).ravel())


@pytest.mark.parametrize("variant,q,p", CASES)
def test_hessian_block_matches_einsum(variant, q, p):
    asm, rng = assembler(variant, q, p, seed=40 + 10 * q + p)
    space, d, q1 = asm.space, asm.problem.D, q + 1
    nodes = rng.uniform(-1.0, 1.0, (d, space.dof_count, q + 2))
    zgrid = reference_eval(nodes, space, asm.B, asm.Tt)

    # The kernel's values on the pattern's pairs, scattered to D x D here so
    # that the oracle does not share the solver's pair handling.
    pattern = asm.problem.hessian_pattern
    values = asm.problem.hess_s(np.moveaxis(zgrid, 0, -1))
    hess = np.zeros(values.shape[:-1] + pattern.shape)
    hess[..., pattern] = values
    wx = space.partition.widths[:, None] * asm.rule_x.weights[None, :]
    vals = np.einsum("gmhcd,kh,lh,ag,bg,g,mh->mkcaldb", hess, asm.B, asm.B,
                     asm.Ts, asm.Tt[1:], asm.wt, wx)
    dofs = flat_unknowns(space, d, q1)
    expected = np.zeros((asm.size, asm.size))
    np.add.at(expected, (dofs[:, :, None], dofs[:, None, :]),
              vals.reshape(len(dofs), dofs.shape[1], dofs.shape[1]))

    assert_close(asm.linear_jacobian.toarray() - asm.jacobian(nodes).toarray(), expected)


@pytest.mark.parametrize("factory", [linear_wave, nls])
@pytest.mark.parametrize("variant,q,p", CASES)
def test_bochner_error_matches_einsum(variant, q, p, factory):
    # The linear wave on the unit domain, and NLS (D = 4) on [0, 40), whose
    # soliton straddles the periodic seam.
    rng = np.random.default_rng(60 + 10 * q + p)
    problem = factory()
    d = problem.D
    space = nonuniform_space(rng, problem.domain_length, 6, p, variant.spatial_continuity)
    times = np.array([0.0, 0.1, 0.25, 0.3])
    slabs = [SlabCoefficients(TemporalSlab(t0, t1, q), space,
                              rng.standard_normal((d, space.dof_count, q + 2)))
             for t0, t1 in zip(times[:-1], times[1:])]
    traj = Trajectory(problem, variant, space, q, slabs[0].values[:, :, 0], slabs=slabs)

    rule = gauss_legendre(9)
    b = space.basis.tabulate(rule.points)
    xs = space.quad_points(rule)
    wx = space.partition.widths[:, None] * rule.weights[None, :]
    accum = np.zeros(d)
    expected = [accum.copy()]
    for coeffs in slabs:
        tt = coeffs.slab.trial_basis.tabulate(rule.points)
        zgrid = reference_eval(coeffs.values, space, b, tt)
        exact = np.stack([np.moveaxis(problem.exact_solution(t, xs), -1, 0)
                          for t in coeffs.slab.times(rule.points)], axis=1)
        wt = coeffs.slab.dt * rule.weights
        accum = accum + np.einsum("cgmh,g,mh->c", (zgrid - exact) ** 2, wt, wx)
        expected.append(np.sqrt(accum))

    assert_close(bochner_error(traj), np.array(expected))


@pytest.mark.parametrize("continuity,q,p", [(c, q, p) for c in ("cg", "dg")
                                             for q, p in [(0, 1), (1, 2), (2, 3)]])
def test_slab_grid_project_and_integrate_match_einsum(continuity, q, p):
    rng = np.random.default_rng(160 + 10 * q + p + 100 * (continuity == "dg"))
    space = nonuniform_space(rng, 1.0, 5, p, continuity)
    grid = SlabGrid(space, q, 0.1, gauss_legendre(q + 3), gauss_legendre(p + 3))
    values = rng.standard_normal((2, len(grid.rule_t), 5, len(grid.rule_x)))

    # The projection solves (spatial mass x temporal mass) c = test rows.
    rows = reference_test(values, space, grid.B, grid.Ts, grid.rule_x.weights, grid.wt)
    tmass = np.einsum("ag,bg,g->ab", grid.Ts, grid.Ts, grid.wt)
    mass = space.mass_operator().toarray()
    flat = np.linalg.solve(np.kron(mass, tmass), rows.reshape(2, -1).T)
    assert_close(grid.project(values), flat.T.reshape(rows.shape))

    wx = space.partition.widths[:, None] * grid.rule_x.weights[None, :]
    per_element = np.einsum("cgmh,g,mh->cm", values, grid.wt, wx)
    assert_close(grid.integrate(values, per_element=True), per_element)
    assert_close(grid.integrate(values), per_element.sum(axis=1))


@pytest.mark.parametrize("continuity,p", [("cg", 1), ("cg", 2), ("cg", 3),
                                          ("dg", 0), ("dg", 1), ("dg", 2), ("dg", 3)])
def test_mass_solve_matches_dense_solve(continuity, p):
    # On one or two elements the fold's periodic corner entries meet the
    # diagonal of the continuous mass's band.
    rng = np.random.default_rng(80 + p + 10 * (continuity == "dg"))
    for count in (7, 1, 2):
        space = nonuniform_space(rng, 1.0, count, p, continuity)
        mass = space.mass_operator().toarray()
        for shape in [(2, 3, space.dof_count), (space.dof_count,)]:
            rhs = rng.standard_normal(shape)
            expected = np.linalg.solve(mass, rhs.reshape(-1, space.dof_count).T)
            assert_close(space.mass_solve(rhs), expected.T.reshape(rhs.shape))


@pytest.mark.parametrize("continuity,p", [(c, p) for c in ("cg", "dg") for p in (1, 2, 3)])
def test_derivative_operator_matches_einsum(continuity, p):
    rng = np.random.default_rng(100 + p + 10 * (continuity == "dg"))
    space = nonuniform_space(rng, 1.0, 6, p, continuity)
    rule = gauss_legendre(p + 2)
    b, db = space.basis.tabulate(rule.points), space.basis.tabulate(rule.points, 1)
    expected = reference_assembly(space, np.einsum("kg,lg,g->kl", b, db, rule.weights))
    elementwise = assemble([(space.element_dofs, space.element_dofs,
                             space.reference_derivative())], (space.dof_count,) * 2)
    assert_close(elementwise.toarray(), expected)
    if continuity == "cg":
        # The scheme derivative of a continuous space is the elementwise one.
        assert_close(space.weak_derivative().toarray(), expected)


@pytest.mark.parametrize("variant,q,p", CASES)
def test_linear_jacobian_matches_dense_kron(variant, q, p):
    asm, _ = assembler(variant, q, p, seed=120 + 10 * q + p)
    space, weights = asm.space, asm.rule_x.weights
    mass = reference_assembly(
        space, space.partition.widths[:, None, None]
        * np.einsum("kg,lg,g->kl", asm.B, asm.B, weights))
    deriv = reference_derivative_matrix(space, asm.B, space.tabulate(asm.rule_x.points, 1),
                                        weights)
    ta1 = np.einsum("ag,bg,g->ab", asm.Ts, asm.dTt, asm.rule_t.weights)
    ta0 = asm.dt * np.einsum("ag,bg,g->ab", asm.Ts, asm.Tt, asm.rule_t.weights)
    expected = np.kron(mass, np.kron(asm.problem.K, ta1[:, 1:])) \
        + np.kron(deriv, np.kron(asm.problem.L, ta0[:, 1:]))
    assert_close(asm.linear_jacobian.toarray(), expected)


@pytest.mark.parametrize("p", [0, 1, 2])
def test_weak_g_from_samples_matches_g_on_the_space(p):
    # At degree 0 every dof is the right limit of one node and the left limit
    # of the next, so both interface terms must accumulate on it.
    rng = np.random.default_rng(140 + p)
    space = nonuniform_space(rng, 1.0, 6, p, "dg")
    u = rng.standard_normal((2, space.dof_count))
    rule = gauss_legendre(p + 2)
    left, right = node_traces(space, u)
    sampled = weak_g_from_samples(space, space.eval_on_rule(u, rule, 1),
                                  left, right, rule)
    assert_close(sampled, np.einsum("ij,cj->ci", g_matrix(space), u))


@pytest.mark.parametrize("mesh", ["two-element", "nonuniform"])
@pytest.mark.parametrize("factory", [linear_wave, nonlinear_wave, nls])
@pytest.mark.parametrize("variant,q,p", CASES)
def test_band_factor_solves_like_a_dense_solve(variant, q, p, factory, mesh):
    # The band LU works in the folded dof order; on two elements the fold
    # wraps at once.  A wrong fold, a band too narrow or a band array read in
    # the wrong memory order all miss the dense solve.
    rng = np.random.default_rng(180 + 10 * q + p)
    problem = factory()
    if mesh == "two-element":
        space = SpatialSpace(uniform_partition(problem.domain_length, 2), p,
                             variant.spatial_continuity)
    else:
        space = nonuniform_space(rng, problem.domain_length, 5, p, variant.spatial_continuity)
    asm = SlabAssembler(problem, space, q, 0.1)
    nodes = rng.uniform(-1.0, 1.0, (problem.D, space.dof_count, q + 2))
    b = rng.standard_normal(asm.size)
    expected = np.linalg.solve(asm.jacobian(nodes).toarray(), b)
    actual = asm.factorise(nodes).solve(b)
    assert np.max(np.abs(actual - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("continuity,p", [("cg", p) for p in (1, 2, 3)]
                         + [("dg", p) for p in (0, 1, 2, 3)])
def test_scatter_add_equals_an_unbuffered_accumulation(continuity, p):
    # No dof sums more than two element values, so the reshaped copies and
    # strided adds of scatter_add add exactly what np.add.at adds, with no,
    # two or three leading axes, and the result is a new array, never a view
    # of the values.
    rng = np.random.default_rng(230 + p)
    space = nonuniform_space(rng, 2.0, 6, p, continuity)
    for lead in [(), (3, 2), (2, 3, 2)]:
        values = rng.standard_normal(lead + space.element_dofs.shape)
        expected = np.zeros(lead + (space.dof_count,))
        np.add.at(expected, (Ellipsis, space.element_dofs), values)
        scattered = space.scatter_add(values)
        assert np.array_equal(scattered, expected)
        assert not np.shares_memory(scattered, values)


@pytest.mark.parametrize("continuity,p", [("cg", p) for p in (1, 2, 3)]
                         + [("dg", p) for p in (0, 1, 2, 3)])
def test_gather_equals_fancy_indexing(continuity, p):
    # On a broken space gather is a reshape, on a continuous one an indexed
    # copy; either way it gives exactly the element dofs' values, with zero,
    # one or two leading axes, for contiguous and swapped-axis inputs.
    rng = np.random.default_rng(250 + p)
    space = nonuniform_space(rng, 2.0, 6, p, continuity)
    for lead in [(), (3,), (2, 3)]:
        coeffs = rng.standard_normal(lead + (space.dof_count,))
        swapped = np.swapaxes(rng.standard_normal((space.dof_count,) + lead[::-1]), 0, -1)
        for values in (coeffs, swapped):
            gathered = space.gather(values)
            assert gathered.shape == lead + space.element_dofs.shape
            assert np.array_equal(gathered, values[..., space.element_dofs])
