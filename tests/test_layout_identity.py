"""Run-path products against the layouts they replaced.

The slab evaluation forms its time product as a contiguous (D, nt, dofs)
array, and the nonlinear residual subtracts the tested gradient in the slab
operator's (dofs, D, q+1) row order.  Each reference below is the expression
these replaced: the (D, dofs, nt) time product swapped to (D, nt, dofs) and
the tested gradient swapped and flattened before the subtraction.  These
arrays are compared with ``np.array_equal`` and on their sign bits.  The
Bochner error contracts the exact solution's factors with the evaluated
nodes, which changes its arithmetic, so it is compared with a fresh
(eval - exact) ** 2 per slab to a relative tolerance.  It also takes the
slabs in chunks and reduces each chunk with one weighted product, which
reorders only the sums, so it is compared with the per-slab loop of the same
factor products that it replaced, row by row, to 1e-14 relative.
"""

import numpy as np
import pytest

from mspde import diagnostics
from mspde.diagnostics import bochner_error
from mspde.mesh import gauss_legendre, nonpolynomial_rule
from mspde.problems import linear_wave, nls, nonlinear_wave
from mspde.solver import (SchemeVariant, SlabAssembler, SolverConfig, pointwise_grad,
                          run_simulation)
from mspde.spaces import SlabGrid
from test_setup_identity import assert_bits, make_space


def reference_eval(grid, nodes, time_table, derivative_order=0):
    return grid.space.eval_on_rule(np.swapaxes(nodes @ time_table, 1, 2), grid.rule_x,
                                   derivative_order)


@pytest.mark.parametrize("continuity", ["cg", "dg"])
@pytest.mark.parametrize("derivative_order", [0, 1])
@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("q,p", [(0, 1), (1, 2), (2, 3)])
def test_slab_evaluation_matches_the_swapped_time_product(continuity, derivative_order, d,
                                                          q, p):
    space = make_space(2.0, "nonuniform", p, continuity)
    grid = SlabGrid(space, q, 0.3, gauss_legendre(q + 2), gauss_legendre(p + 2))
    rng = np.random.default_rng(7 * q + p + d)
    for table in (grid.Tt, grid.dTt, grid.Ts):
        nodes = rng.standard_normal((d, space.dof_count, len(table)))
        assert_bits(grid.eval(nodes, table, derivative_order),
                    reference_eval(grid, nodes, table, derivative_order))


@pytest.mark.parametrize("factory", [nls, nonlinear_wave])
@pytest.mark.parametrize("continuity", ["cg", "dg"])
@pytest.mark.parametrize("q,p", [(0, 1), (1, 2)])
def test_nonlinear_residual_matches_the_flattened_subtraction(factory, continuity, q, p):
    problem = factory()
    space = make_space(problem.domain_length, "nonuniform", p, continuity)
    asm = SlabAssembler(problem, space, q, 0.1)
    assert not asm.jacobian_is_constant
    z = np.random.default_rng(q + p).standard_normal((problem.D, space.dof_count, q + 2))
    state = asm.eval(z, asm.Tt)
    linear = asm.operator @ np.swapaxes(z, 0, 1).ravel()
    expected = linear - np.swapaxes(asm.test(pointwise_grad(problem, state)), 0, 1).ravel()
    assert_bits(asm.residual(z), expected)
    assert_bits(asm.residual(z, state), expected)


def reference_bochner_error(trajectory):
    problem, space = trajectory.problem, trajectory.space
    grid = SlabGrid(space, trajectory.q, 1.0, nonpolynomial_rule(), nonpolynomial_rule())
    xs = space.quad_points(grid.rule_x)[None]
    errors = np.zeros((trajectory.node_count, problem.D))
    for n, coeffs in enumerate(trajectory.slabs, start=1):
        times = coeffs.slab.times(grid.rule_t.points)[:, None, None]
        exact = np.moveaxis(problem.exact_solution(times, xs), -1, 0)
        diff2 = (reference_eval(grid, coeffs.values, grid.Tt) - exact) ** 2
        errors[n] = errors[n - 1] + coeffs.slab.dt * grid.integrate(diff2)
    return np.sqrt(errors)


@pytest.mark.parametrize("factory,variant,config", [
    (linear_wave, "dg", SolverConfig(q=1, p=3, dt=0.125, dx=0.125, t_final=0.5)),
    (linear_wave, "cg", SolverConfig(q=2, p=3, dt=0.125, dx=0.125, t_final=0.5)),
    (nls, "dg", SolverConfig(q=0, p=1, dt=0.1, dx=0.8, t_final=0.3)),
])
def test_bochner_error_matches_the_per_slab_temporaries(factory, variant, config):
    trajectory = run_simulation(SchemeVariant(variant), factory(), config)
    actual, reference = bochner_error(trajectory), reference_bochner_error(trajectory)
    scale = np.max(reference, axis=0)
    assert np.all(np.max(np.abs(actual - reference), axis=0) <= 1e-12 * scale)


def per_slab_bochner_error(trajectory):
    """The error norm one slab at a time: per slab one evaluation of the nodes,
    one time-factor call, one product [Tt.T | -time(t)] @ [Z; G] and the
    grid's integral."""
    problem, space, q = trajectory.problem, trajectory.space, trajectory.q
    exact, d = problem.exact_solution, problem.D
    grid = SlabGrid(space, q, 1.0, nonpolynomial_rule(), nonpolynomial_rule())
    nt, m, ns = len(grid.rule_t.points), space.partition.element_count, len(grid.rule_x.points)
    g = np.moveaxis(exact.space(space.quad_points(grid.rule_x)), (-2, -1), (0, 1))
    j = g.shape[1]
    factors = np.empty((d, q + 2 + j, m * ns))
    factors[:, q + 2:] = g.reshape(d, j, m * ns)
    table = np.empty((nt, q + 2 + j))
    table[:, :q + 2] = grid.Tt.T
    errors = np.zeros((trajectory.node_count, d))
    for n, coeffs in enumerate(trajectory.slabs, start=1):
        z = space.eval_on_rule(np.swapaxes(coeffs.values, 1, 2), grid.rule_x)
        factors[:, :q + 2] = z.reshape(d, q + 2, m * ns)
        np.negative(exact.time(coeffs.slab.times(grid.rule_t.points)), out=table[:, q + 2:])
        diff = (table @ factors).reshape(d, nt, m, ns)
        diff *= diff
        errors[n] = errors[n - 1] + coeffs.slab.dt * grid.integrate(diff)
    return np.sqrt(errors)


def slab_grid_bytes(trajectory):
    """Bytes of one slab's error grid: D x 9 times x M elements x 9 points."""
    return 8 * trajectory.problem.D * 81 * trajectory.space.partition.element_count


def chunk_length(trajectory):
    """Slabs per chunk of the error norm: its byte budget over one slab's grid."""
    return max(diagnostics._CHUNK_BYTES // slab_grid_bytes(trajectory), 1)


def assert_rows_match(actual, reference):
    assert actual.shape == reference.shape
    assert np.all(np.abs(actual - reference) <= 1e-14 * np.abs(reference))


# 5.5 slabs of 0.1 end in a slab of 0.05; the converge level h = 0.25 at
# T = 0.1 is one slab of 0.1; T = dt is one whole slab.
SHORT_LAST = [(variant, SolverConfig(q=q, p=q + 1, dt=0.1, dx=0.1, t_final=0.55))
              for variant in ("cg", "dg") for q in (0, 1)]
ONE_SLAB = [("dg", SolverConfig(q=1, p=3, dt=0.25, dx=0.25, t_final=0.1)),
            ("cg", SolverConfig(q=1, p=2, dt=0.1, dx=0.1, t_final=0.1))]


@pytest.mark.parametrize("variant,config", SHORT_LAST + ONE_SLAB)
@pytest.mark.parametrize("chunk_slabs", [None, 1, 4])
def test_chunked_bochner_error_matches_the_per_slab_loop(variant, config, chunk_slabs,
                                                         monkeypatch):
    # None keeps the module's byte budget; 1 and 4 set it to that many slab
    # grids, so the six slabs of a short-last run end in a part chunk of 2.
    trajectory = run_simulation(SchemeVariant(variant), linear_wave(), config)
    if chunk_slabs is not None:
        monkeypatch.setattr(diagnostics, "_CHUNK_BYTES",
                            chunk_slabs * slab_grid_bytes(trajectory))
        assert chunk_length(trajectory) == chunk_slabs
    assert_rows_match(bochner_error(trajectory), per_slab_bochner_error(trajectory))


@pytest.mark.parametrize("factory,variant,config", [
    (linear_wave, "dg", SolverConfig(q=1, p=3, dt=1 / 32, dx=1 / 32, t_final=0.55)),
    (nls, "cg", SolverConfig(q=1, p=2, dt=0.1, dx=0.8, t_final=0.65)),
])
def test_chunked_bochner_error_ends_in_a_part_chunk(factory, variant, config):
    # The module's own budget: more slabs than one chunk, and a slab count
    # that is not a multiple of the chunk length.
    trajectory = run_simulation(SchemeVariant(variant), factory(), config)
    chunk = chunk_length(trajectory)
    assert len(trajectory.slabs) > chunk and len(trajectory.slabs) % chunk
    assert_rows_match(bochner_error(trajectory), per_slab_bochner_error(trajectory))
