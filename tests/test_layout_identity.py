"""Run-path products against the layouts they replaced.

The slab evaluation forms its time product as a contiguous (D, nt, dofs)
array, and the nonlinear residual subtracts the tested gradient in the slab
operator's (dofs, D, q+1) row order.  Each reference below is the expression
these replaced: the (D, dofs, nt) time product swapped to (D, nt, dofs) and
the tested gradient swapped and flattened before the subtraction.  These
arrays are compared with ``np.array_equal`` and on their sign bits.  The
Bochner error contracts the exact solution's factors with the evaluated
nodes, which changes its arithmetic, so it is compared with a fresh
(eval - exact) ** 2 per slab to a relative tolerance.
"""

import numpy as np
import pytest

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
