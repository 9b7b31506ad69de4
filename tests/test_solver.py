import dataclasses

import numpy as np
import pytest

from mspde.problems import linear_wave, nls, nonlinear_wave
from mspde.solver import (
    SchemeVariant,
    SlabAssembler,
    SolverConfig,
    SolverFailure,
    build_space,
    run_simulation,
)


def constant_wave_problem(value=0.7):
    base = linear_wave()
    return dataclasses.replace(
        base,
        initial_state=lambda x: np.stack(
            [np.full_like(x, value), np.zeros_like(x), np.zeros_like(x)], axis=-1),
        exact_solution=None,
    )


def test_variant_labels():
    assert SchemeVariant.from_label("cg-momentum") is SchemeVariant.CG_MOMENTUM
    with pytest.raises(ValueError):
        SchemeVariant.from_label("upwind")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(q=0, p=1, dt=0.1, dx=0.1, t_final=1.0, newton_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(q=-1, p=1, dt=0.1, dx=0.1, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(q=0, p=0, dt=0.1, dx=0.1, t_final=1.0)


def test_space_matches_requested_width():
    prob = nls()
    config = SolverConfig(q=0, p=1, dt=0.1, dx=0.4, t_final=1.0)
    space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
    assert space.partition.element_count == 100
    with pytest.raises(ValueError):
        build_space(prob, dataclasses.replace(config, dx=0.3), SchemeVariant.CG_PRIMARY)


def test_residual_vanishes_at_constant_steady_state():
    prob = linear_wave()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.25, t_final=1.0)
    space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
    asm = SlabAssembler(SchemeVariant.CG_PRIMARY, prob, space, 1, 0.1)
    z = np.zeros((3, space.dof_count, 3))
    z[0] = 1.3
    r = asm.residual(z)
    assert np.max(np.abs(r)) < 1e-14


def test_residual_size_is_test_space_dimension():
    prob = nonlinear_wave()
    config = SolverConfig(q=2, p=2, dt=0.1, dx=0.25, t_final=1.0)
    space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
    asm = SlabAssembler(SchemeVariant.CG_PRIMARY, prob, space, 2, 0.1)
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, space.dof_count, 4))
    r = asm.residual(z)
    assert r.size == 3 * space.dof_count * (2 + 1)


def test_residual_of_projected_exact_solution_shrinks():
    prob = linear_wave()
    norms = []
    for m in (8, 16, 32):
        config = SolverConfig(q=1, p=2, dt=1.0 / m, dx=1.0 / m, t_final=1.0)
        space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
        asm = SlabAssembler(SchemeVariant.CG_PRIMARY, prob, space, config.q, config.dt)
        nodes = np.stack(
            [space.project(lambda x, s=s: prob.exact_solution(s * config.dt, x))
             for s in np.linspace(0.0, 1.0, config.q + 2)],
            axis=-1,
        )
        r = asm.residual(nodes)
        norms.append(np.max(np.abs(r)))
    assert norms[1] < 0.5 * norms[0]
    assert norms[2] < 0.5 * norms[1]


def test_linear_jacobian_state_independent():
    prob = linear_wave()
    config = SolverConfig(q=1, p=1, dt=0.1, dx=0.25, t_final=1.0)
    space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
    asm = SlabAssembler(SchemeVariant.CG_PRIMARY, prob, space, 1, 0.1)
    rng = np.random.default_rng(1)
    j1 = asm.jacobian(rng.standard_normal((3, space.dof_count, 3))).toarray()
    j2 = asm.jacobian(rng.standard_normal((3, space.dof_count, 3))).toarray()
    assert np.max(np.abs(j1 - j2)) < 1e-13


@pytest.mark.parametrize("variant,factory", [
    (SchemeVariant.CG_PRIMARY, nonlinear_wave),
    (SchemeVariant.DG_PRIMARY, nonlinear_wave),
    (SchemeVariant.CG_PRIMARY, nls),
])
def test_jacobian_matches_finite_differences(variant, factory):
    prob = factory()
    config = SolverConfig(q=1, p=1, dt=0.1, dx=prob.domain_length / 4, t_final=0.1)
    space = build_space(prob, config, variant)
    asm = SlabAssembler(variant, prob, space, config.q, config.dt)
    rng = np.random.default_rng(3)
    z = rng.uniform(-0.5, 0.5, (prob.D, space.dof_count, config.q + 2))
    jac = asm.jacobian(z).toarray()
    step = 1e-6
    fd = np.zeros_like(jac)
    for j in range(asm.size):
        delta = np.zeros(asm.size)
        delta[j] = step
        zp, zm = z.copy(), z.copy()
        zp[:, :, 1:] += delta.reshape(prob.D, space.dof_count, config.q + 1)
        zm[:, :, 1:] -= delta.reshape(prob.D, space.dof_count, config.q + 1)
        fd[:, j] = (asm.residual(zp) - asm.residual(zm)) / (2 * step)
    scale = np.maximum(1.0, np.abs(jac))
    assert np.max(np.abs(jac - fd) / scale) < 1e-5


def test_momentum_variant_jacobian_includes_projected_hessian_block():
    prob = nonlinear_wave()
    config = SolverConfig(q=0, p=1, dt=0.1, dx=0.25, t_final=0.1)
    space = build_space(prob, config, SchemeVariant.CG_MOMENTUM)
    asm = SlabAssembler(SchemeVariant.CG_MOMENTUM, prob, space, config.q, config.dt)
    rng = np.random.default_rng(4)
    z = rng.uniform(-0.5, 0.5, (3, space.dof_count, 2))
    aux = rng.uniform(-0.5, 0.5, (3, asm.aux_space.dof_count, 2))
    jac = asm.jacobian(z).toarray()
    step = 1e-6
    fd = np.zeros_like(jac)
    for j in range(asm.size):
        delta = np.zeros(asm.size)
        delta[j] = step

        def shifted(sign):
            zz, aa = z.copy(), aux.copy()
            zz[:, :, 1:] += sign * delta[: asm.n_z].reshape(3, space.dof_count, 1)
            aa[:, :, 1:] += sign * delta[asm.n_z:].reshape(3, asm.aux_space.dof_count, 1)
            return zz, aa

        zp, ap = shifted(+1.0)
        zm, am = shifted(-1.0)
        fd[:, j] = (asm.residual(zp, ap) - asm.residual(zm, am)) / (2 * step)
    scale = np.maximum(1.0, np.abs(jac))
    assert np.max(np.abs(jac - fd) / scale) < 1e-5


def test_linear_problem_converges_in_one_iteration():
    prob = linear_wave()
    config = SolverConfig(q=1, p=2, dt=0.125, dx=0.125, t_final=0.5)
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert all(n == 1 for n in traj.newton_iterations)


def test_nonlinear_newton_iteration_count():
    # Regression baseline: three iterations from the constant-extension guess.
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.1, t_final=1.0)
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert max(traj.newton_iterations) <= 8
    assert max(traj.newton_iterations) == 3


def test_newton_failure_reports_residual():
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=1, dt=0.1, dx=0.25, t_final=0.5,
                          max_newton_iterations=1)
    with pytest.raises(SolverFailure) as excinfo:
        run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert excinfo.value.residual_norm > 0.0
    assert excinfo.value.slab_index == 0


def test_steady_state_trajectory_constant():
    prob = constant_wave_problem()
    config = SolverConfig(q=0, p=1, dt=0.1, dx=0.25, t_final=2.0)
    for variant in SchemeVariant:
        traj = run_simulation(variant, prob, config)
        final = traj.state_at_node(traj.node_count - 1)
        assert abs(final[0] - 0.7).max() < 1e-12
        assert np.max(np.abs(final[1:])) < 1e-12


def test_slab_count_and_final_time():
    prob = linear_wave()
    config = SolverConfig(q=0, p=1, dt=0.1, dx=0.25, t_final=1.0)
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert len(traj.slabs) == 10
    assert abs(traj.times[-1] - 1.0) < 1e-12


def test_short_final_slab_hits_t_final():
    prob = linear_wave()
    config = SolverConfig(q=0, p=1, dt=0.15, dx=0.25, t_final=1.0)
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert len(traj.slabs) == 7  # ceil(1.0 / 0.15)
    assert abs(traj.times[-1] - 1.0) < 1e-12


def test_consecutive_slabs_share_interface_values():
    prob = nonlinear_wave()
    config = SolverConfig(q=2, p=2, dt=0.1, dx=0.125, t_final=1.0)
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    prev = traj.initial_coeffs
    for coeffs in traj.slabs:
        assert np.array_equal(coeffs.values[:, :, 0], prev)
        prev = coeffs.values[:, :, -1]


def test_newton_solve_public_entrypoint():
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=1, dt=0.1, dx=0.25, t_final=0.1)
    space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
    asm = SlabAssembler(SchemeVariant.CG_PRIMARY, prob, space, 1, 0.1)
    z0 = space.project(lambda x: prob.initial_state(x))
    z_nodes, _, _, _ = asm.solve_slab(z0, None, 1e-12, 50)
    r = asm.residual(z_nodes)
    assert np.max(np.abs(r)) < 1e-12


def test_momentum_variant_reproduces_primary_dynamics():
    # The slab-local projection of the gradient term agrees with the plain
    # gradient on every test function, so the two variants produce the same
    # field; this pins that equivalence down numerically.
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.125, t_final=0.5)
    t1 = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    t2 = run_simulation(SchemeVariant.CG_MOMENTUM, prob, config)
    worst = max(
        float(np.max(np.abs(a.values - b.values)))
        for a, b in zip(t1.slabs, t2.slabs)
    )
    assert worst < 1e-10


def test_variant_space_mismatch_rejected():
    prob = linear_wave()
    config = SolverConfig(q=0, p=1, dt=0.1, dx=0.25, t_final=0.2)
    space = build_space(prob, config, SchemeVariant.DG_PRIMARY)
    with pytest.raises(ValueError):
        SlabAssembler(SchemeVariant.CG_PRIMARY, prob, space, 0, 0.1)
