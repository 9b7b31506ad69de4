import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from mspde import solver
from mspde.diagnostics import auxiliary_field
from mspde.problems import linear_wave, nls, nonlinear_wave
from mspde.solver import (
    SchemeVariant,
    SlabAssembler,
    SolverConfig,
    SolverFailure,
    Trajectory,
    advance,
    build_space,
    run_simulation,
    slab_rules,
)
from mspde.cli import main
from mspde.mesh import Partition1D, uniform_partition
from mspde.spaces import (BandFactor, CirculantFactor, SlabGrid, SpatialSpace,
                          circulant_factorise)
from test_acceptance import cached_run
from test_recorded_outputs import WORKLOADS


def record(traj, name):
    """One field of every slab's SlabSolution in a trajectory's records."""
    return [getattr(solved, name) for solved in traj.records]


def constant_wave_problem(value=0.7):
    base = linear_wave()
    return dataclasses.replace(
        base,
        initial_state=lambda x: np.stack(
            [np.full_like(x, value), np.zeros_like(x), np.zeros_like(x)], axis=-1),
        exact_solution=None,
    )


def test_variant_labels():
    assert SchemeVariant("cg-momentum") is SchemeVariant.CG_MOMENTUM
    with pytest.raises(ValueError):
        SchemeVariant("upwind")


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(q=0, p=1, dt=0.1, dx=0.1, t_final=1.0, newton_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(q=-1, p=1, dt=0.1, dx=0.1, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(q=0, p=0, dt=0.1, dx=0.1, t_final=1.0)
    with pytest.raises(ValueError):
        SolverConfig(q=0, p=1, dt=0.1, dx=0.1, t_final=1.0, max_newton_iterations=-1)
    valid = dict(q=0, p=1, dt=0.1, dx=0.1, t_final=1.0, newton_tolerance=1e-12)
    for name in ("dt", "dx", "t_final", "newton_tolerance"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                SolverConfig(**{**valid, name: value})


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
    asm = SlabAssembler(prob, space, 1, 0.1)
    z = np.zeros((3, space.dof_count, 3))
    z[0] = 1.3
    r = asm.residual(z)
    assert np.max(np.abs(r)) < 1e-14


def test_residual_size_is_test_space_dimension():
    prob = nonlinear_wave()
    config = SolverConfig(q=2, p=2, dt=0.1, dx=0.25, t_final=1.0)
    space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
    asm = SlabAssembler(prob, space, 2, 0.1)
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
        asm = SlabAssembler(prob, space, config.q, config.dt)
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
    asm = SlabAssembler(prob, space, 1, 0.1)
    rng = np.random.default_rng(1)
    j1 = asm.jacobian(rng.standard_normal((3, space.dof_count, 3)))
    j2 = asm.jacobian(rng.standard_normal((3, space.dof_count, 3)))
    assert not np.shares_memory(j1.data, j2.data)
    assert np.max(np.abs(j1.toarray() - j2.toarray())) < 1e-13


def acceptance_assembler(factory, variant, dx):
    """Assembler and constant-in-time start of a q=1, p=2, dt=0.1 slab."""
    prob = factory()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=dx, t_final=0.1)
    space = build_space(prob, config, variant)
    asm = SlabAssembler(prob, space, config.q, config.dt)
    z0 = space.project(prob.initial_state)
    return asm, np.repeat(z0[:, :, None], config.q + 2, axis=2)


@pytest.mark.parametrize("factory,variant,dx,nnz", [
    (nls, SchemeVariant.DG_PRIMARY, 0.4, 37_600),
    (nonlinear_wave, SchemeVariant.CG_PRIMARY, 0.05, 4_160),
])
def test_jacobian_stores_only_the_declared_hessian_pattern(factory, variant, dx, nnz):
    # Off the declared pattern (the nonlinear wave's off-diagonal entries,
    # NLS's entries outside the (u, v) block and the p, q diagonal) the
    # Hessian is zero for every state; the fixed pattern stores none of them.
    asm, z = acceptance_assembler(factory, variant, dx)
    assert asm.jacobian(z).nnz == nnz


def test_jacobian_pattern_is_built_lazily_and_results_share_its_read_only_indices():
    asm, z = acceptance_assembler(nonlinear_wave, SchemeVariant.CG_PRIMARY, 0.25)
    assert "_pattern" not in vars(asm) and asm._band is None
    j1 = asm.jacobian(z)
    j2 = asm.jacobian(2.0 * z)
    assert "_pattern" in vars(asm)
    pattern = asm._pattern[0]
    # Every call has fresh values ...
    assert not np.shares_memory(j1.data, j2.data)
    assert not np.shares_memory(j1.data, pattern.data)
    # ... and the pattern's index arrays, which no caller can write.
    for jac in (j1, j2):
        assert jac.indices is pattern.indices and jac.indptr is pattern.indptr
        for index in (jac.indices, jac.indptr):
            with pytest.raises(ValueError):
                index[0] = index[0]
    assert np.max(np.abs(j1.toarray() - j2.toarray())) > 0.0
    for jac in (j1, j2):
        jac.check_format(full_check=True)
        assert jac.has_sorted_indices
        # The flag may be carried over from the pattern, so read the indices too.
        assert all(np.all(np.diff(jac.indices[start:end]) > 0)
                   for start, end in zip(jac.indptr[:-1], jac.indptr[1:]))
    j1.data[:] = 0.0
    assert np.array_equal(asm.jacobian(2.0 * z).toarray(), j2.toarray())


def test_nls_slab_factor_fill_stays_banded():
    # In the folded (dof, component, time) order the NLS slab Jacobian is a
    # band whose widths do not depend on the mesh, so the factor's storage
    # grows linearly with the elements.  On the acceptance mesh (2,400
    # unknowns) the band factor holds about 118k nonzeros.
    asm, z = acceptance_assembler(nls, SchemeVariant.DG_PRIMARY, 0.4)
    assert asm.size == 2400
    factor = asm.factorise(z)
    assert np.count_nonzero(factor.lu) <= 150_000
    fine, z_fine = acceptance_assembler(nls, SchemeVariant.DG_PRIMARY, 0.1)
    fine_factor = fine.factorise(z_fine)
    assert (fine_factor.kl, fine_factor.ku) == (factor.kl, factor.ku)


@pytest.mark.parametrize("factory,variant,dx", [
    (nls, SchemeVariant.DG_PRIMARY, 0.4),
    (nonlinear_wave, SchemeVariant.CG_PRIMARY, 0.05),
    (linear_wave, SchemeVariant.DG_PRIMARY, 0.1),
])
def test_band_factor_step_matches_a_dense_solve(factory, variant, dx):
    # State-dependent Jacobians, and a constant one whose element widths
    # (linspace's tenths) are not bit-identical, are factorised as one band
    # LU in the folded dof order; its Newton step is a dense solve's.
    asm, z = acceptance_assembler(factory, variant, dx)
    assert isinstance(asm.factorise(z), BandFactor)
    z = z + 0.01 * np.random.default_rng(5).standard_normal(z.shape)
    r = asm.residual(z)
    dense = np.linalg.solve(asm.jacobian(z).toarray(), -r)
    step = asm.factorise(z).solve(-r)
    assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))


def circulant_slab(continuity, p, q, count):
    """Assembler of a linear wave slab on ``count`` elements of width 0.25,
    whose bit-identical widths make its Jacobian block circulant, and that
    Jacobian."""
    prob = linear_wave()
    space = SpatialSpace(uniform_partition(0.25 * count, count), p, continuity)
    asm = SlabAssembler(prob, space, q, 0.1)
    return asm, asm.jacobian(np.zeros((prob.D, asm.n, q + 2)))


@pytest.mark.parametrize("continuity,p,q,count", [
    (continuity, p, q, count) for continuity in ("cg", "dg") for p in (1, 2, 3)
    for q in (0, 1, 2) for count in (2, 3, 4, 7)])
def test_a_circulant_factor_solves_like_a_dense_solve(continuity, p, q, count):
    # Two elements are each other's left and right neighbour, and three and
    # seven give an odd number of Fourier blocks.
    asm, jac = circulant_slab(continuity, p, q, count)
    block = asm.size // count
    factor = circulant_factorise(jac, count)
    assert factor.inverse.shape == (count // 2 + 1, block, block)
    assert isinstance(asm.factorise(np.zeros((asm.problem.D, asm.n, q + 2))), CirculantFactor)
    rhs = np.random.default_rng(p + 3 * q + 9 * count).standard_normal(asm.size)
    dense = np.linalg.solve(jac.toarray(), rhs)
    assert np.max(np.abs(factor.solve(rhs) - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_a_circulant_factor_solves_several_right_hand_sides():
    asm, jac = circulant_slab("dg", 2, 1, 4)
    factor = circulant_factorise(jac, 4)
    rhs = np.random.default_rng(2).standard_normal((asm.size, 3))
    solution = factor.solve(rhs)
    assert solution.shape == rhs.shape
    dense = np.linalg.solve(jac.toarray(), rhs)
    assert np.max(np.abs(solution - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_only_an_exactly_circulant_matrix_gets_a_circulant_factor():
    prob = linear_wave()
    widths = np.random.default_rng(4).uniform(0.5, 1.5, 8)
    jittered = Partition1D(np.concatenate([[0.0], np.cumsum(widths / widths.sum())]))
    tenths = build_space(prob, SolverConfig(q=1, p=2, dt=0.1, dx=0.1, t_final=0.1),
                         SchemeVariant.DG_PRIMARY)
    for space in (SpatialSpace(jittered, 2, "dg"), tenths):
        asm = SlabAssembler(prob, space, 1, 0.1)
        z = np.zeros((prob.D, asm.n, 3))
        assert circulant_factorise(asm.jacobian(z), space.partition.element_count) is None
        assert isinstance(asm.factorise(z), BandFactor)

    asm, jac = circulant_slab("cg", 2, 1, 4)
    assert circulant_factorise(jac, 4) is not None
    last = jac.nnz - 5  # an entry of the last block row
    perturbed = jac.copy()
    perturbed.data[last] = np.nextafter(perturbed.data[last], np.inf)
    assert circulant_factorise(perturbed, 4) is None
    # The same values but one entry, which is no longer stored.
    dropped = jac.copy()
    dropped.data[last] = 0.0
    dropped.eliminate_zeros()
    assert dropped.nnz == jac.nnz - 1
    assert circulant_factorise(dropped, 4) is None
    assert circulant_factorise(jac, 3) is None  # 3 does not divide the unknowns


def test_a_singular_circulant_jacobian_is_a_solver_failure(monkeypatch):
    # The same local row zeroed in every block row keeps the matrix block
    # circulant and makes every Fourier block singular.
    asm, jac = circulant_slab("dg", 2, 1, 4)
    block = asm.size // 4
    for row in range(5, asm.size, block):
        jac.data[jac.indptr[row]:jac.indptr[row + 1]] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        circulant_factorise(jac, 4)
    monkeypatch.setattr(asm, "jacobian", lambda z_nodes, state=None: jac)
    z = np.zeros((asm.problem.D, asm.n, 3))
    with pytest.raises(SolverFailure, match="singular slab Jacobian"):
        asm.factorise(z)


@pytest.mark.parametrize("workload,factor", [
    ("lwave-converge", CirculantFactor), ("nls-dg", BandFactor), ("nlwave-cgm", BandFactor)])
def test_each_benchmark_workload_keeps_its_factor(workload, factor, tmp_path, monkeypatch):
    # The linear convergence study's uniform levels are solved by the
    # circulant factor; the nonlinear workloads never reach it.
    kept = []
    solve_slab = SlabAssembler.solve_slab

    def recording(self, *args, **kwargs):
        solved = solve_slab(self, *args, **kwargs)
        kept.append((self.space.partition.element_count, type(self._factor)))
        return solved

    monkeypatch.setattr(SlabAssembler, "solve_slab", recording)
    assert main([*WORKLOADS[workload], "--out", str(tmp_path)]) == 0
    assert kept and all(kind is factor for _, kind in kept)
    if workload == "lwave-converge":
        assert sorted({count for count, _ in kept}) == [4, 8, 16, 32, 64]


def test_slab_memory_grows_linearly_with_the_elements():
    # Four times the elements of an NLS dg slab (dx 0.4 -> 0.1) must take
    # less than six times the peak traced memory; a dense Jacobian would
    # take about sixteen times.
    peaks = []
    for dx in (0.4, 0.1):
        config = SolverConfig(q=1, p=2, dt=0.1, dx=dx, t_final=0.1)
        tracemalloc.start()
        try:
            run_simulation(SchemeVariant.DG_PRIMARY, nls(), config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] / peaks[0] < 6.0


@pytest.mark.parametrize("variant,factory", [
    (SchemeVariant.DG_PRIMARY, linear_wave),
    (SchemeVariant.CG_PRIMARY, nonlinear_wave),
    (SchemeVariant.DG_PRIMARY, nonlinear_wave),
    (SchemeVariant.CG_PRIMARY, nls),
    (SchemeVariant.CG_MOMENTUM, nonlinear_wave),
])
def test_jacobian_matches_finite_differences(variant, factory):
    prob = factory()
    config = SolverConfig(q=1, p=1, dt=0.1, dx=prob.domain_length / 4, t_final=0.1)
    space = build_space(prob, config, variant)
    asm = SlabAssembler(prob, space, config.q, config.dt)
    rng = np.random.default_rng(3)
    z = rng.uniform(-0.5, 0.5, (prob.D, space.dof_count, config.q + 2))
    jac = asm.jacobian(z).toarray()
    step = 1e-6
    fd = np.zeros_like(jac)
    for j in range(asm.size):
        delta = np.zeros(asm.size)
        delta[j] = step
        zp, zm = z.copy(), z.copy()
        zp[:, :, 1:] += asm.as_nodes(delta)
        zm[:, :, 1:] -= asm.as_nodes(delta)
        fd[:, j] = (asm.residual(zp) - asm.residual(zm)) / (2 * step)
    scale = np.maximum(1.0, np.abs(jac))
    assert np.max(np.abs(jac - fd) / scale) < 1e-5


def test_linear_problem_converges_in_one_iteration():
    prob = linear_wave()
    config = SolverConfig(q=1, p=2, dt=0.125, dx=0.125, t_final=0.5)
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert all(n == 1 for n in record(traj, "iterations"))


def test_linear_problem_factorises_once_per_assembler(monkeypatch):
    # dt does not divide t_final: six slabs of 0.15 and one of 0.1, two
    # assemblers, one factorisation each, kept for every later slab.  One
    # Newton step solves a linear slab from any start, so no slab is
    # predicted.
    monkeypatch.setattr(SlabAssembler, "predict", None)
    prob = linear_wave()
    config = SolverConfig(q=1, p=2, dt=0.15, dx=0.125, t_final=1.0)
    traj = run_simulation(SchemeVariant.DG_PRIMARY, prob, config)
    assert record(traj, "factorisations") == [1, 0, 0, 0, 0, 0, 1]
    assert record(traj, "iterations") == [1] * 7


def test_advance_builds_only_the_assemblers_it_uses(monkeypatch):
    # A run shorter than dt is one slab of length t_final: no assembler of
    # length dt is built for it.
    init, lengths = SlabAssembler.__init__, []

    def counted(self, problem, space, q, dt):
        lengths.append(dt)
        init(self, problem, space, q, dt)

    monkeypatch.setattr(SlabAssembler, "__init__", counted)
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.125, t_final=0.05)
    traj = run_simulation(SchemeVariant.DG_PRIMARY, linear_wave(), config)
    assert len(traj.slabs) == 1
    assert lengths == [0.05]


@pytest.mark.parametrize("variant", list(SchemeVariant))
def test_linear_slabs_evaluate_no_gradient_after_set_up(variant, monkeypatch):
    # A quadratic S enters the slab operator and one constant vector when
    # the assembler is set up; solving a slab is then two residual
    # evaluations (the start and the one step) and no grad S or Hessian call.
    base = linear_wave()
    calls = {"set_up": 0, "other": 0}
    phase = ["other"]

    def counted(fn):
        def wrapped(z):
            calls[phase[0]] += 1
            return fn(z)
        return wrapped

    prob = dataclasses.replace(base, grad_s=counted(base.grad_s), hess_s=counted(base.hess_s))
    init, residual = SlabAssembler.__init__, SlabAssembler.residual
    residual_calls = []

    def set_up(self, *args):
        phase[0] = "set_up"
        init(self, *args)
        phase[0] = "other"

    def counted_residual(self, z_nodes, state=None):
        residual_calls.append(self.dt)
        return residual(self, z_nodes, state)

    monkeypatch.setattr(SlabAssembler, "__init__", set_up)
    monkeypatch.setattr(SlabAssembler, "residual", counted_residual)
    config = SolverConfig(q=1, p=2, dt=0.15, dx=0.125, t_final=1.0)
    traj = run_simulation(variant, prob, config)
    assert len(traj.slabs) == 7
    assert calls["set_up"] > 0
    assert calls["other"] == 0
    assert len(residual_calls) == 2 * len(traj.slabs)


@pytest.mark.parametrize("factory,variant,dx,t_final", [
    (nonlinear_wave, SchemeVariant.CG_MOMENTUM, 0.05, 0.5),
    (nls, SchemeVariant.DG_PRIMARY, 0.4, 0.2),
])
def test_nonlinear_newton_evaluates_each_iterate_once(factory, variant, dx, t_final,
                                                      monkeypatch):
    # Each Newton iterate's grid state is evaluated once, by the residual,
    # and shared with the Jacobian at that iterate: the slab grid is
    # evaluated and grad S runs once per residual evaluation, and the
    # Hessian and jacobian() once per Newton step, whose GMRES solve
    # multiplies by it.
    base = factory()
    calls = {"grad_s": 0, "hess_s": 0, "residual": 0, "grid": 0, "jacobian": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    prob = dataclasses.replace(base, grad_s=counted("grad_s", base.grad_s),
                               hess_s=counted("hess_s", base.hess_s))
    for name in ("residual", "jacobian", "eval"):
        monkeypatch.setattr(SlabAssembler, name,
                            counted("grid" if name == "eval" else name,
                                    getattr(SlabAssembler, name)))
    config = SolverConfig(q=1, p=2, dt=0.1, dx=dx, t_final=t_final)
    traj = run_simulation(variant, prob, config)
    assert sum(record(traj, "iterations")) >= 2 * len(traj.slabs)
    assert calls["grid"] == calls["residual"]
    assert calls["grad_s"] == calls["residual"]
    assert calls["hess_s"] == calls["jacobian"] == sum(record(traj, "iterations"))


@pytest.mark.parametrize("factory,variant,dx", [
    (nonlinear_wave, SchemeVariant.CG_PRIMARY, 0.05),
    (nonlinear_wave, SchemeVariant.CG_MOMENTUM, 0.05),
    (nls, SchemeVariant.DG_PRIMARY, 0.4),
    (nls, SchemeVariant.CG_PRIMARY, 0.4),
])
def test_factor_from_the_shared_iterate_grid_is_bit_identical(factory, variant, dx,
                                                              monkeypatch):
    # The Newton loop factorises on the grid state its residual evaluated;
    # that factor equals one built from the nodes alone, bit for bit, and
    # the values factorise scatters are jacobian()'s at the nodes alone.
    asm, z = acceptance_assembler(factory, variant, dx)
    z = z + 0.01 * np.random.default_rng(7).standard_normal(z.shape)
    scattered = []
    jacobian = SlabAssembler.jacobian

    def recorded(self, z_nodes, state=None):
        jac = jacobian(self, z_nodes, state)
        scattered.append(jac.data.copy())
        return jac

    monkeypatch.setattr(SlabAssembler, "jacobian", recorded)
    state, _ = asm._evaluate(z)
    shared = asm._factorise(z, state, asm.jacobian(z, state))
    alone = asm.factorise(z)
    assert np.array_equal(shared.lu, alone.lu)
    assert np.array_equal(shared.ipiv, alone.ipiv)
    assert len(scattered) == 2
    data = jacobian(asm, z).data
    assert np.array_equal(data, scattered[0]) and np.array_equal(data, scattered[1])


@pytest.mark.parametrize("factory,variant,dx", [
    (nls, SchemeVariant.DG_PRIMARY, 0.4),
    (nonlinear_wave, SchemeVariant.CG_PRIMARY, 0.05),
])
def test_a_passed_grid_state_gives_the_residual_and_jacobian_of_the_nodes(factory, variant,
                                                                          dx):
    # The grid state that _evaluate hands the Newton step yields, bit for
    # bit, the residual and the Jacobian that the nodes alone give.
    asm, z = acceptance_assembler(factory, variant, dx)
    z = z + 0.01 * np.random.default_rng(5).standard_normal(z.shape)
    state, r = asm._evaluate(z)
    assert np.array_equal(r, asm.residual(z))
    assert np.array_equal(asm.residual(z, state), asm.residual(z))
    shared, alone = asm.jacobian(z, state), asm.jacobian(z)
    assert np.array_equal(shared.indptr, alone.indptr)
    assert np.array_equal(shared.indices, alone.indices)
    assert np.array_equal(shared.data, alone.data)


def test_nls_dg_predicted_slabs_take_fewer_factorisations():
    # The NLS dg workload: 3 iterations from the constant extension on the
    # first slab (9 for the run without the predictor), 2 from each
    # predicted start; one factorisation, kept for the GMRES solves of all
    # later steps.
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.4, t_final=0.3)
    traj = run_simulation(SchemeVariant.DG_PRIMARY, nls(), config)
    assert record(traj, "iterations") == [3, 2, 2]
    assert record(traj, "factorisations") == [1, 0, 0]
    assert record(traj, "restarted") == [False] * 3


def test_predicted_slab_takes_at_least_one_step():
    # A guess that already meets the tolerance (the solved slab itself, or
    # the extrapolation of the zero steady state) still takes a Newton step.
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.25, t_final=0.1)
    space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
    asm = SlabAssembler(prob, space, config.q, config.dt)
    z0 = space.project(prob.initial_state)
    solved = asm.solve_slab(z0, 1e-12, 50)
    assert np.max(np.abs(asm.residual(solved.z_nodes))) <= 1e-12
    again = asm.solve_slab(z0, 1e-12, 50, guess=solved.z_nodes)
    assert (again.iterations, again.factorisations, again.restarted) == (1, 0, False)
    assert again.residual <= 1e-12

    zero = dataclasses.replace(prob, initial_state=lambda x: np.zeros(np.shape(x) + (3,)),
                               exact_solution=None)
    steady = run_simulation(SchemeVariant.CG_PRIMARY, zero,
                            dataclasses.replace(config, t_final=1.0))
    assert record(steady, "iterations")[0] == 0
    assert min(record(steady, "iterations")[1:]) >= 1
    assert not np.any(steady.node_states()[-1])


def test_nls_coarse_dg_converges_through_the_restart(monkeypatch):
    # Criterion 7's coarsest dg run: Newton from the extrapolated start of
    # slab 1 diverges, so the slab restarts from the constant extension,
    # without the kept factor, and then repeats the constant-start solve
    # exactly, step by step: the first step after the restart factorises
    # without trying the factor kept from the abandoned iterations.  The
    # abandoned iterations and factorisations stay in its counts.
    steps = []
    newton_step = SlabAssembler._newton_step

    def recorded(self, z_nodes, state, r, norm):
        result = newton_step(self, z_nodes, state, r, norm)
        steps.append(result[1:])  # (factorisations, GMRES iterations)
        return result

    monkeypatch.setattr(SlabAssembler, "_newton_step", recorded)
    prob = nls()
    config = SolverConfig(q=0, p=1, dt=1.6, dx=1.6, t_final=3.2)
    traj = run_simulation(SchemeVariant.DG_PRIMARY, prob, config)
    assert record(traj, "restarted") == [False, True]
    assert max(record(traj, "residual")) <= config.newton_tolerance
    slab_steps = steps[record(traj, "iterations")[0]:]
    steps.clear()
    asm = SlabAssembler(prob, traj.space, config.q, config.dt)
    fresh = asm.solve_slab(traj.node_states()[1], config.newton_tolerance,
                           config.max_newton_iterations)
    assert record(traj, "iterations")[1] > fresh.iterations
    assert record(traj, "factorisations") == [2, 3] and fresh.factorisations == 2
    assert steps[0] == (1, 0)
    assert slab_steps[-fresh.iterations:] == steps
    assert np.array_equal(traj.slabs[1].values, fresh.z_nodes)


def kept_factor_step(factory, variant, dx, kept_at, offset=None):
    """The Newton step at nodes z of an assembler that keeps the factor of
    the nodes kept_at(z): the assembler, z and its grid state, its residual
    r, z's own factor, and the step, its factorisations and its GMRES
    iterations.

    z is the constant-in-time start plus 0.01 noise, whose residual is far
    from the tolerance (||r||_inf = 2.9e-2 on NLS dg), or, given ``offset``,
    the slab's Newton solution plus ``offset`` noise."""
    asm, z = acceptance_assembler(factory, variant, dx)
    noise = np.random.default_rng(11).standard_normal(z.shape)
    if offset is None:
        z = z + 0.01 * noise
    else:
        z = asm.solve_slab(z[:, :, 0], 1e-12, 50).z_nodes + offset * noise
    state, r = asm._evaluate(z)
    own = asm.factorise(z)
    asm._factor = asm.factorise(kept_at(z))
    return asm, z, state, r, own, asm._newton_step(z, state, r, solver._max_norm(r))


def nearby(z):
    return z + 0.02 * np.random.default_rng(12).standard_normal(z.shape)


# An iterate 1e-6 off the slab's solution has ||r||_inf <= 1e-6 (6.7e-7 on
# NLS dg, 9.5e-8 on the nonlinear wave), where the forcing term is 1e-12:
# its step is solved to max(1e-12 ||r||_2, 1e-15), as tightly as an exact
# step.  The tests of the solve itself run there.
CONVERGING = 1e-6


# The forcing term is 1e-4 at the far iterate (||r||_inf 2.9e-2 on NLS dg,
# 3.3e-2 on the nonlinear wave) and 1e-12 at the converging one: the tests
# of how a step is chosen run at both.
ITERATES = pytest.mark.parametrize("offset", [None, CONVERGING], ids=["far", "converging"])


@ITERATES
@pytest.mark.parametrize("factory,variant,dx", [
    (nls, SchemeVariant.DG_PRIMARY, 0.4),
    (nonlinear_wave, SchemeVariant.CG_PRIMARY, 0.05),
])
def test_a_stale_kept_factor_is_replaced(factory, variant, dx, offset):
    # With the factor of fifty times the nodes GMRES reaches its cap at
    # either iterate, so the step refactorises at the iterate, keeps that
    # factor and is its solve.  (The factor of ten times the nodes serves
    # the nonlinear wave's step, in 2 iterations far off and 6 near the
    # solution.)
    asm, _, _, r, own, (step, factorised, krylov) = kept_factor_step(
        factory, variant, dx, lambda z: 50.0 * z, offset)
    assert (solver._max_norm(r) <= 1e-6) == (offset == CONVERGING)
    assert (factorised, krylov) == (1, solver._GMRES_CAP)
    expected = own.solve(-r)
    assert np.max(np.abs(step - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert np.array_equal(asm._factor.lu, own.lu)


def test_a_gmres_step_meets_the_linear_tolerance():
    # Near the solution, a nearby factor serves the step in 3 GMRES
    # iterations and is kept.
    asm, z, state, r, _, (step, factorised, krylov) = kept_factor_step(
        nls, SchemeVariant.DG_PRIMARY, 0.4, nearby, CONVERGING)
    assert solver._max_norm(r) <= 1e-6
    assert (factorised, krylov) == (0, 3)
    assert np.array_equal(asm._factor.lu, asm.factorise(nearby(z)).lu)
    linear = asm.jacobian(z, state) @ step + r
    assert np.linalg.norm(linear) <= max(1e-12 * np.linalg.norm(r), 1e-15)


@pytest.mark.parametrize("offset,kept_at", [
    (None, lambda z: 1.5 * z), (CONVERGING, nearby)], ids=["far", "converging"])
@pytest.mark.parametrize("cap", [0, 1, 2])
def test_a_step_never_comes_from_an_unconverged_gmres_solve(cap, offset, kept_at, monkeypatch):
    # Capped below the 3 iterations that the kept factor needs (that of 1.5
    # times the far iterate's nodes, or the nearby one near the solution),
    # GMRES stops unconverged and the step is the solve of the iterate's
    # factor.
    monkeypatch.setattr(solver, "_GMRES_CAP", cap)
    _, _, _, r, own, (step, factorised, krylov) = kept_factor_step(
        nls, SchemeVariant.DG_PRIMARY, 0.4, kept_at, offset)
    assert (solver._max_norm(r) <= 1e-6) == (offset == CONVERGING)
    assert (factorised, krylov) == (1, cap)
    assert np.array_equal(step, own.solve(-r))


def test_a_step_far_from_the_solution_stops_at_the_forcing_tolerance(monkeypatch):
    # At ||r||_inf = 2.9e-2 the forcing term is its 1e-4 cap: the kept
    # factor's GMRES solve stops at max(eta ||r||_2, 1e-15), in fewer
    # iterations than the same step solved to 1e-12.
    asm, z, state, r, _, (step, factorised, krylov) = kept_factor_step(
        nls, SchemeVariant.DG_PRIMARY, 0.4, nearby)
    norm = solver._max_norm(r)
    eta = min(max(norm**2, 1e-12), 1e-4)
    assert norm > 1e-6 and solver._forcing(norm) == eta
    assert factorised == 0
    linear = asm.jacobian(z, state) @ step + r
    assert np.linalg.norm(linear) <= max(eta * np.linalg.norm(r), 1e-15)

    monkeypatch.setattr(solver, "_forcing", lambda norm: 1e-12)
    *_, (_, tight_factorised, tight_krylov) = kept_factor_step(
        nls, SchemeVariant.DG_PRIMARY, 0.4, nearby)
    assert tight_factorised == 0
    assert krylov < tight_krylov


@pytest.mark.parametrize("norm,eta", [
    (0.0, 1e-12), (1e-300, 1e-12), (1e-9, 1e-12), (9.99e-7, 1e-12), (1e-6, 1e-12),
    (2e-6, 4e-12), (1e-3, 1e-6), (1e-2, 1e-4), (1.0, 1e-4), (np.inf, 1e-4),
])
def test_the_forcing_term(norm, eta):
    # Exact Newton (1e-12) from ||r||_inf <= 1e-6 on, then ||r||_inf^2 up
    # to its 1e-4 cap.
    assert solver._forcing(norm) == pytest.approx(eta, rel=1e-15)


@pytest.mark.parametrize("run", [
    ("nonlinear-wave", "cg-momentum", 1, 2, 0.1, 0.05, 10.0),  # the nlwave-cgm workload
    ("nls", "dg", 1, 2, 0.1, 0.4, 2.0 * np.pi),  # the NLS dg acceptance run
], ids=["nlwave-cgm", "nls-dg-acceptance"])
def test_the_forcing_term_removes_krylov_work_only(run, monkeypatch):
    # The per-slab Newton iterations are those of steps solved to 1e-12;
    # a linear forcing term, min(||r||_inf, 1e-3), would add iterations on
    # both runs (201 against 200 and 150 against 127).
    problem, variant, traj = cached_run(*run)
    q, p, dt, dx, t_final = run[2:]
    config = SolverConfig(q=q, p=p, dt=dt, dx=dx, t_final=t_final)
    assert max(record(traj, "residual")) <= config.newton_tolerance
    monkeypatch.setattr(solver, "_forcing", lambda norm: 1e-12)
    exact = run_simulation(variant, problem, config)
    assert record(traj, "iterations") == record(exact, "iterations")
    assert record(traj, "restarted") == record(exact, "restarted")
    assert record(traj, "stalled") == record(exact, "stalled")
    assert sum(record(traj, "krylov_iterations")) < sum(record(exact, "krylov_iterations"))


def test_krylov_iterations_are_recorded_per_slab():
    # A linear problem's kept factor is exact, so no slab runs GMRES; the
    # predicted slabs of the NLS dg workload solve every step by GMRES on
    # the first slab's factor.
    config = SolverConfig(q=1, p=2, dt=0.15, dx=0.125, t_final=1.0)
    for variant in (SchemeVariant.CG_PRIMARY, SchemeVariant.DG_PRIMARY):
        traj = run_simulation(variant, linear_wave(), config)
        assert record(traj, "krylov_iterations") == [0] * len(traj.slabs)
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.4, t_final=0.3)
    traj = run_simulation(SchemeVariant.DG_PRIMARY, nls(), config)
    assert len(record(traj, "krylov_iterations")) == 3
    assert min(record(traj, "krylov_iterations")[1:]) > 0


def test_short_final_slab_extrapolates_with_the_step_ratio(monkeypatch):
    # The predictor of a 0.1 slab after 0.15 slabs evaluates the previous
    # trial polynomial at 1 + (0.1 / 0.15) s: exact for a polynomial of
    # the trial degree in time.
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=2, dt=0.15, dx=0.25, t_final=1.0)
    calls = []
    predict = SlabAssembler.predict

    def recorded(self, previous, dt_previous):
        calls.append((self.dt, dt_previous))
        return predict(self, previous, dt_previous)

    monkeypatch.setattr(SlabAssembler, "predict", recorded)
    run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert np.allclose(calls, [(0.15, 0.15)] * 5 + [(0.1, 0.15)], rtol=0.0, atol=1e-12)

    space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
    asm = SlabAssembler(prob, space, config.q, 0.1)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal((3, prob.D, space.dof_count))

    def at(t):
        return coeffs[0] + coeffs[1] * t + coeffs[2] * t**2

    previous = np.stack([at(t) for t in (0.0, 0.075, 0.15)], axis=-1)
    expected = np.stack([at(t) for t in (0.15, 0.2, 0.25)], axis=-1)
    assert np.max(np.abs(asm.predict(previous, 0.15) - expected)) <= 1e-13


def test_nonlinear_newton_iteration_count():
    # Regression baseline: three iterations on the first slab, from the
    # constant-extension guess; the predicted starts of later slabs take
    # no more.
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.1, t_final=1.0)
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert max(record(traj, "iterations")) <= 8
    assert max(record(traj, "iterations")) == 3


def test_newton_failure_reports_residual():
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=1, dt=0.1, dx=0.25, t_final=0.5,
                          max_newton_iterations=1)
    with pytest.raises(SolverFailure) as excinfo:
        run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert excinfo.value.residual_norm > 0.0
    assert excinfo.value.slab_index == 0
    assert "slab 0" in str(excinfo.value)


@pytest.mark.parametrize("tolerance,max_iterations,cause,other", [
    (1e-12, 1, "reached the iteration limit 1", "stalled"),
    (1e-30, 50, "stalled", "iteration limit"),
])
def test_newton_failure_names_its_cause(tolerance, max_iterations, cause, other):
    # One Newton step leaves an NLS slab's residual far above 1e-12; a
    # tolerance of 1e-30 is out of reach, so the iteration ends on a
    # roundoff-scale step far above 10x the tolerance.
    asm, z_nodes = acceptance_assembler(nls, SchemeVariant.DG_PRIMARY, 0.4)
    with pytest.raises(SolverFailure) as excinfo:
        asm.solve_slab(z_nodes[:, :, 0], tolerance, max_iterations)
    message, norm = str(excinfo.value), excinfo.value.residual_norm
    assert cause in message and other not in message
    assert f"residual {norm:.3e}" in message
    assert norm > 10.0 * tolerance


def test_slab_accepted_above_tolerance_is_logged(monkeypatch, caplog):
    prob = linear_wave()
    config = SolverConfig(q=0, p=1, dt=0.1, dx=0.25, t_final=0.2)
    with caplog.at_level(logging.WARNING, logger="mspde.solver"):
        traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert not caplog.records
    assert len(record(traj, "residual")) == 2
    assert max(record(traj, "residual")) <= config.newton_tolerance

    solve = SlabAssembler.solve_slab

    def stalled(self, z_start, tolerance, max_iterations, guess=None):
        solved = solve(self, z_start, tolerance, max_iterations, guess)
        return solved._replace(residual=5.0 * tolerance)

    monkeypatch.setattr(SlabAssembler, "solve_slab", stalled)
    with caplog.at_level(logging.WARNING, logger="mspde.solver"):
        traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    assert record(traj, "residual") == [5.0 * config.newton_tolerance] * 2
    messages = [record.getMessage() for record in caplog.records]
    assert len(messages) == 2
    assert "slab 0 " in messages[0] and "slab 1 " in messages[1]
    assert all("5.000e-12" in message for message in messages)


def test_normal_run_records_no_stalled_slab():
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.25, t_final=0.5)
    traj = run_simulation(SchemeVariant.CG_PRIMARY, nonlinear_wave(), config)
    assert record(traj, "stalled") == [False] * 5
    assert max(record(traj, "residual")) <= config.newton_tolerance


def test_slab_below_the_roundoff_floor_is_recorded_as_stalled(caplog):
    # At amplitude 1e4 the converged residual settles between about 3e-13
    # and 5e-13, so a tolerance of 1e-13 is out of reach: every slab ends on
    # a roundoff-size step and is accepted under the 10x rule.
    base = linear_wave()
    prob = dataclasses.replace(base, initial_state=lambda x: 1e4 * base.initial_state(x))
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.125, t_final=0.3, newton_tolerance=1e-13)
    with caplog.at_level(logging.WARNING, logger="mspde.solver"):
        traj = run_simulation(SchemeVariant.DG_PRIMARY, prob, config)
    assert record(traj, "stalled") == [True] * 3
    assert all(1e-13 < norm <= 1e-12 for norm in record(traj, "residual"))
    assert len(caplog.records) == 3

    space = build_space(prob, config, SchemeVariant.DG_PRIMARY)
    asm = SlabAssembler(prob, space, config.q, config.dt)
    solved = asm.solve_slab(space.project(prob.initial_state), 1e-13, 50)
    assert solved.stalled and solved.iterations >= 2
    assert not asm.solve_slab(space.project(prob.initial_state), 1e-12, 50).stalled


def test_steady_state_trajectory_constant():
    prob = constant_wave_problem()
    config = SolverConfig(q=0, p=1, dt=0.1, dx=0.25, t_final=2.0)
    for variant in SchemeVariant:
        traj = run_simulation(variant, prob, config)
        final = traj.node_states()[-1]
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


def test_advance_yields_the_growing_trajectory():
    # One trajectory, yielded before the first slab and after each one, with
    # a short last slab; the last yield is run_simulation's result, and each
    # record's nodes are its slab's coefficients, not a copy.
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.4, t_final=0.25)
    slab_counts = []
    for traj in advance(SchemeVariant.DG_PRIMARY, nls(), config):
        assert len(traj.times) == len(traj.slabs) + 1 == len(traj.records) + 1
        slab_counts.append(len(traj.slabs))
    assert slab_counts == [0, 1, 2, 3]
    assert traj.times[-1] == config.t_final
    final = run_simulation(SchemeVariant.DG_PRIMARY, nls(), config)
    assert np.array_equal(traj.times, final.times)
    assert np.array_equal(traj.node_states(), final.node_states())
    for ours, theirs in zip(traj.records, final.records, strict=True):
        assert np.array_equal(ours.z_nodes, theirs.z_nodes)
        assert ours[1:] == theirs[1:]
    assert all(solved.z_nodes is coeffs.values
               for solved, coeffs in zip(traj.records, traj.slabs, strict=True))


@pytest.mark.parametrize("factory,config,restarted", [
    (linear_wave, SolverConfig(q=1, p=2, dt=0.1, dx=0.25, t_final=0.3), False),
    (nls, SolverConfig(q=1, p=2, dt=0.1, dx=0.8, t_final=0.3), False),
    (nls, SolverConfig(q=0, p=1, dt=1.6, dx=1.6, t_final=3.2), True),
])
def test_accepted_nodes_own_their_memory(factory, config, restarted, monkeypatch):
    # Newton works on a (dofs, D, q+2) iterate; each accepted slab's nodes
    # are a C-contiguous (D, dofs, q+2) copy that shares memory with neither
    # the slab's start and guess nor the next slab's nodes, and the
    # trajectory stores that very array.
    calls = []
    solve_slab = SlabAssembler.solve_slab

    def recorded(self, z_start, tolerance, max_iterations, guess=None):
        solved = solve_slab(self, z_start, tolerance, max_iterations, guess)
        calls.append((z_start, guess, solved.z_nodes))
        return solved

    monkeypatch.setattr(SlabAssembler, "solve_slab", recorded)
    traj = run_simulation(SchemeVariant.DG_PRIMARY, factory(), config)
    assert any(record(traj, "restarted")) == restarted
    assert (calls[-1][1] is None) == (factory is linear_wave)
    shape = (traj.problem.D, traj.space.dof_count, config.q + 2)
    for (z_start, guess, z_nodes), following, coeffs in zip(calls, calls[1:] + [None],
                                                            traj.slabs, strict=True):
        assert z_nodes.shape == shape and z_nodes.flags.c_contiguous
        assert not np.shares_memory(z_nodes, z_start)
        assert guess is None or not np.shares_memory(z_nodes, guess)
        assert following is None or not np.shares_memory(z_nodes, following[2])
        assert coeffs.values is z_nodes


def test_a_shared_run_cannot_be_written():
    # cached_run hands one trajectory to every test that asks for it, so its
    # coefficient arrays are read-only: a write raises instead of changing
    # the inputs of other tests.
    _, _, traj = cached_run("linear-wave", "cg", 0, 1, 0.125, 0.125, 1.0)
    for values in (traj.initial_coeffs, traj.slabs[0].values, traj.records[-1].z_nodes):
        with pytest.raises(ValueError, match="read-only"):
            values[0, 0] += 1.0


def test_consecutive_slabs_share_interface_values():
    prob = nonlinear_wave()
    config = SolverConfig(q=2, p=2, dt=0.1, dx=0.125, t_final=1.0)
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    states = traj.node_states()
    assert np.array_equal(states[0], traj.initial_coeffs)
    for n, coeffs in enumerate(traj.slabs):
        assert np.array_equal(coeffs.values[:, :, 0], states[n])
        assert np.array_equal(coeffs.values[:, :, -1], states[n + 1])
    assert len(states) == traj.node_count


def test_newton_solve_public_entrypoint():
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=1, dt=0.1, dx=0.25, t_final=0.1)
    space = build_space(prob, config, SchemeVariant.CG_PRIMARY)
    asm = SlabAssembler(prob, space, 1, 0.1)
    z0 = space.project(lambda x: prob.initial_state(x))
    z_nodes = asm.solve_slab(z0, 1e-12, 50).z_nodes
    r = asm.residual(z_nodes)
    assert np.max(np.abs(r)) < 1e-12


def test_momentum_variant_reproduces_primary_dynamics():
    # The slab-local projection of the gradient term agrees with the plain
    # gradient on every test function, so cg-momentum solves the cg slab
    # system: the same nodes, bit for bit, from the same Newton work.
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.125, t_final=0.5)
    t1 = run_simulation(SchemeVariant.CG_PRIMARY, prob, config)
    t2 = run_simulation(SchemeVariant.CG_MOMENTUM, prob, config)
    assert len(t1.slabs) == len(t2.slabs) == 5
    for a, b in zip(t1.slabs, t2.slabs):
        assert np.array_equal(a.values, b.values)
    for name in ("iterations", "factorisations", "krylov_iterations", "restarted"):
        assert record(t1, name) == record(t2, name), name


def test_momentum_variant_auxiliary_field_solves_the_coupled_system():
    # The coupled momentum scheme: scheme rows int (K z_t + L z_x - a) . phi tau
    # on the continuous space and projection rows int (a - grad S(z)) . psi tau
    # on the broken space.  The cg field with the projected auxiliary field
    # must satisfy both on every slab, the short last one included.
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.125, t_final=0.45)
    traj = run_simulation(SchemeVariant.CG_MOMENTUM, prob, config)
    aux_space, aux = auxiliary_field(traj)
    assert aux.shape == (5, 3, aux_space.dof_count, config.q + 2)
    assert aux_space.continuity == "dg" and aux_space.degree == config.p
    assert traj.slabs[-1].slab.dt == pytest.approx(0.05)
    rules = slab_rules(prob, config.p, config.q)
    aux_prev = aux[0, :, :, 0]
    for coeffs, aux_nodes in zip(traj.slabs, aux):
        assert np.array_equal(aux_nodes[:, :, 0], aux_prev)
        aux_prev = aux_nodes[:, :, -1]
        grid = SlabGrid(traj.space, config.q, coeffs.slab.dt, *rules)
        aux_grid = SlabGrid(aux_space, config.q, coeffs.slab.dt, *rules)
        z = grid.eval(coeffs.values, grid.Tt)
        zt = grid.eval(coeffs.values, grid.dTt / coeffs.slab.dt)
        zx = grid.eval(coeffs.values, grid.Tt, derivative_order=1)
        a = aux_space.eval_on_rule(np.swapaxes(aux_nodes @ grid.Tt, 1, 2), grid.rule_x)
        grad = np.moveaxis(prob.grad_s(np.moveaxis(z, 0, -1)), -1, 0)
        scheme = (np.einsum("cd,dgmh->cgmh", prob.K, zt)
                  + np.einsum("cd,dgmh->cgmh", prob.L, zx) - a)
        scheme_rows = grid.test(scheme)
        projection_rows = aux_grid.test(a - grad)
        assert np.max(np.abs(projection_rows)) <= 1e-12
        assert np.max(np.abs(scheme_rows)) <= 1e-12


def test_momentum_variant_projects_the_initial_auxiliary_field():
    # The auxiliary field starts from the broken-space projection of
    # grad S at the initial state.
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.25, t_final=0.1)
    traj = run_simulation(SchemeVariant.CG_MOMENTUM, prob, config)
    aux_space, aux = auxiliary_field(traj)
    rule_x = slab_rules(prob, config.p, config.q)[1]
    zgrid = traj.space.eval_on_rule(traj.initial_coeffs, rule_x)
    grad = np.moveaxis(prob.grad_s(np.moveaxis(zgrid, 0, -1)), -1, 0)
    expected = aux_space.project_grid(grad, rule_x)
    assert np.array_equal(aux[0, :, :, 0], expected)


def test_auxiliary_field_of_other_variants_and_of_no_slabs():
    # Only cg-momentum carries an auxiliary field; a trajectory without
    # slabs, as advance yields before the first one, has no auxiliary nodes.
    prob = nonlinear_wave()
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.25, t_final=0.1)
    for variant in (SchemeVariant.CG_PRIMARY, SchemeVariant.DG_PRIMARY):
        with pytest.raises(ValueError, match="cg-momentum"):
            auxiliary_field(run_simulation(variant, prob, config))
    traj = run_simulation(SchemeVariant.CG_MOMENTUM, prob, config)
    empty = Trajectory(prob, traj.variant, traj.space, traj.q, traj.initial_coeffs)
    aux_space, aux = auxiliary_field(empty)
    assert aux.shape == (0, 3, aux_space.dof_count, config.q + 2)
