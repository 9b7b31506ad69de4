import dataclasses
import sys

import numpy as np
import pytest

from mspde import diagnostics
from mspde.diagnostics import (
    auxiliary_identity_residual,
    bochner_error,
    densities_fluxes,
    energy_stability_monitor,
    eoc,
    global_invariants,
    local_conservation_residuals,
)
from mspde.mesh import Partition1D, gauss_legendre, nonpolynomial_rule, quadrature_order_policy
from mspde.problems import SeparableSolution, linear_wave, nls, nonlinear_wave
from mspde.solver import (
    SchemeVariant,
    SlabAssembler,
    SolverConfig,
    Trajectory,
    run_simulation,
    slab_rules,
)
from mspde.spaces import SlabCoefficients, SpatialSpace, TemporalSlab


def short_run(variant=SchemeVariant.CG_PRIMARY, factory=nonlinear_wave,
              q=1, p=2, dt=0.1, dx=0.1, t_final=1.0):
    prob = factory()
    config = SolverConfig(q=q, p=p, dt=dt, dx=dx, t_final=t_final)
    return prob, run_simulation(variant, prob, config)


def test_initial_energy_of_harmonic_wave():
    # Closed form: the quadratic part integrates to -pi^2/2 and S vanishes
    # because the two auxiliary components coincide.  The projected initial
    # state reproduces that integral up to its own approximation error.
    prob, traj = short_run(factory=linear_wave, q=0, p=3, dt=1 / 32, dx=1 / 32,
                           t_final=2 / 32)
    inv = global_invariants(traj)
    assert inv.energy[0] == pytest.approx(-np.pi**2 / 2, abs=1e-6)
    assert inv.momentum[0] == pytest.approx(-np.pi**2 / 2, abs=1e-6)


def test_densities_fluxes_constant_state():
    prob, traj = short_run(factory=linear_wave, t_final=0.1)
    coeffs = traj.slabs[0]
    frozen = dataclasses.replace(coeffs, values=np.zeros_like(coeffs.values))
    frozen.values[0] = 1.2
    g, f, e, ef = densities_fluxes(prob, frozen, 0.05, 0.3)
    assert g == pytest.approx(0.0, abs=1e-14)
    assert f == pytest.approx(0.0, abs=1e-14)  # S(c,0,0) = 0 for this density
    assert e == pytest.approx(0.0, abs=1e-14)
    assert ef == pytest.approx(0.0, abs=1e-14)


def test_skew_product_evaluated_two_ways():
    prob, traj = short_run(factory=linear_wave, t_final=0.1)
    coeffs = traj.slabs[0]
    space = coeffs.space
    t, xs = 0.03, np.linspace(0.0, 1.0, 23)
    spatial = coeffs.temporal_values(t)
    spatial_t = coeffs.temporal_values(t, 1)
    z = np.stack([space.evaluate(spatial[c], xs) for c in range(3)], axis=-1)
    zt = np.stack([space.evaluate(spatial_t[c], xs) for c in range(3)], axis=-1)
    one_way = np.einsum("xc,cd,xd->x", zt, prob.K, z)
    other = -np.einsum("xc,cd,xd->x", z, prob.K, zt)
    assert np.max(np.abs(one_way - other)) < 1e-13


def test_constant_trajectory_invariants_flat():
    base = linear_wave()
    prob = dataclasses.replace(
        base,
        initial_state=lambda x: np.stack(
            [np.full_like(x, 0.4), np.zeros_like(x), np.zeros_like(x)], axis=-1),
        exact_solution=None,
    )
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob,
                          SolverConfig(q=0, p=1, dt=0.1, dx=0.25, t_final=1.0))
    inv = global_invariants(traj)
    dm, dp, de = inv.deviations()
    assert dm.max() < 1e-14
    assert dp.max() < 1e-14
    assert de.max() < 1e-14


def test_nonlinear_wave_energy_conserved_momentum_bounded():
    prob, traj = short_run(t_final=2.0)
    inv = global_invariants(traj)
    _, dp, de = inv.deviations()
    assert de.max() < 1e-9
    assert 1e-9 < dp.max() < 1e-3


def test_cg_local_laws_hold_per_slab():
    prob, traj = short_run(t_final=1.0)
    for coeffs in traj.slabs:
        res = local_conservation_residuals(prob, coeffs)
        assert abs(float(res.momentum)) < 1e-10
        assert abs(float(res.energy)) < 1e-10


def test_cg_consistent_momentum_law_despite_plain_drift():
    prob, traj = short_run(t_final=2.0)
    plain = [local_conservation_residuals(prob, c).plain_momentum
             for c in traj.slabs]
    consistent = [float(local_conservation_residuals(prob, c).momentum)
                  for c in traj.slabs]
    assert max(abs(v) for v in plain) > 1e-9      # the plain law genuinely drifts
    assert max(abs(v) for v in consistent) < 1e-10


def test_dg_local_laws_hold_per_element():
    prob, traj = short_run(variant=SchemeVariant.DG_PRIMARY, q=1, p=2,
                           dx=0.125, t_final=0.5)
    for coeffs in traj.slabs:
        res = local_conservation_residuals(prob, coeffs)
        assert res.momentum.shape == (8,)
        assert np.max(np.abs(res.momentum)) < 1e-10
        assert np.max(np.abs(res.energy)) < 1e-10


def test_dg_local_laws_on_nls():
    prob = nls()
    traj = run_simulation(SchemeVariant.DG_PRIMARY, prob,
                          SolverConfig(q=0, p=1, dt=0.1, dx=0.4, t_final=0.5))
    for coeffs in traj.slabs:
        res = local_conservation_residuals(prob, coeffs)
        assert np.max(np.abs(res.energy)) < 1e-10
        assert np.max(np.abs(res.momentum)) < 1e-10


@pytest.mark.parametrize("variant", [SchemeVariant.CG_PRIMARY, SchemeVariant.DG_PRIMARY])
@pytest.mark.parametrize("factory", [nonlinear_wave, nls])
def test_local_laws_on_nonuniform_meshes(variant, factory):
    # One slab on a random nonuniform periodic mesh of 12 elements: the slab
    # (cg) and element (dg) laws must not depend on equal element widths.
    prob = factory()
    widths = np.random.default_rng(12).uniform(0.5, 1.5, 12)
    nodes = np.concatenate([[0.0], np.cumsum(widths)]) * (prob.domain_length / widths.sum())
    nodes[-1] = prob.domain_length
    space = SpatialSpace(Partition1D(nodes), 2, variant.spatial_continuity)
    asm = SlabAssembler(prob, space, 1, 0.1)
    z_nodes = asm.solve_slab(space.project(prob.initial_state), 1e-12, 50).z_nodes
    coeffs = SlabCoefficients(TemporalSlab(0.0, 0.1, 1), space, z_nodes)
    res = local_conservation_residuals(prob, coeffs)
    assert np.max(np.abs(res.momentum)) <= 1e-10
    assert np.max(np.abs(res.energy)) <= 1e-10


@pytest.mark.parametrize("variant", [SchemeVariant.CG_PRIMARY, SchemeVariant.DG_PRIMARY])
@pytest.mark.parametrize("factory", [nonlinear_wave, nls])
@pytest.mark.parametrize("q", [0, 1, 2])
def test_local_laws_exact_on_the_shared_slab_rules(variant, factory, q, monkeypatch):
    # The solver's slab rules integrate every local-law integrand exactly:
    # one more point in time and in space moves no residual beyond roundoff.
    prob, traj = short_run(variant, factory, q=q, dx=factory().domain_length / 10,
                           t_final=0.1)
    coeffs = traj.slabs[0]
    shared = local_conservation_residuals(prob, coeffs)

    def richer(problem, p, q):
        return tuple(gauss_legendre(len(rule) + 1) for rule in slab_rules(problem, p, q))

    monkeypatch.setattr(diagnostics, "slab_rules", richer)
    finer = local_conservation_residuals(prob, coeffs)
    for name in ("momentum", "energy", "plain_momentum"):
        difference = np.abs(getattr(shared, name) - getattr(finer, name))
        assert np.max(difference) <= 1e-14, (name, np.max(difference))


@pytest.mark.parametrize("variant", [SchemeVariant.CG_PRIMARY, SchemeVariant.DG_PRIMARY])
def test_pointwise_densities_integrate_to_the_invariant_series(variant):
    # densities_fluxes at a temporal node, integrated with the invariant
    # series' rule, gives that series' momentum and energy at the node.  The
    # tolerance is relative to the integral of the density's magnitude, as
    # the momentum is a cancelling integral (zero for the initial state).
    prob = nls()
    widths = np.random.default_rng(7).uniform(0.5, 1.5, 10)
    nodes = np.concatenate([[0.0], np.cumsum(widths)]) * (prob.domain_length / widths.sum())
    nodes[-1] = prob.domain_length
    space = SpatialSpace(Partition1D(nodes), 2, variant.spatial_continuity)
    z0 = space.project(prob.initial_state)
    z_nodes = SlabAssembler(prob, space, 1, 0.1).solve_slab(z0, 1e-12, 50).z_nodes
    coeffs = SlabCoefficients(TemporalSlab(0.0, 0.1, 1), space, z_nodes)
    traj = Trajectory(prob, variant, space, 1, z0, [coeffs])
    series = global_invariants(traj)
    rule = slab_rules(prob, space.degree, 1)[1]
    xs = space.quad_points(rule)
    for node, t in enumerate(series.times):
        g, _, e, _ = densities_fluxes(prob, coeffs, t, xs.ravel())
        for density, total in ((g, series.momentum[node]), (e, series.energy[node])):
            density = density.reshape(xs.shape)
            scale = space.integrate(np.abs(density), rule)
            integral = space.integrate(density, rule)
            assert abs(integral - total) <= 1e-13 * scale, (node, integral, total)


def test_bochner_error_zero_for_reproduced_state():
    base = linear_wave()
    prob = dataclasses.replace(
        base,
        initial_state=lambda x: np.stack(
            [np.full_like(x, 0.4), np.zeros_like(x), np.zeros_like(x)], axis=-1),
        # One term: a unit time factor against the constant state.
        exact_solution=SeparableSolution(
            time=lambda t: np.ones(np.shape(t) + (1,)),
            space=lambda x: np.broadcast_to([[0.4], [0.0], [0.0]], np.shape(x) + (3, 1))),
    )
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob,
                          SolverConfig(q=0, p=1, dt=0.1, dx=0.25, t_final=0.5))
    err = bochner_error(traj)
    assert np.max(err) < 1e-13


def test_bochner_error_contracts_the_exact_solution_factors():
    # The error norm tabulates the space factors once per call, on the
    # (M, ns) points of its grid, takes the time factors once per slab, on
    # that slab's nt times, and never evaluates the pointwise closed form.
    prob, traj = short_run(factory=linear_wave, q=1, p=2, dt=0.125, dx=0.125, t_final=0.5)
    exact = prob.exact_solution
    calls = []

    class Recording(SeparableSolution):
        def __call__(self, t, x):
            calls.append(("call",))
            return super().__call__(t, x)

    def time(t):
        calls.append(("time", np.array(t)))
        return exact.time(t)

    def space(x):
        calls.append(("space", np.shape(x)))
        return exact.space(x)

    wrapped = dataclasses.replace(
        traj, problem=dataclasses.replace(prob, exact_solution=Recording(time, space)))
    assert np.array_equal(bochner_error(wrapped), bochner_error(traj))
    elements = traj.space.partition.element_count
    assert calls[0] == ("space", (elements, 9))
    assert [call[0] for call in calls[1:]] == ["time"] * len(traj.slabs)
    rule = nonpolynomial_rule()
    for (_, times), coeffs in zip(calls[1:], traj.slabs):
        assert np.array_equal(times, coeffs.slab.times(rule.points))


def test_bochner_error_nondecreasing():
    prob, traj = short_run(factory=linear_wave, q=0, p=1, dt=0.125, dx=0.125)
    err = bochner_error(traj)
    assert np.all(np.diff(err, axis=0) >= -1e-15)


def test_bochner_requires_exact_solution():
    prob, traj = short_run(factory=nonlinear_wave, t_final=0.2)
    with pytest.raises(ValueError):
        bochner_error(traj)


def test_eoc_values():
    assert eoc(np.array([1.0, 0.25]), np.array([1.0, 0.5])) == pytest.approx([2.0])
    assert eoc(np.array([1.0, 1.0]), np.array([1.0, 0.5])) == pytest.approx([0.0])
    assert eoc(np.array([1e-2, 1.25e-3]), np.array([0.5, 0.25])) == pytest.approx([3.0])


def test_eoc_zero_error_marks_nan():
    rates = eoc(np.array([1e-3, 0.0, 1e-5]), np.array([0.5, 0.25, 0.125]))
    assert np.isnan(rates[0]) and np.isnan(rates[1])


def test_eoc_input_validation():
    with pytest.raises(ValueError):
        eoc(np.array([1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        eoc(np.array([1.0, 0.5]), np.array([0.5, 1.0]))


def test_stability_monitor_bounds_hold():
    for variant in (SchemeVariant.CG_PRIMARY, SchemeVariant.DG_PRIMARY):
        prob, traj = short_run(variant=variant, t_final=2.0, dx=0.125, p=2)
        mon = energy_stability_monitor(traj)
        assert mon.slack() <= 1e-8
        assert mon.bound > 0.0


def test_stability_monitor_rejects_non_wave():
    prob = nls()
    traj = run_simulation(SchemeVariant.CG_PRIMARY, prob,
                          SolverConfig(q=0, p=1, dt=0.1, dx=0.4, t_final=0.2))
    with pytest.raises(ValueError):
        energy_stability_monitor(traj)


def test_auxiliary_identity_at_gauss_times():
    for variant in (SchemeVariant.CG_PRIMARY, SchemeVariant.CG_MOMENTUM,
                    SchemeVariant.DG_PRIMARY):
        prob, traj = short_run(variant=variant, q=1, p=2, dx=0.125, t_final=0.5)
        assert auxiliary_identity_residual(traj) < 1e-10


def test_auxiliary_identity_fails_at_slab_endpoints():
    # The slope component agrees with the projected derivative only at the
    # Gauss times; at slab endpoints the mismatch is a visible top temporal
    # mode, which guards against reading the identity too strongly.
    prob, traj = short_run(q=1, p=2, dx=0.125, t_final=0.5)
    space = traj.space
    rule = gauss_legendre(9)
    b = space.tabulate(rule.points)
    w = space.partition.widths[:, None] * rule.weights[None, :]
    coeffs = traj.slabs[-1]
    spatial = coeffs.temporal_values(coeffs.slab.t_end)
    ux = space.eval_on_rule(spatial[0], rule, 1)
    proj = space.mass_solve(space.scatter_add(np.einsum("mg,kg,mg->mk", ux, b, w)))
    assert np.max(np.abs(spatial[2] - proj)) > 1e-6


def test_convergence_record_rates():
    # One column of rates per component, as cmd_converge reports them.
    rates = eoc(np.array([[1e-1, 2e-1], [2.5e-2, 1e-1], [6.25e-3, 5e-2]]),
                np.array([0.5, 0.25, 0.125]))
    assert rates.shape == (2, 2)
    assert rates[:, 0] == pytest.approx([2.0, 2.0])
    assert rates[:, 1] == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("variant", list(SchemeVariant))
@pytest.mark.parametrize("factory", [linear_wave, nonlinear_wave, nls])
def test_energy_law_across_degree_grid(variant, factory):
    # Per-slab global energy conservation across q in {0,1,2}, p in {1,2,3}
    # for every variant and shipped problem, at coarse desk scale.
    prob = factory()
    dx = prob.domain_length / 10
    for q in (0, 1, 2):
        for p in (1, 2, 3):
            config = SolverConfig(q=q, p=p, dt=0.1, dx=dx, t_final=0.2)
            traj = run_simulation(variant, prob, config)
            inv = global_invariants(traj)
            _, _, de = inv.deviations()
            assert de.max() < 1e-9, (variant, prob.label, q, p, de.max())
            if variant is SchemeVariant.CG_PRIMARY:
                for coeffs in traj.slabs:
                    res = local_conservation_residuals(prob, coeffs)
                    assert abs(float(np.max(np.abs(res.momentum)))) < 1e-9


@pytest.mark.parametrize("variant", list(SchemeVariant))
def test_run_and_diagnostics_need_no_dense_operator(variant, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense spatial operator built on the run path")

    for name, module in list(sys.modules.items()):
        if name.startswith("mspde") and hasattr(module, "g_matrix"):
            monkeypatch.setattr(module, "g_matrix", dense)

    prob, traj = short_run(variant, dx=0.25, t_final=0.2)
    global_invariants(traj)
    for coeffs in traj.slabs:
        local_conservation_residuals(prob, coeffs)
    energy_stability_monitor(traj)
    auxiliary_identity_residual(traj)
    _, linear = short_run(variant, factory=linear_wave, dx=0.25, t_final=0.2)
    bochner_error(linear)


# -- the one-pass diagnostics against their per-node loops -------------------------
#
# The references below evaluate the trajectory one temporal node or one Gauss
# time at a time, through ``node_state`` and ``temporal_values``.


def node_state(trajectory, n):
    """Coefficients (D, dofs) of temporal node n, read off the slabs."""
    return trajectory.initial_coeffs if n == 0 else trajectory.slabs[n - 1].values[:, :, -1]


def reference_invariants(problem, trajectory):
    """The mass, momentum and energy series, and the largest integral of an
    integrand's magnitude as their scale: mass and momentum are cancelling
    integrals, so their roundoff is measured against that."""
    space = trajectory.space
    rule = slab_rules(problem, space.degree, trajectory.q)[1]
    mass, momentum, energy, scale = [], [], [], 0.0
    for n in range(trajectory.node_count):
        state = node_state(trajectory, n)
        vals = space.eval_on_rule(state, rule)
        dcoeffs, order = space.scheme_derivative(state)
        g, _, e, _ = diagnostics._densities(problem, vals,
                                            space.eval_on_rule(dcoeffs, rule, order))
        mass.append([space.integrate(vals[c], rule) for c in range(problem.D)])
        momentum.append(space.integrate(g, rule))
        energy.append(space.integrate(e, rule))
        magnitudes = space.integrate(np.abs(np.stack([*vals, g, e])), rule)
        scale = max(scale, float(np.max(magnitudes)))
    return (np.array(mass), np.array(momentum), np.array(energy)), scale


def reference_monitor(problem, trajectory):
    space = trajectory.space
    rule = slab_rules(problem, space.degree, trajectory.q)[1]
    v2, w2, pot = [], [], []
    for n in range(trajectory.node_count):
        state = node_state(trajectory, n)
        vals = space.eval_on_rule(state, rule)
        z = np.zeros(vals[0].shape + (3,))
        z[..., 0] = vals[0]
        v2.append(space.integrate(vals[1] ** 2, rule))
        pot.append(space.integrate(problem.s(z), rule))
        dcoeffs, order = space.scheme_derivative(state[0])
        du = space.eval_on_rule(dcoeffs, rule, order)
        slope = space.eval_on_rule(space.project_grid(du, rule), rule) if order else du
        w2.append(space.integrate(slope**2, rule))
        if n == 0:
            bound = v2[0] + space.integrate(du**2, rule) + pot[0]
    return np.array(v2), np.array(w2), np.array(pot), bound


def reference_auxiliary_residual(trajectory):
    """The largest mismatch, and the largest slope coefficient as its scale."""
    space = trajectory.space
    rule = gauss_legendre(quadrature_order_policy(2 * space.degree))
    worst, scale = 0.0, 0.0
    for coeffs in trajectory.slabs:
        for s in gauss_legendre(trajectory.q + 1).points:
            spatial = coeffs.temporal_values(coeffs.slab.times(s))
            target, order = space.scheme_derivative(spatial[0])
            if order:
                target = space.project_grid(space.eval_on_rule(target, rule, order), rule)
            worst = max(worst, float(np.max(np.abs(spatial[2] - target))))
            scale = max(scale, float(np.max(np.abs(spatial[2]))))
    return worst, scale


def nonuniform_run(variant, monkeypatch, t_final):
    """A nonlinear wave run, q=1, p=2, dt=0.1, on a fixed-seed nonuniform
    periodic mesh of 9 elements."""
    prob = nonlinear_wave()
    widths = np.random.default_rng(13).uniform(0.5, 1.5, 9)
    nodes = np.concatenate([[0.0], np.cumsum(widths)]) * (prob.domain_length / widths.sum())
    nodes[-1] = prob.domain_length
    space = SpatialSpace(Partition1D(nodes), 2, variant.spatial_continuity)
    monkeypatch.setattr("mspde.solver.build_space", lambda *args: space)
    config = SolverConfig(q=1, p=2, dt=0.1, dx=0.1, t_final=t_final)
    return prob, run_simulation(variant, prob, config)


def assert_series_close(actual, reference, scale=None):
    """Equal shapes, and entries within 1e-13 of ``scale`` (default: the
    largest reference entry)."""
    scale = float(np.max(np.abs(reference))) if scale is None else scale
    assert np.shape(actual) == np.shape(reference)
    assert np.max(np.abs(np.asarray(actual) - reference)) <= 1e-13 * scale


@pytest.mark.parametrize("variant", list(SchemeVariant))
def test_one_pass_diagnostics_match_the_per_node_loops(variant, monkeypatch):
    # Three slabs, the last a remainder of half the step: four nodes.
    prob, traj = nonuniform_run(variant, monkeypatch, t_final=0.25)
    assert traj.node_count == 4 and traj.slabs[-1].slab.dt == pytest.approx(0.05)

    series = global_invariants(traj)
    references, scale = reference_invariants(prob, traj)
    for actual, reference in zip((series.mass, series.momentum, series.energy), references):
        assert_series_close(actual, reference, scale)

    monitor = energy_stability_monitor(traj)
    v2, w2, pot, bound = reference_monitor(prob, traj)
    assert_series_close(monitor.velocity_norm2, v2)
    assert_series_close(monitor.projected_slope_norm2, w2)
    assert_series_close(monitor.potential_integral, pot)
    assert monitor.bound == pytest.approx(bound, rel=1e-13)

    # The residual is a difference of O(1) coefficients, so its roundoff is
    # measured against their size.
    worst, scale = reference_auxiliary_residual(traj)
    assert abs(auxiliary_identity_residual(traj) - worst) <= 1e-13 * scale


@pytest.mark.parametrize("variant", list(SchemeVariant))
def test_diagnostics_of_a_trajectory_without_slabs(variant, monkeypatch):
    prob, traj = nonuniform_run(variant, monkeypatch, t_final=0.1)
    empty = Trajectory(prob, variant, traj.space, traj.q, traj.initial_coeffs)
    series = global_invariants(empty)
    assert series.mass.shape == (1, prob.D)
    assert series.momentum.shape == series.energy.shape == (1,)
    (mass, momentum, energy), scale = reference_invariants(prob, traj)
    for actual, reference in ((series.mass, mass), (series.momentum, momentum),
                              (series.energy, energy)):
        assert_series_close(actual, reference[:1], scale)
    assert energy_stability_monitor(empty).velocity_norm2.shape == (1,)
    assert auxiliary_identity_residual(empty) == 0.0
