"""Acceptance suite: one test per cited criterion, with a PASS/FAIL line each.

Two assertions are expected to fail and are left failing deliberately; both
are documented in README.md ("Known deviations"):

* criterion 4: the momentum-projecting variant provably coincides with the
  primary continuous scheme for any slab-local projection target containing
  the test space, so its invariant behaviour cannot differ from criterion 3's.
* criterion 6, odd-degree clause: with the seam-centred soliton the discrete
  setup is mirror-symmetric and the p=1 momentum defect stays at solver
  tolerance instead of exceeding 1e-6 on this grid.
"""

import functools
import time

import numpy as np

from mspde.diagnostics import (
    auxiliary_identity_residual,
    bochner_error,
    energy_stability_monitor,
    eoc,
    global_invariants,
    local_conservation_residuals,
)
from mspde.mesh import gauss_legendre, uniform_partition
from mspde.problems import linear_wave, nls, nonlinear_wave, validate
from mspde.solver import (
    SchemeVariant,
    SlabAssembler,
    SolverConfig,
    build_space,
    run_simulation,
)
from mspde.spaces import SpatialSpace
from mspde.spatial_ops import g_matrix, node_traces

PROBLEMS = {
    "linear-wave": linear_wave,
    "nonlinear-wave": nonlinear_wave,
    "nls": nls,
}


@functools.lru_cache(maxsize=None)
def cached_run(problem_label, variant_label, q, p, dt, dx, t_final):
    problem = PROBLEMS[problem_label]()
    variant = SchemeVariant.from_label(variant_label)
    config = SolverConfig(q=q, p=p, dt=dt, dx=dx, t_final=t_final)
    trajectory = run_simulation(variant, problem, config)
    return problem, variant, trajectory


def deviations(problem, variant, trajectory):
    return global_invariants(variant, problem, trajectory).deviations()


def report(criterion, passed, detail):
    print(f"criterion {criterion:>2}: {'PASS' if passed else 'FAIL'} - {detail}")


# -- criterion 1: operator identity suite ---------------------------------------


def test_criterion_01_operator_identity_suite():
    from mspde.spatial_ops import local_g_boundary_terms, weak_g_from_samples

    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for p in (1, 2, 3):
        for m in (4, 8):
            space = SpatialSpace(uniform_partition(1.0, m), p, "dg")
            mass = space.mass_matrix()
            g = g_matrix(space)
            ones = np.ones(space.dof_count)
            u = rng.uniform(-1.0, 1.0, size=(50, space.dof_count))
            v = rng.uniform(-1.0, 1.0, size=(50, space.dof_count))
            gu, gv = u @ g.T, v @ g.T
            # orthogonality to constants and global skew-symmetry
            worst = max(worst, float(np.max(np.abs(gu @ mass @ ones))))
            skew = np.einsum("ni,ij,nj->n", gu, mass, v) \
                + np.einsum("ni,ij,nj->n", u, mass, gv)
            worst = max(worst, float(np.max(np.abs(skew))))
            # global product rule: weak derivative of the sampled product
            rule = gauss_legendre(2 * p + 2)
            uv = space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule)
            duv = (space.eval_on_rule(u, rule, 1) * space.eval_on_rule(v, rule)
                   + space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule, 1))
            ul, ur = node_traces(space, u)
            vl, vr = node_traces(space, v)
            g_uv = weak_g_from_samples(space, uv, duv, ul * vl, ur * vr, rule)
            lhs = g_uv @ mass @ ones
            rhs = np.einsum("ni,ij,nj->n", gu, mass, v) \
                + np.einsum("ni,ij,nj->n", u, mass, gv)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            # local identities: orthogonality, skew, product rule per element
            w = space.partition.widths[:, None] * rule.weights[None, :]
            for n in range(4):
                gu_v = np.einsum("mg,mg->m", space.eval_on_rule(gu[n], rule)
                                 * space.eval_on_rule(v[n], rule), w)
                u_gv = np.einsum("mg,mg->m", space.eval_on_rule(u[n], rule)
                                 * space.eval_on_rule(gv[n], rule), w)
                gu_one = np.einsum("mg,mg->m", space.eval_on_rule(gu[n], rule), w)
                g_uv_elem = np.einsum("mg,mg->m",
                                      space.eval_on_rule(g_uv[n], rule), w)
                avg_u = 0.5 * (ul[n] + ur[n])
                for elem in range(m):
                    terms = local_g_boundary_terms(space, u[n], v[n], elem)
                    upper = (elem + 1) % m
                    worst = max(worst, abs(gu_one[elem]
                                           - (avg_u[upper] - avg_u[elem])))
                    worst = max(worst, abs(gu_v[elem] + u_gv[elem]
                                           - (terms.cross_upper - terms.cross_lower)))
                    prod_lhs = g_uv_elem[elem] + terms.avg_lower - terms.avg_upper
                    prod_rhs = gu_v[elem] + u_gv[elem] \
                        + terms.cross_lower - terms.cross_upper
                    worst = max(worst, abs(prod_lhs - prod_rhs))
    elapsed = time.time() - start
    passed = worst <= 1e-12 and elapsed < 10.0
    report(1, passed, f"max identity residual {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


# -- criterion 2: linear wave sweep ----------------------------------------------

# Regression baselines: final-level order of e_u for i = 2..5, pinned from
# the first instrumented run of this suite.
EOC_BASELINES = {
    ("cg", 0, 1): 1.9788,
    ("cg", 0, 2): 1.9678,
    ("cg", 0, 3): 1.9682,
    ("cg", 1, 1): 2.0293,
    ("cg", 1, 2): 2.0541,
    ("cg", 1, 3): 3.0698,
    ("dg", 0, 1): 1.3508,
    ("dg", 0, 2): 1.9682,
    ("dg", 0, 3): 1.9682,
    ("dg", 1, 1): 1.0641,
    ("dg", 1, 2): 3.0604,
    ("dg", 1, 3): 3.0689,
}


def test_criterion_02_linear_wave_conservation_and_orders():
    start = time.time()
    worst_dev = 0.0
    rates = {}
    for variant in ("cg", "dg"):
        for q in (0, 1):
            for p in (1, 2, 3):
                errors, hs = [], []
                for i in range(2, 6):
                    h = 2.0**-i
                    problem, var, traj = cached_run("linear-wave", variant, q, p, h, h, 1.0)
                    _, dev_p, dev_e = deviations(problem, var, traj)
                    worst_dev = max(worst_dev, dev_p.max(), dev_e.max())
                    errors.append(bochner_error(traj)[-1][0])
                    hs.append(h)
                assert np.all(np.diff(errors) < 0.0), (variant, q, p, errors)
                rates[(variant, q, p)] = eoc(np.array(errors), np.array(hs))[-1]

    baseline_ok = all(abs(rates[key] - EOC_BASELINES[key]) <= 0.05
                      for key in EOC_BASELINES)
    parity_cg = all(rates[("cg", q, 3)] > rates[("cg", q, 2)] for q in (0, 1))
    parity_dg = all(rates[("dg", q, 1)] < rates[("dg", q, 2)] for q in (0, 1))
    elapsed = time.time() - start
    passed = (worst_dev <= 1e-10 and baseline_ok and parity_cg and parity_dg
              and elapsed < 300.0)
    report(2, passed, f"max nodal deviation {worst_dev:.2e}, orders pinned, "
                      f"parity cg/dg ok, {elapsed:.0f}s")
    assert worst_dev <= 1e-10
    assert baseline_ok, {k: (round(rates[k], 4), EOC_BASELINES[k]) for k in rates}
    assert parity_cg and parity_dg
    assert elapsed < 300.0


# -- criteria 3 and 4: nonlinear wave --------------------------------------------


def test_criterion_03_nonlinear_wave_primary_conservation():
    start = time.time()
    worst_energy, worst_mass_ratio, worst_momentum = 0.0, 0.0, 0.0
    monotone = False
    for q, p in ((0, 1), (1, 2)):
        problem, variant, traj = cached_run("nonlinear-wave", "cg", q, p, 0.1, 0.05, 10.0)
        dev_m, dev_p, dev_e = deviations(problem, variant, traj)
        worst_energy = max(worst_energy, dev_e.max())
        mass_dev = dev_m[:, 0]
        floor = max(10.0 * mass_dev[1], 1e-11)
        worst_mass_ratio = max(worst_mass_ratio, mass_dev.max() / floor)
        worst_momentum = max(worst_momentum, dev_p.max())
        monotone = monotone or bool(np.all(np.diff(dev_p) >= 0.0))
    elapsed = time.time() - start
    passed = (worst_energy <= 1e-9 and worst_mass_ratio <= 1.0
              and worst_momentum <= 1e-3 and not monotone and elapsed < 120.0)
    report(3, passed, f"energy {worst_energy:.2e}, momentum {worst_momentum:.2e} "
                      f"bounded non-monotone, mass non-propagating, {elapsed:.0f}s")
    assert worst_energy <= 1e-9
    assert worst_mass_ratio <= 1.0
    assert worst_momentum <= 1e-3
    assert not monotone
    assert elapsed < 120.0


def test_criterion_04_momentum_variant_reverses_conservation_roles():
    # Expected failure: any slab-local least-squares image of the gradient
    # term whose target space contains the test space acts identically on
    # every test function, so the variant reproduces the primary scheme and
    # cannot trade energy conservation for exact momentum conservation.
    start = time.time()
    problem, variant, traj = cached_run("nonlinear-wave", "cg-momentum", 1, 2,
                                        0.1, 0.05, 10.0)
    _, dev_p, dev_e = deviations(problem, variant, traj)
    elapsed = time.time() - start
    passed = dev_p.max() <= 1e-9 and dev_e.max() >= 1e-4 and elapsed < 120.0
    report(4, passed, f"momentum {dev_p.max():.2e} (want <=1e-9), "
                      f"energy {dev_e.max():.2e} (want >=1e-4), {elapsed:.0f}s")
    assert elapsed < 120.0
    assert dev_p.max() <= 1e-9, (
        "the projected-gradient variant coincides with the primary scheme; "
        "see README 'Known deviations'"
    )
    assert dev_e.max() >= 1e-4


# -- criteria 5 and 6: focusing Schroedinger -------------------------------------


def test_criterion_05_nls_continuous_conserves_both():
    start = time.time()
    worst_p, worst_e = 0.0, 0.0
    for q in (0, 1):
        for p in (1, 2):
            problem, variant, traj = cached_run("nls", "cg", q, p, 0.1, 0.4,
                                                2.0 * np.pi)
            _, dev_p, dev_e = deviations(problem, variant, traj)
            worst_p = max(worst_p, dev_p.max())
            worst_e = max(worst_e, dev_e.max())
    elapsed = time.time() - start
    passed = worst_p <= 1e-8 and worst_e <= 1e-8 and elapsed < 180.0
    report(5, passed, f"momentum {worst_p:.2e}, energy {worst_e:.2e}, {elapsed:.0f}s")
    assert worst_p <= 1e-8
    assert worst_e <= 1e-8
    assert elapsed < 180.0


def test_criterion_06_nls_broken_energy_and_even_degree_momentum():
    start = time.time()
    worst_e, momentum = 0.0, {}
    for q in (0, 1):
        for p in (1, 2):
            problem, variant, traj = cached_run("nls", "dg", q, p, 0.1, 0.4,
                                                2.0 * np.pi)
            _, dev_p, dev_e = deviations(problem, variant, traj)
            worst_e = max(worst_e, dev_e.max())
            momentum[(q, p)] = dev_p.max()
    worst_p2 = max(momentum[(0, 2)], momentum[(1, 2)])
    elapsed = time.time() - start
    passed = worst_e <= 1e-8 and worst_p2 <= 1e-8 and elapsed < 180.0
    report(6, passed, f"energy {worst_e:.2e} (all p), p=2 momentum {worst_p2:.2e}, "
                      f"{elapsed:.0f}s")
    assert worst_e <= 1e-8
    assert worst_p2 <= 1e-8
    assert elapsed < 180.0


def test_criterion_06_nls_broken_odd_degree_momentum_defect():
    # Expected failure: the seam-centred soliton makes the discrete setup
    # mirror-symmetric, the momentum-defect integrand is parity-odd, and the
    # p=1 deviation stays at solver tolerance on this grid instead of
    # exceeding 1e-6.  The underlying instability is real (see
    # test_odd_degree_momentum_instability_is_real below).
    worst_p1 = 0.0
    for q in (0, 1):
        problem, variant, traj = cached_run("nls", "dg", q, 1, 0.1, 0.4, 2.0 * np.pi)
        _, dev_p, _ = deviations(problem, variant, traj)
        worst_p1 = max(worst_p1, dev_p.max())
    passed = worst_p1 > 1e-6
    report(6, passed, f"p=1 momentum deviation {worst_p1:.2e} (want > 1e-6)")
    assert worst_p1 > 1e-6, (
        "mirror symmetry of the seam-centred soliton suppresses the odd-degree "
        "momentum defect at this resolution; see README 'Known deviations'"
    )


def test_odd_degree_momentum_instability_is_real():
    # Qualitative companion to the failing clause above: seeding the
    # derivative operator's null mode grows the momentum deviation for p=1
    # by an order of magnitude more than for p=2.
    import dataclasses

    base = nls()
    growth = {}
    for p in (1, 2):
        space = SpatialSpace(uniform_partition(40.0, 100), p, "dg")
        g = g_matrix(space)
        vt = np.linalg.svd(g)[2]
        null = vt[-1] - vt[-1].mean()
        if np.linalg.norm(null) < 1e-8:
            null = vt[-2] - vt[-2].mean()
        null /= np.max(np.abs(null))
        eps = 1e-8

        def seeded(x, null=null, space=space):
            z = base.exact_solution(0.0, x)
            z[..., 0] += eps * space.evaluate(null, x)
            return z

        prob = dataclasses.replace(base, initial_state=seeded)
        traj = run_simulation(SchemeVariant.DG_PRIMARY, prob,
                              SolverConfig(q=0, p=p, dt=0.1, dx=0.4,
                                           t_final=2.0 * np.pi))
        inv = global_invariants(SchemeVariant.DG_PRIMARY, prob, traj)
        growth[p] = np.abs(inv.momentum - inv.momentum[0]).max()
    assert growth[1] > 5.0 * growth[2]


# -- criterion 7: nls convergence --------------------------------------------------

NLS_EOC_BASELINES = {"cg": 1.8374, "dg": 1.8184}


def test_criterion_07_nls_convergence():
    start = time.time()
    finals = {}
    for variant in ("cg", "dg"):
        errors, hs = [], []
        for i in range(1, 5):
            h = 3.2 * 2.0**-i
            problem, var, traj = cached_run("nls", variant, 0, 1, h, h, 3.2)
            errors.append(bochner_error(traj)[-1][0])
            hs.append(h)
        assert np.all(np.diff(errors) < 0.0), (variant, errors)
        finals[variant] = eoc(np.array(errors), np.array(hs))[-1]
    baseline_ok = all(abs(finals[v] - NLS_EOC_BASELINES[v]) <= 0.05
                      for v in finals)
    elapsed = time.time() - start
    passed = baseline_ok
    report(7, passed, f"errors decrease, final orders {finals}, {elapsed:.0f}s")
    assert baseline_ok, finals


# -- criterion 8: auxiliary identity ------------------------------------------------


def test_criterion_08_auxiliary_identity_on_wave_runs():
    worst = 0.0
    basket = [
        cached_run("linear-wave", "cg", 0, 1, 0.125, 0.125, 1.0),
        cached_run("linear-wave", "cg", 1, 3, 0.125, 0.125, 1.0),
        cached_run("linear-wave", "dg", 1, 2, 0.125, 0.125, 1.0),
        cached_run("nonlinear-wave", "cg", 0, 1, 0.1, 0.05, 10.0),
        cached_run("nonlinear-wave", "cg", 1, 2, 0.1, 0.05, 10.0),
        cached_run("nonlinear-wave", "cg-momentum", 1, 2, 0.1, 0.05, 10.0),
    ]
    for _, _, traj in basket:
        worst = max(worst, auxiliary_identity_residual(traj))
    passed = worst <= 1e-10
    report(8, passed, f"max |W - projected slope| at Gauss times {worst:.2e}")
    assert worst <= 1e-10


# -- criterion 9: energy-stability bound --------------------------------------------


def test_criterion_09_energy_stability_bound():
    worst_slack = -np.inf
    basket = [
        cached_run("linear-wave", "cg", 0, 1, 0.125, 0.125, 1.0),
        cached_run("linear-wave", "cg", 1, 3, 0.125, 0.125, 1.0),
        cached_run("linear-wave", "dg", 1, 2, 0.125, 0.125, 1.0),
        cached_run("nonlinear-wave", "cg", 0, 1, 0.1, 0.05, 10.0),
        cached_run("nonlinear-wave", "cg", 1, 2, 0.1, 0.05, 10.0),
    ]
    for problem, variant, traj in basket:
        mon = energy_stability_monitor(variant, problem, traj)
        worst_slack = max(worst_slack, mon.slack())
    passed = worst_slack <= 1e-8
    report(9, passed, f"worst bound slack {worst_slack:.2e}")
    assert worst_slack <= 1e-8


# -- criterion 10: steady-state exactness --------------------------------------------


def test_criterion_10_steady_state_over_hundred_slabs():
    import dataclasses

    base = linear_wave()
    steady = dataclasses.replace(
        base,
        initial_state=lambda x: np.stack(
            [np.full_like(x, 0.9), np.zeros_like(x), np.zeros_like(x)], axis=-1),
        exact_solution=None,
    )
    worst = 0.0
    for variant in SchemeVariant:
        config = SolverConfig(q=1, p=2, dt=0.1, dx=0.25, t_final=10.0)
        traj = run_simulation(variant, steady, config)
        assert len(traj.slabs) == 100
        for n in (1, 50, 100):
            state = traj.state_at_node(n)
            worst = max(worst, float(np.max(np.abs(state[0] - 0.9))),
                        float(np.max(np.abs(state[1:]))))
    passed = worst <= 1e-12
    report(10, passed, f"max steady-state drift {worst:.2e} over 100 slabs")
    assert worst <= 1e-12


# -- criterion 11: derivative and jacobian oracles ------------------------------------


def test_criterion_11_oracle_suite():
    start = time.time()
    worst_grad, worst_jac = 0.0, 0.0
    for factory in (linear_wave, nonlinear_wave, nls):
        rep = validate(factory(), seed=5)
        worst_grad = max(worst_grad, rep.gradient_residual, rep.hessian_residual)

    rng = np.random.default_rng(11)
    cases = [
        ("cg", linear_wave()),
        ("cg", nonlinear_wave()),
        ("cg", nls()),
        ("dg", nonlinear_wave()),
        ("dg", nls()),
        ("cg-momentum", nonlinear_wave()),
    ]
    for label, prob in cases:
        variant = SchemeVariant.from_label(label)
        config = SolverConfig(q=1, p=1, dt=0.1, dx=prob.domain_length / 4,
                              t_final=0.1)
        space = build_space(prob, config, variant)
        asm = SlabAssembler(variant, prob, space, config.q, config.dt)
        z = rng.uniform(-0.5, 0.5, (prob.D, space.dof_count, config.q + 2))
        aux = None
        if variant is SchemeVariant.CG_MOMENTUM:
            aux = rng.uniform(-0.5, 0.5, (prob.D, asm.aux_space.dof_count,
                                          config.q + 2))
        jac = asm.jacobian(z).toarray()
        step = 1e-6
        for j in range(asm.size):
            delta = np.zeros(asm.size)
            delta[j] = step
            rp = asm.residual(*_shift(asm, z, aux, delta))
            rm = asm.residual(*_shift(asm, z, aux, -delta))
            col = (rp - rm) / (2 * step)
            scale = np.maximum(1.0, np.abs(jac[:, j]))
            worst_jac = max(worst_jac, float(np.max(np.abs(jac[:, j] - col) / scale)))
    elapsed = time.time() - start
    passed = worst_grad <= 1e-5 and worst_jac <= 1e-5 and elapsed < 30.0
    report(11, passed, f"gradient/hessian fd {worst_grad:.2e}, "
                       f"jacobian fd {worst_jac:.2e}, {elapsed:.0f}s")
    assert worst_grad <= 1e-5
    assert worst_jac <= 1e-5
    assert elapsed < 30.0


def _shift(asm, z, aux, delta):
    d = z.shape[0]
    zz = z.copy()
    zz[:, :, 1:] += delta[: asm.n_z].reshape(d, asm.space.dof_count, asm.q + 1)
    if aux is None:
        return zz, None
    aa = aux.copy()
    aa[:, :, 1:] += delta[asm.n_z:].reshape(d, asm.aux_space.dof_count, asm.q + 1)
    return zz, aa


# -- supporting check: local laws on acceptance runs ----------------------------------


def test_local_laws_on_acceptance_runs():
    # Per-slab law residuals stay at solver tolerance on the headline runs.
    problem, variant, traj = cached_run("nonlinear-wave", "cg", 1, 2, 0.1, 0.05, 10.0)
    worst = 0.0
    for coeffs in traj.slabs[::10]:
        res = local_conservation_residuals(variant, problem, coeffs)
        worst = max(worst, float(np.max(np.abs(res.momentum))),
                    float(np.max(np.abs(res.energy))))
    problem, variant, traj = cached_run("nls", "dg", 0, 1, 0.1, 0.4, 2.0 * np.pi)
    for coeffs in traj.slabs[::10]:
        res = local_conservation_residuals(variant, problem, coeffs)
        worst = max(worst, float(np.max(np.abs(res.momentum))),
                    float(np.max(np.abs(res.energy))))
    assert worst <= 1e-10
