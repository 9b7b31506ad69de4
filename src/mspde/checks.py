"""Randomised property checks behind the ``verify`` command.

Each check exercises one structural identity of the library and reports its
worst residual; the CLI and the test suite both drive these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics, problems, solver, spatial_ops
from .mesh import LagrangeBasis, gauss_legendre, uniform_partition
from .spaces import SpatialSpace

__all__ = ["CheckResult", "run_property_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _quadrature_exactness() -> float:
    worst = 0.0
    for n in range(1, 10):
        rule = gauss_legendre(n)
        for k in range(2 * n):
            worst = max(worst, abs(float(np.sum(rule.weights * rule.points**k))
                                   - 1.0 / (k + 1)))
    return worst


def _partition_of_unity(rng) -> float:
    worst = 0.0
    for degree in range(5):
        basis = LagrangeBasis.equispaced(degree)
        x = rng.uniform(0.0, 1.0, size=100)
        worst = max(worst, float(np.max(np.abs(basis.tabulate(x).sum(axis=0) - 1.0))))
    return worst


def _basis_derivative_fd(rng) -> float:
    worst, step = 0.0, 1e-6
    for degree in range(1, 5):
        basis = LagrangeBasis.equispaced(degree)
        x = rng.uniform(0.05, 0.95, size=50)
        exact = basis.tabulate(x, 1)
        approx = (basis.tabulate(x + step) - basis.tabulate(x - step)) / (2 * step)
        worst = max(worst, float(np.max(np.abs(exact - approx)
                                        / np.maximum(1.0, np.abs(exact)))))
    return worst


def _mass_symmetry() -> float:
    worst = 0.0
    for continuity in ("cg", "dg"):
        for p in (1, 2, 3):
            space = SpatialSpace(uniform_partition(1.0, 6), p, continuity)
            mass = space.mass_matrix()
            worst = max(worst, float(np.max(np.abs(mass - mass.T))))
    return worst


def _projection_quality(rng) -> float:
    worst = 0.0
    for continuity in ("cg", "dg"):
        space = SpatialSpace(uniform_partition(1.0, 8), 2, continuity)
        f = lambda x: np.exp(np.sin(2 * np.pi * x))
        coeffs = space.project(f)
        rule = gauss_legendre(16)
        resid = space.eval_on_rule(coeffs, rule) - f(space.quad_points(rule))
        b = space.tabulate(("chk", 16), rule.points)
        w = space.partition.widths[:, None] * rule.weights[None, :]
        moments = space.scatter_add(np.einsum("mg,kg,mg->mk", resid, b, w))
        worst = max(worst, float(np.max(np.abs(moments))))
        again = space.mass_solve(space.mass_matrix() @ coeffs)
        worst = max(worst, float(np.max(np.abs(again - coeffs))))
    return worst


def _problem_skew(rng) -> float:
    worst = 0.0
    for factory in (problems.linear_wave, problems.nonlinear_wave, problems.nls):
        prob = factory()
        u = rng.standard_normal((50, prob.D))
        v = rng.standard_normal((50, prob.D))
        for mat in (prob.K, prob.L):
            lhs = np.einsum("nd,nd->n", u, v @ mat.T)
            rhs = -np.einsum("nd,nd->n", v, u @ mat.T)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _derivative_consistency(seed) -> float:
    worst = 0.0
    for factory in (problems.linear_wave, problems.nonlinear_wave, problems.nls):
        report = problems.validate(factory(), seed=seed)
        worst = max(worst, report.gradient_residual, report.hessian_residual,
                    report.hessian_asymmetry)
    return worst


def _exact_solution_residual(seed) -> float:
    worst = 0.0
    for factory in (problems.linear_wave, problems.nls):
        report = problems.validate(factory(), seed=seed)
        worst = max(worst, report.pde_residual or 0.0)
    return worst


def _jump_average_algebra(rng) -> float:
    left, right = rng.standard_normal((2, 100))
    trace = spatial_ops.TraceValues(0, left, right)
    resid = spatial_ops.jump(trace) + 2.0 * spatial_ops.avg(trace) - 2.0 * left
    return float(np.max(np.abs(resid)))


def _g_spaces():
    for p in (1, 2, 3):
        for m in (4, 8):
            yield SpatialSpace(uniform_partition(1.0, m), p, "dg")


def _g_orthogonality(rng, g_override=None) -> float:
    worst = 0.0
    for space in _g_spaces():
        g = g_override(space) if g_override else spatial_ops.g_matrix(space)
        fields = rng.uniform(-1.0, 1.0, size=(50, space.dof_count))
        gu = fields @ g.T
        integrals = gu @ space.mass_matrix() @ np.ones(space.dof_count)
        worst = max(worst, float(np.max(np.abs(integrals))))
    return worst


def _g_skew(rng, g_override=None) -> float:
    worst = 0.0
    for space in _g_spaces():
        g = g_override(space) if g_override else spatial_ops.g_matrix(space)
        mass = space.mass_matrix()
        u = rng.uniform(-1.0, 1.0, size=(50, space.dof_count))
        v = rng.uniform(-1.0, 1.0, size=(50, space.dof_count))
        lhs = np.einsum("ni,ij,nj->n", u @ g.T, mass, v)
        rhs = -np.einsum("ni,ij,nj->n", u, mass, v @ g.T)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _g_product_rule(rng) -> float:
    worst = 0.0
    for space in _g_spaces():
        p = space.degree
        rule = gauss_legendre(2 * p + 2)
        u, v = rng.uniform(-1.0, 1.0, size=(2, space.dof_count))
        uv = space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule)
        duv = (space.eval_on_rule(u, rule, 1) * space.eval_on_rule(v, rule)
               + space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule, 1))
        ul, ur = spatial_ops.node_traces(space, u)
        vl, vr = spatial_ops.node_traces(space, v)
        g_uv = spatial_ops.weak_g_from_samples(space, uv, duv, ul * vl, ur * vr, rule)
        mass = space.mass_matrix()
        ones = np.ones(space.dof_count)
        lhs = g_uv @ mass @ ones
        rhs = (space.mass_matrix() @ spatial_ops.apply_g(space, u)) @ v \
            + u @ (mass @ spatial_ops.apply_g(space, v))
        worst = max(worst, float(abs(lhs - rhs)))
    return worst


def _g_local_identities(rng) -> float:
    worst = 0.0
    for space in _g_spaces():
        p = space.degree
        rule = gauss_legendre(2 * p + 1)
        u, v = rng.uniform(-1.0, 1.0, size=(2, space.dof_count))
        gu, gv = spatial_ops.apply_g(space, u), spatial_ops.apply_g(space, v)
        w = space.partition.widths[:, None] * rule.weights[None, :]
        gu_v = np.einsum("mg,mg->m",
                         space.eval_on_rule(gu, rule) * space.eval_on_rule(v, rule), w)
        u_gv = np.einsum("mg,mg->m",
                         space.eval_on_rule(u, rule) * space.eval_on_rule(gv, rule), w)
        gu_one = np.einsum("mg,mg->m", space.eval_on_rule(gu, rule), w)
        ul, ur = spatial_ops.node_traces(space, u)
        avg_u = 0.5 * (ul + ur)
        for m in range(space.partition.element_count):
            terms = spatial_ops.local_g_boundary_terms(space, u, v, m)
            worst = max(worst, abs(gu_v[m] + u_gv[m]
                                   - (terms.cross_upper - terms.cross_lower)))
            upper = (m + 1) % space.partition.element_count
            worst = max(worst, abs(gu_one[m] - (avg_u[upper] - avg_u[m])))
    return worst


def _broken_derivative_exactness() -> float:
    worst = 0.0
    for p in (1, 2, 3):
        space = SpatialSpace(uniform_partition(1.0, 5), p, "dg")
        # A member of the space: derivative must be elementwise exact.
        rng = np.random.default_rng(p)
        coeffs = rng.standard_normal(space.dof_count)
        deriv_space, deriv = spatial_ops.broken_derivative(space, coeffs)
        rule = gauss_legendre(p + 2)
        direct = space.eval_on_rule(coeffs, rule, 1)
        via = deriv_space.eval_on_rule(deriv, rule)
        worst = max(worst, float(np.max(np.abs(direct - via))))
    return worst


def _jacobian_fd(rng) -> float:
    worst = 0.0
    cases = [
        (solver.SchemeVariant.CG_PRIMARY, problems.nonlinear_wave()),
        (solver.SchemeVariant.DG_PRIMARY, problems.nls()),
        (solver.SchemeVariant.CG_MOMENTUM, problems.nonlinear_wave()),
    ]
    for variant, prob in cases:
        config = solver.SolverConfig(q=1, p=1, dt=0.1, dx=prob.domain_length / 4,
                                     t_final=0.1)
        space = solver.build_space(prob, config, variant)
        asm = solver.SlabAssembler(variant, prob, space, config.q, config.dt)
        z = rng.uniform(-0.5, 0.5, (prob.D, space.dof_count, config.q + 2))
        aux = None
        if variant is solver.SchemeVariant.CG_MOMENTUM:
            aux = rng.uniform(-0.5, 0.5, (prob.D, asm.aux_space.dof_count, config.q + 2))
        jac = asm.jacobian(z).toarray()
        step = 1e-6
        fd = np.zeros((asm.size, asm.size))
        for j in range(asm.size):
            delta = np.zeros(asm.size)
            delta[j] = step
            fd[:, j] = (asm.residual(*_perturb(asm, z, aux, delta))
                        - asm.residual(*_perturb(asm, z, aux, -delta))) / (2 * step)
        scale = np.maximum(1.0, np.abs(jac))
        worst = max(worst, float(np.max(np.abs(jac - fd) / scale)))
    return worst


def _perturb(asm, z, aux, delta):
    d = z.shape[0]
    zz = z.copy()
    zz[:, :, 1:] += delta[: asm.n_z].reshape(d, asm.space.dof_count, asm.q + 1)
    if aux is None:
        return zz, None
    aa = aux.copy()
    aa[:, :, 1:] += delta[asm.n_z:].reshape(d, asm.aux_space.dof_count, asm.q + 1)
    return zz, aa


def _steady_states() -> float:
    import dataclasses

    worst = 0.0
    lw = problems.linear_wave()
    steady_wave = dataclasses.replace(
        lw,
        initial_state=lambda x: np.stack(
            [np.full_like(x, 0.7), np.zeros_like(x), np.zeros_like(x)], axis=-1),
        exact_solution=None,
    )
    base_nls = problems.nls()
    steady_nls = dataclasses.replace(
        base_nls,
        initial_state=lambda x: np.zeros(np.shape(x) + (4,)),
        exact_solution=None,
    )
    cases = [
        (solver.SchemeVariant.CG_PRIMARY, steady_wave, 0.7),
        (solver.SchemeVariant.CG_MOMENTUM, steady_wave, 0.7),
        (solver.SchemeVariant.DG_PRIMARY, steady_wave, 0.7),
        (solver.SchemeVariant.CG_PRIMARY, steady_nls, 0.0),
    ]
    for variant, prob, value in cases:
        config = solver.SolverConfig(q=1, p=2, dt=0.1,
                                     dx=prob.domain_length / 8, t_final=2.0)
        traj = solver.run_simulation(variant, prob, config)
        final = traj.state_at_node(traj.node_count - 1)
        expected = np.zeros_like(final)
        expected[0] = value
        worst = max(worst, float(np.max(np.abs(final - expected))))
    return worst


def _temporal_continuity() -> float:
    prob = problems.nonlinear_wave()
    config = solver.SolverConfig(q=2, p=2, dt=0.1, dx=0.125, t_final=1.0)
    traj = solver.run_simulation(solver.SchemeVariant.CG_PRIMARY, prob, config)
    worst = 0.0
    prev = traj.initial_coeffs
    for coeffs in traj.slabs:
        worst = max(worst, float(np.max(np.abs(coeffs.values[:, :, 0] - prev))))
        prev = coeffs.values[:, :, -1]
    return worst


def _auxiliary_identity() -> float:
    prob = problems.nonlinear_wave()
    config = solver.SolverConfig(q=1, p=2, dt=0.1, dx=0.125, t_final=0.5)
    traj = solver.run_simulation(solver.SchemeVariant.CG_PRIMARY, prob, config)
    return diagnostics.auxiliary_identity_residual(traj)


def _local_conservation() -> float:
    worst = 0.0
    for variant, prob in [
        (solver.SchemeVariant.CG_PRIMARY, problems.nonlinear_wave()),
        (solver.SchemeVariant.DG_PRIMARY, problems.nonlinear_wave()),
    ]:
        config = solver.SolverConfig(q=1, p=2, dt=0.1,
                                     dx=prob.domain_length / 8, t_final=0.5)
        traj = solver.run_simulation(variant, prob, config)
        for coeffs in traj.slabs:
            res = diagnostics.local_conservation_residuals(variant, prob, coeffs)
            worst = max(worst, float(np.max(np.abs(res.momentum))),
                        float(np.max(np.abs(res.energy))))
    return worst


def run_property_checks(seed: int = 0) -> list[CheckResult]:
    """All structural identity checks; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    return [
        CheckResult("quadrature-exactness", _quadrature_exactness(), 1e-13),
        CheckResult("basis-partition-of-unity", _partition_of_unity(rng), 1e-13),
        CheckResult("basis-derivative-fd", _basis_derivative_fd(rng), 1e-6),
        CheckResult("mass-matrix-symmetry", _mass_symmetry(), 1e-15),
        CheckResult("l2-projection-orthogonality", _projection_quality(rng), 1e-11),
        CheckResult("problem-skew-symmetry", _problem_skew(rng), 1e-14),
        CheckResult("gradient-hessian-fd", _derivative_consistency(seed), 1e-6),
        CheckResult("exact-solution-pde-residual", _exact_solution_residual(seed), 1e-8),
        CheckResult("jump-average-algebra", _jump_average_algebra(rng), 1e-14),
        CheckResult("derivative-op-constants", _g_orthogonality(rng), 1e-12),
        CheckResult("derivative-op-skew-symmetry", _g_skew(rng), 1e-12),
        CheckResult("derivative-op-product-rule", _g_product_rule(rng), 1e-12),
        CheckResult("derivative-op-local-identities", _g_local_identities(rng), 1e-12),
        CheckResult("broken-derivative-exactness", _broken_derivative_exactness(), 1e-12),
        CheckResult("slab-jacobian-fd", _jacobian_fd(rng), 1e-5),
        CheckResult("steady-state-preservation", _steady_states(), 1e-12),
        CheckResult("trajectory-temporal-continuity", _temporal_continuity(), 1e-13),
        CheckResult("wave-auxiliary-identity", _auxiliary_identity(), 1e-10),
        CheckResult("local-conservation-laws", _local_conservation(), 1e-10),
    ]
