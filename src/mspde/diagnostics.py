"""Conserved-quantity series, local conservation residuals, and error norms.

Densities and fluxes follow the continuous-level conventions

    momentum density  G = (1/2) Dz . K z      momentum flux  F = (1/2) z . K z_t - S(z)
    energy density    E = (1/2) z . L Dz - S(z)   energy flux    Ef = (1/2) z_t . L z

with Dz the scheme's spatial derivative (elementwise for continuous fields,
average-flux for broken ones).  These pairs satisfy density_t + flux_x = 0
on exact solutions, and their discrete counterparts are conserved by the
solvers up to solver tolerance; the transposed quadratic orderings do not
close either law and are not used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import LagrangeBasis, gauss_legendre, quadrature_order_policy
from .problems import MultisymplecticProblem
from .spaces import (
    SlabCoefficients,
    SpatialSpace,
    l2_project_spacetime,
    spacetime_eval,
)
from .solver import SchemeVariant, Trajectory
from .spatial_ops import apply_g

__all__ = [
    "InvariantSeries",
    "ConvergenceRecord",
    "densities_fluxes",
    "global_invariants",
    "local_conservation_residuals",
    "LocalResiduals",
    "bochner_error",
    "eoc",
    "energy_stability_monitor",
    "StabilityMonitor",
    "auxiliary_identity_residual",
]


# -- pointwise densities -------------------------------------------------------


def _derivative_coeffs(variant: SchemeVariant, space: SpatialSpace,
                       spatial_coeffs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Scheme derivative as coefficients (broken) or a flag to differentiate."""
    if variant is SchemeVariant.DG_PRIMARY:
        return apply_g(space, spatial_coeffs), False
    return spatial_coeffs, True


def densities_fluxes(variant: SchemeVariant, problem: MultisymplecticProblem,
                     coeffs: SlabCoefficients, t: float, x):
    """Pointwise (momentum density, momentum flux, energy density, energy flux).

    Evaluation uses right limits at element interfaces for broken fields.
    """
    space = coeffs.space
    spatial = coeffs.temporal_values(t)
    spatial_t = coeffs.temporal_values(t, derivative_order=1)
    z = np.stack([space.evaluate(spatial[c], x) for c in range(problem.D)], axis=-1)
    zt = np.stack([space.evaluate(spatial_t[c], x) for c in range(problem.D)], axis=-1)
    dcoeffs, differentiate = _derivative_coeffs(variant, space, spatial)
    order = 1 if differentiate else 0
    dz = np.stack([space.evaluate(dcoeffs[c], x, order) for c in range(problem.D)], axis=-1)

    k, l = problem.K, problem.L
    s = problem.s(z)
    momentum_density = 0.5 * np.einsum("...c,cd,...d->...", dz, k, z)
    momentum_flux = 0.5 * np.einsum("...c,cd,...d->...", z, k, zt) - s
    energy_density = 0.5 * np.einsum("...c,cd,...d->...", z, l, dz) - s
    energy_flux = 0.5 * np.einsum("...c,cd,...d->...", zt, l, z)
    return momentum_density, momentum_flux, energy_density, energy_flux


# -- nodal invariant series ----------------------------------------------------


@dataclass(eq=False)
class InvariantSeries:
    """Mass, momentum, and energy sampled at every temporal node."""

    times: np.ndarray
    mass: np.ndarray       # (N+1, D) componentwise spatial integrals
    momentum: np.ndarray   # (N+1,)
    energy: np.ndarray     # (N+1,)
    component_names: tuple

    def deviations(self):
        """Absolute deviation of every series from its initial value."""
        return (
            np.abs(self.mass - self.mass[0]),
            np.abs(self.momentum - self.momentum[0]),
            np.abs(self.energy - self.energy[0]),
        )


def _node_rule(problem: MultisymplecticProblem, space: SpatialSpace):
    degree = max(problem.s_degree * space.degree, 2 * space.degree)
    return gauss_legendre(quadrature_order_policy(degree))


def _nodal_quantities(variant, problem, space, state, rule):
    vals = space.eval_on_rule(state, rule)
    dcoeffs, differentiate = _derivative_coeffs(variant, space, state)
    dz = space.eval_on_rule(dcoeffs, rule, 1 if differentiate else 0)
    pts = np.moveaxis(vals, 0, -1)
    s = problem.s(pts)
    momentum = 0.5 * np.einsum("cmg,cd,dmg->mg", dz, problem.K, vals)
    energy = 0.5 * np.einsum("cmg,cd,dmg->mg", vals, problem.L, dz) - s
    mass = np.array([space.integrate(vals[c], rule) for c in range(problem.D)])
    return mass, space.integrate(momentum, rule), space.integrate(energy, rule)


def global_invariants(variant: SchemeVariant, problem: MultisymplecticProblem,
                      trajectory: Trajectory) -> InvariantSeries:
    """Spatial integrals of mass, momentum and energy at each temporal node."""
    space = trajectory.space
    rule = _node_rule(problem, space)
    rows = [_nodal_quantities(variant, problem, space, trajectory.state_at_node(n), rule)
            for n in range(trajectory.node_count)]
    mass = np.array([r[0] for r in rows])
    momentum = np.array([r[1] for r in rows])
    energy = np.array([r[2] for r in rows])
    return InvariantSeries(trajectory.times.copy(), mass, momentum, energy,
                           tuple(problem.component_names))


# -- slab grids for the conservation laws ---------------------------------------


class _SlabGrid:
    """Space-time quadrature samples of one solved slab."""

    def __init__(self, variant, problem, coeffs: SlabCoefficients):
        self.variant = variant
        self.problem = problem
        self.coeffs = coeffs
        self.space = coeffs.space
        self.slab = coeffs.slab
        q, p = coeffs.slab.q, coeffs.space.degree
        grad_deg = max(problem.s_degree - 1, 1)
        self.rule_t = gauss_legendre(
            quadrature_order_policy(max(2 * q + 2, grad_deg * (q + 1) + q + 1)))
        self.rule_x = gauss_legendre(
            quadrature_order_policy(max(2 * p, (grad_deg + 1) * p)))
        trial = coeffs.slab.trial_basis
        self.tt = trial.tabulate(self.rule_t.points)
        self.dtt = trial.tabulate(self.rule_t.points, 1) / coeffs.slab.dt
        self.b = self.space.tabulate(self.rule_x.points)
        self.db = self.space.tabulate(self.rule_x.points, 1)
        self.ends = self.space.tabulate([0.0, 1.0])
        self.wt = coeffs.slab.dt * self.rule_t.weights

        values = coeffs.values
        self.z = spacetime_eval(values, self.space, self.b, self.tt)
        self.zt = spacetime_eval(values, self.space, self.b, self.dtt)
        if variant is SchemeVariant.DG_PRIMARY:
            gz = apply_g(self.space, values, axis=1)
            self.dz = spacetime_eval(gz, self.space, self.b, self.tt)
            self.dz_t = spacetime_eval(gz, self.space, self.b, self.dtt)
        else:
            widths = self.space.partition.widths[:, None]
            self.dz = spacetime_eval(values, self.space, self.db, self.tt) / widths
            self.dz_t = spacetime_eval(values, self.space, self.db, self.dtt) / widths
        pts = np.moveaxis(self.z, 0, -1)
        self.s = problem.s(pts)
        self.grad = np.moveaxis(problem.grad_s(pts), -1, 0)

    def integrate(self, grid, per_element: bool = False):
        per_time = grid @ self.rule_x.weights                        # (nt, M)
        elements = (self.wt @ per_time) * self.space.partition.widths
        return elements if per_element else float(np.sum(elements))

    def projected_derivative(self) -> np.ndarray:
        """Test-space projection of Dz, evaluated back on the grid."""
        coeffs = l2_project_spacetime(self.dz, self.slab, self.space,
                                      self.rule_t, self.rule_x)
        ts = self.slab.test_basis.tabulate(self.rule_t.points)
        return spacetime_eval(coeffs, self.space, self.b, ts)

    def traces(self, nodes, time_table) -> tuple[np.ndarray, np.ndarray]:
        """Left/right limits at mesh nodes for all time points, (D, nt, M)."""
        ends = spacetime_eval(nodes, self.space, self.ends, time_table)   # (D, nt, M, 2)
        return np.roll(ends[..., 1], 1, axis=-1), ends[..., 0]


@dataclass(eq=False)
class LocalResiduals:
    """Residuals of the slab-local conservation laws.

    ``momentum``/``energy`` are scalars for continuous-space runs (laws are
    global in space, local in time) and per-element arrays for broken-space
    runs (laws localise fully, with interface trace corrections).
    """

    momentum: np.ndarray
    energy: np.ndarray
    plain_momentum: float


def local_conservation_residuals(variant: SchemeVariant,
                                 problem: MultisymplecticProblem,
                                 coeffs: SlabCoefficients) -> LocalResiduals:
    grid = _SlabGrid(variant, problem, coeffs)
    k, l = problem.K, problem.L

    # d/dt of momentum and energy densities, pointwise on the grid.
    g_t = 0.5 * (
        np.einsum("cgmh,cd,dgmh->gmh", grid.dz_t, k, grid.z)
        + np.einsum("cgmh,cd,dgmh->gmh", grid.dz, k, grid.zt)
    )
    e_t = 0.5 * (
        np.einsum("cgmh,cd,dgmh->gmh", grid.zt, l, grid.dz)
        + np.einsum("cgmh,cd,dgmh->gmh", grid.z, l, grid.dz_t)
    ) - np.einsum("cgmh,cgmh->gmh", grid.grad, grid.zt)

    w_field = np.einsum("cgmh,cgmh->gmh", grid.grad, grid.projected_derivative())

    if variant is not SchemeVariant.DG_PRIMARY:
        # Laws are global in space; flux terms integrate to zero exactly and
        # are carried along to keep the full statement in view.
        zx_t = grid.dz_t  # elementwise derivative commutes with d/dt
        flux_m_x = 0.5 * (
            np.einsum("cgmh,cd,dgmh->gmh", grid.dz, k, grid.zt)
            + np.einsum("cgmh,cd,dgmh->gmh", grid.z, k, zx_t)
        )
        flux_e_x = 0.5 * (
            np.einsum("cgmh,cd,dgmh->gmh", zx_t, l, grid.z)
            + np.einsum("cgmh,cd,dgmh->gmh", grid.zt, l, grid.dz)
        )
        momentum = grid.integrate(g_t + flux_m_x - w_field)
        energy = grid.integrate(e_t + flux_e_x)
        plain = grid.integrate(g_t + flux_m_x)
        return LocalResiduals(np.array(momentum), np.array(energy), plain)

    # Broken space: element-local laws with interface trace corrections.
    zl, zr = grid.traces(coeffs.values, grid.tt)
    ztl, ztr = grid.traces(coeffs.values, grid.dtt)
    kz_l = np.einsum("cd,dgm->cgm", k, zl)
    kz_r = np.einsum("cd,dgm->cgm", k, zr)
    lz_l = np.einsum("cd,dgm->cgm", l, zl)
    lz_r = np.einsum("cd,dgm->cgm", l, zr)

    def node_series(a_l, a_r, b_l, b_r):
        cross = 0.5 * (np.einsum("cgm,cgm->gm", a_l, b_r)
                       + np.einsum("cgm,cgm->gm", a_r, b_l))
        average = 0.5 * (np.einsum("cgm,cgm->gm", a_l, b_l)
                         + np.einsum("cgm,cgm->gm", a_r, b_r))
        return cross, average

    def upper_minus_lower(series):
        return np.roll(series, -1, axis=-1) - series

    def time_integral(series):
        return np.einsum("gm,g->m", series, grid.wt)

    # Momentum law: d/dt G + G(F + S) - W = trace corrections.
    cross_k, _ = node_series(ztl, ztr, kz_l, kz_r)
    _, avg_fk = node_series(zl, zr, np.einsum("cd,dgm->cgm", k, ztl),
                            np.einsum("cd,dgm->cgm", k, ztr))
    flux_m = _elementwise_g_of_scalar(
        grid, 0.5 * np.einsum("cgmh,cd,dgmh->gmh", grid.z, k, grid.zt),
        0.5 * np.einsum("cgm,cgm->gm", zl, np.einsum("cd,dgm->cgm", k, ztl)),
        0.5 * np.einsum("cgm,cgm->gm", zr, np.einsum("cd,dgm->cgm", k, ztr)),
    )
    lhs_m = grid.integrate(g_t - w_field, per_element=True) + flux_m
    rhs_m = 0.5 * time_integral(upper_minus_lower(cross_k)) \
        + 0.5 * time_integral(upper_minus_lower(avg_fk))
    momentum = lhs_m - rhs_m

    # Energy law: d/dt E + G(Ef) = trace corrections.
    cross_l, avg_ef = node_series(ztl, ztr, lz_l, lz_r)
    flux_e = _elementwise_g_of_scalar(
        grid, 0.5 * np.einsum("cgmh,cd,dgmh->gmh", grid.zt, l, grid.z),
        0.5 * np.einsum("cgm,cgm->gm", ztl, lz_l),
        0.5 * np.einsum("cgm,cgm->gm", ztr, lz_r),
    )
    lhs_e = grid.integrate(e_t, per_element=True) + flux_e
    rhs_e = 0.5 * time_integral(upper_minus_lower(avg_ef)) \
        - 0.5 * time_integral(upper_minus_lower(cross_l))
    energy = lhs_e - rhs_e

    plain = grid.integrate(g_t)
    return LocalResiduals(momentum, energy, float(plain))


def _elementwise_g_of_scalar(grid: _SlabGrid, values, left, right) -> np.ndarray:
    """Time integral of int_e G(F) dx for a sampled broken scalar F.

    By the local orthogonality identity this is {F}_upper - {F}_lower at
    each time, so only the traces enter.
    """
    average = 0.5 * (left + right)
    diff = np.roll(average, -1, axis=-1) - average
    return np.einsum("gm,g->m", diff, grid.wt)


# -- error norms and convergence -------------------------------------------------


def bochner_error(trajectory: Trajectory, upto_node: int | None = None) -> np.ndarray:
    """Accumulated space-time L2 error per component at each temporal node.

    Returns an array of shape (node_count, D) whose row n is the error over
    [0, t_n]; row 0 is zero.  Requires the problem to ship an exact solution.
    """
    problem = trajectory.problem
    if problem.exact_solution is None:
        raise ValueError(f"problem {problem.label!r} has no exact solution")
    space = trajectory.space
    rule_t = gauss_legendre(9)
    rule_x = gauss_legendre(9)
    b = space.tabulate(rule_x.points)
    tt = LagrangeBasis.equispaced(trajectory.q + 1).tabulate(rule_t.points)
    # x at the full (nt, M, ns) grid shape, so that an exact solution that
    # ignores t still returns one value per grid point.
    xs = space.quad_points(rule_x)
    xs = np.broadcast_to(xs, (len(rule_t),) + xs.shape)
    # Reference time weights times physical space weights, one per grid point.
    weights = (rule_t.weights[:, None, None] * space.partition.widths[:, None]
               * rule_x.weights).ravel()

    limit = trajectory.node_count if upto_node is None else upto_node + 1
    accum = np.zeros(problem.D)
    errors = np.zeros((limit, problem.D))
    for n in range(1, limit):
        coeffs = trajectory.slabs[n - 1]
        zgrid = spacetime_eval(coeffs.values, space, b, tt)
        times = coeffs.slab.times(rule_t.points)[:, None, None]
        exact = np.moveaxis(problem.exact_solution(times, xs), -1, 0)
        diff2 = ((zgrid - exact) ** 2).reshape(problem.D, -1)
        accum = accum + coeffs.slab.dt * (diff2 @ weights)
        errors[n] = np.sqrt(accum)
    return errors


@dataclass(eq=False)
class ConvergenceRecord:
    """Errors and experimental convergence orders over a refinement sequence."""

    hs: np.ndarray
    errors: np.ndarray  # (levels, D)
    component_names: tuple

    @property
    def rates(self) -> np.ndarray:
        return np.stack([eoc(self.errors[:, c], self.hs)
                         for c in range(self.errors.shape[1])], axis=1)


def eoc(errors, hs) -> np.ndarray:
    """Log-log slopes between consecutive refinement levels.

    Non-positive errors (possible at machine precision) yield NaN entries
    rather than raising.
    """
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.size < 2:
        raise ValueError("need matching error/h sequences of length >= 2")
    if np.any(hs <= 0.0) or np.any(np.diff(hs) >= 0.0):
        raise ValueError("h sequence must be positive and strictly decreasing")
    out = np.full(errors.size - 1, np.nan)
    for i in range(errors.size - 1):
        if errors[i] > 0.0 and errors[i + 1] > 0.0:
            out[i] = np.log(errors[i + 1] / errors[i]) / np.log(hs[i + 1] / hs[i])
    return out


# -- stability monitor and auxiliary identity -------------------------------------


@dataclass(eq=False)
class StabilityMonitor:
    """Nodal series entering the energy-stability bound for wave problems."""

    times: np.ndarray
    velocity_norm2: np.ndarray       # ||V(t_n)||^2
    projected_slope_norm2: np.ndarray  # ||P(U_x)(t_n)||^2 (or ||G(U)||^2 broken)
    potential_integral: np.ndarray   # int V(U(t_n)) dx
    bound: float                     # from the discrete initial data

    def slack(self) -> float:
        """Most negative margin of the three bounds (positive = violated)."""
        worst = max(
            float(np.max(self.velocity_norm2)),
            float(np.max(self.projected_slope_norm2)),
            float(np.max(self.potential_integral)),
        )
        return worst - self.bound


def energy_stability_monitor(variant: SchemeVariant, problem: MultisymplecticProblem,
                             trajectory: Trajectory) -> StabilityMonitor:
    """Track the three stability quantities of wave runs against their bound."""
    if problem.D != 3:
        raise ValueError("the stability bound is formulated for wave systems")
    space = trajectory.space
    rule = _node_rule(problem, space)

    def potential(u_grid):
        # V(u) = S(u, 0, 0) for the wave family's density.
        z = np.zeros(u_grid.shape + (3,))
        z[..., 0] = u_grid
        return problem.s(z)

    use_g = variant is SchemeVariant.DG_PRIMARY

    v2, w2, pot = [], [], []
    ux0_norm2 = None
    for n in range(trajectory.node_count):
        state = trajectory.state_at_node(n)
        vals = space.eval_on_rule(state, rule)
        v2.append(space.integrate(vals[1] ** 2, rule))
        pot.append(space.integrate(potential(vals[0]), rule))
        if use_g:
            slope = space.eval_on_rule(apply_g(space, state[0]), rule)
        else:
            proj = space.project_grid(space.eval_on_rule(state[0], rule, 1), rule)
            slope = space.eval_on_rule(proj, rule)
        w2.append(space.integrate(slope**2, rule))
        if n == 0:
            ux_raw = slope if use_g else space.eval_on_rule(state[0], rule, 1)
            ux0_norm2 = space.integrate(ux_raw**2, rule)

    bound = v2[0] + ux0_norm2 + pot[0]
    return StabilityMonitor(trajectory.times.copy(), np.array(v2), np.array(w2),
                            np.array(pot), float(bound))


def auxiliary_identity_residual(trajectory: Trajectory) -> float:
    """Max distance between the slope component and the projected derivative.

    For wave systems the third component agrees with the spatial projection
    of U_x (continuous runs) or with G(U) (broken runs) at the q+1 Gauss
    times of every slab; this returns the largest coefficient mismatch.
    """
    problem, space = trajectory.problem, trajectory.space
    if problem.D != 3:
        raise ValueError("the auxiliary identity is formulated for wave systems")
    use_g = trajectory.variant is SchemeVariant.DG_PRIMARY
    gauss = gauss_legendre(trajectory.q + 1)
    rule = gauss_legendre(quadrature_order_policy(2 * space.degree))

    worst = 0.0
    for coeffs in trajectory.slabs:
        for s in gauss.points:
            spatial = coeffs.temporal_values(coeffs.slab.times(s))
            if use_g:
                target = apply_g(space, spatial[0])
            else:
                target = space.project_grid(space.eval_on_rule(spatial[0], rule, 1), rule)
            worst = max(worst, float(np.max(np.abs(spatial[2] - target))))
    return worst
