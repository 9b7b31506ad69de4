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

from .mesh import gauss_legendre, nonpolynomial_rule
from .problems import MultisymplecticProblem
from .spaces import SlabCoefficients, SlabGrid, SpatialSpace
from .solver import SchemeVariant, Trajectory, field_on_grid, pointwise_grad, slab_rules
from .spatial_ops import node_traces

__all__ = [
    "InvariantSeries",
    "densities_fluxes",
    "global_invariants",
    "local_conservation_residuals",
    "LocalResiduals",
    "bochner_error",
    "eoc",
    "energy_stability_monitor",
    "StabilityMonitor",
    "auxiliary_identity_residual",
    "auxiliary_field",
]


# -- pointwise densities -------------------------------------------------------


def _form(a: np.ndarray, matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise bilinear form a . matrix b over the leading component axis."""
    return np.einsum("c...,cd,d...->...", a, matrix, b)


def _densities(problem: MultisymplecticProblem, z, dz, zt=None):
    """(momentum density, momentum flux, energy density, energy flux) of fields
    with the component axis first; the fluxes need z_t and are None without it."""
    s = problem.s(np.moveaxis(z, 0, -1))
    momentum_density = 0.5 * _form(dz, problem.K, z)
    energy_density = 0.5 * _form(z, problem.L, dz) - s
    if zt is None:
        return momentum_density, None, energy_density, None
    return (momentum_density, 0.5 * _form(z, problem.K, zt) - s,
            energy_density, 0.5 * _form(zt, problem.L, z))


def densities_fluxes(problem: MultisymplecticProblem, coeffs: SlabCoefficients, t: float, x):
    """Pointwise (momentum density, momentum flux, energy density, energy flux),
    with the scheme derivative of the coefficients' space.

    Evaluation uses right limits at element interfaces for broken fields.
    """
    space = coeffs.space
    spatial = coeffs.temporal_values(t)
    dcoeffs, order = space.scheme_derivative(spatial)
    return _densities(problem, space.evaluate(spatial, x), space.evaluate(dcoeffs, x, order),
                      space.evaluate(coeffs.temporal_values(t, derivative_order=1), x))


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


def global_invariants(trajectory: Trajectory) -> InvariantSeries:
    """Spatial integrals of mass, momentum and energy at each temporal node,
    with the trajectory's problem and scheme derivative.

    The slab space rule is exact for the densities: its degree is max(deg S p, 2p).
    """
    problem, space = trajectory.problem, trajectory.space
    rule = slab_rules(problem, space.degree, trajectory.q)[1]
    states = trajectory.node_states()
    vals = space.eval_on_rule(states, rule)                            # (nodes, D, M, ns)
    dcoeffs, order = space.scheme_derivative(states)
    dz = space.eval_on_rule(dcoeffs, rule, order)
    momentum, _, energy, _ = _densities(problem, np.swapaxes(vals, 0, 1), np.swapaxes(dz, 0, 1))
    return InvariantSeries(trajectory.times, space.integrate(vals, rule),
                           space.integrate(momentum, rule), space.integrate(energy, rule),
                           tuple(problem.component_names))


# -- slab-local conservation laws ------------------------------------------------


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


def local_conservation_residuals(problem: MultisymplecticProblem,
                                 coeffs: SlabCoefficients) -> LocalResiduals:
    space, slab, values = coeffs.space, coeffs.slab, coeffs.values
    grid = SlabGrid(space, slab.q, slab.dt, *slab_rules(problem, space.degree, slab.q))
    k, l = problem.K, problem.L
    dtt = grid.dTt / slab.dt
    z, dz = field_on_grid(grid, values, grid.Tt)
    zt, dz_t = field_on_grid(grid, values, dtt)
    grad = pointwise_grad(problem, z)

    # d/dt of momentum and energy densities, pointwise on the grid; W pairs
    # grad S with the test-space projection of Dz.
    g_t = 0.5 * (_form(dz_t, k, z) + _form(dz, k, zt))
    e_t = 0.5 * (_form(zt, l, dz) + _form(z, l, dz_t)) - np.sum(grad * zt, axis=0)
    w_field = np.sum(grad * grid.eval(grid.project(dz), grid.Ts), axis=0)

    if space.continuity != "dg":
        # Laws are global in space; flux terms integrate to zero exactly and
        # are carried along to keep the full statement in view.  The
        # elementwise derivative commutes with d/dt, so Dz_t is (z_t)_x.
        flux_m_x = 0.5 * (_form(dz, k, zt) + _form(z, k, dz_t))
        flux_e_x = 0.5 * (_form(dz_t, l, z) + _form(zt, l, dz))
        momentum = grid.integrate(g_t + flux_m_x - w_field)
        energy = grid.integrate(e_t + flux_e_x)
        plain = grid.integrate(g_t + flux_m_x)
        return LocalResiduals(np.array(momentum), np.array(energy), plain)

    # Broken space: element-local laws with interface trace corrections.
    zl, zr = node_traces(space, np.swapaxes(values @ grid.Tt, 1, 2))    # (D, nt, M)
    ztl, ztr = node_traces(space, np.swapaxes(values @ dtt, 1, 2))

    def node_difference(series):
        """Time integral of a node series (nt, M) at each element's upper node
        less its lower node."""
        return grid.wt @ (np.roll(series, -1, axis=-1) - series)

    # By the local orthogonality identity int_e G(F) equals {F}_upper - {F}_lower,
    # which is also the average part of the interface trace correction; the
    # flux terms G(F + S) and G(Ef) cancel against it, leaving the time
    # derivative (and W) against the cross trace products.
    cross_k = 0.5 * (_form(ztl, k, zr) + _form(ztr, k, zl))
    momentum = grid.integrate(g_t - w_field, per_element=True) \
        - 0.5 * node_difference(cross_k)
    cross_l = 0.5 * (_form(ztl, l, zr) + _form(ztr, l, zl))
    energy = grid.integrate(e_t, per_element=True) + 0.5 * node_difference(cross_l)

    plain = grid.integrate(g_t)
    return LocalResiduals(momentum, energy, float(plain))


# -- error norms and convergence -------------------------------------------------


def bochner_error(trajectory: Trajectory) -> np.ndarray:
    """Accumulated space-time L2 error per component at each temporal node.

    Returns an array of shape (node_count, D) whose row n is the error over
    [0, t_n]; row 0 is zero.  Requires the problem to ship an exact solution.
    Both the discrete field and the exact solution are sums of time factors
    times space factors on each slab: the q+2 trial functions against the
    nodes' spatial values Z, and the J time factors against the exact
    solution's space factors G, tabulated once per call.  So the error on a
    slab's grid is one product [Tt.T | -time(t)] @ [Z; G] per component,
    squared in place and integrated.
    """
    problem = trajectory.problem
    exact = problem.exact_solution
    if exact is None:
        raise ValueError(f"problem {problem.label!r} has no exact solution")
    d, space, q = problem.D, trajectory.space, trajectory.q
    # A unit-length grid: each slab's integral is scaled by its own dt.
    grid = SlabGrid(space, q, 1.0, nonpolynomial_rule(), nonpolynomial_rule())
    nt, m, ns = len(grid.rule_t.points), space.partition.element_count, len(grid.rule_x.points)
    g = np.moveaxis(exact.space(space.quad_points(grid.rule_x)), (-2, -1), (0, 1))
    j = g.shape[1]
    # [Z; G] per component: rows 0..q+1 take each slab's Z, the rest hold G.
    factors = np.empty((d, q + 2 + j, m * ns))
    factors[:, q + 2:] = g.reshape(d, j, m * ns)
    table = np.empty((nt, q + 2 + j))                                     # [Tt.T | -time(t)]
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


def eoc(errors, hs) -> np.ndarray:
    """Log-log slopes between consecutive refinement levels.

    ``errors`` is (levels,) or (levels, D), one column per component; the
    slopes have one row fewer.  Non-positive errors (possible at machine
    precision) yield NaN entries rather than raising.
    """
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.ndim not in (1, 2) or errors.shape[:1] != hs.shape or hs.size < 2:
        raise ValueError("need matching error/h sequences of length >= 2")
    if np.any(hs <= 0.0) or np.any(np.diff(hs) >= 0.0):
        raise ValueError("h sequence must be positive and strictly decreasing")
    log_h = np.log(hs[1:] / hs[:-1]).reshape((-1,) + (1,) * (errors.ndim - 1))
    positive = (errors[:-1] > 0.0) & (errors[1:] > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(positive, np.log(errors[1:] / errors[:-1]) / log_h, np.nan)


# -- stability monitor, auxiliary identity and auxiliary field ---------------------


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


def _slope(space: SpatialSpace, u: np.ndarray, rule):
    """Slope coefficients of a scalar field u (..., dofs) and the grid values of
    its scheme derivative on ``rule``: the slope is G(u) on broken spaces and
    the L2 projection of u_x on continuous ones."""
    dcoeffs, order = space.scheme_derivative(u)
    du = space.eval_on_rule(dcoeffs, rule, order)
    return (space.project_grid(du, rule) if order else dcoeffs), du


def energy_stability_monitor(trajectory: Trajectory) -> StabilityMonitor:
    """Track the three stability quantities of wave runs against their bound."""
    problem, space = trajectory.problem, trajectory.space
    if problem.D != 3:
        raise ValueError("the stability bound is formulated for wave systems")
    rule = slab_rules(problem, space.degree, trajectory.q)[1]
    states = trajectory.node_states()
    vals = space.eval_on_rule(states, rule)                            # (nodes, 3, M, ns)
    # V(u) = S(u, 0, 0) for the wave family's density.
    potential = space.integrate(problem.s(np.moveaxis(vals, 1, -1) * [1.0, 0.0, 0.0]), rule)
    velocity = space.integrate(vals[:, 1] ** 2, rule)
    slope, du = _slope(space, states[:, 0], rule)
    bound = velocity[0] + space.integrate(du[0] ** 2, rule) + potential[0]
    return StabilityMonitor(trajectory.times, velocity,
                            space.integrate(space.eval_on_rule(slope, rule) ** 2, rule),
                            potential, float(bound))


def auxiliary_identity_residual(trajectory: Trajectory) -> float:
    """Max distance between the slope component and the projected derivative.

    For wave systems the third component agrees with the spatial projection
    of U_x (continuous runs) or with G(U) (broken runs) at the q+1 Gauss
    times of every slab; this returns the largest coefficient mismatch.
    """
    problem, space = trajectory.problem, trajectory.space
    if problem.D != 3:
        raise ValueError("the auxiliary identity is formulated for wave systems")
    if not trajectory.slabs:
        return 0.0
    gauss = gauss_legendre(trajectory.q + 1)
    trial = trajectory.slabs[0].slab.trial_basis.tabulate(gauss.points)    # (q+2, q+1)
    nodes = np.stack([coeffs.values for coeffs in trajectory.slabs])   # (slabs, 3, dofs, q+2)
    spatial = np.swapaxes(nodes @ trial, -1, -2)                       # (slabs, 3, q+1, dofs)
    rule = slab_rules(problem, space.degree, trajectory.q)[1]
    target, _ = _slope(space, spatial[:, 0], rule)
    return float(np.max(np.abs(spatial[:, 2] - target)))


def auxiliary_field(trajectory: Trajectory) -> tuple[SpatialSpace, np.ndarray]:
    """The ``cg-momentum`` auxiliary field of a trajectory: its broken space
    and its nodes (slabs, D, broken dofs, q+2).

    The field a is the broken-space projection of grad S(z).  Node 0 of the
    first slab is the projection of grad S at the initial state, and every
    later slab starts from its predecessor's last node.  Nodes 1..q+1 solve
    the projection rows int (a - grad S(z)) . psi tau = 0 for broken-space
    psi and degree-q tau, i.e. (mass x ta0) a = rows(grad S(z)): one broken
    mass solve, then one (q+1)-square temporal solve.  The time rows and
    ta0 both scale with the slab length, so one unit-length grid on each
    space serves every slab.
    """
    if trajectory.variant is not SchemeVariant.CG_MOMENTUM:
        raise ValueError("the auxiliary field belongs to the cg-momentum variant")
    problem, space, q = trajectory.problem, trajectory.space, trajectory.q
    aux_space = SpatialSpace(space.partition, space.degree, "dg")
    rules = slab_rules(problem, space.degree, q)
    grid, aux_grid = SlabGrid(space, q, 1.0, *rules), SlabGrid(aux_space, q, 1.0, *rules)
    ta0 = grid.time_mass                                               # (q+1, q+2)
    initial = space.eval_on_rule(trajectory.initial_coeffs, grid.rule_x)
    start = aux_space.project_grid(pointwise_grad(problem, initial), grid.rule_x)
    nodes = np.empty((len(trajectory.slabs), problem.D, aux_space.dof_count, q + 2))
    for n, coeffs in enumerate(trajectory.slabs):
        rows = aux_grid.test(pointwise_grad(problem, grid.eval(coeffs.values, grid.Tt)))
        rhs = aux_space.mass_solve(np.swapaxes(rows, 1, 2)) \
            - ta0[:, :1] * start[:, None, :]                               # (D, q+1, dofs)
        nodes[n, :, :, 0] = start
        nodes[n, :, :, 1:] = np.swapaxes(np.linalg.solve(ta0[:, 1:], rhs), 1, 2)
        start = nodes[n, :, :, -1]
    return aux_space, nodes
