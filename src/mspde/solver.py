"""Per-slab space-time assembly, Newton solution, and the time-stepping loop.

One slab couples the whole spatial mesh with a single temporal element:
trial functions are continuous degree q+1 in time (node 0 pinned by the
incoming state) times the spatial space; tests are discontinuous degree q in
time times the same spatial space.  The three scheme variants differ only in
the spatial derivative (elementwise vs average-flux) and in whether the
gradient term enters directly or through an auxiliary projected field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .mesh import gauss_legendre, quadrature_order_policy, uniform_partition
from .problems import MultisymplecticProblem
from .spaces import SlabCoefficients, SpatialSpace, TemporalSlab, assemble
from .spatial_ops import g_matrix, weak_g_matrix

__all__ = [
    "SchemeVariant",
    "SolverConfig",
    "SolverFailure",
    "Trajectory",
    "SlabAssembler",
    "run_simulation",
    "build_space",
]


class SchemeVariant(enum.Enum):
    """The three discretisations: continuous, momentum-projecting, broken."""

    CG_PRIMARY = "cg"
    CG_MOMENTUM = "cg-momentum"
    DG_PRIMARY = "dg"

    @property
    def spatial_continuity(self) -> str:
        return "dg" if self is SchemeVariant.DG_PRIMARY else "cg"

    @classmethod
    def from_label(cls, label: str) -> "SchemeVariant":
        for variant in cls:
            if variant.value == label:
                return variant
        raise ValueError(f"unknown variant {label!r}; choose from "
                         f"{[v.value for v in cls]}")


@dataclass(frozen=True)
class SolverConfig:
    """Numerical parameters of a simulation."""

    q: int
    p: int
    dt: float
    dx: float
    t_final: float
    newton_tolerance: float = 1e-12
    max_newton_iterations: int = 50

    def __post_init__(self):
        if self.newton_tolerance <= 0.0:
            raise ValueError("newton_tolerance must be positive")
        if self.q < 0 or self.p < 1:
            raise ValueError("need q >= 0 and p >= 1")
        if min(self.dt, self.dx, self.t_final) <= 0.0:
            raise ValueError("dt, dx and t_final must be positive")


class SolverFailure(RuntimeError):
    """Newton did not reach the requested residual norm.

    When raised from :func:`run_simulation`, ``partial`` carries the
    trajectory of the slabs completed before the failure.
    """

    def __init__(self, message: str, residual_norm: float, slab_index: int | None = None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.slab_index = slab_index
        self.partial: "Trajectory | None" = None


def build_space(problem: MultisymplecticProblem, config: SolverConfig,
                variant: SchemeVariant) -> SpatialSpace:
    """Uniform periodic space matching the configured element size."""
    m = int(round(problem.domain_length / config.dx))
    if m < 2 or abs(m * config.dx - problem.domain_length) > 1e-9 * problem.domain_length:
        raise ValueError(
            f"dx={config.dx} does not tile a domain of length {problem.domain_length}"
        )
    partition = uniform_partition(problem.domain_length, m, periodic=True)
    return SpatialSpace(partition, config.p, variant.spatial_continuity)


class SlabAssembler:
    """Precomputed tables and constant blocks for one slab geometry.

    Reusable across slabs of equal length; quadrature orders follow the
    integrand-degree policy, so every integral below is exact for the
    shipped polynomial densities.
    """

    def __init__(self, variant: SchemeVariant, problem: MultisymplecticProblem,
                 space: SpatialSpace, q: int, dt: float):
        if variant.spatial_continuity != space.continuity:
            raise ValueError(f"{variant.value} requires a {variant.spatial_continuity} space")
        self.variant = variant
        self.problem = problem
        self.space = space
        self.q = q
        self.dt = dt
        d, p = problem.D, space.degree
        grad_deg = max(problem.s_degree - 1, 1)

        self.rule_t = gauss_legendre(
            quadrature_order_policy(max(2 * q + 1, grad_deg * (q + 1) + q)))
        self.rule_x = gauss_legendre(
            quadrature_order_policy(max(2 * p, (grad_deg + 1) * p)))

        trial = TemporalSlab(0.0, dt, q).trial_basis
        test = TemporalSlab(0.0, dt, q).test_basis
        self.Tt = trial.tabulate(self.rule_t.points)              # (q+2, nt)
        self.dTt = trial.tabulate(self.rule_t.points, 1)          # reference derivative
        self.Ts = test.tabulate(self.rule_t.points)               # (q+1, nt)
        self.B = space.tabulate(("asm", len(self.rule_x)), self.rule_x.points)
        self.dB = space.tabulate(("asm", len(self.rule_x)), self.rule_x.points, 1)
        self.wt = dt * self.rule_t.weights
        self.wx = space.partition.widths[:, None] * self.rule_x.weights[None, :]

        self.n = space.dof_count
        self.n_z = d * self.n * (q + 1)
        self.gmat = g_matrix(space) if variant is SchemeVariant.DG_PRIMARY else None

        # Temporal coupling blocks (test x trial); node-0 columns are knowns.
        ta1 = np.einsum("ag,bg,g->ab", self.Ts, self.dTt, self.rule_t.weights)
        ta0 = dt * np.einsum("ag,bg,g->ab", self.Ts, self.Tt, self.rule_t.weights)
        self.ta1_u, self.ta0_u = ta1[:, 1:], ta0[:, 1:]

        widths = space.partition.widths[:, None, None]
        mass = self._spatial_block(space, self.B, space, self.B, widths)
        if variant is SchemeVariant.DG_PRIMARY:
            deriv = weak_g_matrix(space)
        else:
            # Widths cancel against the derivative jacobian.
            deriv = self._spatial_block(space, self.B, space, self.dB, 1.0)
        kron = scipy.sparse.kron
        self.linear_jacobian = (
            kron(problem.K, kron(mass, self.ta1_u)) + kron(problem.L, kron(deriv, self.ta0_u))
        ).tocsc()

        self.aux_space: SpatialSpace | None = None
        if variant is SchemeVariant.CG_MOMENTUM:
            self.aux_space = SpatialSpace(space.partition, p, "dg")
            self.n_aux = self.aux_space.dof_count
            self.n_a = d * self.n_aux * (q + 1)
            self.Bdg = self.aux_space.tabulate(("asm", len(self.rule_x)), self.rule_x.points)
            eye = scipy.sparse.identity(d)
            cross = self._spatial_block(space, self.B, self.aux_space, self.Bdg, widths)
            aux_mass = self._spatial_block(self.aux_space, self.Bdg, self.aux_space,
                                           self.Bdg, widths)
            self.block_za = -kron(eye, kron(cross, self.ta0_u))
            self.block_aa = kron(eye, kron(aux_mass, self.ta0_u))
        else:
            self.n_a = 0

        self.size = self.n_z + self.n_a
        self.jacobian_is_constant = problem.s_degree <= 2
        self._lu = None

    def _spatial_block(self, rows: SpatialSpace, row_table: np.ndarray,
                       cols: SpatialSpace, col_table: np.ndarray,
                       scale) -> scipy.sparse.csr_matrix:
        """Reference integrals of row x column basis tables, times ``scale``
        (a number or per-element (M, 1, 1) factors), summed over elements."""
        ref = np.einsum("kg,lg,g->kl", row_table, col_table, self.rule_x.weights)
        return assemble(rows.element_dofs, cols.element_dofs, scale * ref,
                        (rows.dof_count, cols.dof_count))

    # -- grid evaluation ------------------------------------------------------

    def grid_eval(self, nodes: np.ndarray, space: SpatialSpace, basis_table: np.ndarray,
                  time_table: np.ndarray, dx_scale: bool = False,
                  dt_scale: bool = False) -> np.ndarray:
        """Field values on the quadrature grid, shape (D, nt, M, ns)."""
        local = nodes[:, space.element_dofs, :]
        vals = np.einsum("cmkt,kh,tg->cgmh", local, basis_table, time_table)
        if dx_scale:
            vals = vals / space.partition.widths[None, None, :, None]
        if dt_scale:
            vals = vals / self.dt
        return vals

    def fields_on_grid(self, z_nodes: np.ndarray):
        """(Z, Z_t, DZ) on the assembly grid; DZ is the scheme's derivative."""
        z = self.grid_eval(z_nodes, self.space, self.B, self.Tt)
        zt = self.grid_eval(z_nodes, self.space, self.B, self.dTt, dt_scale=True)
        if self.variant is SchemeVariant.DG_PRIMARY:
            gz_nodes = np.einsum("ij,cjt->cit", self.gmat, z_nodes)
            dz = self.grid_eval(gz_nodes, self.space, self.B, self.Tt)
        else:
            dz = self.grid_eval(z_nodes, self.space, self.dB, self.Tt, dx_scale=True)
        return z, zt, dz

    def _pointwise_grad(self, zgrid: np.ndarray) -> np.ndarray:
        pts = np.moveaxis(zgrid, 0, -1)
        return np.moveaxis(self.problem.grad_s(pts), -1, 0)

    # -- residual and jacobian -------------------------------------------------

    def residual(self, z_nodes: np.ndarray, aux_nodes: np.ndarray | None = None) -> np.ndarray:
        """Flat residual over all test rows (scheme rows, then projection rows)."""
        z, zt, dz = self.fields_on_grid(z_nodes)
        k_zt = np.einsum("cd,dgmh->cgmh", self.problem.K, zt)
        l_dz = np.einsum("cd,dgmh->cgmh", self.problem.L, dz)
        grad = self._pointwise_grad(z)

        if self.variant is SchemeVariant.CG_MOMENTUM:
            if aux_nodes is None:
                raise ValueError("momentum variant needs the auxiliary field")
            a_grid = self.grid_eval(aux_nodes, self.aux_space, self.Bdg, self.Tt)
            f_z = k_zt + l_dz - a_grid
            f_a = a_grid - grad
            r_z = self._test_rows(f_z, self.space, self.B)
            r_a = self._test_rows(f_a, self.aux_space, self.Bdg)
            return np.concatenate([r_z.ravel(), r_a.ravel()])

        f = k_zt + l_dz - grad
        return self._test_rows(f, self.space, self.B).ravel()

    def _test_rows(self, fgrid: np.ndarray, space: SpatialSpace,
                   basis_table: np.ndarray) -> np.ndarray:
        """Test-space rows (D, dofs, q+1) of a grid field."""
        elem = np.einsum("cgmh,kh,ag,g,mh->camk", fgrid, basis_table,
                         self.Ts, self.wt, self.wx)
        return np.swapaxes(space.scatter_add(elem), 1, 2)

    def jacobian(self, z_nodes: np.ndarray) -> scipy.sparse.csc_matrix:
        """Exact sparse derivative of the flat residual w.r.t. the unknown nodes."""
        z = self.grid_eval(z_nodes, self.space, self.B, self.Tt)
        if self.variant is SchemeVariant.CG_MOMENTUM:
            block = self._hessian_block(z, self.aux_space, self.Bdg, self.space, self.B)
            return scipy.sparse.bmat([[self.linear_jacobian, self.block_za],
                                      [-block, self.block_aa]], format="csc")
        return self.linear_jacobian - self._hessian_block(z, self.space, self.B,
                                                          self.space, self.B)

    def _hessian_block(self, zgrid: np.ndarray, row_space: SpatialSpace,
                       row_table: np.ndarray, col_space: SpatialSpace,
                       col_table: np.ndarray) -> scipy.sparse.csr_matrix:
        pts = np.moveaxis(zgrid, 0, -1)
        hess = self.problem.hess_s(pts)  # (nt, M, ns, D, D)
        ttu = self.Tt[1:, :]
        vals = np.einsum("gmhcd,kh,lh,ag,bg,g,mh->mckadlb", hess, row_table,
                         col_table, self.Ts, ttu, self.wt, self.wx)
        m = len(vals)
        rows, cols = self._flat_dofs(row_space), self._flat_dofs(col_space)
        return assemble(rows, cols, vals.reshape(m, rows.shape[1], cols.shape[1]),
                        (self.problem.D * row_space.dof_count * (self.q + 1),
                         self.problem.D * col_space.dof_count * (self.q + 1)))

    def _flat_dofs(self, space: SpatialSpace) -> np.ndarray:
        """Flat unknown indices (M, D*(p+1)*(q+1)) of each element, ordered (c, k, a)."""
        q1 = self.q + 1
        comp = np.arange(self.problem.D)[None, :, None, None] * space.dof_count
        flat = (comp + space.element_dofs[:, None, :, None]) * q1 \
            + np.arange(q1)[None, None, None, :]
        return flat.reshape(len(flat), -1)

    # -- newton ----------------------------------------------------------------

    def solve_slab(self, z_start: np.ndarray, aux_start: np.ndarray | None,
                   tolerance: float, max_iterations: int):
        """Newton iteration from the constant-in-time extension of z_start."""
        d, q2 = self.problem.D, self.q + 2
        z_nodes = np.repeat(z_start[:, :, None], q2, axis=2)
        aux_nodes = None
        if self.variant is SchemeVariant.CG_MOMENTUM:
            aux_nodes = np.repeat(aux_start[:, :, None], q2, axis=2)

        iterations = 0
        for _ in range(max_iterations + 1):
            r = self.residual(z_nodes, aux_nodes)
            norm = float(np.max(np.abs(r))) if r.size else 0.0
            if norm <= tolerance:
                return z_nodes, aux_nodes, iterations, norm
            if iterations >= max_iterations:
                break
            step = self._newton_step(z_nodes, aux_nodes, r)
            z_step = step[: self.n_z].reshape(d, self.n, self.q + 1)
            z_nodes[:, :, 1:] += z_step
            if aux_nodes is not None:
                aux_nodes[:, :, 1:] += step[self.n_z:].reshape(d, self.n_aux, self.q + 1)
            iterations += 1
            scale = max(1.0, float(np.max(np.abs(z_nodes))))
            if float(np.max(np.abs(step))) <= 1e-14 * scale:
                r = self.residual(z_nodes, aux_nodes)
                norm = float(np.max(np.abs(r)))
                if norm <= 10.0 * tolerance:
                    return z_nodes, aux_nodes, iterations, norm
                break
        raise SolverFailure(
            f"Newton stalled at residual {norm:.3e} after {iterations} iterations",
            residual_norm=norm,
        )

    def _newton_step(self, z_nodes, aux_nodes, r):
        lu = self._lu
        if lu is None:
            lu = scipy.sparse.linalg.splu(self.jacobian(z_nodes))
            if self.jacobian_is_constant:
                self._lu = lu
        return lu.solve(-r)


@dataclass(eq=False)
class Trajectory:
    """Solved slabs plus the projected initial state.

    Consecutive slabs share their interface values exactly: node 0 of slab
    n+1 is copied from node q+1 of slab n.
    """

    problem: MultisymplecticProblem
    variant: SchemeVariant
    space: SpatialSpace
    q: int
    times: np.ndarray
    initial_coeffs: np.ndarray
    slabs: list[SlabCoefficients] = field(default_factory=list)
    newton_iterations: list[int] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        return len(self.slabs) + 1

    def state_at_node(self, n: int) -> np.ndarray:
        if n == 0:
            return self.initial_coeffs
        return self.slabs[n - 1].state_at_node(self.slabs[n - 1].slab.q + 1)


def _project_gradient(assembler: SlabAssembler, z_coeffs: np.ndarray) -> np.ndarray:
    """Broken-space projection of grad S evaluated on the current field."""
    rule = assembler.rule_x
    zvals = assembler.space.eval_on_rule(z_coeffs, rule)        # (D, M, ns)
    pts = np.moveaxis(zvals, 0, -1)
    grad = np.moveaxis(assembler.problem.grad_s(pts), -1, 0)
    dg = assembler.aux_space
    w = dg.partition.widths[:, None] * rule.weights[None, :]
    elem = np.einsum("cmg,kg,mg->cmk", grad, assembler.Bdg, w)
    rhs = dg.scatter_add(elem)
    return dg.mass_solve(rhs)


def run_simulation(variant: SchemeVariant, problem: MultisymplecticProblem,
                   config: SolverConfig) -> Trajectory:
    """Project the initial state, then advance slab by slab to t_final."""
    space = build_space(problem, config, variant)
    z0 = space.project(lambda x: problem.initial_state(x))

    n_full = int(np.floor(config.t_final / config.dt + 1e-12))
    remainder = config.t_final - n_full * config.dt
    slab_lengths = [config.dt] * n_full
    if remainder > 1e-10 * max(1.0, config.t_final):
        slab_lengths.append(remainder)

    times = np.concatenate([[0.0], np.cumsum(slab_lengths)])
    times[-1] = config.t_final
    traj = Trajectory(problem, variant, space, config.q, times, z0)

    assemblers = {config.dt: SlabAssembler(variant, problem, space, config.q, config.dt)}
    z_prev = z0
    aux_prev = None
    if variant is SchemeVariant.CG_MOMENTUM:
        aux_prev = _project_gradient(assemblers[config.dt], z0)

    for index, dt in enumerate(slab_lengths):
        assembler = assemblers.get(dt)
        if assembler is None:
            assembler = SlabAssembler(variant, problem, space, config.q, dt)
            assemblers[dt] = assembler
        try:
            z_nodes, aux_nodes, iters, _ = assembler.solve_slab(
                z_prev, aux_prev, config.newton_tolerance, config.max_newton_iterations)
        except SolverFailure as failure:
            failure.slab_index = index
            failure.partial = traj
            traj.times = traj.times[: index + 1]
            raise
        slab = TemporalSlab(times[index], times[index + 1], config.q)
        traj.slabs.append(SlabCoefficients(slab, space, z_nodes, aux=aux_nodes,
                                           aux_space=assembler.aux_space))
        traj.newton_iterations.append(iters)
        z_prev = z_nodes[:, :, -1]
        if aux_nodes is not None:
            aux_prev = aux_nodes[:, :, -1]
    return traj
