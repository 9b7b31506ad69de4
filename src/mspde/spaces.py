"""Periodic spatial FE spaces, temporal slabs, and L2 projections.

Spatial spaces are either globally continuous ("cg") or broken ("dg")
piecewise polynomials on a periodic partition.  Temporal slabs pair a
degree-(q+1) continuous trial space with a degree-q discontinuous test
space, so time differentiation maps trial into test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .mesh import (
    LagrangeBasis,
    Partition1D,
    QuadratureRule,
    gauss_legendre,
    quadrature_order_policy,
)

__all__ = [
    "assemble",
    "SpatialSpace",
    "TemporalSlab",
    "SlabCoefficients",
    "mass_matrix",
    "l2_project_spatial",
    "l2_project_spacetime",
    "eval_field",
]


def assemble(row_dofs, col_dofs, blocks, shape) -> scipy.sparse.csr_matrix:
    """Sum element blocks (M, r, c) into a sparse matrix of the given shape.

    Block m lands on rows ``row_dofs[m]`` (length r) and columns
    ``col_dofs[m]`` (length c); entries that meet on one (row, column) pair
    are added.  A single (r, c) block is shared by all M elements.
    """
    row_dofs, col_dofs = np.asarray(row_dofs), np.asarray(col_dofs)
    full = (len(row_dofs), row_dofs.shape[1], col_dofs.shape[1])
    blocks = np.broadcast_to(np.asarray(blocks, dtype=float), full)
    rows = np.broadcast_to(row_dofs[:, :, None], full)
    cols = np.broadcast_to(col_dofs[:, None, :], full)
    return scipy.sparse.csr_matrix(
        (blocks.ravel(), (rows.ravel(), cols.ravel())), shape=shape)


class SpatialSpace:
    """Degree-p periodic finite element space, continuous or broken.

    Degrees of freedom are nodal values on equispaced element nodes; for the
    continuous variant interface nodes are shared (and wrap periodically), so
    ``dof_count`` is M*p, while the broken variant owns M*(p+1) dofs.  All
    constructed state (dof map, cached matrices) is immutable after first
    use, so instances are safe for shared read-only access.
    """

    def __init__(self, partition: Partition1D, degree: int, continuity: str):
        if continuity not in ("cg", "dg"):
            raise ValueError("continuity must be 'cg' or 'dg'")
        if degree < (1 if continuity == "cg" else 0):
            raise ValueError(f"degree {degree} too low for a {continuity} space")
        if not partition.periodic:
            raise ValueError("spatial spaces are defined on periodic partitions")
        self.partition = partition
        self.degree = degree
        self.continuity = continuity
        self.basis = LagrangeBasis.equispaced(degree)
        m, p = partition.element_count, degree
        if continuity == "cg":
            self.dof_count = m * p
            local = np.arange(p + 1)
            self.element_dofs = (p * np.arange(m)[:, None] + local[None, :]) % (m * p)
        else:
            self.dof_count = m * (p + 1)
            self.element_dofs = (p + 1) * np.arange(m)[:, None] + np.arange(p + 1)[None, :]
        self._mass = None
        self._mass_cho = None
        self._tabulations: dict = {}

    # -- tabulation ---------------------------------------------------------

    def tabulate(self, key, points, derivative_order: int = 0) -> np.ndarray:
        """Cached reference-basis table of shape (p+1, len(points))."""
        cache_key = (key, derivative_order)
        if cache_key not in self._tabulations:
            self._tabulations[cache_key] = self.basis.tabulate(points, derivative_order)
        return self._tabulations[cache_key]

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """Element-local view of global coefficients, shape (..., M, p+1)."""
        return np.asarray(coeffs)[..., self.element_dofs]

    def scatter_add(self, element_values: np.ndarray) -> np.ndarray:
        """Accumulate element-local contributions (..., M, p+1) into dofs."""
        element_values = np.asarray(element_values)
        lead = element_values.shape[:-2]
        out = np.zeros(lead + (self.dof_count,))
        np.add.at(
            out.reshape(-1, self.dof_count),
            (slice(None), self.element_dofs.ravel()),
            element_values.reshape(-1, self.element_dofs.size),
        )
        return out

    # -- mass matrix and projections ----------------------------------------

    def reference_mass(self) -> np.ndarray:
        """Mass matrix of the reference element [0, 1], shape (p+1, p+1)."""
        rule = gauss_legendre(quadrature_order_policy(2 * self.degree))
        b = self.tabulate("mass", rule.points)
        return np.einsum("kg,lg,g->kl", b, b, rule.weights)

    def mass_matrix(self) -> np.ndarray:
        """Exactly integrated mass matrix (symmetric positive definite)."""
        if self._mass is None:
            blocks = self.partition.widths[:, None, None] * self.reference_mass()
            n = self.dof_count
            self._mass = assemble(self.element_dofs, self.element_dofs, blocks,
                                  (n, n)).toarray()
        return self._mass

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs (rhs may carry leading axes; dof axis last)."""
        if self._mass_cho is None:
            self._mass_cho = scipy.linalg.cho_factor(self.mass_matrix())
        rhs = np.asarray(rhs, dtype=float)
        flat = rhs.reshape(-1, self.dof_count).T
        sol = scipy.linalg.cho_solve(self._mass_cho, flat)
        return sol.T.reshape(rhs.shape)

    def quad_points(self, rule: QuadratureRule) -> np.ndarray:
        """Physical quadrature coordinates, shape (M, len(rule))."""
        left = self.partition.node_coords[:-1]
        return left[:, None] + self.partition.widths[:, None] * rule.points[None, :]

    def eval_on_rule(self, coeffs, rule: QuadratureRule, derivative_order: int = 0):
        """Evaluate a coefficient field on the rule grid, shape (..., M, len(rule))."""
        b = self.tabulate(("rule", len(rule)), rule.points, derivative_order)
        vals = np.einsum("...mk,kg->...mg", self.gather(coeffs), b)
        if derivative_order == 1:
            vals = vals / self.partition.widths[:, None]
        return vals

    def evaluate(self, coeffs, x, derivative_order: int = 0):
        """Pointwise evaluation at arbitrary coordinates (right-limit at breaks)."""
        elem, ref = self.partition.locate(x)
        elem = np.atleast_1d(elem)
        ref = np.atleast_1d(ref)
        b = self.basis.tabulate(ref, derivative_order)
        local = np.asarray(coeffs)[..., self.element_dofs[elem]]
        vals = np.einsum("...gk,kg->...g", local, b)
        if derivative_order == 1:
            vals = vals / self.partition.widths[elem]
        if np.isscalar(x) or np.asarray(x).ndim == 0:
            return vals[..., 0]
        return vals

    def project(self, f) -> np.ndarray:
        """L2 projection of a callable x -> (..., D) or (...) onto the space."""
        rule = gauss_legendre(quadrature_order_policy(QUADRATURE_NONPOLY))
        pts = self.quad_points(rule)
        vals = np.asarray(f(pts.ravel()), dtype=float)
        comp_shape = vals.shape[1:]
        vals = vals.reshape(pts.shape + comp_shape)
        b = self.tabulate(("rule", len(rule)), rule.points)
        w = self.partition.widths[:, None] * rule.weights[None, :]
        elem_rhs = np.einsum("mg...,kg,mg->...mk", vals, b, w)
        return self.mass_solve(self.scatter_add(elem_rhs))

    def integrate(self, grid_values: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Integrate values sampled on the rule grid (..., M, len(rule)) over space."""
        w = self.partition.widths[:, None] * rule.weights[None, :]
        return np.einsum("...mg,mg->...", np.asarray(grid_values), w)


# Sentinel degree signalling a non-polynomial integrand to the policy.
QUADRATURE_NONPOLY = 10**6


def mass_matrix(space: SpatialSpace) -> np.ndarray:
    return space.mass_matrix()


def l2_project_spatial(f, space: SpatialSpace) -> np.ndarray:
    """Coefficients of the L2 projection of ``f`` (componentwise)."""
    return space.project(f)


@dataclass(frozen=True, eq=False)
class TemporalSlab:
    """One time slab: continuous degree-(q+1) trial, broken degree-q test."""

    t_start: float
    t_end: float
    q: int

    def __post_init__(self):
        if self.t_end <= self.t_start:
            raise ValueError("slab must have positive length")
        if self.q < 0:
            raise ValueError("temporal test degree must be nonnegative")

    @property
    def dt(self) -> float:
        return self.t_end - self.t_start

    @property
    def trial_basis(self) -> LagrangeBasis:
        return LagrangeBasis.equispaced(self.q + 1)

    @property
    def test_basis(self) -> LagrangeBasis:
        return LagrangeBasis.equispaced(self.q)

    def to_reference(self, t) -> np.ndarray:
        s = (np.asarray(t, dtype=float) - self.t_start) / self.dt
        if np.any(s < -1e-12) or np.any(s > 1.0 + 1e-12):
            raise ValueError("time outside slab")
        return np.clip(s, 0.0, 1.0)

    def times(self, ref_points) -> np.ndarray:
        return self.t_start + self.dt * np.asarray(ref_points)


@dataclass(eq=False)
class SlabCoefficients:
    """Coefficient tensor of a D-component space-time field on one slab.

    ``values`` has shape (D, spatial dofs, q+2); temporal node 0 carries the
    incoming state (global continuity), node q+1 the outgoing one.  ``aux``
    optionally stores a companion field on ``aux_space`` with the same
    temporal layout (used by the momentum-projecting scheme variant).
    """

    slab: TemporalSlab
    space: SpatialSpace
    values: np.ndarray
    aux: np.ndarray | None = None
    aux_space: SpatialSpace | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[2] != self.slab.q + 2:
            raise ValueError("values must have shape (D, spatial dofs, q+2)")
        if self.values.shape[1] != self.space.dof_count:
            raise ValueError("spatial dof count mismatch")

    @property
    def components(self) -> int:
        return self.values.shape[0]

    def state_at_node(self, node: int) -> np.ndarray:
        return self.values[:, :, node]

    def temporal_values(self, t, derivative_order: int = 0) -> np.ndarray:
        """Spatial coefficient vectors at time t, shape (D, dofs[, len(t)])."""
        s = np.atleast_1d(self.slab.to_reference(t))
        tab = self.slab.trial_basis.tabulate(s, derivative_order)
        if derivative_order == 1:
            tab = tab / self.slab.dt
        vals = np.einsum("cnk,kg->cng", self.values, tab)
        if np.asarray(t).ndim == 0:
            return vals[:, :, 0]
        return vals


def eval_field(coeffs: SlabCoefficients, t, x, dt_order: int = 0, dx_order: int = 0):
    """Evaluate the slab field (or a first derivative) at (t, x).

    Returns an array of shape (D,) for scalar inputs, (D, len(x)) otherwise.
    Raises if t lies outside the slab.
    """
    spatial = coeffs.temporal_values(t, dt_order)
    if spatial.ndim == 3:
        if np.asarray(x).ndim == 0:
            return np.stack(
                [coeffs.space.evaluate(spatial[:, :, g], x, dx_order) for g in range(spatial.shape[2])],
                axis=-1,
            )
        raise ValueError("pass a scalar t with array x, or scalar x with array t")
    return coeffs.space.evaluate(spatial, x, dx_order)


def l2_project_spacetime(field, slab: TemporalSlab, space: SpatialSpace,
                         time_rule: QuadratureRule | None = None,
                         space_rule: QuadratureRule | None = None) -> np.ndarray:
    """Project a space-time field onto (degree-q test in time) x ``space``.

    ``field`` is either a callable (t, x) -> (D,) evaluated pointwise, or a
    pre-sampled grid of shape (D, nt, M, ns) matching the supplied rules.
    Returns coefficients of shape (D, dofs, q+1) against the slab test basis.
    """
    if time_rule is None:
        time_rule = gauss_legendre(quadrature_order_policy(QUADRATURE_NONPOLY))
    if space_rule is None:
        space_rule = gauss_legendre(quadrature_order_policy(QUADRATURE_NONPOLY))
    if callable(field):
        times = slab.times(time_rule.points)
        xs = space.quad_points(space_rule)
        grid = np.stack(
            [np.asarray(field(t, xs.ravel())).reshape(-1, *xs.shape) for t in times],
            axis=1,
        )
    else:
        grid = np.asarray(field, dtype=float)
    d = grid.shape[0]
    ts = slab.test_basis.tabulate(time_rule.points)
    b = space.tabulate(("rule", len(space_rule)), space_rule.points)
    wt = slab.dt * time_rule.weights
    wx = space.partition.widths[:, None] * space_rule.weights[None, :]
    elem_rhs = np.einsum("cgmh,kh,ag,g,mh->camk", grid, b, ts, wt, wx)
    rhs = space.mass_solve(space.scatter_add(elem_rhs))
    tmass = slab.dt * np.einsum("ag,bg,g->ab", ts, ts, time_rule.weights)
    coeffs = np.linalg.solve(tmass, rhs.reshape(d, slab.q + 1, -1))
    return np.swapaxes(coeffs, 1, 2)
