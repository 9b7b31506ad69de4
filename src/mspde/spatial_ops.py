"""Discrete first-derivative operators on broken spaces.

The broken space carries a global derivative operator G built from
elementwise derivatives plus centred (average) interface fluxes:

    int G(U) . phi = sum_m int_e U_x . phi  -  sum_m [U]_m . {phi}_m

for every broken test function phi, with [U] = U^- - U^+ and
{U} = (U^- + U^+)/2 at each mesh node (periodic wrap at the seam).
G is skew-symmetric, orthogonal to constants, and satisfies a discrete
product rule; those identities are what the conservation diagnostics lean on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .spaces import SpatialSpace, assemble

__all__ = [
    "node_traces",
    "g_operator",
    "g_matrix",
    "weak_g_matrix",
    "apply_g",
    "weak_g_from_samples",
    "LocalBoundaryTerms",
    "local_g_boundary_terms",
]


def _node_dofs(space: SpatialSpace) -> np.ndarray:
    """Dofs (M, 2) of the left and of the right limit at each mesh node.

    Node m sits between elements m-1 and m (periodic wrap at m = 0); the
    nodal basis puts the limits on the last and first local dof.
    """
    dofs = space.element_dofs
    return np.stack([np.roll(dofs[:, -1], 1), dofs[:, 0]], axis=1)


def node_traces(space: SpatialSpace, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right limits at every mesh node, shapes (..., M).

    For a continuous space both limits coincide.
    """
    traces = np.asarray(coeffs)[..., _node_dofs(space)]  # (..., M, 2)
    return traces[..., 0], traces[..., 1]


def weak_g_matrix(space: SpatialSpace) -> scipy.sparse.csr_matrix:
    """Sparse weak form ``M G`` of the average-flux derivative on a broken space,
    cached per space.

    Row i holds int G(U) . phi_i as a linear function of U's coefficients:
    the elementwise derivative plus the interface term -[U]_m {phi}_m at each
    node m, on (left limit, right limit).  Entries that sum to zero are not
    stored.
    """
    if space.continuity != "dg":
        raise ValueError("the average-flux derivative operator needs a broken space")
    if space._weak_g is None:
        dofs, pair = space.element_dofs, _node_dofs(space)
        weak = assemble([(dofs, dofs, space.reference_derivative()),
                         (pair, pair, [[-0.5, 0.5], [-0.5, 0.5]])],
                        (space.dof_count, space.dof_count))
        weak.eliminate_zeros()
        space._weak_g = weak
    return space._weak_g


def g_operator(space: SpatialSpace) -> scipy.sparse.csr_matrix:
    """Sparse average-flux derivative G on a broken space, cached per space.

    The broken mass matrix is block diagonal, so G is the weak form times
    the element-local inverse mass blocks that :meth:`SpatialSpace.mass_solve`
    applies.
    """
    if space._g is None:
        space._g = (space._assemble(space.inverse_mass_blocks()) @ weak_g_matrix(space)).tocsr()
    return space._g


def g_matrix(space: SpatialSpace) -> np.ndarray:
    """Dense copy of :func:`g_operator`, for dense algebra in tests on small meshes."""
    return g_operator(space).toarray()


def apply_g(space: SpatialSpace, coeffs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Apply the average-flux derivative along the dof axis (default: last)."""
    coeffs = np.moveaxis(np.asarray(coeffs, dtype=float), axis, 0)
    flat = g_operator(space) @ coeffs.reshape(space.dof_count, -1)
    return np.moveaxis(flat.reshape(coeffs.shape), 0, axis)


def weak_g_from_samples(space: SpatialSpace, grid_derivatives: np.ndarray,
                        left_traces: np.ndarray, right_traces: np.ndarray,
                        rule) -> np.ndarray:
    """Coefficients of G(F) for a sampled broken field F outside the space.

    ``grid_derivatives`` holds F's elementwise x derivative on the rule grid
    (..., M, ns); traces hold F's limits at each node (..., M).  The product
    rule's check uses it, where F is a product of fields with polynomial
    degree above the space's.
    """
    rhs = space.test_rows(grid_derivatives, rule)
    # One accumulating scatter of -[F]_m {phi}_m: at degree 0 one dof is the
    # right limit of node m and the left limit of node m+1.
    half_jumps = 0.5 * (np.asarray(left_traces) - np.asarray(right_traces))
    flat = rhs.reshape(-1, space.dof_count)
    np.subtract.at(flat, (slice(None), _node_dofs(space).ravel()),
                   np.repeat(half_jumps.reshape(len(flat), -1), 2, axis=-1))
    return space.mass_solve(rhs)


@dataclass(frozen=True, eq=False)
class LocalBoundaryTerms:
    """Nodal trace combinations entering the elementwise operator identities.

    For fields U, V on element m with nodes m (lower) and m+1 (upper):
    ``avg_lower``/``avg_upper`` are {U.V} and ``cross_lower``/``cross_upper``
    are (U^- . V^+ + U^+ . V^-)/2 at the respective nodes.
    """

    avg_lower: float
    avg_upper: float
    cross_lower: float
    cross_upper: float


def local_g_boundary_terms(space: SpatialSpace, u_coeffs: np.ndarray,
                           v_coeffs: np.ndarray, element: int) -> LocalBoundaryTerms:
    """Trace products of U and V at the two nodes bounding one element.

    Components are contracted, so vector fields pass coefficients shaped
    (D, dofs); scalar fields pass (dofs,).
    """
    u = np.atleast_2d(np.asarray(u_coeffs))
    v = np.atleast_2d(np.asarray(v_coeffs))
    ul, ur = node_traces(space, u)
    vl, vr = node_traces(space, v)
    m = space.partition.element_count
    lo, up = element % m, (element + 1) % m

    def dot(a, b, node):
        return float(np.sum(a[..., node] * b[..., node]))

    return LocalBoundaryTerms(
        avg_lower=0.5 * (dot(ul, vl, lo) + dot(ur, vr, lo)),
        avg_upper=0.5 * (dot(ul, vl, up) + dot(ur, vr, up)),
        cross_lower=0.5 * (dot(ul, vr, lo) + dot(ur, vl, lo)),
        cross_upper=0.5 * (dot(ul, vr, up) + dot(ur, vl, up)),
    )
