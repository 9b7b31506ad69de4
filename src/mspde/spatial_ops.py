"""Nodal traces, G of sampled fields and element trace terms: the pieces that
the identities of a broken space's average-flux derivative G
(:meth:`SpatialSpace.g_operator`) are checked with."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spaces import SpatialSpace

__all__ = [
    "node_traces",
    "g_matrix",
    "weak_g_from_samples",
    "LocalBoundaryTerms",
    "local_g_boundary_terms",
]


def node_traces(space: SpatialSpace, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right limits at every mesh node, shapes (..., M).

    For a continuous space both limits coincide.
    """
    traces = np.asarray(coeffs)[..., space.node_dofs()]  # (..., M, 2)
    return traces[..., 0], traces[..., 1]


def g_matrix(space: SpatialSpace) -> np.ndarray:
    """Dense copy of :meth:`SpatialSpace.g_operator`, for dense algebra in tests on small meshes."""
    return space.g_operator().toarray()


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
    np.subtract.at(flat, (slice(None), space.node_dofs().ravel()),
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
