"""Jump/average algebra and discrete first-derivative operators.

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

from .mesh import gauss_legendre, quadrature_order_policy
from .spaces import SpatialSpace, assemble

__all__ = [
    "TraceValues",
    "jump",
    "avg",
    "node_traces",
    "g_matrix",
    "weak_g_matrix",
    "apply_g",
    "weak_g_from_samples",
    "broken_derivative",
    "broken_space",
    "LocalBoundaryTerms",
    "local_g_boundary_terms",
]


@dataclass(frozen=True, eq=False)
class TraceValues:
    """Left/right limits of a (possibly vector-valued) field at mesh node m."""

    node_index: int
    left_value: np.ndarray
    right_value: np.ndarray


def jump(trace: TraceValues) -> np.ndarray:
    """[U] = U^- - U^+."""
    return np.asarray(trace.left_value) - np.asarray(trace.right_value)


def avg(trace: TraceValues) -> np.ndarray:
    """{U} = (U^- + U^+) / 2."""
    return 0.5 * (np.asarray(trace.left_value) + np.asarray(trace.right_value))


def node_traces(space: SpatialSpace, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right limits at every mesh node, shapes (..., M).

    Node m sits between elements m-1 and m (periodic wrap at m = 0).  For a
    continuous space both limits coincide.
    """
    coeffs = np.asarray(coeffs)
    local = space.gather(coeffs)  # (..., M, p+1)
    right = local[..., :, 0]
    left = np.roll(local[..., :, -1], 1, axis=-1)
    return left, right


_G_CACHE_ATTR = "_g_matrix_cache"


def weak_g_matrix(space: SpatialSpace) -> scipy.sparse.csr_matrix:
    """Sparse weak form ``M G`` of the average-flux derivative on a broken space.

    Row i holds int G(U) . phi_i as a linear function of U's coefficients.
    """
    if space.continuity != "dg":
        raise ValueError("the average-flux derivative operator needs a broken space")
    n, p = space.dof_count, space.degree
    rule = gauss_legendre(quadrature_order_policy(2 * p - 1))
    b = space.tabulate(("g", len(rule)), rule.points)
    db = space.tabulate(("g", len(rule)), rule.points, derivative_order=1)
    dofs = space.element_dofs
    # Volume term: widths cancel against the derivative jacobian.
    ref = np.einsum("kg,lg,g->kl", b, db, rule.weights)
    volume = assemble(dofs, dofs, ref, (n, n))

    # Interface term at node m, on (limit from below, limit from above):
    # -[U]_m {phi}_m, with nodal basis traces on the first/last local dof.
    pair = np.stack([np.roll(dofs[:, -1], 1), dofs[:, 0]], axis=1)
    return volume + assemble(pair, pair, [[-0.5, 0.5], [-0.5, 0.5]], (n, n))


def g_matrix(space: SpatialSpace) -> np.ndarray:
    """Dense matrix of the average-flux derivative on a broken space.

    The broken mass matrix is block diagonal, so G is the weak form times
    the element-local inverse mass blocks.
    """
    cached = getattr(space, _G_CACHE_ATTR, None)
    if cached is not None:
        return cached
    weak = weak_g_matrix(space)
    n, dofs = space.dof_count, space.element_dofs
    inverse = np.linalg.inv(space.reference_mass())
    local = inverse[None, :, :] / space.partition.widths[:, None, None]
    g = (assemble(dofs, dofs, local, (n, n)) @ weak).toarray()
    setattr(space, _G_CACHE_ATTR, g)
    return g


def apply_g(space: SpatialSpace, coeffs: np.ndarray) -> np.ndarray:
    """Apply the average-flux derivative along the trailing dof axis."""
    g = g_matrix(space)
    return np.einsum("ij,...j->...i", g, np.asarray(coeffs))


def weak_g_from_samples(space: SpatialSpace, grid_values: np.ndarray,
                        grid_derivatives: np.ndarray, left_traces: np.ndarray,
                        right_traces: np.ndarray, rule) -> np.ndarray:
    """Coefficients of G(F) for a sampled broken field F outside the space.

    ``grid_values``/``grid_derivatives`` hold F and its elementwise x
    derivative on the rule grid (..., M, ns); traces hold the limits at each
    node (..., M).  Used by the conservation diagnostics, where F is a
    product of fields with polynomial degree above the space's.
    """
    b = space.tabulate(("rule", len(rule)), rule.points)
    w = space.partition.widths[:, None] * rule.weights[None, :]
    elem = np.einsum("...mg,kg,mg->...mk", np.asarray(grid_derivatives), b, w)
    rhs = space.scatter_add(elem)

    jumps = np.asarray(left_traces) - np.asarray(right_traces)
    m = space.partition.element_count
    for node in range(m):
        l_dof = space.element_dofs[(node - 1) % m, -1]
        r_dof = space.element_dofs[node, 0]
        rhs[..., l_dof] -= 0.5 * jumps[..., node]
        rhs[..., r_dof] -= 0.5 * jumps[..., node]
    return space.mass_solve(rhs)


def broken_space(space: SpatialSpace, degree: int | None = None) -> SpatialSpace:
    """Broken companion space on the same partition (default: same degree)."""
    return SpatialSpace(space.partition, degree if degree is not None else space.degree, "dg")


def broken_derivative(space: SpatialSpace, coeffs: np.ndarray):
    """Elementwise exact derivative, returned on the degree-(p-1) broken space.

    Returns (derivative space, coefficients); coefficients keep the input's
    leading axes but live on the new space's dofs.
    """
    if space.degree < 1:
        raise ValueError("broken derivative needs degree >= 1")
    coeffs = np.asarray(coeffs)
    target = SpatialSpace(space.partition, space.degree - 1, "dg")
    db = space.tabulate(("broken_d", space.degree), target.basis.nodes,
                        derivative_order=1)
    local = np.einsum("...mk,kg->...mg", space.gather(coeffs), db)
    local = local / space.partition.widths[:, None]
    out = np.zeros(coeffs.shape[:-1] + (target.dof_count,))
    out[..., target.element_dofs.reshape(-1)] = local.reshape(local.shape[:-2] + (-1,))
    return target, out


@dataclass(frozen=True, eq=False)
class LocalBoundaryTerms:
    """Nodal trace combinations entering the elementwise operator identities.

    For fields U, V on element m with nodes m (lower) and m+1 (upper):
    ``avg_lower``/``avg_upper`` are {U.V} and ``cross_lower``/``cross_upper``
    are (U^- . V^+ + U^+ . V^-)/2 at the respective nodes.
    """

    element: int
    avg_lower: float
    avg_upper: float
    cross_lower: float
    cross_upper: float
    left_products: tuple[float, float]   # U^- . V^- at lower/upper node
    right_products: tuple[float, float]  # U^+ . V^+ at lower/upper node


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
        element=element,
        avg_lower=0.5 * (dot(ul, vl, lo) + dot(ur, vr, lo)),
        avg_upper=0.5 * (dot(ul, vl, up) + dot(ur, vr, up)),
        cross_lower=0.5 * (dot(ul, vr, lo) + dot(ur, vl, lo)),
        cross_upper=0.5 * (dot(ul, vr, up) + dot(ur, vl, up)),
        left_products=(dot(ul, vl, lo), dot(ul, vl, up)),
        right_products=(dot(ur, vr, lo), dot(ur, vr, up)),
    )
