"""Periodic spatial FE spaces, temporal slabs, and L2 projections.

Spatial spaces are either globally continuous ("cg") or broken ("dg")
piecewise polynomials on a periodic partition.  Temporal slabs pair a
degree-(q+1) continuous trial space with a degree-q discontinuous test
space, so time differentiation maps trial into test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .mesh import (
    LagrangeBasis,
    Partition1D,
    QuadratureRule,
    gauss_legendre,
    nonpolynomial_rule,
    quadrature_order_policy,
)

__all__ = [
    "assemble",
    "BandFactor",
    "band_layout",
    "band_factorise",
    "CirculantFactor",
    "circulant_factorise",
    "SpatialSpace",
    "TemporalSlab",
    "SlabCoefficients",
    "SlabGrid",
]


def assemble(groups, shape) -> scipy.sparse.csr_array:
    """Sum element blocks into a canonical ``csr_array`` of the given shape.

    ``groups`` holds (row_dofs, col_dofs, blocks) triples: block m (r, c) of
    a group lands on rows ``row_dofs[m]`` (length r) and columns
    ``col_dofs[m]`` (length c), and a single (r, c) block is shared by all M
    elements of its group.  Entries that meet on one (row, column) pair are
    added in the order given, groups first; every entry is stored, zeros
    too.  The matrix is built from the sorted (row, column) keys.
    """
    rows, cols, values = [], [], []
    for row_dofs, col_dofs, blocks in groups:
        row_dofs, col_dofs = np.asarray(row_dofs), np.asarray(col_dofs)
        full = (len(row_dofs), row_dofs.shape[1], col_dofs.shape[1])
        values.append(np.broadcast_to(np.asarray(blocks, dtype=float), full).ravel())
        rows.append(np.broadcast_to(row_dofs[:, :, None], full).ravel())
        cols.append(np.broadcast_to(col_dofs[:, None, :], full).ravel())
    keys = np.concatenate(rows).astype(np.int64) * shape[1] + np.concatenate(cols)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    data = np.add.reduceat(np.concatenate(values)[order], first)
    keys = keys[first]
    indptr = np.searchsorted(keys, shape[1] * np.arange(shape[0] + 1)).astype(np.int32)
    return scipy.sparse.csr_array((data, (keys % shape[1]).astype(np.int32), indptr),
                                  shape=shape)


class BandFactor(NamedTuple):
    """Band LU of :func:`band_factorise`: ``lu`` is the factor's Fortran band
    storage, with ``kl`` sub- and ``ku`` superdiagonals and kl more rows of
    pivoting fill, of the matrix in the folded unknown order ``order``."""

    lu: np.ndarray
    ipiv: np.ndarray
    kl: int
    ku: int
    order: np.ndarray
    position: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution x, of shape (size,) or (size, k) like b, of A x = b."""
        folded, _ = dgbtrs(self.lu, self.kl, self.ku, b.take(self.order, axis=0), self.ipiv,
                           overwrite_b=True)
        return folded.take(self.position, axis=0)


def band_layout(pattern: scipy.sparse.csr_array, n: int):
    """Band layout of a CSR pattern over n periodic dofs of size // n unknowns
    each, folded in dof order 0, n-1, 1, n-2, ... so that its periodic corner
    blocks meet the diagonal: the flat Fortran band index of each stored
    entry, kl, ku, the folded unknown order and its inverse ``position``."""
    size, block = pattern.shape[0], pattern.shape[0] // n
    dofs = np.stack([np.arange(n), n - 1 - np.arange(n)], axis=1).ravel()[:n]
    order = (dofs[:, None] * block + np.arange(block)).ravel()
    position = np.argsort(order)
    # Folded column of each entry, and its folded row less that column.
    col = position.astype(np.int32)[pattern.indices]
    index = np.repeat(position.astype(np.int32), np.diff(pattern.indptr)) - col
    kl, ku = int(index.max()), -int(index.min())
    rows = 2 * kl + ku + 1
    dtype = np.int32 if rows * size <= np.iinfo(np.int32).max else np.int64
    index = index.astype(dtype) + (kl + ku) + rows * col.astype(dtype)
    return index, kl, ku, order.astype(dtype), position.astype(dtype)


def band_factorise(data: np.ndarray, layout) -> BandFactor:
    """LAPACK band LU with row interchanges (``dgbtrf``) of the stored entries
    ``data`` on the pattern of a :func:`band_layout`; singular raises LinAlgError."""
    index, kl, ku, order, position = layout
    band = np.zeros((2 * kl + ku + 1) * len(order))
    band[index] = data
    lu, ipiv, info = dgbtrf(band.reshape((-1, len(order)), order="F"), kl, ku, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot {info}")
    if info < 0:
        raise ValueError(f"dgbtrf rejected argument {-info}")
    return BandFactor(lu, ipiv, kl, ku, order, position)


class CirculantFactor(NamedTuple):
    """Inverse of a block-circulant matrix from :func:`circulant_factorise`:
    ``inverse`` holds the inverses (count // 2 + 1, b, b) of its Fourier
    blocks, for ``count`` circulant blocks of b unknowns each."""

    inverse: np.ndarray
    count: int

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution x, of shape (size,) or (size, k) like b, of A x = b: a real
        DFT over the blocks, one batched product, then the inverse DFT."""
        spectrum = np.fft.rfft(b.reshape(self.count, self.inverse.shape[-1], -1), axis=0)
        return np.fft.irfft(self.inverse @ spectrum, n=self.count, axis=0).reshape(b.shape)


def circulant_factorise(matrix: scipy.sparse.csr_array, count: int) -> CirculantFactor | None:
    """:class:`CirculantFactor` of a canonical CSR matrix that is exactly block
    circulant over ``count`` blocks of size // count unknowns, or None.

    Block row i must repeat block row 0 shifted cyclically by i blocks, entry
    by entry: the same stored count in each row, and each stored value equal
    to block row 0's stored value at the shifted column.  The check takes
    O(nnz) time and one dense copy of block row 0.  Entry (r, kb + c) of
    block row 0 is C_k[r, c], and the DFT over k turns the matrix into the
    blocks sum_k C_k exp(2 pi i k w / count), w = 0 .. count // 2, the
    others being their conjugates; a singular block raises LinAlgError.
    """
    size = matrix.shape[0]
    if count < 1 or size % count or matrix.shape[1] != size:
        return None
    block = size // count
    counts = np.diff(matrix.indptr).reshape(count, block)
    if np.any(counts != counts[0]):
        return None
    stored = int(matrix.indptr[block])
    # The flat index in block row 0 of every entry, its column shifted back cyclically.
    columns = matrix.indices.reshape(count, stored) \
        - block * np.arange(count, dtype=matrix.indices.dtype)[:, None]
    columns[columns < 0] += size
    index = np.repeat(size * np.arange(block, dtype=np.intp), counts[0]) + columns
    first = np.full((block, size), np.nan)
    first.flat[index[0]] = matrix.data[:stored]
    if not np.array_equal(first.take(index), matrix.data.reshape(count, stored)):
        return None
    first[np.isnan(first)] = 0.0
    blocks = first.reshape(block, count, block).transpose(1, 0, 2)
    return CirculantFactor(np.linalg.inv(np.conj(np.fft.rfft(blocks, axis=0))), count)


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
        # The inverse mass: element blocks on a broken space, a band factor on a continuous one.
        self._inverse_blocks = self._mass_factor = None
        self._weak_derivative = self._g = None

    # -- tabulation ---------------------------------------------------------

    def tabulate(self, points, derivative_order: int = 0) -> np.ndarray:
        """Cached, read-only reference-basis table of shape (p+1, len(points)),
        shared by every space of this degree (see :meth:`LagrangeBasis.table`)."""
        return self.basis.table(points, derivative_order)

    def gather(self, coeffs: np.ndarray) -> np.ndarray:
        """Element-local values of global coefficients, shape (..., M, p+1).

        A broken space's element dofs are the identity order, so the values
        are a reshape, and a view of the input where numpy can make one;
        callers must not write into the result.
        """
        coeffs = np.asarray(coeffs)
        if self.continuity == "dg":
            return coeffs.reshape(coeffs.shape[:-1] + self.element_dofs.shape)
        return coeffs[..., self.element_dofs]

    def scatter_add(self, element_values: np.ndarray) -> np.ndarray:
        """Accumulate element-local contributions (..., M, p+1) into dofs.

        A broken space's element dofs are the identity order, so the values
        are copied in that order.  On a continuous space element m's first p
        local dofs are dofs pm..pm+p-1, copied likewise, and its last local
        dof adds the one shared term to dof p(m+1), which wraps to dof 0: no
        dof sums more than two values.  The result never shares memory with
        the input.
        """
        element_values = np.asarray(element_values, dtype=float)
        shape = element_values.shape[:-2] + (self.dof_count,)
        if self.continuity == "dg":
            return element_values.copy().reshape(shape)
        p = self.degree
        out = element_values[..., :p].copy().reshape(shape)
        out[..., p::p] += element_values[..., :-1, p]
        out[..., 0] += element_values[..., -1, p]
        return out

    # -- mass matrix and projections ----------------------------------------

    def reference_mass(self) -> np.ndarray:
        """Mass matrix of the reference element [0, 1], shape (p+1, p+1)."""
        rule = gauss_legendre(quadrature_order_policy(2 * self.degree))
        b = self.tabulate(rule.points)
        return np.einsum("kg,lg,g->kl", b, b, rule.weights)

    def mass_operator(self) -> scipy.sparse.csr_array:
        """Sparse exactly integrated mass matrix, row i holding int u phi_i,
        built once per space."""
        if self._mass is None:
            blocks = self.partition.widths[:, None, None] * self.reference_mass()
            self._mass = self._assemble(blocks)
        return self._mass

    def _assemble(self, blocks):
        """Element blocks (M, p+1, p+1), or one shared block, summed on this space's dofs."""
        return assemble([(self.element_dofs, self.element_dofs, blocks)],
                        (self.dof_count, self.dof_count))

    def inverse_mass_blocks(self) -> np.ndarray:
        """Inverse (M, p+1, p+1) of a broken space's block-diagonal mass, built
        once per space and read-only: :meth:`mass_solve` and G apply it."""
        if self._inverse_blocks is None:
            inverse = np.linalg.inv(self.reference_mass())
            self._inverse_blocks = inverse[None, :, :] / self.partition.widths[:, None, None]
            self._inverse_blocks.flags.writeable = False
        return self._inverse_blocks

    def mass_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M x = rhs (dof axis last): one batched product with the element inverse
        blocks on a broken space, the folded band LU of the cyclic mass on a continuous one."""
        rhs = np.asarray(rhs, dtype=float)
        if self.continuity == "dg":
            return (self.inverse_mass_blocks() @ self.gather(rhs)[..., None]).reshape(rhs.shape)
        if self._mass_factor is None:
            mass = self.mass_operator()
            self._mass_factor = band_factorise(mass.data, band_layout(mass, self.dof_count))
        return self._mass_factor.solve(rhs.reshape(-1, self.dof_count).T).T.reshape(rhs.shape)

    def quad_points(self, rule: QuadratureRule) -> np.ndarray:
        """Physical quadrature coordinates, shape (M, len(rule))."""
        left = self.partition.node_coords[:-1]
        return left[:, None] + self.partition.widths[:, None] * rule.points[None, :]

    def eval_on_rule(self, coeffs, rule: QuadratureRule, derivative_order: int = 0):
        """Evaluate coefficients (..., dofs) on the rule grid, shape (..., M, len(rule)).

        The one spatial evaluation kernel: a gather to element-local values,
        then one matrix product with the reference basis table.
        """
        b = self.tabulate(rule.points, derivative_order)
        local = self.gather(coeffs)                                     # (..., M, p+1)
        vals = (local.reshape(-1, local.shape[-1]) @ b).reshape(local.shape[:-1] + b.shape[-1:])
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
        rule = nonpolynomial_rule()
        pts = self.quad_points(rule)
        vals = np.asarray(f(pts.ravel()), dtype=float)
        vals = vals.reshape(pts.shape + vals.shape[1:])
        return self.project_grid(np.moveaxis(vals, (0, 1), (-2, -1)), rule)

    def project_grid(self, grid_values: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """L2 projection of values sampled on the rule grid (..., M, len(rule))."""
        return self.mass_solve(self.test_rows(grid_values, rule))

    def test_rows(self, grid_values: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Rows int f phi_i (..., dofs) of values f sampled on the rule grid (..., M, len(rule))."""
        b = self.tabulate(rule.points)
        w = self.partition.widths[:, None] * rule.weights[None, :]
        return self.scatter_add(np.einsum("...mg,kg,mg->...mk", np.asarray(grid_values), b, w))

    def integrate(self, grid_values: np.ndarray, rule: QuadratureRule) -> np.ndarray:
        """Integrate values sampled on the rule grid (..., M, len(rule)) over space."""
        w = self.partition.widths[:, None] * rule.weights[None, :]
        return np.einsum("...mg,mg->...", np.asarray(grid_values), w)

    # -- the scheme derivative ---------------------------------------------

    def reference_derivative(self) -> np.ndarray:
        """Element block (p+1, p+1) of the elementwise weak derivative, entry
        (k, l) holding int phi_l' phi_k on the reference element; widths
        cancel against the derivative jacobian."""
        rule = gauss_legendre(quadrature_order_policy(max(2 * self.degree - 1, 0)))
        b, db = self.tabulate(rule.points), self.tabulate(rule.points, 1)
        return np.einsum("kg,lg,g->kl", b, db, rule.weights)

    def node_dofs(self) -> np.ndarray:
        """Dofs (M, 2) of the left and of the right limit at each mesh node.

        Node m sits between elements m-1 and m (periodic wrap at m = 0); the
        nodal basis puts the limits on the last and first local dof.
        """
        dofs = self.element_dofs
        return np.stack([np.roll(dofs[:, -1], 1), dofs[:, 0]], axis=1)

    def weak_derivative(self) -> scipy.sparse.csr_array:
        """Sparse weak form of the scheme derivative Dz, row i holding
        int Dz . phi_i, built once per space: the elementwise derivative on a
        continuous space and, on a broken one, the average-flux derivative G,

            int G(U) . phi = sum_m int_e U_x . phi  -  sum_m [U]_m . {phi}_m,

        with [U] = U^- - U^+ and {U} = (U^- + U^+)/2 at each mesh node
        (periodic wrap at the seam), zero sums not stored.  G is skew,
        orthogonal to constants and obeys a discrete product rule.
        """
        if self._weak_derivative is None:
            groups = [(self.element_dofs, self.element_dofs, self.reference_derivative())]
            if self.continuity == "dg":
                pair = self.node_dofs()
                groups.append((pair, pair, [[-0.5, 0.5], [-0.5, 0.5]]))
            weak = assemble(groups, (self.dof_count, self.dof_count))
            if self.continuity == "dg":
                weak.eliminate_zeros()
            self._weak_derivative = weak
        return self._weak_derivative

    def g_operator(self) -> scipy.sparse.csr_array:
        """Sparse average-flux derivative G on a broken space, built once per
        space: the weak form times the element inverse mass blocks that
        :meth:`mass_solve` applies.

        G is scipy's sparse product as it comes, so each row keeps its
        columns in the order the product met them: the indices are not
        sorted.  They must stay so, because every product with G sums each
        row in stored order; sorting them would reorder G's row sums and
        move every ``dg`` invariant in the last bits."""
        if self.continuity != "dg":
            raise ValueError("the average-flux derivative operator needs a broken space")
        if self._g is None:
            self._g = self._assemble(self.inverse_mass_blocks()) @ self.weak_derivative()
        return self._g

    def apply_g(self, coeffs: np.ndarray, axis: int = -1) -> np.ndarray:
        """Apply the average-flux derivative along the dof axis (default: last)."""
        coeffs = np.moveaxis(np.asarray(coeffs, dtype=float), axis, 0)
        flat = self.g_operator() @ coeffs.reshape(self.dof_count, -1)
        return np.moveaxis(flat.reshape(coeffs.shape), 0, axis)

    def scheme_derivative(self, coeffs: np.ndarray, axis: int = -1) -> tuple[np.ndarray, int]:
        """Coefficients and x-derivative order whose evaluation is the scheme
        derivative Dz: G's coefficients and order 0 on a broken space, the
        field's own coefficients and order 1 on a continuous one.  ``axis``
        is the dof axis of ``coeffs``."""
        if self.continuity == "dg":
            return self.apply_g(coeffs, axis=axis), 0
        return coeffs, 1


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
        """The shared equispaced basis of degree q+1."""
        return LagrangeBasis.equispaced(self.q + 1)

    @property
    def test_basis(self) -> LagrangeBasis:
        """The shared equispaced basis of degree q."""
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
    incoming state (global continuity), node q+1 the outgoing one.
    """

    slab: TemporalSlab
    space: SpatialSpace
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[2] != self.slab.q + 2:
            raise ValueError("values must have shape (D, spatial dofs, q+2)")
        if self.values.shape[1] != self.space.dof_count:
            raise ValueError("spatial dof count mismatch")

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


class SlabGrid:
    """Space-time quadrature grid of one slab of length ``dt`` on ``space``.

    Holds the rules, the trial table ``Tt`` and its reference derivative
    ``dTt``, the test table ``Ts``, the spatial basis table ``B``, the
    physical time weights ``wt``, the temporal mass block ``time_mass``
    (q+1, q+2) of test against trial functions, and the weighted test
    tables of :meth:`test`.  Every integral over a slab (the scheme's rows,
    the local conservation laws, the space-time projection, error norms)
    goes through one of these grids.
    """

    def __init__(self, space: SpatialSpace, q: int, dt: float,
                 rule_t: QuadratureRule, rule_x: QuadratureRule):
        slab = TemporalSlab(0.0, dt, q)
        self.space, self.q, self.dt = space, q, dt
        self.rule_t, self.rule_x = rule_t, rule_x
        self.Tt = slab.trial_basis.table(rule_t.points)                # (q+2, nt)
        self.dTt = slab.trial_basis.table(rule_t.points, 1)            # reference derivative
        self.Ts = slab.test_basis.table(rule_t.points)                 # (q+1, nt)
        self.B = space.tabulate(rule_x.points)
        self.wt = dt * rule_t.weights
        self.time_mass = dt * np.einsum("ag,bg,g->ab", self.Ts, self.Tt, rule_t.weights)
        self._weighted_time = self.Ts * self.wt                        # (q+1, nt)
        self._weighted_basis = (self.B * rule_x.weights).T             # (ns, p+1)

    def eval(self, nodes: np.ndarray, time_table: np.ndarray,
             derivative_order: int = 0) -> np.ndarray:
        """Grid values (D, nt, M, ns) of node coefficients (D, dofs, T), or of
        their x-derivative at order 1: the time table (T, nt) is applied on
        global dofs, then the spatial evaluation.  The time product is
        formed as a contiguous (D, nt, dofs) array, so a broken space's
        :meth:`SpatialSpace.gather` reads it as a view."""
        return self.space.eval_on_rule(time_table.T @ np.swapaxes(nodes, 1, 2),
                                       self.rule_x, derivative_order)

    def test(self, grid: np.ndarray) -> np.ndarray:
        """Test-space rows (D, dofs, q+1) of a grid field (D, nt, M, ns).

        Row (c, i, a) is the quadrature sum of component c times spatial basis
        function i times temporal basis function a.  The grid is contracted
        over space with the weighted basis table, then over time with the
        weighted test table.
        """
        grid = np.asarray(grid)
        d, nt, m, ns = grid.shape
        in_space = grid.reshape(-1, ns) @ self._weighted_basis          # (D*nt*M, p+1)
        rows = self._weighted_time @ in_space.reshape(d, nt, -1)
        rows = rows.reshape(d, self.q + 1, m, -1) * self.space.partition.widths[:, None]
        return np.swapaxes(self.space.scatter_add(rows), 1, 2)

    def project(self, grid: np.ndarray) -> np.ndarray:
        """Test-space L2 projection (D, dofs, q+1) of a grid field (D, nt, M, ns):
        the test rows, one spatial mass solve, then one temporal mass solve."""
        rhs = self.space.mass_solve(np.swapaxes(self.test(grid), 1, 2))  # (D, q+1, dofs)
        tmass = self._weighted_time @ self.Ts.T
        return np.swapaxes(np.linalg.solve(tmass, rhs), 1, 2)

    def integrate(self, grid: np.ndarray, per_element: bool = False) -> np.ndarray:
        """Slab integral of grid values (..., nt, M, ns), or one per element (..., M)."""
        per_time = np.asarray(grid) @ self.rule_x.weights              # (..., nt, M)
        elements = (self.wt @ per_time) * self.space.partition.widths
        return elements if per_element else np.sum(elements, axis=-1)

