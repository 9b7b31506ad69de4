"""Per-slab space-time assembly, Newton solution, and the time-stepping loop.

One slab couples the whole spatial mesh with a single temporal element:
trial functions are continuous degree q+1 in time (node 0 pinned by the
incoming state) times the spatial space; tests are discontinuous degree q in
time times the same spatial space.  The scheme variants differ only in the
spatial derivative (elementwise vs average-flux), which the spatial space's
continuity selects, so the variant reaches no further than
:func:`build_space` and the :class:`Trajectory`.  ``cg-momentum`` adds an
auxiliary field, the broken-space projection of the gradient term, which
acts on every continuous test function like the gradient itself: its slab
system is the ``cg`` one, and its field is computed from the finished
trajectory by :func:`mspde.diagnostics.auxiliary_field`.
"""

from __future__ import annotations

import copy
import enum
import functools
import logging
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np
import scipy.sparse

from .mesh import QuadratureRule, gauss_legendre, quadrature_order_policy, uniform_partition
from .problems import MultisymplecticProblem
from .spaces import (BandFactor, CirculantFactor, SlabCoefficients, SlabGrid, SpatialSpace,
                     TemporalSlab, band_factorise, band_layout, circulant_factorise)

__all__ = [
    "SchemeVariant",
    "SolverConfig",
    "ConfigurationError",
    "SolverFailure",
    "Trajectory",
    "SlabAssembler",
    "SlabSolution",
    "advance",
    "run_simulation",
    "build_space",
    "slab_rules",
    "pointwise_grad",
    "field_on_grid",
]

logger = logging.getLogger(__name__)


class SchemeVariant(enum.Enum):
    """The three discretisations: continuous, momentum-projecting, broken."""

    CG_PRIMARY = "cg"
    CG_MOMENTUM = "cg-momentum"
    DG_PRIMARY = "dg"

    @property
    def spatial_continuity(self) -> str:
        return "dg" if self is SchemeVariant.DG_PRIMARY else "cg"


class ConfigurationError(ValueError):
    """A simulation configuration that no run can satisfy: an invalid
    :class:`SolverConfig` or an element size that does not tile the domain."""


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
        for name in ("dt", "dx", "t_final", "newton_tolerance"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.newton_tolerance <= 0.0:
            raise ConfigurationError("newton_tolerance must be positive")
        if self.q < 0 or self.p < 1:
            raise ConfigurationError("need q >= 0 and p >= 1")
        if self.max_newton_iterations < 0:
            raise ConfigurationError("max_newton_iterations must be nonnegative")
        if min(self.dt, self.dx, self.t_final) <= 0.0:
            raise ConfigurationError("dt, dx and t_final must be positive")


class SolverFailure(RuntimeError):
    """Newton did not reach the requested residual norm."""

    def __init__(self, message: str, residual_norm: float, slab_index: int | None = None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.slab_index = slab_index


class SlabSolution(NamedTuple):
    """One solved slab and the Newton work it took.

    ``z_nodes`` (D, dofs, q+2) are the slab's trial nodes and ``residual``
    the residual max-norm they were accepted at.  ``iterations``,
    ``factorisations`` and ``krylov_iterations`` (the GMRES iterations of
    the Newton steps) include those abandoned when a predicted start was
    ``restarted`` from the constant extension; ``stalled`` says that the
    slab was accepted above the tolerance under the 10x rule of
    :meth:`SlabAssembler.solve_slab`.
    """

    z_nodes: np.ndarray
    residual: float
    iterations: int
    factorisations: int
    restarted: bool
    stalled: bool
    krylov_iterations: int


def _max_norm(values: np.ndarray) -> float:
    return float(np.max(np.abs(values))) if values.size else 0.0


_GMRES_CAP = 6


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, as ``np.linalg.norm`` computes it."""
    return math.sqrt(v @ v)


def _forcing(norm: float) -> float:
    """Forcing term eta of the Newton step at an iterate whose residual
    max-norm is ``norm``: min(max(norm^2, 1e-12), 1e-4).

    A step solved to ||J s + r||_2 <= eta ||r||_2 with eta = O(||r||) keeps
    Newton's local quadratic convergence (Dembo, Eisenstat & Steihaug, SIAM
    J. Numer. Anal. 19, 1982; Eisenstat & Walker, SIAM J. Sci. Comput. 17,
    1996): the step's own quadratic error, about norm^2, hides any linear
    accuracy beyond it.  From norm <= 1e-6 on eta is 1e-12, so the step
    that brings a slab to its tolerance is solved as tightly as an exact
    one; 1e-4 caps eta on a far-off start.
    """
    return min(max(norm * norm, 1e-12), 1e-4)


def _gmres(jac: scipy.sparse.csr_array, factor: BandFactor, r: np.ndarray,
           eta: float) -> tuple[np.ndarray | None, int]:
    """Solution s of J s = -r by GMRES right-preconditioned with a band
    factor of another Jacobian, and the iterations it took; None in place
    of s when GMRES has not converged within ``_GMRES_CAP`` iterations.

    GMRES (Saad & Schultz, 1986) starts from the factor's solve and stops
    when the true residual ||J s + r||_2 is at most max(eta ||r||_2,
    1e-15), for the forcing term eta (see :func:`_forcing`).  The Krylov
    basis V is orthogonalised by classical Gram-Schmidt with one
    reorthogonalisation, and Z = M^-1 V (``preconditioned``) is kept, so
    the solution x0 + Z y takes no further back-solve.  The Givens
    rotations of the Hessenberg columns and the triangular solve for y run
    on Python floats.
    """
    b = -r
    x = factor.solve(b)
    residual = b - jac @ x
    tolerance = max(eta * _norm(r), 1e-15)
    beta = _norm(residual)
    if beta <= tolerance:
        return x, 0
    basis = np.empty((_GMRES_CAP + 1, len(r)))
    preconditioned = np.empty((_GMRES_CAP, len(r)))
    basis[0] = residual / beta
    columns, rotations, g = [], [], [beta]  # R's columns, Givens (c, s), rotated rhs
    for j in range(_GMRES_CAP):
        preconditioned[j] = factor.solve(basis[j])
        w = jac @ preconditioned[j]
        h = basis[: j + 1] @ w
        w -= h @ basis[: j + 1]
        again = basis[: j + 1] @ w
        w -= again @ basis[: j + 1]
        h_next = _norm(w)
        column = (h + again).tolist()
        for i, (c, s) in enumerate(rotations):
            top, bottom = column[i], column[i + 1]
            column[i], column[i + 1] = c * top + s * bottom, c * bottom - s * top
        diagonal = math.hypot(column[j], h_next)
        if not 0.0 < diagonal < math.inf:
            return None, j + 1
        c, s = column[j] / diagonal, h_next / diagonal
        column[j] = diagonal
        columns.append(column)
        rotations.append((c, s))
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= tolerance or h_next == 0.0:
            y = [0.0] * (j + 1)
            for i in range(j, -1, -1):
                tail = sum(columns[k][i] * y[k] for k in range(i + 1, j + 1))
                y[i] = (g[i] - tail) / columns[i][i]
            solution = x + np.asarray(y) @ preconditioned[: j + 1]
            if _norm(b - jac @ solution) <= tolerance:
                return solution, j + 1
            if h_next == 0.0:
                return None, j + 1
        basis[j + 1] = w / h_next
    return None, _GMRES_CAP


def _kron_sum(terms, n: int, kept: np.ndarray | None = None):
    """Canonical CSR arrays (data, indices, indptr) of sum_t kron(S_t, T_t),
    and the position in ``data`` of entries given by their block indices.

    ``terms`` holds (rows, cols, values, T) for n x n spatial matrices S_t,
    given by their stored entries, and dense (R, C) temporal blocks T_t.
    Every product of a stored S_t entry with a nonzero T_t entry is formed, the
    terms are added in order, and a sum of zero is dropped: the arrays that
    ``scipy.sparse.kron`` and the sum of its results give, bit for bit.  A
    boolean (R, C) block ``kept`` marks the entries, on the first term's
    spatial entries, that are stored whatever their value (as +0.0 when
    zero).

    The entries are laid out by index arithmetic, padded to W stored
    entries in every spatial row and V in every temporal row: the array
    (n, R, W, V) is in CSR order, and the padding is zero and dropped.
    ``locate(i, j, r, c)`` (broadcast integer arrays) returns the position
    of the stored entry at (i R + r, j C + c).
    """
    keys = [rows.astype(np.int64) * n + cols for rows, cols, _, _ in terms]
    union, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    row, col = np.divmod(union, n)
    start = np.searchsorted(row, np.arange(n + 1))
    slot = np.arange(len(union)) - start[row]
    nonzero = np.any([block != 0 for *_, block in terms]
                     + ([kept] if kept is not None else []), axis=0)
    t_row, t_col = np.nonzero(nonzero)
    t_start = np.searchsorted(t_row, np.arange(len(nonzero) + 1))
    t_slot = np.arange(len(t_row)) - t_start[t_row]
    w, v = int(np.max(np.diff(start))), int(np.max(np.diff(t_start), initial=0))

    # Operands of (n, R, W V) products, whose inner axis is long enough for
    # numpy's loops: each spatial entry repeated V times, and each temporal
    # row tiled W times.
    def spatial(values, dtype=float):
        out = np.zeros((n, w), dtype)
        out[row, slot] = values
        return np.repeat(out, v, axis=1)[:, None, :]

    def temporal(values, dtype=float):
        out = np.zeros((len(nonzero), v), dtype)
        out[t_row, t_slot] = values
        return np.tile(out, w)[None]

    total, bounds = None, np.cumsum([len(k) for k in keys])
    for (_, _, values, block), end in zip(terms, bounds):
        on_union = np.zeros(len(union))
        on_union[inverse[end - len(values):end]] = values
        product = spatial(on_union) * temporal(block[t_row, t_col])
        if total is None:
            total = product
        else:
            total += product
    stored = total != 0
    if kept is not None:
        first = np.zeros(len(union), dtype=bool)
        first[inverse[:bounds[0]]] = True
        stored |= spatial(first, bool) & temporal(kept[t_row, t_col], bool)
        total += 0.0  # a kept zero is stored as +0.0
    columns = spatial(col, np.int32) * np.int32(nonzero.shape[1]) + temporal(t_col, np.int32)
    counts = np.count_nonzero(stored.reshape(-1, w * v), axis=1)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    t_index = np.zeros(nonzero.shape, dtype=np.int64)
    t_index[t_row, t_col] = t_slot

    def locate(i, j, r, c):
        rank = np.zeros(stored.size, dtype=np.int32)
        rank[stored.ravel()] = np.arange(indptr[-1], dtype=np.int32)
        s = np.searchsorted(union, i * n + j) - start[i]
        return rank[((i * len(nonzero) + r) * w + s) * v + t_index[r, c]].astype(np.intp)

    return total[stored], columns[stored], indptr, locate


def build_space(problem: MultisymplecticProblem, config: SolverConfig,
                variant: SchemeVariant) -> SpatialSpace:
    """Uniform periodic space matching the configured element size."""
    m = int(round(problem.domain_length / config.dx))
    if m < 2 or abs(m * config.dx - problem.domain_length) > 1e-9 * problem.domain_length:
        raise ConfigurationError(
            f"dx={config.dx} does not tile a domain of length {problem.domain_length}"
        )
    partition = uniform_partition(problem.domain_length, m)
    return SpatialSpace(partition, config.p, variant.spatial_continuity)


def slab_rules(problem: MultisymplecticProblem, p: int,
               q: int) -> tuple[QuadratureRule, QuadratureRule]:
    """Time and space rules of every slab integral at spatial degree p, test degree q.

    With g = max(deg S - 1, 1) the degree of grad S, the time rule is exact
    to degree max(2q+1, g(q+1)+q) and the space rule to max(2p, (g+1)p):
    enough for the scheme's rows, the local conservation-law integrands and
    the test-space projection rows of polynomial densities.
    """
    g = max(problem.s_degree - 1, 1)
    return (gauss_legendre(quadrature_order_policy(max(2 * q + 1, g * (q + 1) + q))),
            gauss_legendre(quadrature_order_policy(max(2 * p, (g + 1) * p))))


def pointwise_grad(problem: MultisymplecticProblem, z: np.ndarray) -> np.ndarray:
    """grad S at field values (D, ...), components first.  Transposes stand
    in for ``np.moveaxis``, whose axis checks cost more than the call on a
    slab grid; a Newton iteration makes several such calls."""
    grad = problem.grad_s(z.transpose(tuple(range(1, z.ndim)) + (0,)))
    return grad.transpose((-1,) + tuple(range(grad.ndim - 1)))


def field_on_grid(grid: SlabGrid, nodes: np.ndarray,
                  time_table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid values (D, nt, M, ns) of node coefficients (D, dofs, T) and of their Dz.

    ``time_table`` is applied to both, so a time-derivative table yields
    (z_t, Dz_t).
    """
    dcoeffs, order = grid.space.scheme_derivative(nodes, axis=1)
    return grid.eval(nodes, time_table), grid.eval(dcoeffs, time_table, derivative_order=order)


class SlabAssembler(SlabGrid):
    """Slab grid plus the constant blocks of one slab geometry.

    Reusable across slabs of equal length; the rules follow
    :func:`slab_rules`, so every integral below is exact for the shipped
    polynomial densities.  The space supplies the weak form of its scheme
    derivative (:meth:`SpatialSpace.weak_derivative`): the average-flux G on
    a broken space, the elementwise derivative on a continuous one.
    """

    def __init__(self, problem: MultisymplecticProblem, space: SpatialSpace, q: int,
                 dt: float):
        super().__init__(space, q, dt, *slab_rules(problem, space.degree, q))
        self.problem = problem
        d = problem.D

        self.n = space.dof_count
        self.size = d * self.n * (q + 1)

        # Temporal coupling block of the time derivative (test x trial); the
        # temporal mass block is the grid's ``time_mass``.
        ta1 = np.einsum("ag,bg,g->ab", self.Ts, self.dTt, self.rule_t.weights)

        # The slab operator: the residual's linear part over every trial
        # node, node 0 included, with rows ordered (spatial dof, component,
        # test) and columns (spatial dof, component, node), built as
        # mass x (K block) + (scheme derivative) x (L block) by
        # :func:`_kron_sum`.  A quadratic S has a constant Hessian, which
        # joins the K block; the residual of such a problem is affine in the
        # nodes.
        self.jacobian_is_constant = problem.s_degree <= 2
        time_k = np.kron(problem.K, ta1)
        if self.jacobian_is_constant:
            hess = np.zeros((d, d))
            hess[problem.hessian_pattern] = problem.hess_s(np.zeros(d))
            time_k -= np.kron(hess, self.time_mass)
            shape = (d, len(self.rule_t), space.partition.element_count, len(self.rule_x))
            grad_zero = np.broadcast_to(problem.grad_s(np.zeros(d))[:, None, None, None], shape)
            self._grad_zero_rows = np.swapaxes(self.test(grad_zero), 0, 1).ravel()
        self._deriv = space.weak_derivative()
        self._time_blocks = (time_k, np.kron(problem.L, self.time_mass))
        self.operator = scipy.sparse.csr_array(_kron_sum(self._spatial_terms(), self.n)[:3],
                                               shape=(self.size, self.n * d * (q + 2)))
        self._band = None     # (band index of each entry, kl, ku, fold order, its inverse)
        self._factor = None   # the last factor, kept across iterations and slabs
        self._extrapolations = {}  # previous slab length -> trial table at this slab's nodes

        # Sum-factorisation tables of the Hessian block: (row x column basis
        # x space weight) products and (test x unknown trial x time weight)
        # products.
        ns, nt = len(self.rule_x), len(self.rule_t)
        self._space_products = np.einsum(
            "kh,lh,h->hkl", self.B, self.B, self.rule_x.weights).reshape(ns, -1)
        self._time_products = np.einsum(
            "ag,bg,g->abg", self.Ts, self.Tt[1:], self.wt).reshape(-1, nt)

    def as_nodes(self, flat: np.ndarray) -> np.ndarray:
        """View (D, dofs, q+1) of a flat vector over the unknowns or the test rows."""
        return np.swapaxes(flat.reshape(self.n, self.problem.D, self.q + 1), 0, 1)

    def _spatial_terms(self, unknowns: bool = False) -> list:
        """The slab operator's terms (rows, cols, values, temporal block) for
        :func:`_kron_sum`: the stored entries of the CSR spatial mass with the
        K block and of the scheme derivative with the L block; with
        ``unknowns``, their temporal blocks restricted to the columns of the
        unknown nodes 1..q+1."""
        terms = []
        for matrix, block in zip((self.space.mass_operator(), self._deriv), self._time_blocks):
            if unknowns:
                block = block[:, np.arange(block.shape[1]) % (self.q + 2) != 0]
            rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
            terms.append((rows, matrix.indices, matrix.data, block))
        return terms

    @functools.cached_property
    def _pattern(self) -> tuple[scipy.sparse.csr_array, np.ndarray]:
        """The fixed CSR pattern of every :meth:`jacobian`, holding the
        slab operator's unknown columns, and the position in its ``data`` of
        each :meth:`_hessian_values` entry; built once, on first use, with
        read-only arrays.

        With a constant Hessian it is the operator's column slice and the
        map is empty.  Otherwise the pattern adds every element's Hessian
        block on the pairs of the problem's Hessian pattern: the mass's
        spatial entries (the element blocks) times the (test, unknown) pairs
        of those components, kept whatever their value.
        """
        q1 = self.q + 1
        if self.jacobian_is_constant:
            pattern = self.operator[:, np.arange(self.operator.shape[1]) % (q1 + 1) != 0]
            hessian_map = np.zeros(0, dtype=np.intp)
        else:
            kept = np.kron(self.problem.hessian_pattern, np.ones((q1, q1), dtype=bool))
            *arrays, locate = _kron_sum(self._spatial_terms(unknowns=True), self.n, kept=kept)
            pattern = scipy.sparse.csr_array(tuple(arrays), shape=(self.size, self.size))
            # Entry (a, b, M, P, k, l): row (dof k of element M, component
            # first[P], test a), column (dof l, component second[P], node b+1).
            first, second = (index.reshape(1, 1, 1, -1, 1, 1)
                             for index in np.nonzero(self.problem.hessian_pattern))
            a = np.arange(q1).reshape(-1, 1, 1, 1, 1, 1)
            b = a.reshape(1, -1, 1, 1, 1, 1)
            dofs = self.space.element_dofs[None, None, :, None]            # (1, 1, M, 1, p+1)
            hessian_map = locate(dofs[..., None], dofs[..., None, :], first * q1 + a,
                                 second * q1 + b).ravel()
        for array in (pattern.data, pattern.indices, pattern.indptr):
            array.flags.writeable = False
        return pattern, hessian_map

    @property
    def linear_jacobian(self) -> scipy.sparse.csr_array:
        """The state-independent part of the Jacobian on its fixed pattern,
        and all of it when the Hessian is constant: the slab operator's
        columns of the unknown nodes 1..q+1, block-banded with periodic
        corner blocks.  Built once, on first use; its arrays are read-only."""
        return self._pattern[0]

    # -- residual and jacobian -------------------------------------------------

    def residual(self, z_nodes: np.ndarray, state: np.ndarray | None = None) -> np.ndarray:
        """Flat residual over all test rows, ordered like the unknowns: the
        slab operator's product with the nodes, less the tested gradient
        term (a constant vector when the Hessian is constant).

        ``state`` is the grid state (D, nt, M, ns) of z_nodes, evaluated
        here when None.
        """
        linear = self.operator @ np.swapaxes(z_nodes, 0, 1).ravel()
        if self.jacobian_is_constant:
            return linear - self._grad_zero_rows
        grad = pointwise_grad(self.problem, self._state(z_nodes) if state is None else state)
        rows = linear.reshape(self.n, self.problem.D, self.q + 1)
        rows -= np.swapaxes(self.test(grad), 0, 1)
        return linear

    def jacobian(self, z_nodes: np.ndarray,
                 state: np.ndarray | None = None) -> scipy.sparse.csr_array:
        """Exact sparse derivative of the flat residual w.r.t. the unknown nodes.

        The values of :attr:`linear_jacobian`, less, when the Hessian is not
        constant, the state-dependent Hessian block, written into the fixed
        pattern through its index map.  The Hessian block is taken at
        ``state``, the grid state of z_nodes (evaluated here when None), so
        a state the residual has evaluated is not evaluated again.  The
        returned matrix owns its values and shares the pattern's read-only
        index arrays.  The Newton step of a nonlinear problem calls it once
        per iteration: GMRES multiplies by it, and a refactorisation
        scatters its values into band storage.
        """
        # A shallow copy with fresh values: the pattern is valid by
        # construction, so scipy's constructor checks would only cost time.
        pattern, hessian_map = self._pattern
        jac = copy.copy(pattern)
        if self.jacobian_is_constant:
            jac.data = pattern.data.copy()
        else:
            state = self._state(z_nodes) if state is None else state
            jac.data = pattern.data - np.bincount(hessian_map, self._hessian_values(state),
                                                  minlength=pattern.nnz)
        return jac

    def _state(self, z_nodes: np.ndarray) -> np.ndarray | None:
        """Grid state (D, nt, M, ns) of z_nodes, or None when the Jacobian
        is constant: neither the residual nor the Jacobian then needs one."""
        return None if self.jacobian_is_constant else self.eval(z_nodes, self.Tt)

    def _hessian_values(self, zgrid: np.ndarray) -> np.ndarray:
        """Gradient-term derivative values at the grid state zgrid (D, nt, M,
        ns), ordered (a, b, M, P, k, l) for the P pairs of the problem's
        Hessian pattern.

        Sum-factorised: ``hess_s``'s pattern values are contracted over space
        quadrature first, then over time quadrature.
        """
        hess = self.problem.hess_s(zgrid.transpose(1, 2, 3, 0))
        nt, m, ns, _ = hess.shape
        in_space = hess.transpose(0, 1, 3, 2).reshape(-1, ns) @ self._space_products
        vals = self._time_products @ in_space.reshape(nt, -1)
        return (vals.reshape(len(vals), m, -1) * self.space.partition.widths[:, None]).ravel()

    # -- newton ----------------------------------------------------------------

    def predict(self, previous: np.ndarray, dt_previous: float) -> np.ndarray:
        """Nodes (D, dofs, q+2) of the previous slab's trial polynomial,
        of length dt_previous, extrapolated to this slab's nodes.

        The table is built once per previous slab length.
        """
        table = self._extrapolations.get(dt_previous)
        if table is None:
            basis = TemporalSlab(0.0, self.dt, self.q).trial_basis
            table = basis.tabulate(1.0 + (self.dt / dt_previous) * basis.nodes)
            self._extrapolations[dt_previous] = table
        return previous @ table

    def solve_slab(self, z_start: np.ndarray, tolerance: float, max_iterations: int,
                   guess: np.ndarray | None = None) -> SlabSolution:
        """Newton iteration from z_start followed by nodes 1..q+1 of ``guess``,
        or from the constant-in-time extension of z_start when there is no
        guess (or no iteration allowed).

        A guessed start takes at least one Newton step even when it already
        meets the tolerance: accepting an extrapolation unstepped is an
        explicit method and amplifies roundoff from slab to slab.  While the
        iterates come from the guess, a step that leaves the residual's
        max-norm above the tolerance and not below the previous one restarts
        the slab from the constant extension; the abandoned iterations count
        towards ``max_iterations`` and the totals.

        A step at roundoff scale (1e-14 times the largest node value) that
        leaves the residual above the tolerance ends the iteration: the slab
        is accepted as ``stalled`` when the residual is within 10x the
        tolerance, and a :class:`SolverFailure` that says Newton stalled is
        raised otherwise.  Reaching ``max_iterations`` above the tolerance
        raises a :class:`SolverFailure` that names the limit.

        Each iterate is its nodes and its grid state: the state is
        evaluated once, by :meth:`_evaluate`, and passed to the residual and
        to the Jacobian of the Newton step at that iterate.

        Each step solves the iterate's Newton system (see
        :meth:`_newton_step`), by GMRES preconditioned with the band factor
        that the assembler kept from an earlier iterate or slab, to the
        forcing tolerance of the iterate's residual max-norm, or by a new
        factorisation.  A restart discards the kept factor, so the restarted
        solve repeats a new assembler's arithmetic.

        The iterate is one contiguous (dofs, D, q+2) array, the order of the
        slab operator's columns, so the residual reads it flat without a
        copy and a step is added to its unknown nodes in the step's own
        order; the loop reads it through its (D, dofs, q+2) view.  The
        accepted ``z_nodes`` are a C-contiguous copy, which shares no memory
        with ``z_start``, ``guess`` or any other slab's nodes.
        """
        d, q1 = self.problem.D, self.q + 1
        iterate = np.repeat(z_start.T[:, :, None], q1 + 1, axis=2)
        z_nodes = np.swapaxes(iterate, 0, 1)
        guessed = guess is not None and max_iterations > 0
        if guessed:
            z_nodes[:, :, 1:] = guess[:, :, 1:]
        iterations = factorisations = krylov = 0
        restarted = stalled = False
        state, r = self._evaluate(z_nodes)
        norm = _max_norm(r)
        # ``not norm <= tolerance`` also holds for a NaN residual, which is never accepted.
        while not norm <= tolerance or (guessed and iterations == 0):
            if iterations >= max_iterations:
                raise SolverFailure(f"Newton reached the iteration limit {max_iterations} "
                                    f"at residual {norm:.3e}", residual_norm=norm)
            step, factorised, krylov_step = self._newton_step(z_nodes, state, r, norm)
            iterate[:, :, 1:] += step.reshape(self.n, d, q1)
            iterations += 1
            factorisations += factorised
            krylov += krylov_step
            state, r = self._evaluate(z_nodes)
            previous, norm = norm, _max_norm(r)
            if guessed and not (norm <= tolerance or norm < previous):
                guessed, restarted = False, True
                self._factor = None
                z_nodes[:, :, 1:] = z_start[:, :, None]
                state, r = self._evaluate(z_nodes)
                norm = _max_norm(r)
                continue
            if norm > tolerance and _max_norm(step) <= 1e-14 * max(1.0, _max_norm(z_nodes)):
                if norm > 10.0 * tolerance:
                    raise SolverFailure(f"Newton stalled at residual {norm:.3e} after "
                                        f"{iterations} iterations", residual_norm=norm)
                stalled = True
                break
        return SlabSolution(np.ascontiguousarray(z_nodes), norm, iterations, factorisations,
                            restarted, stalled, krylov)

    def _evaluate(self, z_nodes: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
        """The grid state of z_nodes (see :meth:`_state`) and their residual."""
        state = self._state(z_nodes)
        return state, self.residual(z_nodes, state)

    def factorise(self, z_nodes: np.ndarray) -> BandFactor | CirculantFactor:
        """Factor of the Jacobian at z_nodes.  A constant Jacobian that is
        exactly block circulant over the elements (a uniform mesh whose
        widths are bit-identical) gets the :func:`circulant_factorise`
        factor; every other Jacobian the band LU of :func:`band_factorise`,
        on the folded :func:`band_layout` of :meth:`jacobian`'s fixed
        pattern, built on the first call.  A singular Jacobian raises
        :class:`SolverFailure` with the residual norm at z_nodes.

        The Newton loop keeps the factor it last built: exact for a
        constant Jacobian, and the GMRES preconditioner of the later steps
        of a nonlinear one (see :meth:`_newton_step`).
        """
        state = self._state(z_nodes)
        return self._factorise(z_nodes, state, self.jacobian(z_nodes, state))

    def _factorise(self, z_nodes: np.ndarray, state: np.ndarray | None,
                   jac: scipy.sparse.csr_array) -> BandFactor | CirculantFactor:
        """:meth:`factorise` of ``jac``, the :meth:`jacobian` at z_nodes and
        their grid state ``state``, from which a singular Jacobian's
        residual norm is taken.  The circulant check is made until a
        Jacobian fails it, whose band layout then serves every later call."""
        try:
            if self.jacobian_is_constant and self._band is None:
                factor = circulant_factorise(jac, self.space.partition.element_count)
                if factor is not None:
                    return factor
            if self._band is None:
                self._band = band_layout(jac, self.n)
            return band_factorise(jac.data, self._band)
        except np.linalg.LinAlgError:
            norm = _max_norm(self.residual(z_nodes, state))
            raise SolverFailure(f"singular slab Jacobian at residual {norm:.3e}",
                                residual_norm=norm) from None

    def _newton_step(self, z_nodes: np.ndarray, state: np.ndarray | None, r: np.ndarray,
                     norm: float) -> tuple[np.ndarray, int, int]:
        """Newton step s, with J s = -r at the Jacobian J of the iterate
        z_nodes with grid state ``state``, for its residual r of max-norm
        ``norm``, and the factorisations and GMRES iterations it took.

        The assembler keeps the last factor it built (see :meth:`factorise`),
        across Newton iterations and slabs.  A constant Jacobian's kept
        factor is exact, so its step is the factor's solve, with no Krylov
        check: the check would add an operator-sized matvec to every slab of
        a linear run.

        On a nonlinear problem J is evaluated on every step, and with a kept
        factor of an earlier Jacobian the step is solved by GMRES,
        right-preconditioned with that factor and started from its solve,
        to ||J s + r||_2 <= max(eta ||r||_2, 1e-15) on the true residual,
        with eta = :func:`_forcing` (norm): an inexact Newton step far from
        the solution, and 1e-12 once norm <= 1e-6.  When there is no kept
        factor, or GMRES has not converged within ``_GMRES_CAP``
        iterations, J is factorised, that factor is kept and its solve is
        the step: no step comes from an unconverged solve.
        """
        if self.jacobian_is_constant and self._factor is not None:
            return self._factor.solve(-r), 0, 0
        jac = self.jacobian(z_nodes, state)
        krylov = 0
        if self._factor is not None:
            step, krylov = _gmres(jac, self._factor, r, _forcing(norm))
            if step is not None:
                return step, 0, krylov
        self._factor = self._factorise(z_nodes, state, jac)
        return self._factor.solve(-r), 1, krylov


@dataclass(eq=False)
class Trajectory:
    """Solved slabs plus the projected initial state.

    Consecutive slabs share their interface values exactly: node 0 of slab
    n+1 is copied from node q+1 of slab n.  ``records`` holds each slab's
    :class:`SlabSolution` as :meth:`SlabAssembler.solve_slab` returned it,
    whose ``z_nodes`` is that slab's coefficient array.
    """

    problem: MultisymplecticProblem
    variant: SchemeVariant
    space: SpatialSpace
    q: int
    initial_coeffs: np.ndarray
    slabs: list[SlabCoefficients] = field(default_factory=list)
    records: list[SlabSolution] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        """The temporal nodes: 0, then each slab's end time."""
        return np.array([0.0] + [coeffs.slab.t_end for coeffs in self.slabs])

    @property
    def node_count(self) -> int:
        return len(self.slabs) + 1

    def node_states(self) -> np.ndarray:
        """Coefficients (nodes, D, dofs) of every temporal node: the initial
        state, then each slab's last node."""
        return np.stack([self.initial_coeffs]
                        + [coeffs.values[:, :, -1] for coeffs in self.slabs])


def advance(variant: SchemeVariant, problem: MultisymplecticProblem,
            config: SolverConfig) -> Iterator[Trajectory]:
    """Project the initial state, then advance slab by slab to t_final,
    yielding the one growing trajectory before the first slab and after
    each slab it accepts.

    On a nonlinear problem every slab after the first starts Newton from the
    previous slab's trial polynomial extrapolated to its nodes (see
    :meth:`SlabAssembler.predict`).  A linear problem's Newton iteration
    takes one step from any start, so there the prediction would only cost
    time and add the step's roundoff to steady states.  A slab that fails
    raises a :class:`SolverFailure` that names it; the trajectory yielded
    last then holds the slabs solved before it.
    """
    space = build_space(problem, config, variant)
    z0 = space.project(lambda x: problem.initial_state(x))

    n_full = int(np.floor(config.t_final / config.dt + 1e-12))
    remainder = config.t_final - n_full * config.dt
    slab_lengths = [config.dt] * n_full
    if remainder > 1e-10 * max(1.0, config.t_final):
        slab_lengths.append(remainder)

    times = np.concatenate([[0.0], np.cumsum(slab_lengths)])
    times[-1] = config.t_final
    traj = Trajectory(problem, variant, space, config.q, z0)
    yield traj

    # Only the last slab can be shorter, so one assembler serves every slab
    # of its length and is rebuilt when the length changes.
    assembler, z_prev, previous = None, z0, None
    for index, dt in enumerate(slab_lengths):
        if assembler is None or assembler.dt != dt:
            assembler = SlabAssembler(problem, space, config.q, dt)
        predicted = previous is not None and not assembler.jacobian_is_constant
        guess = assembler.predict(*previous) if predicted else None
        try:
            solved = assembler.solve_slab(z_prev, config.newton_tolerance,
                                          config.max_newton_iterations, guess)
        except SolverFailure as failure:
            raise SolverFailure(f"slab {index}: {failure}", failure.residual_norm,
                                index) from failure
        if solved.residual > config.newton_tolerance:
            logger.warning("slab %d accepted at residual %.3e, above newton_tolerance %.3e",
                           index, solved.residual, config.newton_tolerance)
        slab = TemporalSlab(times[index], times[index + 1], config.q)
        traj.slabs.append(SlabCoefficients(slab, space, solved.z_nodes))
        traj.records.append(solved)
        yield traj
        z_prev, previous = solved.z_nodes[:, :, -1], (solved.z_nodes, dt)


def run_simulation(variant: SchemeVariant, problem: MultisymplecticProblem,
                   config: SolverConfig) -> Trajectory:
    """The trajectory of :func:`advance` once it has reached t_final."""
    for traj in advance(variant, problem, config):
        pass
    return traj
