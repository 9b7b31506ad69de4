"""Reference-interval quadrature, 1D partitions, and nodal Lagrange bases.

Everything lives on the reference interval [0, 1]; physical elements are
reached by affine maps, so jacobians are plain element widths.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureRule",
    "Partition1D",
    "LagrangeBasis",
    "QUADRATURE_DEGREE_CAP",
    "gauss_legendre",
    "quadrature_order_policy",
    "nonpolynomial_rule",
    "uniform_partition",
    "equispaced_nodes",
]

# Highest polynomial degree the capped rule still integrates exactly.
QUADRATURE_DEGREE_CAP = 16


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Points and positive weights on the reference interval [0, 1]."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.points.shape != self.weights.shape or self.points.ndim != 1:
            raise ValueError("points and weights must be 1D arrays of equal length")

    def __len__(self):
        return self.points.size


# The n-point rules on [0, 1] for n = 1..9, every count the order policy
# returns, as (points, weights) at index n - 1: the repr of numpy's
# ``leggauss(n)`` mapped by (x + 1) / 2 and w / 2, so that each tabulated
# rule is bit for bit the computed one and a run solves no eigenproblem.
_GAUSS_LEGENDRE_TABLE = (
    ((0.5,),
     (1.0,)),
    ((0.21132486540518713, 0.7886751345948129),
     (0.5, 0.5)),
    ((0.1127016653792583, 0.5, 0.8872983346207417),
     (0.27777777777777785, 0.4444444444444444, 0.27777777777777785)),
    ((0.06943184420297371, 0.33000947820757187, 0.6699905217924281, 0.9305681557970262),
     (0.17392742256872679, 0.3260725774312732, 0.3260725774312732, 0.17392742256872679)),
    ((0.04691007703066802, 0.23076534494715845, 0.5, 0.7692346550528415, 0.9530899229693319),
     (0.11846344252809464, 0.23931433524968315, 0.28444444444444433, 0.23931433524968315,
      0.11846344252809464)),
    ((0.03376524289842403, 0.16939530676686776, 0.38069040695840156, 0.6193095930415985,
      0.8306046932331322, 0.9662347571015759),
     (0.08566224618958514, 0.18038078652406936, 0.23395696728634552, 0.23395696728634552,
      0.18038078652406936, 0.08566224618958514)),
    ((0.0254460438286207, 0.12923440720030277, 0.2970774243113014, 0.5, 0.7029225756886985,
      0.8707655927996972, 0.9745539561713793),
     (0.06474248308443487, 0.13985269574463843, 0.19091502525255935, 0.20897959183673465,
      0.19091502525255935, 0.13985269574463843, 0.06474248308443487)),
    ((0.019855071751231912, 0.10166676129318664, 0.2372337950418355, 0.4082826787521751,
      0.5917173212478248, 0.7627662049581645, 0.8983332387068134, 0.9801449282487681),
     (0.05061426814518853, 0.11119051722668721, 0.15685332293894344, 0.18134189168918083,
      0.18134189168918083, 0.15685332293894344, 0.11119051722668721, 0.05061426814518853)),
    ((0.015919880246186957, 0.08198444633668212, 0.19331428364970482, 0.33787328829809554, 0.5,
      0.6621267117019045, 0.8066857163502952, 0.9180155536633179, 0.984080119753813),
     (0.04063719418078708, 0.09032408034742868, 0.1303053482014678, 0.15617353852000146,
      0.16511967750062992, 0.15617353852000146, 0.1303053482014678, 0.09032408034742868,
      0.04063719418078708)),
)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [0, 1]; exact for degree <= 2n - 1.

    Rules up to 9 points are read from a table equal, bit for bit, to
    numpy's ``leggauss`` (Golub-Welsch); larger ones are computed by it.
    Built once per n and shared, so its arrays are read-only.
    """
    if n < 1:
        raise ValueError(f"quadrature rule needs at least one point, got n={n}")
    n = operator.index(n)  # a float such as 9.0 raises TypeError, as leggauss does
    if n <= len(_GAUSS_LEGENDRE_TABLE):
        rule = QuadratureRule(*map(np.array, _GAUSS_LEGENDRE_TABLE[n - 1]))
    else:
        pts, wts = np.polynomial.legendre.leggauss(n)
        rule = QuadratureRule(points=(pts + 1.0) / 2.0, weights=wts / 2.0)
    rule.points.flags.writeable = rule.weights.flags.writeable = False
    return rule


def quadrature_order_policy(max_integrand_degree: int) -> int:
    """Smallest point count integrating the given degree exactly, capped.

    Rules with n points are exact for degree <= 2n - 1.  Beyond degree 16
    the count saturates at the 9-point rule.
    """
    if max_integrand_degree < 0:
        raise ValueError("integrand degree must be nonnegative")
    degree = min(max_integrand_degree, QUADRATURE_DEGREE_CAP)
    return degree // 2 + 1


def nonpolynomial_rule() -> QuadratureRule:
    """The capped 9-point rule, the one rule for integrands that are not
    polynomials: projections of callables and errors against exact solutions."""
    return gauss_legendre(quadrature_order_policy(QUADRATURE_DEGREE_CAP))


@dataclass(frozen=True, eq=False)
class Partition1D:
    """Ordered periodic 1D mesh; ``node_coords`` includes both interval endpoints.

    Every partition is periodic: the last node identifies with the first
    modulo ``total_length``.
    """

    node_coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.node_coords, dtype=float)
        object.__setattr__(self, "node_coords", coords)
        if coords.ndim != 1 or coords.size < 2:
            raise ValueError("a partition needs at least two node coordinates")
        widths = np.diff(coords)
        if np.any(widths <= 0.0):
            raise ValueError("node coordinates must be strictly increasing")
        widths.flags.writeable = False
        object.__setattr__(self, "_widths", widths)

    @property
    def element_count(self) -> int:
        return self.node_coords.size - 1

    @property
    def total_length(self) -> float:
        return float(self.node_coords[-1] - self.node_coords[0])

    @property
    def widths(self) -> np.ndarray:
        """Element widths (read-only), computed once: the slab kernels read
        them on every call."""
        return self._widths

    def locate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Map physical coordinates to (element index, reference coordinate),
        wrapping x into the fundamental interval first."""
        x0 = self.node_coords[0]
        x = x0 + np.mod(np.asarray(x, dtype=float) - x0, self.total_length)
        elem = np.clip(
            np.searchsorted(self.node_coords, x, side="right") - 1,
            0,
            self.element_count - 1,
        )
        ref = (x - self.node_coords[elem]) / self.widths[elem]
        return elem, np.clip(ref, 0.0, 1.0)


def uniform_partition(length: float, count: int) -> Partition1D:
    """Periodic partition of [0, length) into ``count`` equal elements."""
    if length <= 0.0:
        raise ValueError(f"length must be positive, got {length}")
    if count < 1:
        raise ValueError(f"element count must be at least 1, got {count}")
    return Partition1D(np.linspace(0.0, length, count + 1))


def equispaced_nodes(degree: int) -> np.ndarray:
    """Equispaced interpolation nodes on [0, 1] (midpoint for degree 0)."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if degree == 0:
        return np.array([0.5])
    return np.linspace(0.0, 1.0, degree + 1)


@dataclass(frozen=True, eq=False)
class LagrangeBasis:
    """Nodal Lagrange basis of a given degree on [0, 1]."""

    degree: int
    nodes: np.ndarray
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.size != self.degree + 1:
            raise ValueError("need degree + 1 nodes")
        if np.unique(nodes).size != nodes.size:
            raise ValueError("basis nodes must be distinct")

    @classmethod
    @lru_cache(maxsize=None)
    def equispaced(cls, degree: int) -> "LagrangeBasis":
        """The equispaced basis of a degree, built once and shared, so its
        nodes are read-only."""
        basis = cls(degree, equispaced_nodes(degree))
        basis.nodes.flags.writeable = False
        return basis

    @property
    def size(self) -> int:
        return self.degree + 1

    def table(self, points, derivative_order: int = 0) -> np.ndarray:
        """Read-only :meth:`tabulate`, computed once per point set and order.

        The cache is keyed by the points themselves, so equal point sets
        share one table and different ones never do; it suits the few fixed
        point sets of quadrature rules, not arbitrary evaluation points.
        """
        points = np.atleast_1d(np.asarray(points, dtype=float))
        key = (points.tobytes(), derivative_order)
        table = self._tables.get(key)
        if table is None:
            table = self.tabulate(points, derivative_order)
            table.flags.writeable = False
            self._tables[key] = table
        return table

    def tabulate(self, points, derivative_order: int = 0) -> np.ndarray:
        """Values (or first derivatives) of all basis functions at ``points``.

        Returns an array of shape (degree + 1, len(points)).  Basis function
        j is the product of (x - x_k) over the other nodes k, in increasing
        k, over the product of (x_j - x_k); its derivative sums, over the
        other nodes in increasing order, the product that skips one more
        node.  Every basis function is computed at once: a factor of 1 stands
        in for a skipped node, and a term of 0 for a skipped sum, which
        leaves each value as the node-by-node loop computes it.
        """
        if derivative_order not in (0, 1):
            raise ValueError("only derivative orders 0 and 1 are supported")
        x = np.atleast_1d(np.asarray(points, dtype=float))
        n = self.size
        others = ~np.eye(n, dtype=bool)[:, :, None]                    # (j, k, 1)
        factors = np.where(others, x - self.nodes[:, None], 1.0)       # (j, k, len(x))
        gaps = np.where(others[:, :, 0], self.nodes[:, None] - self.nodes, 1.0)
        denominator = np.ones(n)
        for k in range(n):
            denominator = denominator * gaps[:, k]
        if derivative_order == 0:
            return _product(factors, skip=None) / denominator[:, None]
        total = np.zeros((n, x.size))
        for skip in range(n):
            term = _product(factors, skip)
            term[skip] = 0.0
            total += term
        return total / denominator[:, None]


def _product(factors: np.ndarray, skip: int | None) -> np.ndarray:
    """Product over the middle axis of (j, k, points) factors, in increasing
    k and starting from 1, leaving out k = skip."""
    out = np.ones((factors.shape[0], factors.shape[2]))
    for k in range(factors.shape[1]):
        if k != skip:
            out = out * factors[:, k]
    return out
