"""First-order Hamiltonian PDE systems K z_t + L z_x = grad S(z).

Ships the three benchmark instances: the linear and nonlinear (quartic
potential) wave equations as a 3-component system, and the focusing cubic
Schroedinger equation in real 4-component form with its travelling soliton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "MultisymplecticProblem",
    "ValidationReport",
    "linear_wave",
    "nonlinear_wave",
    "nls",
    "problem_by_label",
    "validate",
    "PROBLEM_LABELS",
    "VALIDATION_CHECKS",
]


@dataclass(frozen=True, eq=False)
class MultisymplecticProblem:
    """Constant skew matrices K, L plus a scalar density S and derivatives.

    ``s``, ``grad_s`` and ``hess_s`` are vectorised over a trailing component
    axis: z of shape (..., D) maps to (...), (..., D) and (..., P), the
    Hessian's values on the P pairs of ``np.nonzero(hessian_pattern)`` in
    that order, (a, b) and (b, a) both.  ``hessian_pattern`` is the
    symmetric D x D structural mask of the Hessian: entries outside it are
    zero for every z, and the slab Jacobian stores none of them.
    ``s_degree`` is the polynomial degree of S in z (drives quadrature
    orders).  ``exact_solution(t, x)`` and ``initial_state(x)`` are
    vectorised over x and return (..., D); ``t`` may be an array that
    broadcasts against x, e.g. (nt, 1, 1) times against (1, M, ns) points,
    a slab's tensor grid, giving (nt, M, ns, D).  A closed form that ignores
    t may return the points' shape alone: callers broadcast the result.
    """

    label: str
    D: int
    K: np.ndarray
    L: np.ndarray
    s: Callable
    grad_s: Callable
    hess_s: Callable
    domain_length: float
    s_degree: int
    component_names: Sequence[str]
    initial_state: Callable
    hessian_pattern: np.ndarray
    exact_solution: Optional[Callable] = None

    def __post_init__(self):
        object.__setattr__(self, "K", np.asarray(self.K, dtype=float))
        object.__setattr__(self, "L", np.asarray(self.L, dtype=float))
        object.__setattr__(self, "hessian_pattern", np.asarray(self.hessian_pattern, dtype=bool))
        for name in ("K", "L", "hessian_pattern"):
            mat = getattr(self, name)
            if mat.shape != (self.D, self.D):
                raise ValueError(f"{name} must be {self.D}x{self.D}")
        if not np.array_equal(self.hessian_pattern, self.hessian_pattern.T):
            raise ValueError("hessian_pattern must be symmetric")


def linear_wave() -> MultisymplecticProblem:
    """Linear wave equation as the system (u, v, w) with v=u_t, w=u_x."""
    k = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    l = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])

    def s(z):
        z = np.asarray(z)
        return 0.5 * z[..., 1] ** 2 - 0.5 * z[..., 2] ** 2

    def grad_s(z):
        z = np.asarray(z)
        g = np.zeros_like(z)
        g[..., 1] = z[..., 1]
        g[..., 2] = -z[..., 2]
        return g

    def hess_s(z):
        return np.broadcast_to([1.0, -1.0], np.shape(z)[:-1] + (2,))

    # sin(2pi(x + t)) and cos(2pi(x + t)) by the addition formulas, so that
    # on a tensor grid of times and points the sines and cosines are taken
    # per time and per point, not per pair.  At t = 0 this is the direct
    # form bit for bit (cos 0 = 1, sin 0 = 0), so initial states do not move.
    # The components are stacked on a leading axis and returned as the
    # (..., D) view, so a reader that takes them first, as the error norm
    # does, reads them contiguously.
    def exact(t, x):
        px = 2.0 * np.pi * np.asarray(x)
        pt = 2.0 * np.pi * np.asarray(t)
        sx, cx, st, ct = np.sin(px), np.cos(px), np.sin(pt), np.cos(pt)
        slope = np.pi * (cx * ct - sx * st)
        return np.moveaxis(np.stack([0.5 * (sx * ct + cx * st), slope, slope]), 0, -1)

    return MultisymplecticProblem(
        label="linear-wave",
        D=3,
        K=k,
        L=l,
        s=s,
        grad_s=grad_s,
        hess_s=hess_s,
        domain_length=1.0,
        s_degree=2,
        component_names=("u", "v", "w"),
        initial_state=lambda x: exact(0.0, x),
        hessian_pattern=np.diag([False, True, True]),
        exact_solution=exact,
    )


def nonlinear_wave() -> MultisymplecticProblem:
    """Wave equation with quartic potential u^4/4; harmonic initial data."""
    base = linear_wave()

    # Products and squares, not ``pow``: numpy's ``power`` takes a SIMD path
    # for some bases and libm for others, so a cube or a fourth power by
    # ``**`` need not be odd or even to the bit.
    def s(z):
        z = np.asarray(z)
        u = z[..., 0]
        return 0.5 * z[..., 1] ** 2 - 0.5 * z[..., 2] ** 2 + 0.25 * (u * u) ** 2

    def grad_s(z):
        z = np.asarray(z)
        u = z[..., 0]
        g = np.empty_like(z)
        g[..., 0] = u * u * u
        g[..., 1] = z[..., 1]
        g[..., 2] = -z[..., 2]
        return g

    def hess_s(z):
        u = np.asarray(z)[..., 0]
        h = np.empty(u.shape + (3,))
        h[..., 0] = 3.0 * (u * u)
        h[..., 1:] = 1.0, -1.0
        return h

    return MultisymplecticProblem(
        label="nonlinear-wave",
        D=3,
        K=base.K,
        L=base.L,
        s=s,
        grad_s=grad_s,
        hess_s=hess_s,
        domain_length=1.0,
        s_degree=4,
        component_names=("u", "v", "w"),
        initial_state=base.initial_state,
        hessian_pattern=np.eye(3, dtype=bool),
        exact_solution=None,
    )


def nls() -> MultisymplecticProblem:
    """Focusing cubic Schroedinger equation, real form z = (u, v, p, q).

    The amplitude-2 soliton xi = 2 exp(it) sech(x) solves
    i xi_t + xi_xx + |xi|^2 xi / 2 = 0; the density carries the matching 1/8
    coefficient on the quartic term so grad S reproduces that system exactly.
    The soliton is centred on the periodic seam of [0, 40), so coordinates
    are wrapped to [-20, 20) before evaluating the closed form.
    """
    k = np.zeros((4, 4))
    k[0, 1], k[1, 0] = -1.0, 1.0
    l = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ]
    )

    def s(z):
        z = np.asarray(z)
        mag = z[..., 0] ** 2 + z[..., 1] ** 2
        return -0.125 * mag**2 - 0.5 * (z[..., 2] ** 2 + z[..., 3] ** 2)

    def grad_s(z):
        z = np.asarray(z)
        mag = z[..., 0] ** 2 + z[..., 1] ** 2
        g = np.empty_like(z)
        g[..., 0] = -0.5 * z[..., 0] * mag
        g[..., 1] = -0.5 * z[..., 1] * mag
        g[..., 2] = -z[..., 2]
        g[..., 3] = -z[..., 3]
        return g

    def hess_s(z):
        # Pairs (u, u), (u, v), (v, u), (v, v), (p, p), (q, q).
        z = np.asarray(z)
        u, v = z[..., 0], z[..., 1]
        h = np.empty(u.shape + (6,))
        h[..., 0] = -0.5 * (3.0 * (u * u) + v * v)
        h[..., 1] = h[..., 2] = -u * v
        h[..., 3] = -0.5 * (u * u + 3.0 * (v * v))
        h[..., 4:] = -1.0
        return h

    pattern = np.eye(4, dtype=bool)
    pattern[0, 1] = pattern[1, 0] = True  # (u, v) couple through |xi|^2
    length = 40.0

    def exact(t, x):
        xw = np.mod(np.asarray(x) + 0.5 * length, length) - 0.5 * length
        sech = 1.0 / np.cosh(xw)
        dsech = -np.tanh(xw) * sech
        return np.stack(
            [
                2.0 * np.cos(t) * sech,
                2.0 * np.sin(t) * sech,
                2.0 * np.cos(t) * dsech,
                2.0 * np.sin(t) * dsech,
            ],
            axis=-1,
        )

    return MultisymplecticProblem(
        label="nls",
        D=4,
        K=k,
        L=l,
        s=s,
        grad_s=grad_s,
        hess_s=hess_s,
        domain_length=length,
        s_degree=4,
        component_names=("u", "v", "p", "q"),
        initial_state=lambda x: exact(0.0, x),
        hessian_pattern=pattern,
        exact_solution=exact,
    )


_FACTORIES = {"linear-wave": linear_wave, "nonlinear-wave": nonlinear_wave, "nls": nls}
PROBLEM_LABELS = tuple(_FACTORIES)


def problem_by_label(label: str) -> MultisymplecticProblem:
    try:
        return _FACTORIES[label]()
    except KeyError:
        raise ValueError(f"unknown problem label {label!r}; choose from {PROBLEM_LABELS}")


# The checks of a :class:`ValidationReport`: the ``verify`` name of each, the
# report fields it bounds and the largest residual it accepts.
VALIDATION_CHECKS = {
    "problem-skew-symmetry": (("skew_residual_k", "skew_residual_l"), 1e-14),
    "gradient-hessian-fd": (("gradient_residual", "hessian_residual"), 1e-6),
    "hessian-symmetry": (("hessian_asymmetry",), 1e-12),
    "exact-solution-pde-residual": (("pde_residual",), 1e-8),
}


@dataclass
class ValidationReport:
    """Per-check maximal residuals from :func:`validate`."""

    label: str
    skew_residual_k: float
    skew_residual_l: float
    gradient_residual: float
    hessian_residual: float
    hessian_asymmetry: float
    pde_residual: float | None

    @property
    def passed(self) -> bool:
        """Every residual within its :data:`VALIDATION_CHECKS` tolerance; a
        problem without an exact solution has no ``pde_residual`` to bound."""
        values = [(getattr(self, name), tolerance)
                  for names, tolerance in VALIDATION_CHECKS.values() for name in names]
        return all(value is None or value <= tolerance for value, tolerance in values)


def _finite_difference_gradient(f, z, step):
    z = np.asarray(z, dtype=float)
    grad = np.zeros_like(z)
    for i in range(z.shape[-1]):
        dz = np.zeros_like(z)
        dz[..., i] = step
        grad[..., i] = (f(z + dz) - f(z - dz)) / (2.0 * step)
    return grad


def validate(problem: MultisymplecticProblem, seed: int = 0) -> ValidationReport:
    """Check skew-symmetry, derivative consistency, and the exact solution.

    ``hess_s``'s values, scattered to D x D on the pattern, meet a
    finite-difference Hessian, which shows any nonzero the pattern omits."""
    rng = np.random.default_rng(seed)
    samples = 100
    skew_k = float(np.max(np.abs(problem.K + problem.K.T)))
    skew_l = float(np.max(np.abs(problem.L + problem.L.T)))

    z = rng.uniform(-2.0, 2.0, size=(samples, problem.D))
    scale = max(1.0, float(np.max(np.abs(problem.grad_s(z)))))
    grad_res = float(np.max(np.abs(
        problem.grad_s(z) - _finite_difference_gradient(problem.s, z, 1e-6)
    ))) / scale

    values = problem.hess_s(z)
    if np.shape(values) != (samples, problem.hessian_pattern.sum()):
        raise ValueError("hess_s must return one value per hessian_pattern pair")
    hess = np.zeros((samples, problem.D, problem.D))
    hess[:, problem.hessian_pattern] = values
    hess_scale = max(1.0, float(np.max(np.abs(hess))))
    fd_hess = np.stack(
        [_finite_difference_gradient(lambda w: problem.grad_s(w)[..., i], z, 1e-6)
         for i in range(problem.D)],
        axis=-2,
    )
    hess_res = float(np.max(np.abs(hess - fd_hess))) / hess_scale
    hess_asym = float(np.max(np.abs(hess - np.swapaxes(hess, -1, -2)))) / hess_scale

    pde_res = None
    if problem.exact_solution is not None:
        t = rng.uniform(0.0, 1.0, size=samples)
        x = rng.uniform(0.0, problem.domain_length, size=samples)
        step = 1e-5
        exact = problem.exact_solution
        z0 = exact(t, x)
        zt = (exact(t + step, x) - exact(t - step, x)) / (2 * step)
        zx = (exact(t, x + step) - exact(t, x - step)) / (2 * step)
        residual = (zt @ problem.K.T) + (zx @ problem.L.T) - problem.grad_s(z0)
        pde_res = float(np.max(np.abs(residual)))

    return ValidationReport(
        label=problem.label,
        skew_residual_k=skew_k,
        skew_residual_l=skew_l,
        gradient_residual=grad_res,
        hessian_residual=hess_res,
        hessian_asymmetry=hess_asym,
        pde_residual=pde_res,
    )
