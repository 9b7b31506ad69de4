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
    "SeparableSolution",
    "ValidationReport",
    "linear_wave",
    "nonlinear_wave",
    "nls",
    "problem_by_label",
    "validate",
    "PROBLEM_LABELS",
    "VALIDATION_CHECKS",
]


@dataclass(frozen=True)
class SeparableSolution:
    """A closed form z_c(t, x) = sum_j time(t)_j space(x)_cj of J separable terms.

    ``time`` maps times (...) to their factors (..., J) and ``space`` maps
    points (...) to the D x J factors (..., D, J).  Calling the solution
    evaluates the sum with the times broadcast against the points and returns
    (..., D): a tensor grid, e.g. (nt, 1, 1) times against (1, M, ns) points
    giving (nt, M, ns, D), elementwise samples of one shape, or scalars.
    Each factor is taken once per time and once per point, and a reader that
    holds a grid's factors, as the error norm does, contracts them over J
    instead.
    """

    time: Callable
    space: Callable

    def __call__(self, t, x) -> np.ndarray:
        f, g = self.time(t), self.space(x)
        value = f[..., None, 0] * g[..., 0]
        for j in range(1, g.shape[-1]):
            value += f[..., None, j] * g[..., j]
        return value


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
    orders).  ``initial_state(x)`` is vectorised over x and returns
    (..., D).  ``exact_solution``, where the problem has one, is a
    :class:`SeparableSolution`: called as ``exact_solution(t, x)`` it returns
    (..., D) with t broadcast against x, and its time and space factors
    serve readers that contract them directly.
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
    exact_solution: Optional[SeparableSolution] = None

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

    # sin(2pi(x + t)) and cos(2pi(x + t)) by the addition formulas, with
    # time factors (cos 2pi t, sin 2pi t) and the amplitudes 1/2 and pi
    # folded into the space factors.  At t = 0 the sum is the direct form
    # bit for bit (cos 0 = 1, sin 0 = 0), so initial states do not move.
    # The space factors are stored component first and returned as the
    # (..., D, J) view, so the values come out as the (..., D) view of
    # component-first arrays, which the L2 projection reads contiguously.
    def time(t):
        pt = 2.0 * np.pi * np.asarray(t)
        return np.stack([np.cos(pt), np.sin(pt)], axis=-1)

    def space(x):
        px = 2.0 * np.pi * np.asarray(x)
        sx, cx = np.sin(px), np.cos(px)
        g = np.empty((3, 2) + px.shape)
        g[0, 0], g[0, 1] = 0.5 * sx, 0.5 * cx
        g[1, 0], g[1, 1] = np.pi * cx, -np.pi * sx
        g[2] = g[1]
        return np.moveaxis(g, (0, 1), (-2, -1))

    exact = SeparableSolution(time, space)

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

    # 2 exp(it) (sech, sech') as time factors (cos t, sin t) against the
    # space factors 2 sech on (u, v) and 2 sech' on (p, q), stored component
    # first as the linear wave's are.
    def time(t):
        t = np.asarray(t)
        return np.stack([np.cos(t), np.sin(t)], axis=-1)

    def space(x):
        xw = np.mod(np.asarray(x) + 0.5 * length, length) - 0.5 * length
        two_sech = 2.0 / np.cosh(xw)
        g = np.zeros((4, 2) + xw.shape)
        g[0, 0] = g[1, 1] = two_sech
        g[2, 0] = g[3, 1] = -np.tanh(xw) * two_sech
        return np.moveaxis(g, (0, 1), (-2, -1))

    exact = SeparableSolution(time, space)

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
