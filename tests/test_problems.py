import dataclasses

import numpy as np
import pytest

from mspde.mesh import gauss_legendre, uniform_partition
from mspde.problems import (
    PROBLEM_LABELS,
    VALIDATION_CHECKS,
    ValidationReport,
    linear_wave,
    nls,
    nonlinear_wave,
    problem_by_label,
    validate,
)
from mspde.spaces import SpatialSpace, TemporalSlab

ALL_PROBLEMS = [linear_wave, nonlinear_wave, nls]


def test_linear_wave_exact_pointwise():
    problem = linear_wave()
    z = problem.exact_solution(0.0, 0.25)
    assert z[0] == pytest.approx(0.5)
    z0 = problem.exact_solution(0.0, 0.0)
    assert z0[1] == pytest.approx(np.pi)


def _direct_linear_wave(t, x, pi=np.pi):
    """The linear wave's closed form with the phase 2 pi (x + t) taken whole."""
    phase = 2 * pi * (x + t)
    slope = pi * np.cos(phase)
    return np.stack([0.5 * np.sin(phase), slope, slope], axis=-1)


def test_linear_wave_initial_state_is_the_direct_form_to_the_bit():
    # At t = 0 the addition formulas reduce to sin(2 pi x) and cos(2 pi x),
    # so initial states (and every trajectory) do not depend on the form.
    problem = linear_wave()
    x = np.concatenate([np.linspace(0.0, 1.0, 101),
                        np.random.default_rng(3).uniform(0.0, 1.0, 200), [-0.0]])
    assert np.array_equal(problem.exact_solution(0.0, x), _direct_linear_wave(0.0, x))
    assert np.array_equal(problem.initial_state(x), _direct_linear_wave(0.0, x))


def _direct_nls(t, x, length=40.0):
    """The NLS soliton 2 exp(it) (sech, sech') with the seam wrap, in real form."""
    xw = np.mod(np.asarray(x) + 0.5 * length, length) - 0.5 * length
    sech = 1.0 / np.cosh(xw)
    dsech = -np.tanh(xw) * sech
    xi = 2.0 * np.exp(1j * np.asarray(t))
    return np.stack([xi.real * sech, xi.imag * sech, xi.real * dsech, xi.imag * dsech],
                    axis=-1)


@pytest.mark.parametrize("factory,direct,amplitude", [
    (linear_wave, _direct_linear_wave, [0.5, np.pi, np.pi]),
    (nls, _direct_nls, [2.0, 2.0, 2.0, 2.0]),
])
def test_exact_solution_matches_the_direct_closed_form(factory, direct, amplitude):
    # Elementwise samples, a tensor grid and scalars, against the closed form
    # evaluated directly; errors are relative to each component's amplitude.
    problem = factory()
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 2.0, 300)
    x = rng.uniform(0.0, problem.domain_length, 300)
    value = problem.exact_solution(t, x)
    assert value.shape == (300, problem.D)
    assert np.max(np.abs(value - direct(t, x)) / amplitude) <= 1e-13
    grid = problem.exact_solution(t[:7, None, None], x.reshape(1, 20, 15))
    assert grid.shape == (7, 20, 15, problem.D)
    assert np.max(np.abs(grid - direct(t[:7, None, None], x.reshape(1, 20, 15)))
                  / amplitude) <= 1e-13
    point = problem.exact_solution(t[0], x[0])
    assert point.shape == (problem.D,)
    assert np.max(np.abs(point - direct(t[0], x[0])) / amplitude) <= 1e-13


def test_nls_initial_state_is_the_direct_form_to_the_bit():
    # At t = 0 the time factors are (1, 0), so the factor form reproduces the
    # direct form's values, and the projected initial state, which every
    # NLS trajectory starts from, is the direct form's to the sign bit.
    problem = nls()
    x = np.concatenate([np.linspace(0.0, 40.0, 401),
                        np.random.default_rng(5).uniform(0.0, 40.0, 200), [-0.0, 20.0]])
    assert np.array_equal(problem.initial_state(x), _direct_nls(0.0, x))
    for continuity, degree in (("cg", 2), ("dg", 1), ("dg", 3)):
        space = SpatialSpace(uniform_partition(40.0, 100), degree, continuity)
        projected = space.project(problem.initial_state)
        direct = space.project(lambda x: _direct_nls(0.0, x))
        assert np.array_equal(projected.view(np.uint64), direct.view(np.uint64))


def test_linear_wave_on_a_slab_tensor_grid():
    # A slab's tensor grid at a convergence level: (9, 1, 1) times of every
    # slab up to T = 2 against (1, M, 9) points.  The closed form keeps the
    # broadcast shape and, against an extended-precision evaluation of the
    # same function (the same double pi, so only rounding counts), is never
    # less accurate than the direct form.  Errors are relative to each
    # component's amplitude, 1/2 for u and pi for v and w.
    problem = linear_wave()
    h = 2.0**-4
    rule = gauss_legendre(9)
    space = SpatialSpace(uniform_partition(1.0, 16), 3, "dg")
    xs = space.quad_points(rule)[None]
    times = [TemporalSlab(n * h, (n + 1) * h, 1).times(rule.points)[:, None, None]
             for n in range(int(round(2.0 / h)))]
    values = [problem.exact_solution(t, xs) for t in times]
    assert all(v.shape == (9, 16, 9, 3) for v in values)
    if np.finfo(np.longdouble).eps >= 1e-18:
        pytest.skip("no extended-precision long double on this platform")
    amplitude = np.array([0.5, np.pi, np.pi])
    errors, direct_errors = [], []
    for t, value in zip(times, values):
        reference = _direct_linear_wave(t.astype(np.longdouble), xs.astype(np.longdouble),
                                        np.longdouble(np.pi))
        errors.append(float(np.max(np.abs(value - reference) / amplitude)))
        direct_errors.append(float(np.max(np.abs(_direct_linear_wave(t, xs) - reference)
                                          / amplitude)))
    assert max(errors) <= 2.5e-15
    assert max(errors) <= max(direct_errors)


def test_linear_wave_gradient():
    problem = linear_wave()
    assert problem.grad_s(np.array([0.0, 1.0, 2.0])) == pytest.approx([0.0, 1.0, -2.0])


def test_nonlinear_wave_gradient_and_hessian():
    problem = nonlinear_wave()
    assert problem.grad_s(np.array([2.0, 0.0, 0.0])) == pytest.approx([8.0, 0.0, 0.0])
    # Values on the pattern's pairs (u, u), (v, v), (w, w).
    hess = problem.hess_s(np.array([1.0, 1.0, 1.0]))
    assert hess == pytest.approx([3.0, 1.0, -1.0])


def test_nonlinear_wave_kernels_are_sign_symmetric_to_the_bit():
    # The layout the solver passes in: a components-last transpose of a
    # (D, time, element, space) grid.  S is even and grad S odd in z, and
    # the kernels keep that bit for bit, whichever sign a value has.
    problem = nonlinear_wave()
    z = np.random.default_rng(7).uniform(-2.0, 2.0, (3, 2, 20, 3)).transpose(1, 2, 3, 0)
    assert not z.flags.c_contiguous
    assert np.array_equal(problem.grad_s(-z), -problem.grad_s(z))
    assert np.array_equal(problem.s(-z), problem.s(z))
    assert np.array_equal(problem.hess_s(-z), problem.hess_s(z))

    u, v, w = z[..., 0], z[..., 1], z[..., 2]
    np.testing.assert_allclose(problem.grad_s(z), np.stack([u**3, v, -w], axis=-1),
                               rtol=1e-15, atol=0.0)
    terms = np.stack([0.5 * v**2, -0.5 * w**2, 0.25 * u**4])
    # S is a sum with cancellation, so its error is relative to its terms.
    assert np.all(np.abs(problem.s(z) - terms.sum(axis=0))
                  <= 1e-15 * np.abs(terms).sum(axis=0))
    hess = np.empty(z.shape)
    hess[..., 0], hess[..., 1], hess[..., 2] = 3.0 * u**2, 1.0, -1.0
    np.testing.assert_allclose(problem.hess_s(z), hess, rtol=1e-15, atol=0.0)


def test_nls_point_values():
    problem = nls()
    z = problem.exact_solution(0.0, 0.0)
    assert z[0] == pytest.approx(2.0)
    assert z[2] == pytest.approx(0.0)
    assert problem.grad_s(np.array([1.0, 0.0, 0.0, 0.0])) == pytest.approx(
        [-0.5, 0.0, 0.0, 0.0]
    )


def test_nls_soliton_solves_pde_pointwise():
    problem = nls()
    t, x = 0.3, 1.7
    step = 1e-5
    zt = (problem.exact_solution(t + step, x) - problem.exact_solution(t - step, x)) / (2 * step)
    zx = (problem.exact_solution(t, x + step) - problem.exact_solution(t, x - step)) / (2 * step)
    residual = problem.K @ zt + problem.L @ zx - problem.grad_s(problem.exact_solution(t, x))
    assert np.max(np.abs(residual)) < 1e-8


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_skew_symmetry_exact(factory):
    problem = factory()
    assert np.array_equal(problem.K, -problem.K.T)
    assert np.array_equal(problem.L, -problem.L.T)


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_skew_product_random_vectors(factory):
    problem = factory()
    rng = np.random.default_rng(11)
    for mat in (problem.K, problem.L):
        u = rng.standard_normal((50, problem.D))
        v = rng.standard_normal((50, problem.D))
        lhs = np.einsum("nd,nd->n", u, v @ mat.T)
        rhs = -np.einsum("nd,nd->n", v, u @ mat.T)
        assert np.max(np.abs(lhs - rhs)) < 1e-14


@pytest.mark.parametrize("factory", ALL_PROBLEMS)
def test_validation_passes(factory):
    report = validate(factory(), seed=0)
    assert report.passed, report


def test_validation_flags_broken_skew_symmetry():
    problem = linear_wave()
    bad_k = problem.K.copy()
    bad_k[0, 1] = bad_k[1, 0] = 1.0
    broken = dataclasses.replace(problem)
    object.__setattr__(broken, "K", bad_k)
    report = validate(broken, seed=0)
    assert report.skew_residual_k > 1.0
    assert not report.passed


def test_validation_flags_a_hessian_outside_its_pattern():
    # NLS couples u and v in its Hessian; a diagonal mask would drop that
    # block from the slab Jacobian.  A kernel declared on that mask returns
    # no (u, v) value, and the finite-difference Hessian shows the omission.
    problem = nls()
    assert validate(problem, seed=0).hessian_residual <= 1e-6
    diagonal = np.eye(4, dtype=bool)
    wrong = dataclasses.replace(problem, hessian_pattern=diagonal,
                                hess_s=lambda z: problem.hess_s(z)[..., [0, 3, 4, 5]])
    report = validate(wrong, seed=0)
    assert report.hessian_residual > 0.1
    assert not report.passed
    # Six values on a mask of four pairs.
    miscounted = dataclasses.replace(problem, hessian_pattern=diagonal)
    with pytest.raises(ValueError):
        validate(miscounted, seed=0)


def test_hessian_pattern_is_symmetric_and_checks_its_shape():
    problem = nls()
    with pytest.raises(ValueError):
        dataclasses.replace(problem, hessian_pattern=np.ones((2, 2), dtype=bool))
    one_sided = problem.hessian_pattern.copy()
    one_sided[1, 0] = False
    with pytest.raises(ValueError, match="symmetric"):
        dataclasses.replace(problem, hessian_pattern=one_sided)


def test_problem_lookup():
    assert PROBLEM_LABELS == ("linear-wave", "nonlinear-wave", "nls")
    assert [problem_by_label(label).label for label in PROBLEM_LABELS] == list(PROBLEM_LABELS)
    assert problem_by_label("nls").D == 4
    with pytest.raises(ValueError):
        problem_by_label("kdv")


def test_nonlinear_wave_initial_data_is_harmonic():
    problem = nonlinear_wave()
    ref = linear_wave().exact_solution(0.0, np.linspace(0, 1, 7))
    assert problem.initial_state(np.linspace(0, 1, 7)) == pytest.approx(ref)


def test_validation_checks_bound_every_residual_of_the_report():
    residuals = {f.name for f in dataclasses.fields(ValidationReport)} - {"label"}
    bounded = [name for names, _ in VALIDATION_CHECKS.values() for name in names]
    assert sorted(bounded) == sorted(residuals)
    report = ValidationReport("x", 0.0, 0.0, 0.0, 0.0, 0.0, None)
    for names, tolerance in VALIDATION_CHECKS.values():
        for name in names:
            assert dataclasses.replace(report, **{name: tolerance}).passed
            assert not dataclasses.replace(report, **{name: 2.0 * tolerance}).passed
