import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mspde.mesh import Partition1D, gauss_legendre, uniform_partition
from mspde.spaces import SpatialSpace
from mspde.spatial_ops import (
    TraceValues,
    apply_g,
    avg,
    broken_derivative,
    g_matrix,
    jump,
    local_g_boundary_terms,
    node_traces,
    weak_g_from_samples,
)


def dg(m=8, p=2, length=1.0):
    return SpatialSpace(uniform_partition(length, m), p, "dg")


def test_jump_and_average_values():
    trace = TraceValues(0, np.array([2.0]), np.array([4.0]))
    assert jump(trace) == pytest.approx([-2.0])
    assert avg(trace) == pytest.approx([3.0])


def test_continuous_trace_has_zero_jump():
    trace = TraceValues(3, np.array([1.25]), np.array([1.25]))
    assert jump(trace) == pytest.approx([0.0])
    assert avg(trace) == pytest.approx([1.25])


def test_jump_avg_identity_random():
    rng = np.random.default_rng(5)
    left, right = rng.standard_normal((2, 40))
    trace = TraceValues(0, left, right)
    assert jump(trace) + 2.0 * avg(trace) == pytest.approx(2.0 * left)


def test_g_on_constant_is_zero():
    space = dg(6, 2)
    out = apply_g(space, np.ones(space.dof_count))
    assert np.max(np.abs(out)) < 1e-13


def test_g_requires_broken_space():
    space = SpatialSpace(uniform_partition(1.0, 4), 1, "cg")
    with pytest.raises(ValueError):
        g_matrix(space)


def test_g_of_continuous_hat_is_projected_slope():
    # A globally continuous piecewise-linear field has no jumps, so G reduces
    # to the elementwise derivative (already in the broken space for p=1).
    space = dg(4, 1)
    hat = np.zeros(space.dof_count)
    # Continuous hat peaking at mesh node 1: elements 0 and 1 carry the tent.
    hat[space.element_dofs[0, 1]] = 1.0
    hat[space.element_dofs[1, 0]] = 1.0
    out = apply_g(space, hat)
    expected = np.zeros(space.dof_count)
    expected[space.element_dofs[0]] = 4.0
    expected[space.element_dofs[1]] = -4.0
    assert out == pytest.approx(expected, abs=1e-12)


def _random_fields(space, count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(count, space.dof_count))


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 8])
def test_g_orthogonal_to_constants(p, m):
    space = dg(m, p)
    fields = _random_fields(space, 50, seed=p * 10 + m)
    gu = apply_g(space, fields)
    mass = space.mass_matrix()
    integrals = gu @ mass @ np.ones(space.dof_count)
    assert np.max(np.abs(integrals)) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 8])
def test_g_skew_symmetry(p, m):
    space = dg(m, p)
    u = _random_fields(space, 50, seed=p + m)
    v = _random_fields(space, 50, seed=p + m + 99)
    mass = space.mass_matrix()
    lhs = np.einsum("ni,ij,nj->n", apply_g(space, u), mass, v)
    rhs = -np.einsum("ni,ij,nj->n", u, mass, apply_g(space, v))
    scale = np.maximum(1.0, np.abs(lhs))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 8])
def test_g_product_rule_global(p, m):
    space = dg(m, p)
    rule = gauss_legendre(2 * p + 2)
    u = _random_fields(space, 25, seed=3 * p + m)
    v = _random_fields(space, 25, seed=3 * p + m + 7)

    uv_grid = space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule)
    duv_grid = (
        space.eval_on_rule(u, rule, 1) * space.eval_on_rule(v, rule)
        + space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule, 1)
    )
    ul, ur = node_traces(space, u)
    vl, vr = node_traces(space, v)
    g_uv = weak_g_from_samples(space, uv_grid, duv_grid, ul * vl, ur * vr, rule)

    mass = space.mass_matrix()
    ones = np.ones(space.dof_count)
    lhs = g_uv @ mass @ ones
    rhs = np.einsum("ni,ij,nj->n", apply_g(space, u), mass, v) + np.einsum(
        "ni,ij,nj->n", u, mass, apply_g(space, v)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_orthogonality_identity(p):
    # Per element: int_e G(U) dx = {U}_upper - {U}_lower.
    space = dg(6, p)
    u = _random_fields(space, 20, seed=p)[0]
    gu = apply_g(space, u)
    rule = gauss_legendre(p + 1)
    grid = space.eval_on_rule(gu, rule)
    w = space.partition.widths[:, None] * rule.weights[None, :]
    per_element = np.einsum("mg,mg->m", grid, w)
    ul, ur = node_traces(space, u)
    avg_nodes = 0.5 * (ul + ur)
    expected = np.roll(avg_nodes, -1) - avg_nodes
    assert per_element == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_skew_identity(p):
    # int_e G(U).V + int_e U.G(V) equals the cross-trace corrections.
    space = dg(5, p)
    u = _random_fields(space, 1, seed=40 + p)[0]
    v = _random_fields(space, 1, seed=80 + p)[0]
    gu, gv = apply_g(space, u), apply_g(space, v)
    rule = gauss_legendre(2 * p + 1)
    w = space.partition.widths[:, None] * rule.weights[None, :]
    gu_v = np.einsum("mg,mg->m", space.eval_on_rule(gu, rule) * space.eval_on_rule(v, rule), w)
    u_gv = np.einsum("mg,mg->m", space.eval_on_rule(u, rule) * space.eval_on_rule(gv, rule), w)
    for m in range(space.partition.element_count):
        terms = local_g_boundary_terms(space, u, v, m)
        residual = gu_v[m] + u_gv[m] - (terms.cross_upper - terms.cross_lower)
        assert abs(residual) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_product_rule_identity(p):
    space = dg(4, p)
    u = _random_fields(space, 1, seed=7 + p)[0]
    v = _random_fields(space, 1, seed=9 + p)[0]
    rule = gauss_legendre(2 * p + 2)

    uv_grid = space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule)
    duv_grid = (
        space.eval_on_rule(u, rule, 1) * space.eval_on_rule(v, rule)
        + space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule, 1)
    )
    ul, ur = node_traces(space, u)
    vl, vr = node_traces(space, v)
    g_uv = weak_g_from_samples(space, uv_grid, duv_grid, ul * vl, ur * vr, rule)

    w = space.partition.widths[:, None] * rule.weights[None, :]
    g_uv_elem = np.einsum("mg,mg->m", space.eval_on_rule(g_uv, rule), w)
    gu_v = np.einsum("mg,mg->m",
                     space.eval_on_rule(apply_g(space, u), rule) * space.eval_on_rule(v, rule), w)
    u_gv = np.einsum("mg,mg->m",
                     space.eval_on_rule(u, rule) * space.eval_on_rule(apply_g(space, v), rule), w)

    for m in range(space.partition.element_count):
        terms = local_g_boundary_terms(space, u, v, m)
        lhs = g_uv_elem[m] + terms.avg_lower - terms.avg_upper
        rhs = gu_v[m] + u_gv[m] + terms.cross_lower - terms.cross_upper
        assert abs(lhs - rhs) < 1e-12


def test_local_terms_collapse_for_continuous_fields():
    space = dg(4, 2)
    xs_nodes = space.basis.nodes
    coords = space.quad_points(gauss_legendre(1))  # element left edges + mid
    # Build a globally continuous quadratic via nodal interpolation of cos.
    f = lambda x: np.cos(2 * np.pi * x)
    coeffs = np.zeros(space.dof_count)
    left = space.partition.node_coords[:-1, None]
    pts = left + space.partition.widths[:, None] * xs_nodes[None, :]
    coeffs[space.element_dofs.ravel()] = f(pts).ravel()
    for m in range(4):
        terms = local_g_boundary_terms(space, coeffs, coeffs, m)
        assert terms.cross_lower == pytest.approx(terms.left_products[0], abs=1e-13)
        assert terms.avg_lower == pytest.approx(terms.left_products[0], abs=1e-13)


def test_constant_fields_orthogonality_rhs_zero():
    space = dg(4, 1)
    ones = np.ones(space.dof_count)
    for m in range(4):
        terms = local_g_boundary_terms(space, ones, ones, m)
        assert terms.avg_upper - terms.avg_lower == pytest.approx(0.0, abs=1e-15)


def test_broken_derivative_of_linear_element():
    space = dg(4, 1)
    coeffs = np.zeros(space.dof_count)
    coeffs[space.element_dofs[0]] = [0.0, 1.0]
    deriv_space, deriv = broken_derivative(space, coeffs)
    assert deriv_space.degree == 0
    assert deriv[deriv_space.element_dofs[0, 0]] == pytest.approx(4.0)
    assert np.max(np.abs(deriv[1:])) < 1e-14


def test_broken_derivative_of_constant_is_zero():
    space = dg(5, 3)
    _, deriv = broken_derivative(space, np.full(space.dof_count, 2.2))
    assert np.max(np.abs(deriv)) < 1e-12


def _broken_derivative_error(m):
    space = SpatialSpace(uniform_partition(1.0, m), 2, "cg")
    coeffs = space.project(lambda x: np.sin(2 * np.pi * x))
    deriv_space, deriv = broken_derivative(space, coeffs)
    rule = gauss_legendre(8)
    grid = deriv_space.eval_on_rule(deriv, rule)
    exact = 2 * np.pi * np.cos(2 * np.pi * deriv_space.quad_points(rule))
    return float(np.sqrt(deriv_space.integrate((grid - exact) ** 2, rule)))


@pytest.mark.parametrize("m", [8, 16, 32])
def test_broken_derivative_converges_to_smooth_slope(m):
    # Each case computes its own coarser error, so no case depends on another.
    assert _broken_derivative_error(m) < 0.6 * _broken_derivative_error(m // 2)


def test_node_traces_of_cg_field_coincide():
    space = SpatialSpace(uniform_partition(1.0, 6), 2, "cg")
    rng = np.random.default_rng(1)
    coeffs = rng.standard_normal(space.dof_count)
    left, right = node_traces(space, coeffs)
    assert left == pytest.approx(right, abs=0.0)


def test_g_skew_symmetry_detects_sign_flip():
    # Corrupting the flux sign must break the skew-symmetry identity; this
    # guards the checker itself.
    space = dg(4, 1)
    g = g_matrix(space).copy()
    mass = space.mass_matrix()
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal((2, space.dof_count))
    bad = g + 2.0 * np.linalg.solve(mass, np.eye(space.dof_count))  # deliberate corruption
    residual = bad.dot(u) @ mass @ v + u @ mass @ bad.dot(v)
    assert abs(residual) > 1e-6


@pytest.mark.parametrize("p", [1, 2])
def test_g_consistency_under_refinement(p):
    # G applied to the projection of a smooth periodic function approaches
    # its derivative; the rate is recorded qualitatively, not pinned.
    errs = []
    for m in (8, 16, 32):
        space = SpatialSpace(uniform_partition(1.0, m), p, "dg")
        coeffs = space.project(lambda x: np.sin(2 * np.pi * x))
        gu = apply_g(space, coeffs)
        rule = gauss_legendre(8)
        exact = 2 * np.pi * np.cos(2 * np.pi * space.quad_points(rule))
        err = np.sqrt(space.integrate((space.eval_on_rule(gu, rule) - exact) ** 2, rule))
        errs.append(float(err))
    assert errs[1] < 0.6 * errs[0]
    assert errs[2] < 0.6 * errs[1]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(widths=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=9),
       p=st.sampled_from([1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_g_identities_on_nonuniform_meshes(widths, p, seed):
    # Orthogonality to constants and skew-symmetry under the mass inner
    # product, at the operator identity suite's 1e-12, on meshes whose
    # elements all differ in width.
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    space = SpatialSpace(Partition1D(nodes, periodic=True), p, "dg")
    g, mass = g_matrix(space), space.mass_matrix()
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(-1.0, 1.0, size=(2, 20, space.dof_count))
    gu, gv = u @ g.T, v @ g.T
    assert np.max(np.abs(gu @ mass @ np.ones(space.dof_count))) < 1e-12
    skew = np.einsum("ni,ij,nj->n", gu, mass, v) + np.einsum("ni,ij,nj->n", u, mass, gv)
    assert np.max(np.abs(skew)) < 1e-12
