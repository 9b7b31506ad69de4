import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mspde.mesh import Partition1D, gauss_legendre, uniform_partition
from mspde.spaces import SpatialSpace, assemble
from mspde.spatial_ops import (
    g_matrix,
    local_g_boundary_terms,
    node_traces,
    weak_g_from_samples,
)


def dg(m=8, p=2, length=1.0):
    return SpatialSpace(uniform_partition(length, m), p, "dg")


# Jumps [U] = U^- - U^+ and averages {U} = (U^- + U^+)/2 come from the node
# traces; G's interface flux and the local boundary terms are built on them.


def test_jump_and_average_values():
    # At degree 0 G is its centred flux alone: h G(U) on element k is
    # {U}_{k+1} - {U}_k.
    space = dg(4, 0)
    u = np.array([2.0, 4.0, 1.0, -3.0])
    left, right = node_traces(space, u)
    assert (left[1], right[1]) == (2.0, 4.0)
    assert left[1] - right[1] == pytest.approx(-2.0)
    averages = 0.5 * (left + right)
    assert averages[1] == pytest.approx(3.0)
    h = space.partition.widths
    assert space.apply_g(u) * h == pytest.approx(np.roll(averages, -1) - averages)


def test_continuous_trace_has_zero_jump():
    # A continuous field interpolated node by node has no jumps, so the
    # interface term of G's weak form vanishes and leaves the elementwise one.
    space = dg(5, 2)
    left = space.partition.node_coords[:-1, None]
    pts = left + space.partition.widths[:, None] * space.basis.nodes[None, :]
    coeffs = np.zeros(space.dof_count)
    coeffs[space.element_dofs.ravel()] = np.sin(2 * np.pi * pts).ravel()
    left, right = node_traces(space, coeffs)
    assert left - right == pytest.approx(0.0, abs=1e-14)
    elementwise = assemble([(space.element_dofs, space.element_dofs,
                             space.reference_derivative())], (space.dof_count,) * 2)
    assert space.weak_derivative() @ coeffs == pytest.approx(elementwise @ coeffs, abs=1e-13)


def test_jump_avg_identity_random():
    # {U.V} - (U^-.V^+ + U^+.V^-)/2 = [U].[V]/2 at every node, for vector fields.
    space = dg(6, 2)
    rng = np.random.default_rng(5)
    u, v = rng.standard_normal((2, 3, space.dof_count))
    ul, ur = node_traces(space, u)
    vl, vr = node_traces(space, v)
    jumps = 0.5 * np.sum((ul - ur) * (vl - vr), axis=0)
    for m in range(6):
        terms = local_g_boundary_terms(space, u, v, m)
        assert terms.avg_lower - terms.cross_lower == pytest.approx(jumps[m], abs=1e-13)
        assert terms.avg_upper - terms.cross_upper == pytest.approx(
            jumps[(m + 1) % 6], abs=1e-13)


def test_g_on_constant_is_zero():
    space = dg(6, 2)
    out = space.apply_g(np.ones(space.dof_count))
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
    out = space.apply_g(hat)
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
    gu = space.apply_g(fields)
    mass = space.mass_operator().toarray()
    integrals = gu @ mass @ np.ones(space.dof_count)
    assert np.max(np.abs(integrals)) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 8])
def test_g_skew_symmetry(p, m):
    space = dg(m, p)
    u = _random_fields(space, 50, seed=p + m)
    v = _random_fields(space, 50, seed=p + m + 99)
    mass = space.mass_operator().toarray()
    lhs = np.einsum("ni,ij,nj->n", space.apply_g(u), mass, v)
    rhs = -np.einsum("ni,ij,nj->n", u, mass, space.apply_g(v))
    scale = np.maximum(1.0, np.abs(lhs))
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 8])
def test_g_product_rule_global(p, m):
    space = dg(m, p)
    rule = gauss_legendre(2 * p + 2)
    u = _random_fields(space, 25, seed=3 * p + m)
    v = _random_fields(space, 25, seed=3 * p + m + 7)

    duv_grid = (
        space.eval_on_rule(u, rule, 1) * space.eval_on_rule(v, rule)
        + space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule, 1)
    )
    ul, ur = node_traces(space, u)
    vl, vr = node_traces(space, v)
    g_uv = weak_g_from_samples(space, duv_grid, ul * vl, ur * vr, rule)

    mass = space.mass_operator().toarray()
    ones = np.ones(space.dof_count)
    lhs = g_uv @ mass @ ones
    rhs = np.einsum("ni,ij,nj->n", space.apply_g(u), mass, v) + np.einsum(
        "ni,ij,nj->n", u, mass, space.apply_g(v)
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_local_orthogonality_identity(p):
    # Per element: int_e G(U) dx = {U}_upper - {U}_lower.
    space = dg(6, p)
    u = _random_fields(space, 20, seed=p)[0]
    gu = space.apply_g(u)
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
    gu, gv = space.apply_g(u), space.apply_g(v)
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

    duv_grid = (
        space.eval_on_rule(u, rule, 1) * space.eval_on_rule(v, rule)
        + space.eval_on_rule(u, rule) * space.eval_on_rule(v, rule, 1)
    )
    ul, ur = node_traces(space, u)
    vl, vr = node_traces(space, v)
    g_uv = weak_g_from_samples(space, duv_grid, ul * vl, ur * vr, rule)

    w = space.partition.widths[:, None] * rule.weights[None, :]
    g_uv_elem = np.einsum("mg,mg->m", space.eval_on_rule(g_uv, rule), w)
    gu_v = np.einsum("mg,mg->m",
                     space.eval_on_rule(space.apply_g(u), rule) * space.eval_on_rule(v, rule), w)
    u_gv = np.einsum("mg,mg->m",
                     space.eval_on_rule(u, rule) * space.eval_on_rule(space.apply_g(v), rule), w)

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
    # u.v at node m, from the left limits (both limits agree).
    products = node_traces(space, coeffs)[0] ** 2
    for m in range(4):
        terms = local_g_boundary_terms(space, coeffs, coeffs, m)
        assert terms.cross_lower == pytest.approx(products[m], abs=1e-13)
        assert terms.avg_lower == pytest.approx(products[m], abs=1e-13)


def test_constant_fields_orthogonality_rhs_zero():
    space = dg(4, 1)
    ones = np.ones(space.dof_count)
    for m in range(4):
        terms = local_g_boundary_terms(space, ones, ones, m)
        assert terms.avg_upper - terms.avg_lower == pytest.approx(0.0, abs=1e-15)


# The elementwise (broken) derivative is eval_on_rule at derivative order 1,
# the kernel that the product rule's samples and the run's residuals use.


def test_broken_derivative_of_linear_element():
    space = dg(4, 1)
    coeffs = np.zeros(space.dof_count)
    coeffs[space.element_dofs[0]] = [0.0, 1.0]
    deriv = space.eval_on_rule(coeffs, gauss_legendre(2), 1)
    assert deriv[0] == pytest.approx([4.0, 4.0])
    assert np.max(np.abs(deriv[1:])) < 1e-14


def test_broken_derivative_of_constant_is_zero():
    space = dg(5, 3)
    deriv = space.eval_on_rule(np.full(space.dof_count, 2.2), gauss_legendre(4), 1)
    assert np.max(np.abs(deriv)) < 1e-12


def _broken_derivative_error(m):
    space = SpatialSpace(uniform_partition(1.0, m), 2, "cg")
    coeffs = space.project(lambda x: np.sin(2 * np.pi * x))
    rule = gauss_legendre(8)
    grid = space.eval_on_rule(coeffs, rule, 1)
    exact = 2 * np.pi * np.cos(2 * np.pi * space.quad_points(rule))
    return float(np.sqrt(space.integrate((grid - exact) ** 2, rule)))


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
    mass = space.mass_operator().toarray()
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
        gu = space.apply_g(coeffs)
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
    # elements all differ in width; and G is the weak form under the
    # inverse mass that mass_solve applies.
    nodes = np.concatenate([[0.0], np.cumsum(widths)])
    space = SpatialSpace(Partition1D(nodes), p, "dg")
    g, mass = g_matrix(space), space.mass_operator().toarray()
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(-1.0, 1.0, size=(2, 20, space.dof_count))
    gu, gv = u @ g.T, v @ g.T
    applied = (space.g_operator() @ u.T).T
    solved = space.mass_solve((space.weak_derivative() @ u.T).T)
    assert np.max(np.abs(solved - applied)) <= 1e-12 * np.max(np.abs(applied))
    assert np.max(np.abs(gu @ mass @ np.ones(space.dof_count))) < 1e-12
    skew = np.einsum("ni,ij,nj->n", gu, mass, v) + np.einsum("ni,ij,nj->n", u, mass, gv)
    assert np.max(np.abs(skew)) < 1e-12
