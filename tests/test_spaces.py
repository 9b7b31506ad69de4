import tracemalloc

import numpy as np
import pytest

from mspde.mesh import gauss_legendre, uniform_partition
from mspde.spaces import (
    SlabCoefficients,
    SlabGrid,
    SpatialSpace,
    TemporalSlab,
)


def cg(mesh_count=8, p=2, length=1.0):
    return SpatialSpace(uniform_partition(length, mesh_count), p, "cg")


def dg(mesh_count=8, p=2, length=1.0):
    return SpatialSpace(uniform_partition(length, mesh_count), p, "dg")


def test_dof_counts():
    assert cg(8, 3).dof_count == 24
    assert dg(8, 3).dof_count == 32


def test_cg_interface_dofs_shared():
    space = cg(4, 2)
    # Last local node of element m equals first local node of element m+1.
    for m in range(3):
        assert space.element_dofs[m, -1] == space.element_dofs[m + 1, 0]
    assert space.element_dofs[3, -1] == space.element_dofs[0, 0]


def test_piecewise_constant_mass_is_diagonal():
    space = SpatialSpace(uniform_partition(1.0, 4), 0, "dg")
    assert space.mass_operator().toarray() == pytest.approx(np.diag([0.25] * 4))


def test_cg_p1_mass_is_circulant():
    space = cg(3, 1, length=1.0)
    h = 1.0 / 3.0
    expected = np.array(
        [
            [2 * h / 3, h / 6, h / 6],
            [h / 6, 2 * h / 3, h / 6],
            [h / 6, h / 6, 2 * h / 3],
        ]
    )
    assert space.mass_operator().toarray() == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("space", [cg(6, 2), dg(5, 3), cg(4, 1)])
def test_mass_symmetric_positive_definite(space):
    m = space.mass_operator().toarray()
    assert np.max(np.abs(m - m.T)) <= 1e-15
    assert np.min(np.linalg.eigvalsh(m)) > 0.0


@pytest.mark.parametrize("continuity", ["cg", "dg"])
def test_project_constant_vector_is_nodal(continuity):
    space = SpatialSpace(uniform_partition(1.0, 5), 2, continuity)
    coeffs = space.project(
        lambda x: np.stack([np.ones_like(x), np.zeros_like(x), np.zeros_like(x)], axis=-1))
    assert coeffs[0] == pytest.approx(np.ones(space.dof_count), abs=1e-13)
    assert np.max(np.abs(coeffs[1:])) < 1e-13


def test_project_harmonic_wave_accuracy():
    space = cg(32, 3)
    f = lambda x: 0.5 * np.sin(2 * np.pi * x)
    coeffs = space.project(f)
    rule = gauss_legendre(12)
    vals = space.eval_on_rule(coeffs, rule)
    exact = f(space.quad_points(rule))
    err = np.sqrt(space.integrate((vals - exact) ** 2, rule))
    assert err < 1e-4


def test_projection_idempotent():
    space = cg(8, 2)
    f = lambda x: np.cos(2 * np.pi * x)
    c1 = space.project(f)
    c2 = space.mass_solve(space.mass_operator().toarray() @ c1)
    assert c2 == pytest.approx(c1, abs=1e-13)


def test_galerkin_orthogonality_of_projection():
    space = dg(6, 2)
    f = lambda x: np.exp(np.sin(2 * np.pi * x))
    coeffs = space.project(f)
    rule = gauss_legendre(16)
    resid = space.eval_on_rule(coeffs, rule) - f(space.quad_points(rule))
    b = space.tabulate(rule.points)
    w = space.partition.widths[:, None] * rule.weights[None, :]
    moments = space.scatter_add(np.einsum("mg,kg,mg->mk", resid, b, w))
    assert np.max(np.abs(moments)) < 1e-11


def test_tabulation_cache_is_keyed_by_points():
    # Two point sets of one size must not share a cached table, and equal
    # point sets must.
    space = dg(4, 2)
    gauss, even = gauss_legendre(4).points, np.linspace(0.0, 1.0, 4)
    for points in (gauss, even, gauss):
        for order in (0, 1):
            assert np.array_equal(space.tabulate(points, order),
                                  space.basis.tabulate(points, order))
    assert not np.array_equal(space.tabulate(gauss), space.tabulate(even))
    assert space.tabulate(gauss) is space.tabulate(gauss.copy())


def test_cg_field_has_zero_jumps_in_dg():
    # Re-expressing a continuous field in the broken space keeps it continuous.
    space_cg = cg(6, 2)
    space_dg = dg(6, 2)
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(space_cg.dof_count)
    local = space_cg.gather(coeffs)
    dg_coeffs = np.zeros(space_dg.dof_count)
    dg_coeffs[space_dg.element_dofs.ravel()] = local.ravel()
    left = dg_coeffs[space_dg.element_dofs[:, -1]]
    right = dg_coeffs[np.roll(space_dg.element_dofs[:, 0], -1)]
    assert left == pytest.approx(right, abs=0.0)


def test_temporal_slab_shapes():
    slab = TemporalSlab(0.0, 0.5, q=1)
    assert slab.trial_basis.size == 3
    assert slab.test_basis.size == 2
    with pytest.raises(ValueError):
        TemporalSlab(1.0, 1.0, 0)


def eval_field(coeffs, t, x):
    """Slab field at time t and points x: its spatial coefficients at t, evaluated at x."""
    return coeffs.space.evaluate(coeffs.temporal_values(t), x)


def test_eval_field_matches_nodal_values():
    space = cg(4, 1)
    slab = TemporalSlab(0.0, 0.1, q=0)
    values = np.arange(2.0 * space.dof_count * 2).reshape(2, space.dof_count, 2)
    coeffs = SlabCoefficients(slab, space, values)
    # Nodal basis: value at a slab endpoint and mesh node is the raw entry.
    got = eval_field(coeffs, 0.0, 0.25)
    assert got == pytest.approx(values[:, 1, 0])
    got_end = eval_field(coeffs, 0.1, 0.0)
    assert got_end == pytest.approx(values[:, 0, 1])


def test_eval_field_constant_everywhere():
    space = cg(4, 2)
    slab = TemporalSlab(0.0, 0.2, q=1)
    values = np.full((1, space.dof_count, 3), 3.5)
    coeffs = SlabCoefficients(slab, space, values)
    xs = np.linspace(0.0, 1.0, 17)
    assert eval_field(coeffs, 0.07, xs) == pytest.approx(np.full((1, 17), 3.5))


def test_eval_field_linear_in_x_midpoint_average():
    space = cg(4, 1)
    slab = TemporalSlab(0.0, 1.0, q=0)
    values = np.zeros((1, 4, 2))
    values[0, :, 0] = values[0, :, 1] = [0.0, 1.0, 2.0, 1.0]
    coeffs = SlabCoefficients(slab, space, values)
    assert eval_field(coeffs, 0.5, 0.125) == pytest.approx([0.5])


def test_eval_field_outside_slab_raises():
    space = cg(4, 1)
    slab = TemporalSlab(0.0, 0.1, q=0)
    coeffs = SlabCoefficients(slab, space, np.zeros((1, 4, 2)))
    with pytest.raises(ValueError):
        eval_field(coeffs, 0.2, 0.5)


def test_spacetime_projection_reproduces_member():
    space = cg(5, 2)
    slab = TemporalSlab(0.0, 0.3, q=1)
    rng = np.random.default_rng(1)
    target = rng.standard_normal((2, space.dof_count, slab.q + 1))

    def field(t, x):
        s = (t - slab.t_start) / slab.dt
        tab = slab.test_basis.tabulate(np.array([s]))[:, 0]
        spatial = np.einsum("cna,a->cn", target, tab)
        return np.stack([space.evaluate(spatial[c], x) for c in range(2)])

    rule = gauss_legendre(9)
    xs = space.quad_points(rule)
    samples = np.stack([field(t, xs.ravel()).reshape((2,) + xs.shape)
                        for t in slab.times(rule.points)], axis=1)   # (2, nt, M, ns)
    got = SlabGrid(space, slab.q, slab.dt, rule, rule).project(samples)
    assert got == pytest.approx(target, abs=1e-12)


def test_spacetime_projection_orthogonality():
    # Project the broken derivative of a continuous field; the residual must
    # be orthogonal to every test function.
    space = cg(4, 2)
    slab = TemporalSlab(0.0, 0.25, q=1)
    rng = np.random.default_rng(2)
    z_nodes = rng.standard_normal((1, space.dof_count, slab.q + 2))

    rule_t = gauss_legendre(6)
    rule_x = gauss_legendre(6)
    tt = slab.trial_basis.tabulate(rule_t.points)
    db = space.tabulate(rule_x.points, 1)
    local = z_nodes[:, space.element_dofs, :]
    zx = np.einsum("cmkt,kh,tg->cgmh", local, db, tt)
    zx = zx / space.partition.widths[None, None, :, None]

    coeffs = SlabGrid(space, slab.q, slab.dt, rule_t, rule_x).project(zx)

    ts = slab.test_basis.tabulate(rule_t.points)
    b = space.tabulate(rule_x.points)
    proj_grid = np.einsum("cna,kh,ag->cgnh"[:0] or "cmka,kh,ag->cgmh",
                          coeffs[:, space.element_dofs, :], b, ts)
    resid = zx - proj_grid
    wt = slab.dt * rule_t.weights
    wx = space.partition.widths[:, None] * rule_x.weights[None, :]
    elem_moments = np.einsum("cgmh,kh,ag,g,mh->cmka", resid, b, ts, wt, wx)
    moments = np.zeros((1, space.dof_count, slab.q + 1))
    np.add.at(
        moments,
        (slice(None), space.element_dofs.reshape(-1), slice(None)),
        elem_moments.reshape(1, -1, slab.q + 1),
    )
    scale = max(1.0, float(np.max(np.abs(zx))))
    assert np.max(np.abs(moments)) < 1e-11 * scale
    # The broken derivative itself is not in the space: projection changes it.
    assert np.max(np.abs(resid)) > 1e-3


def test_spacetime_projection_preserves_time_derivative_of_trial():
    # The t-derivative of a trial field has test-space temporal degree, so
    # its projection returns it unchanged.
    space = cg(4, 2)
    slab = TemporalSlab(0.0, 0.2, q=1)
    rng = np.random.default_rng(9)
    z_nodes = rng.standard_normal((2, space.dof_count, slab.q + 2))

    rule_t = gauss_legendre(5)
    rule_x = gauss_legendre(5)
    dtt = slab.trial_basis.tabulate(rule_t.points, 1) / slab.dt
    b = space.tabulate(rule_x.points)
    local = z_nodes[:, space.element_dofs, :]
    zt_grid = np.einsum("cmkt,kh,tg->cgmh", local, b, dtt)

    coeffs = SlabGrid(space, slab.q, slab.dt, rule_t, rule_x).project(zt_grid)
    ts = slab.test_basis.tabulate(rule_t.points)
    back = np.einsum("cmka,kh,ag->cgmh", coeffs[:, space.element_dofs, :], b, ts)
    assert back == pytest.approx(zt_grid, abs=1e-12)


@pytest.mark.parametrize("continuity", ["cg", "dg"])
def test_projection_memory_grows_linearly_with_elements(continuity):
    # Linear growth gives a ratio near 4 between 800 and 200 elements; a dense
    # n x n mass matrix gives about 16.
    def peak(count):
        f = lambda x: np.stack([np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)], axis=-1)
        tracemalloc.start()
        try:
            SpatialSpace(uniform_partition(1.0, count), 2, continuity).project(f)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(800) / peak(200) < 8.0
