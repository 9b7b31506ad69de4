import numpy as np
import pytest

from mspde.mesh import (
    QUADRATURE_DEGREE_CAP,
    LagrangeBasis,
    Partition1D,
    equispaced_nodes,
    gauss_legendre,
    nonpolynomial_rule,
    quadrature_order_policy,
    uniform_partition,
)


def test_one_point_rule_is_midpoint():
    rule = gauss_legendre(1)
    assert rule.points == pytest.approx([0.5])
    assert rule.weights == pytest.approx([1.0])


def test_two_point_rule_matches_closed_form():
    rule = gauss_legendre(2)
    expected = np.sort((1.0 + np.array([-1.0, 1.0]) / np.sqrt(3.0)) / 2.0)
    assert np.sort(rule.points) == pytest.approx(expected)
    assert rule.weights == pytest.approx([0.5, 0.5])


def test_five_point_rule_integrates_degree_nine():
    rule = gauss_legendre(5)
    value = np.sum(rule.weights * rule.points**9)
    assert value == pytest.approx(0.1, abs=1e-14)


@pytest.mark.parametrize("n", range(1, 10))
def test_monomial_exactness_up_to_design_degree(n):
    rule = gauss_legendre(n)
    for k in range(2 * n):
        value = np.sum(rule.weights * rule.points**k)
        assert abs(value - 1.0 / (k + 1)) < 1e-13


def test_weights_sum_to_interval_length():
    for n in range(1, 12):
        assert np.sum(gauss_legendre(n).weights) == pytest.approx(1.0)


def test_rules_are_shared_and_read_only():
    rule = gauss_legendre(4)
    assert gauss_legendre(4) is rule
    with pytest.raises(ValueError):
        rule.points[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights *= 2.0


def test_zero_point_rule_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def leggauss_rule(n):
    points, weights = np.polynomial.legendre.leggauss(n)
    return (points + 1.0) / 2.0, weights / 2.0


@pytest.mark.parametrize("n", range(1, 10))
def test_tabulated_rules_are_leggauss_bit_for_bit(n):
    rule = gauss_legendre(n)
    for got, expected in zip((rule.points, rule.weights), leggauss_rule(n)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(expected))
        assert not got.flags.writeable


@pytest.mark.parametrize("n", [10, 16])
def test_rules_beyond_the_table_are_leggauss(n):
    rule = gauss_legendre(n)
    points, weights = leggauss_rule(n)
    assert np.array_equal(rule.points, points) and np.array_equal(rule.weights, weights)


def test_policy_rules_need_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a policy rule solved an eigenproblem")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    counts = {quadrature_order_policy(d) for d in range(QUADRATURE_DEGREE_CAP + 1)}
    assert counts == set(range(1, 10))
    for n in sorted(counts):
        # The uncached function, so the shared cache neither hides nor keeps a rule.
        assert len(gauss_legendre.__wrapped__(n)) == n


@pytest.mark.parametrize("n", [2.5, 9.0])
def test_non_integer_point_count_rejected(n):
    with pytest.raises(TypeError):
        gauss_legendre.__wrapped__(n)


def test_order_policy_small_degrees():
    assert quadrature_order_policy(3) == 2
    assert quadrature_order_policy(1) == 1
    assert quadrature_order_policy(0) == 1
    assert quadrature_order_policy(16) == 9


def test_order_policy_caps_high_degree():
    assert quadrature_order_policy(40) == 9
    assert quadrature_order_policy(17) == 9


def test_capped_rule_converges_on_sech_profile():
    # Reference: 64-point rule on the same non-polynomial integrand.
    f = lambda x: 1.0 / np.cosh(10.0 * (x - 0.5)) ** 2
    ref_rule = gauss_legendre(64)
    reference = np.sum(ref_rule.weights * f(ref_rule.points))
    capped = gauss_legendre(quadrature_order_policy(40))
    # One panel is crude; composite over 8 panels must be close.
    total = 0.0
    for a in np.linspace(0.0, 1.0, 9)[:-1]:
        total += 0.125 * np.sum(capped.weights * f(a + 0.125 * capped.points))
    assert abs(total - reference) < 1e-10


def test_uniform_partition_nodes():
    part = uniform_partition(1.0, 4)
    assert part.node_coords == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert part.element_count == 4
    assert part.total_length == pytest.approx(1.0)


def test_uniform_partition_nls_grid():
    part = uniform_partition(40.0, 100)
    assert part.widths == pytest.approx(np.full(100, 0.4))


def test_single_element_partition():
    part = uniform_partition(1.0, 1)
    assert part.element_count == 1


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        uniform_partition(-1.0, 4)
    with pytest.raises(ValueError):
        uniform_partition(1.0, 0)
    with pytest.raises(ValueError):
        Partition1D(np.array([0.0, 0.5, 0.4]))


def test_periodic_locate_wraps():
    part = uniform_partition(1.0, 4)
    elem, ref = part.locate(1.1)
    assert elem == 0
    assert ref == pytest.approx(0.4)


def test_linear_basis_values():
    basis = LagrangeBasis(1, np.array([0.0, 1.0]))
    assert basis.tabulate(0.25)[0, 0] == pytest.approx(0.75)
    assert basis.tabulate(0.7, derivative_order=1)[0, 0] == pytest.approx(-1.0)


def test_quadratic_basis_nodal_property():
    basis = LagrangeBasis(2, np.array([0.0, 0.5, 1.0]))
    assert basis.tabulate(0.5)[1, 0] == pytest.approx(1.0)
    values = basis.tabulate(basis.nodes)
    for j in range(3):
        for i in range(3):
            expected = 1.0 if i == j else 0.0
            assert values[i, j] == pytest.approx(expected, abs=1e-14)


def test_partition_of_unity_random_points():
    rng = np.random.default_rng(7)
    for degree in range(4):
        basis = LagrangeBasis.equispaced(degree)
        x = rng.uniform(0.0, 1.0, size=100)
        total = basis.tabulate(x).sum(axis=0)
        assert np.max(np.abs(total - 1.0)) < 1e-13


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    step = 1e-6
    for degree in range(1, 4):
        basis = LagrangeBasis.equispaced(degree)
        x = rng.uniform(0.05, 0.95, size=50)
        exact = basis.tabulate(x, derivative_order=1)
        approx = (basis.tabulate(x + step) - basis.tabulate(x - step)) / (2 * step)
        scale = np.maximum(1.0, np.abs(exact))
        assert np.max(np.abs(exact - approx) / scale) < 1e-6


def test_degree_zero_nodes_are_midpoint():
    assert equispaced_nodes(0) == pytest.approx([0.5])


def test_nonpolynomial_rule_is_the_capped_nine_point_rule():
    # Projections of callables and the Bochner error share this rule.
    assert nonpolynomial_rule() is gauss_legendre(9)
    assert len(nonpolynomial_rule()) == quadrature_order_policy(10**6)
