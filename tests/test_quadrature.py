import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entloc.errors import QuadratureNotConverged
from entloc.quadrature import (
    ABS_TOL,
    DEFAULT_PANEL_POINTS,
    REL_TOL,
    gauss_legendre,
    grid_gauss,
    integrate_1d,
    refine_panels,
)


def test_polynomial_exact():
    value = integrate_1d(lambda x: 3 * x**2, 0.0, 2.0)
    assert value == pytest.approx(8.0, abs=1e-12)


def test_gaussian_against_erf():
    # independent oracle: int exp(-x^2/2)/sqrt(2 pi) over [a, b] via erf
    for a, b in ((-1.0, 1.0), (0.3, 2.7), (-5.0, -0.5)):
        value = integrate_1d(
            lambda x: np.exp(-0.5 * x**2) / math.sqrt(2 * math.pi), a, b)
        expected = 0.5 * (math.erf(b / math.sqrt(2)) - math.erf(a / math.sqrt(2)))
        assert value == pytest.approx(expected, abs=1e-12)


def test_panel_nodes_partition_weights():
    # scalar bounds, as integrate_1d's composite panel rules pass them
    nodes, weights = gauss_legendre(-1.0, 3.0, DEFAULT_PANEL_POINTS, 4)
    assert nodes.shape == weights.shape == (4 * DEFAULT_PANEL_POINTS,)
    assert weights.sum() == pytest.approx(4.0, abs=1e-13)
    assert nodes.min() > -1.0 and nodes.max() < 3.0


def test_not_converged_raises():
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.standard_normal(np.shape(x))

    with pytest.raises(QuadratureNotConverged):
        integrate_1d(noisy, 0.0, 1.0)


def test_gauss_legendre_per_interval():
    # each interval gets its own rule: exact for a degree-5 polynomial at n = 3
    lo = np.array([[-1.0, 0.5], [2.0, -3.0]])
    hi = np.array([[1.0, 0.75], [5.0, 3.0]])
    nodes, weights = gauss_legendre(lo, hi, 3)
    assert nodes.shape == weights.shape == (2, 2, 3)
    assert np.all((nodes > lo[..., None]) & (nodes < hi[..., None]))
    exact = (hi**6 - lo**6) / 6.0
    assert np.allclose((weights * nodes**5).sum(axis=-1), exact, rtol=1e-13, atol=1e-13)


def test_gauss_legendre_panels():
    lo, hi = np.array([-1.0, 2.0]), np.array([1.0, 5.0])
    single = gauss_legendre(lo, hi, 4)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(single, gauss_legendre(lo, hi, 4, 1)))
    nodes, weights = gauss_legendre(lo, hi, 4, 3)
    assert nodes.shape == weights.shape == (2, 12)
    assert np.all(np.diff(nodes, axis=-1) > 0.0)
    assert np.allclose(weights.sum(axis=-1), hi - lo, rtol=1e-14)
    # three 4-point panels integrate a piecewise-free smooth function closer
    # than one 4-point rule
    exact = np.sin(hi) - np.sin(lo)
    assert np.abs((weights * np.cos(nodes)).sum(axis=-1) - exact).max() < \
        np.abs((single[1] * np.cos(single[0])).sum(axis=-1) - exact).max()


def test_degenerate_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 1.0)


@pytest.mark.parametrize("points", [2, 3, 41, 201, 400])
def test_grid_rule_at_full_order_is_the_grid(points):
    lo, hi = np.array([-1.0, 0.5]), np.array([3.0, 0.75])
    nodes, weights = grid_gauss(lo, hi, points, points)
    assert nodes.shape == weights.shape == (2, points)
    assert np.abs(nodes - np.linspace(lo, hi, points, axis=-1)).max() <= 1e-12
    assert np.abs(weights - 1.0).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(points=st.integers(2, 400), data=st.data())
def test_grid_rule_sums_polynomials_as_the_grid(points, data):
    m = data.draw(st.integers(1, points))
    nodes, weights = grid_gauss(0.0, 1.0, points, m)
    assert np.all(weights > 0.0)
    assert weights.sum() == pytest.approx(points, rel=1e-12)
    degrees = np.arange(2 * m)[:, None]
    rule = (weights * nodes ** degrees).sum(axis=-1)
    grid = (np.linspace(0.0, 1.0, points) ** degrees).sum(axis=-1)
    assert np.all(np.abs(rule - grid) <= 1e-12 * grid)


class TestRefinePanels:
    @staticmethod
    def recorded(values):
        """An estimate that reads values[n] and records each count it is asked for."""
        calls = []

        def estimate(n):
            calls.append(n)
            return values(n)
        return estimate, calls

    def test_stops_at_the_first_agreeing_doubling(self):
        table = {3: 1.0, 6: 0.5, 12: 0.5 + 1e-12, 24: 0.5}
        estimate, calls = self.recorded(table.__getitem__)
        assert refine_panels(estimate, 3, 1 << 20, ABS_TOL, "test") == table[12]
        assert calls == [3, 6, 12]

    def test_never_evaluates_past_the_cap(self):
        estimate, calls = self.recorded(float)  # never agrees
        with pytest.raises(QuadratureNotConverged, match="test not converged within 40 panels"):
            refine_panels(estimate, 5, 40, ABS_TOL, "test")
        assert calls == [5, 10, 20, 40]

    def test_first_count_past_the_cap_refused_without_a_call(self):
        estimate, calls = self.recorded(float)
        with pytest.raises(QuadratureNotConverged):
            refine_panels(estimate, 64, 63, ABS_TOL, "test")
        assert calls == []

    def test_scalar_and_matrix_follow_one_rule(self):
        # entrywise within REL_TOL of the largest entry: the small entry may move
        # by far more than REL_TOL of itself once the large one has settled
        def large(n):
            return 1.0 + 4.0 ** -n

        def matrix(n):
            return np.array([[large(n), 1e-6 * (1.0 + 0.5 ** n)], [0.0, -large(n)]])

        scalar, scalar_calls = self.recorded(large)
        stacked, matrix_calls = self.recorded(matrix)
        assert refine_panels(scalar, 1, 1 << 10, ABS_TOL, "test") == large(scalar_calls[-1])
        assert np.array_equal(refine_panels(stacked, 1, 1 << 10, ABS_TOL, "test"),
                              matrix(matrix_calls[-1]))
        assert matrix_calls == scalar_calls
        last, before = matrix_calls[-1], matrix_calls[-2]
        assert abs(large(last) - large(before)) <= REL_TOL * large(last)
        assert 1e-6 * (0.5 ** before - 0.5 ** last) > REL_TOL * 1e-6

    def test_absolute_floor(self):
        estimate, calls = self.recorded(lambda n: 1e-20 * n)
        assert refine_panels(estimate, 1, 8, ABS_TOL, "test") == 2e-20
        estimate, calls = self.recorded(lambda n: 1e-9 * n)
        with pytest.raises(QuadratureNotConverged):
            refine_panels(estimate, 1, 8, ABS_TOL, "test")
        assert refine_panels(estimate, 1, 8, 1e-8, "test") == 2e-9

    def test_nan_never_agrees(self):
        estimate, calls = self.recorded(lambda n: np.full(2, np.nan))
        with pytest.raises(QuadratureNotConverged):
            refine_panels(estimate, 1, 4, ABS_TOL, "test")
        assert calls == [1, 2, 4]
