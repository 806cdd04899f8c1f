import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entloc.errors import QuadratureNotConverged
from entloc.quadrature import DEFAULT_PANEL_POINTS, gauss_legendre, grid_gauss, integrate_1d


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
