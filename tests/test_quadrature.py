import math

import numpy as np
import pytest

from entloc.errors import QuadratureNotConverged
from entloc.quadrature import integrate_1d, integrate_2d, panel_nodes


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


def test_2d_separable_gaussian():
    value = integrate_2d(lambda x, y: np.exp(-x**2) * np.exp(-2 * y**2),
                         -6, 6, -6, 6)
    expected = math.sqrt(math.pi) * math.sqrt(math.pi / 2.0)
    assert value == pytest.approx(expected, abs=1e-12)


def test_panel_nodes_partition_weights():
    nodes, weights = panel_nodes(-1.0, 3.0, 4)
    assert weights.sum() == pytest.approx(4.0, abs=1e-13)
    assert nodes.min() > -1.0 and nodes.max() < 3.0


def test_not_converged_raises():
    rng = np.random.default_rng(0)

    def noisy(x):
        return rng.standard_normal(np.shape(x))

    with pytest.raises(QuadratureNotConverged):
        integrate_1d(noisy, 0.0, 1.0)


def test_2d_gives_up_before_4096_squared_nodes():
    rng = np.random.default_rng(0)

    def noisy(x, y):
        assert np.size(x) * np.size(y) <= 4096**2
        return rng.standard_normal((np.size(x), np.size(y)))

    with pytest.raises(QuadratureNotConverged):
        integrate_2d(noisy, 0.0, 1.0, 0.0, 1.0)


def test_degenerate_bounds_rejected():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 1.0)
