import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entloc.quadrature as quadrature
from entloc.errors import QuadratureNotConverged
from entloc.quadrature import (
    DEFAULT_PANEL_POINTS,
    MAX_PANELS_1D,
    REL_TOL,
    gauss_legendre,
    grid_gauss,
    integrate_1d,
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


class TestIntegrate1dRefinement:
    @staticmethod
    def recorded(values, monkeypatch):
        """Make integrate_1d's estimate at n panels read values(n), and record
        each count it is asked for."""
        calls = []

        def rule(lo, hi, n_points, n_panels):
            calls.append(n_panels)
            return np.array([float(n_panels)]), np.ones(1)

        monkeypatch.setattr(quadrature, "gauss_legendre", rule)
        return lambda x: np.array([values(int(x[0]))]), calls

    def test_stops_at_the_first_agreeing_doubling(self, monkeypatch):
        table = {1: 1.0, 2: 0.5, 4: 0.5 + 1e-12, 8: 0.5}
        f, calls = self.recorded(table.__getitem__, monkeypatch)
        assert integrate_1d(f, 0.0, 1.0) == table[4]
        assert calls == [1, 2, 4]

    def test_never_evaluates_past_the_cap(self, monkeypatch):
        f, calls = self.recorded(float, monkeypatch)  # never agrees
        with pytest.raises(QuadratureNotConverged,
                           match=r"1-d integral on \[0.0, 1.0\] not converged within 16384 panels"):
            integrate_1d(f, 0.0, 1.0)
        assert calls == [1 << k for k in range(15)]
        assert calls[-1] == MAX_PANELS_1D

    def test_first_count_past_the_cap_refused_without_a_call(self, monkeypatch):
        f, calls = self.recorded(float, monkeypatch)
        monkeypatch.setattr(quadrature, "MAX_PANELS_1D", 0)
        with pytest.raises(QuadratureNotConverged):
            integrate_1d(f, 0.0, 1.0)
        assert calls == []

    def test_relative_tolerance(self, monkeypatch):
        # within REL_TOL of the newer estimate, and not before
        def large(n):
            return 1.0 + 4.0 ** -n

        f, calls = self.recorded(large, monkeypatch)
        assert integrate_1d(f, 0.0, 1.0) == large(calls[-1])
        last, before = calls[-1], calls[-2]
        assert abs(large(last) - large(before)) <= REL_TOL * large(last)
        assert abs(large(before) - large(calls[-3])) > REL_TOL * large(before)

    def test_absolute_floor(self, monkeypatch):
        f, calls = self.recorded(lambda n: 1e-20 * n, monkeypatch)
        assert integrate_1d(f, 0.0, 1.0) == 2e-20
        f, calls = self.recorded(lambda n: 1e-9 * n, monkeypatch)
        with pytest.raises(QuadratureNotConverged):
            integrate_1d(f, 0.0, 1.0)
        monkeypatch.setattr(quadrature, "ABS_TOL", 1e-8)
        assert integrate_1d(f, 0.0, 1.0) == 2e-9

    def test_nan_never_agrees(self, monkeypatch):
        f, calls = self.recorded(lambda n: np.nan, monkeypatch)
        with pytest.raises(QuadratureNotConverged):
            integrate_1d(f, 0.0, 1.0)
        assert calls == [1 << k for k in range(15)]


def _legendre_reference(n: int, digits: int = 30):
    """The nodes in [0, 1) of the n-point Gauss-Legendre rule and their weights,
    at `digits` digits: one Newton step on the three-term recurrence from the
    double nodes, which carries their 1e-16 error to about 1e-32, and each
    weight 2 / ((1 - x^2) P_n'(x)^2) with P_n' moved to the new node by
    P_n'' from Legendre's equation. At 30 digits a 45-digit solve of five
    Newton steps confirms its weights to 1e-24. The rule is symmetric, so
    the other half is the mirror image."""
    x0 = quadrature._gauss_rule(n)[0][n // 2:]
    nodes, weights = [], []
    with mp.workdps(digits):
        coeffs = [(mp.mpf(2 * k - 1) / k, mp.mpf(k - 1) / k) for k in range(2, n + 1)]
        for start in x0:
            x = mp.mpf(float(start))
            p0, p1 = mp.mpf(1), x
            for a, b in coeffs:
                p0, p1 = p1, a * x * p1 - b * p0
            dp = n * (x * p1 - p0) / (x * x - 1)
            ddp = (2 * x * dp - n * (n + 1) * p1) / (1 - x * x)
            step = p1 / dp
            x -= step
            dp -= ddp * step
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


class TestGaussRule:
    # largest node error and relative weight error against _legendre_reference,
    # a little above what the rule measured (numpy's leggauss, which built these
    # rules before, measured weight errors of 1.2e-13, 1.3e-12, 1.4e-11, 1.1e-10)
    @pytest.mark.parametrize("n,node_tol,weight_tol", [
        (24, 1e-15, 3e-14), (64, 1e-15, 3e-13), (128, 1e-15, 1e-12), (512, 1e-15, 5e-12)])
    def test_against_a_30_digit_newton_solve(self, n, node_tol, weight_tol):
        x, w = quadrature._gauss_rule(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0.0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert abs(w.sum() - 2.0) <= 1e-14
        nodes, weights = _legendre_reference(n)
        node_error = max(abs(float(a - b)) for a, b in zip(x[n // 2:], nodes))
        weight_error = max(abs(float((a - b) / b)) for a, b in zip(w[n // 2:], weights))
        assert node_error <= node_tol
        assert weight_error <= weight_tol
