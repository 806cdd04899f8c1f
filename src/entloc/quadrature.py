"""Adaptive composite Gauss-Legendre quadrature.

Integrands here are smooth Gaussians, so fixed-order panels with panel
doubling converge extremely fast; adaptivity is just a safety net.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged

DEFAULT_PANEL_POINTS = 16
REL_TOL = 1e-10
ABS_TOL = 1e-15
MAX_REFINEMENTS_1D = 14
# 2**8 panels of 16 points: at most 4096**2 nodes (128 MiB per float64 array).
MAX_REFINEMENTS_2D = 8


@lru_cache(maxsize=8)
def _gauss_rule(n_points: int):
    return np.polynomial.legendre.leggauss(n_points)


def panel_nodes(a: float, b: float, n_panels: int, n_points: int = DEFAULT_PANEL_POINTS):
    """Nodes and weights of a composite Gauss-Legendre rule on [a, b]."""
    x, w = _gauss_rule(n_points)
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (half[:, None] * x[None, :] + mid[:, None]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _refine(estimate, max_refinements: int, what: str) -> float:
    """Double the panel count until two successive estimates agree to
    REL_TOL (with an ABS_TOL floor for near-zero integrals)."""
    n_panels = 1
    previous = estimate(n_panels)
    for _ in range(max_refinements):
        n_panels *= 2
        current = estimate(n_panels)
        if abs(current - previous) <= max(REL_TOL * abs(current), ABS_TOL):
            return current
        previous = current
    raise QuadratureNotConverged(
        f"{what} not converged after {max_refinements} refinements")


def integrate_1d(f, a: float, b: float) -> float:
    """Integrate a vectorized scalar function over [a, b]."""
    if b <= a:
        raise ValueError("integration bounds must satisfy a < b")

    def estimate(n_panels: int) -> float:
        nodes, weights = panel_nodes(a, b, n_panels)
        return float(np.dot(weights, f(nodes)))

    return _refine(estimate, MAX_REFINEMENTS_1D, f"1-d integral on [{a}, {b}]")


def integrate_2d(f, ax: float, bx: float, ay: float, by: float) -> float:
    """Integrate a vectorized f(x, y) over the rectangle [ax,bx] x [ay,by]."""
    if bx <= ax or by <= ay:
        raise ValueError("integration rectangle is degenerate")

    def estimate(n_panels: int) -> float:
        xs, wx = panel_nodes(ax, bx, n_panels)
        ys, wy = panel_nodes(ay, by, n_panels)
        return float(wx @ f(xs[:, None], ys[None, :]) @ wy)

    return _refine(estimate, MAX_REFINEMENTS_2D, "2-d integral")
