"""Gauss rules, each from one eigensolve of its Jacobi matrix (Golub &
Welsch, Math. Comp. 23 (1969) 221-230): composite Gauss-Legendre, and the
Gauss rule of a uniform grid's sum.

Integrands here are smooth Gaussians, so fixed-order panels converge
extremely fast. The one adaptive estimate left, the scalar integral
(integrate_1d), doubles its panels; every spectrum and projection takes one
rule of a count set in advance. Batches of intervals get one fixed-order
rule each, nodes along a trailing axis.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged
from .linalg import lapack

DEFAULT_PANEL_POINTS = 16
REL_TOL = 1e-10
ABS_TOL = 1e-15
MAX_PANELS_1D = 1 << 14


def _golub_welsch(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, ascending, and squared first eigenvector components of the
    Jacobi matrix with zero diagonal and off-diagonal `off`."""
    u, v = lapack(np.linalg.eigh, np.diag(off, 1) + np.diag(off, -1))
    return u, v[0] ** 2


@lru_cache(maxsize=8)
def _gauss_rule(n_points: int):
    # Legendre's Jacobi matrix, off-diagonal k / sqrt(4k^2 - 1), weights 2 v_0^2;
    # symmetrised about 0, so the rule is its own mirror image bit for bit
    k = np.arange(1.0, n_points)
    x, v0sq = _golub_welsch(k / np.sqrt(4.0 * k * k - 1.0))
    return 0.5 * (x - x[::-1]), v0sq + v0sq[::-1]


def gauss_legendre(lo, hi, n_points: int, n_panels: int = 1):
    """Nodes and weights of the n-point Gauss-Legendre rule on each of
    n_panels equal panels of each [lo, hi].

    lo and hi are arrays of one shape; nodes and weights have that shape
    plus a trailing axis of length n_panels * n_points.
    """
    x, w = _gauss_rule(n_points)
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    edges = np.concatenate([lo + (hi - lo) * (np.arange(n_panels) / n_panels), hi], axis=-1)
    half = (0.5 * (edges[..., 1:] - edges[..., :-1]))[..., None]
    # a sum of halves: the midpoint of ends near the largest float does not overflow
    mid = (0.5 * edges[..., 1:] + 0.5 * edges[..., :-1])[..., None]
    shape = lo.shape[:-1] + (n_panels * n_points,)
    return (half * x + mid).reshape(shape), (half * w).reshape(shape)


# a round of the benchmark's one-party-maps workload (bench/workloads.py) asks
# for 18 distinct (points, m) rules, the maps' widths and gauss-converge's 100-
# and 200-bin grids; 16 missed 10 of them every round, 64 misses none
@lru_cache(maxsize=64)
def _grid_rule(points: int, m: int):
    # Jacobi matrix of the discrete Chebyshev polynomials on t = 0 ... N - 1,
    # centred on (N - 1)/2 and scaled to [-1, 1]; weights are N v_0^2,
    # symmetrised about 0 as _gauss_rule is, so the rule is its own mirror image
    k = np.arange(1.0, m)
    scale = 2.0 / (points - 1)
    u, v0sq = _golub_welsch(
        scale * np.sqrt(k * k * (points * points - k * k) / (4.0 * (4.0 * k * k - 1.0))))
    return 0.5 * (u - u[::-1]), (0.5 * points) * (v0sq + v0sq[::-1])


def grid_gauss(lo, hi, points: int, m: int):
    """Nodes and weights of the m-node Gauss rule for the unit-weight sum over
    the `points` uniform grid points of each [lo, hi] (_golub_welsch).

    The rule sums every polynomial of degree up to 2m - 1 exactly as the grid
    does; its weights add up to `points`, and at m = points it is the grid
    itself. lo and hi are arrays of one shape; nodes and weights have that
    shape plus a trailing axis of length m.
    """
    u, w = _grid_rule(points, m)
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    return 0.5 * (hi - lo) * u + (0.5 * hi + 0.5 * lo), np.broadcast_to(w, lo.shape[:-1] + (m,))


def integrate_1d(f, a: float, b: float) -> float:
    """Integrate a vectorized scalar function over [a, b] on DEFAULT_PANEL_POINTS-
    point Gauss-Legendre panels, doubled from 1 panel until two successive
    estimates agree within REL_TOL of the newer one, or within ABS_TOL;
    returns the newer. A count past MAX_PANELS_1D is never evaluated: the
    integral is refused with QuadratureNotConverged instead."""
    if b <= a:
        raise ValueError("integration bounds must satisfy a < b")
    previous, n_panels = np.nan, 1  # NaN agrees with no estimate
    while n_panels <= MAX_PANELS_1D:
        nodes, weights = gauss_legendre(a, b, DEFAULT_PANEL_POINTS, n_panels)
        current = float(np.dot(weights, f(nodes)))
        if abs(current - previous) <= max(REL_TOL * abs(current), ABS_TOL):
            return current
        previous, n_panels = current, 2 * n_panels
    raise QuadratureNotConverged(
        f"1-d integral on [{a}, {b}] not converged within {MAX_PANELS_1D} panels")
