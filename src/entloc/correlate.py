"""Classical probability surfaces and Gaussian-surface fitting.

The classical counterpart of the entanglement maps: joint and conditional
probabilities of finding the two particles in their measurement regions,
tabulated over region centers, plus log-space least-squares fits that
extract the characteristic widths of any such surface. Comparing the
fitted widths of the entanglement surface against the classical ones
quantifies how much further the entanglement extends in configuration
space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import Distribution2D, scan_axis
from .errors import (
    ConditioningOnNullEvent,
    DomainError,
    InsufficientSupport,
    NonPositiveCurvature,
)
from .oscillator import (
    ClassicalWidths,
    OscillatorModel,
    classical_widths,
)
from .restrict import (
    EMPTY_MASS,
    Region,
    _two_party_orbits,
    joint_masses,
    marginal_masses,
    mass_nodes,
    two_party_map,
)

DEFAULT_THRESHOLD = 1e-3
MIN_SAMPLES = 12


def joint_probability(model: OscillatorModel, region_a: Region,
                      region_b: Region) -> float:
    """P(q_a in A and q_b in B) from the normalized position density: the one
    cell of probability_map."""
    return float(probability_map(model, [region_a.center], [region_b.center],
                                 region_a.half_width, region_b.half_width).values[0, 0])


def conditional_probability(model: OscillatorModel, region_b: Region,
                            region_a: Region) -> float:
    """P(q_b in B | q_a in A) = joint probability / Alice's marginal: the one
    cell of probability_map, refused with ConditioningOnNullEvent where the
    map masks it."""
    cell = probability_map(model, [region_a.center], [region_b.center], region_a.half_width,
                           region_b.half_width, "conditional_probability")
    if cell.mask[0, 0]:
        raise ConditioningOnNullEvent(
            f"conditioning region [{region_a.lo:.3g}, {region_a.hi:.3g}] carries no mass")
    return float(cell.values[0, 0])


def _conditional_map(model: OscillatorModel, joint: Distribution2D,
                     half_width_a: float) -> Distribution2D:
    """P(q_b in B | q_a in A) from a joint table: each row divided by Alice's
    marginal, masked where that marginal is below EMPTY_MASS."""
    marginal = marginal_masses(model, joint.axis_a - half_width_a,
                               joint.axis_a + half_width_a)[:, None]
    mask = np.broadcast_to(marginal < EMPTY_MASS, joint.shape).copy()
    values = np.divide(joint.values, marginal, out=np.full(joint.shape, np.nan),
                       where=~mask)
    return Distribution2D(axis_a=joint.axis_a, axis_b=joint.axis_b, values=values,
                          kind="conditional_probability", mask=mask)


def probability_map(model: OscillatorModel, centers_a, centers_b,
                    half_width_a: float, half_width_b: float | None = None,
                    kind: str = "joint_probability") -> Distribution2D:
    """Joint or conditional probability surface over region centers.

    The joint table is computed once, in one batched call of the closed-form
    joint masses, one per symmetry orbit of its cells: A x B, B x A,
    -A x -B and -B x -A share one mass (restrict._two_party_orbits). Exchanged
    cells pair up on any axes; mirrored ones only where an axis holds the
    exact negative of a center, as linspace(-4, 4, 33) and every CLI axis
    centred on 0 do bit for bit. A conditional surface divides each row by
    Alice's marginal (all in one closed-form call) and masks rows whose
    marginal has no mass.
    """
    if kind not in ("joint_probability", "conditional_probability"):
        raise DomainError(f"unknown probability kind {kind!r}")
    centers_a = np.asarray(centers_a, dtype=np.float64)
    centers_b = np.asarray(centers_b, dtype=np.float64)
    b = half_width_b if half_width_b is not None else half_width_a
    width, bounds, inverse = _two_party_orbits(np.repeat(centers_a, centers_b.size),
                                               half_width_a,
                                               np.tile(centers_b, centers_a.size), b)
    values = joint_masses(model, *bounds, mass_nodes(model, width))[inverse]
    joint = Distribution2D(axis_a=centers_a, axis_b=centers_b, kind="joint_probability",
                           values=values.reshape(centers_a.size, centers_b.size))
    return joint if kind == "joint_probability" else _conditional_map(
        model, joint, half_width_a)


# -- Gaussian-surface fitting -------------------------------------------------

@dataclass(frozen=True)
class FitParams:
    """Widths of a log-quadratic surface fit.

    form "symmetric_pm" fits amplitude * exp(-(x+y)^2 / 2 sigma_plus^2
    - (x-y)^2 / 2 sigma_minus^2); form "conditional" fits
    amplitude * exp(-x^2 / 2 sigma_1^2 + x y / 2 sigma_12^2
    - y^2 / 2 sigma_2^2). residual is the rms misfit of log values over
    the included samples.
    """

    form: str
    amplitude: float
    residual: float
    sigma_plus: float | None = None
    sigma_minus: float | None = None
    sigma_1: float | None = None
    sigma_2: float | None = None
    sigma_12: float | None = None

    def surface(self, x, y):
        """Evaluate the fitted model surface; vectorized."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if self.form == "symmetric_pm":
            expo = ((x + y) ** 2 / (2.0 * self.sigma_plus ** 2)
                    + (x - y) ** 2 / (2.0 * self.sigma_minus ** 2))
        else:
            expo = (x ** 2 / (2.0 * self.sigma_1 ** 2)
                    - x * y / (2.0 * self.sigma_12 ** 2)
                    + y ** 2 / (2.0 * self.sigma_2 ** 2))
        return self.amplitude * np.exp(-expo)


def _design_matrix(form: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if form == "symmetric_pm":
        return np.column_stack([np.ones_like(x), -(x + y) ** 2, -(x - y) ** 2])
    return np.column_stack([np.ones_like(x), -x ** 2, x * y, -y ** 2])


def fit_surface(dist: Distribution2D, form: str = "symmetric_pm", *,
                threshold: float = DEFAULT_THRESHOLD,
                window: float | None = None) -> FitParams:
    """Least-squares widths of a tabulated surface.

    Samples below threshold * max (or masked, or outside |center| <= window)
    are excluded; the remaining log values are fit by weighted linear least
    squares with weights proportional to the sample value, which keeps the
    high signal region in charge of the curvature. A threshold that is not
    finite, or a window that is not finite and positive, is refused with
    DomainError.
    """
    if form not in ("symmetric_pm", "conditional"):
        raise DomainError(f"unknown fit form {form!r}")
    if not math.isfinite(threshold):
        raise DomainError(f"fit threshold must be finite, got {threshold}")
    if window is not None and not (math.isfinite(window) and window > 0.0):
        raise DomainError(f"fit window must be finite and positive, got {window}")
    xg, yg = dist.meshgrid()
    values = dist.values
    keep = ~dist.mask & np.isfinite(values) & (values > 0.0)
    if window is not None:
        keep &= (np.abs(xg) <= window) & (np.abs(yg) <= window)
    if not keep.any():
        raise InsufficientSupport("no usable samples")
    keep &= values >= threshold * values[keep].max()
    x, y, v = xg[keep], yg[keep], values[keep]
    if v.size < MIN_SAMPLES:
        raise InsufficientSupport(f"only {v.size} samples above threshold")

    design = _design_matrix(form, x, y)
    target = np.log(v)
    sqrt_w = np.sqrt(v)
    coef, *_ = np.linalg.lstsq(design * sqrt_w[:, None], target * sqrt_w,
                               rcond=None)
    curvatures = coef[1:]
    if np.any(curvatures <= 0.0):
        raise NonPositiveCurvature(f"fitted curvatures {curvatures}")
    residual = float(np.sqrt(np.mean((design @ coef - target) ** 2)))
    amplitude = float(np.exp(coef[0]))
    sigmas = 1.0 / np.sqrt(2.0 * curvatures)
    if form == "symmetric_pm":
        return FitParams(form=form, amplitude=amplitude, residual=residual,
                         sigma_plus=float(sigmas[0]), sigma_minus=float(sigmas[1]))
    return FitParams(form=form, amplitude=amplitude, residual=residual,
                     sigma_1=float(sigmas[0]), sigma_12=float(sigmas[1]),
                     sigma_2=float(sigmas[2]))


# -- widths versus coupling -----------------------------------------------------

@dataclass(frozen=True)
class SigmaRow:
    """Fitted or analytic widths at one coupling strength."""

    alpha: float
    sigma_plus: float | None = None
    sigma_minus: float | None = None
    sigma_1: float | None = None
    sigma_2: float | None = None
    sigma_12: float | None = None


def sigma_vs_alpha_scan(alphas, *, which: str = "classical",
                        half_width: float = 0.25, extent: float = 4.0,
                        steps: int = 33) -> list[SigmaRow]:
    """Widths of the chosen surfaces tabulated against the coupling.

    which selects the branch: "small_a_analytic" evaluates the closed-form
    classical widths; "classical" fits the numeric joint and conditional
    probability maps at the given region half width; "quantum" fits the
    numeric entanglement map. Both maps run on scan_axis(-extent, extent,
    steps), which is its own mirror image. Fit failures propagate.
    """
    rows = []
    for alpha in alphas:
        model = OscillatorModel(alpha=alpha)
        if which == "small_a_analytic":
            analytic: ClassicalWidths = classical_widths(model)
            rows.append(SigmaRow(alpha=alpha, sigma_plus=analytic.sigma_plus,
                                 sigma_minus=analytic.sigma_minus,
                                 sigma_1=analytic.sigma_1,
                                 sigma_2=analytic.sigma_2,
                                 sigma_12=analytic.sigma_12))
            continue
        centers = scan_axis(-extent, extent, steps)
        if which == "classical":
            joint = probability_map(model, centers, centers, half_width)
            pm_fit = fit_surface(joint, "symmetric_pm")
            cond_fit = fit_surface(_conditional_map(model, joint, half_width),
                                   "conditional")
            rows.append(SigmaRow(alpha=alpha, sigma_plus=pm_fit.sigma_plus,
                                 sigma_minus=pm_fit.sigma_minus,
                                 sigma_1=cond_fit.sigma_1,
                                 sigma_2=cond_fit.sigma_2,
                                 sigma_12=cond_fit.sigma_12))
        elif which == "quantum":
            surface = two_party_map(model, centers, centers_b=centers,
                                    half_width=half_width)
            pm_fit = fit_surface(surface, "symmetric_pm")
            rows.append(SigmaRow(alpha=alpha, sigma_plus=pm_fit.sigma_plus,
                                 sigma_minus=pm_fit.sigma_minus))
        else:
            raise DomainError(f"unknown scan branch {which!r}")
    return rows
