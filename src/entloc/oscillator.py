"""Closed-form ground-state quantities for two coupled harmonic oscillators.

Two oscillators of mass m and frequency omega joined by a spring of
stiffness K are fully characterized by the dimensionless coupling
alpha = 2K/(m omega^2). The ground-state wavefunction is a correlated
Gaussian exp(-q^T L q); everything downstream (reduced density kernel,
characteristic length, exact entanglement of formation, small-region
limits, classical widths) follows from alpha in closed form.

Units are m = omega = hbar = 1, which makes the uncoupled single-particle
width sigma(alpha=0) = 1 the unit of length. Other masses and frequencies
only change that unit: a length here is sqrt(m omega / hbar) times the
physical length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DivergentWidth, DomainError
from .linalg import binary_entropy


# Couplings from here on are refused. The spectral weight is ((t-1)/(t+1))^2
# with t = (1 + 4 alpha)^(1/4); below alpha = 2^210 (1.6455e63), t <= 2^53 and
# the weight is below 1. Above it, t - 1 and t + 1 are no longer exact: the
# weight rounds to 1 at some couplings (the first is 7 doubles above 2^210)
# and at every one from 2^214 (2.6e64), where the entanglement of formation
# is no longer finite.
ALPHA_LIMIT = 2.0 ** 210


@dataclass(frozen=True)
class OscillatorModel:
    """Pair of coupled oscillators, given by their dimensionless coupling,
    finite, >= 0 and below ALPHA_LIMIT."""

    alpha: float

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise DomainError(f"alpha must be finite, got {self.alpha}")
        if self.alpha < 0.0:
            raise DomainError(f"coupling alpha must be >= 0, got {self.alpha}")
        if self.alpha >= ALPHA_LIMIT:
            raise DomainError(f"coupling alpha {float(self.alpha)!r} is past the range where "
                              f"the spectral weight is below 1: alpha must be below 2^210 "
                              f"({ALPHA_LIMIT!r})")

    @property
    def stiffness_root(self) -> float:
        """sqrt(1 + 4 alpha), the normal-mode frequency ratio squared."""
        return math.sqrt(1.0 + 4.0 * self.alpha)


class GroundStateConstants(NamedTuple):
    """Derived ground-state constants.

    l_matrix is the 2x2 quadratic form of the wavefunction exponent;
    c1/c2 are the diagonal/cross exponent coefficients of the reduced
    one-particle kernel; sigma is the single-particle characteristic
    length; w is the geometric weight of the reduced-state spectrum
    (lam_k proportional to w^k) and eof the resulting entanglement.
    """

    l_matrix: np.ndarray
    c1: float
    c2: float
    sigma: float
    w: float
    eof: float


class ClassicalWidths(NamedTuple):
    """Widths of the classical probability surfaces.

    sigma_plus/sigma_minus: standard deviations of the joint position
    density along the (q_a + q_b) and (q_a - q_b) axes. sigma_1, sigma_2,
    sigma_12: quadratic-form widths of the conditional density of Bob's
    position given Alice's.
    """

    sigma_plus: float
    sigma_minus: float
    sigma_1: float
    sigma_2: float
    sigma_12: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return tuple(self)


def spectral_weight(model: OscillatorModel) -> float:
    """Geometric ratio w of the reduced-state eigenvalues lam_k = (1-w) w^k.

    Evaluated through the cancellation-free form w = ((t-1)/(t+1))^2 with
    t = (1+4 alpha)^(1/4); the textbook rational expression loses all
    significance below alpha ~ 1e-4.
    """
    t = (1.0 + 4.0 * model.alpha) ** 0.25
    r = (t - 1.0) / (t + 1.0)
    return r * r


def gaussian_eof(model: OscillatorModel) -> float:
    """Exact ground-state entanglement of formation in ebits.

    Zero at alpha = 0 (uncoupled product state) and strictly increasing
    with the coupling.
    """
    w = spectral_weight(model)
    if w == 0.0:
        return 0.0
    return float(-np.log2(1.0 - w) - w * np.log2(w) / (1.0 - w))


def ground_state_constants(model: OscillatorModel) -> GroundStateConstants:
    """All closed-form ground-state constants for the given coupling."""
    s = model.stiffness_root
    l_matrix = np.array([[1.0 + s, 1.0 - s],
                         [1.0 - s, 1.0 + s]]) / 8.0
    c1 = (1.0 + 2.0 * model.alpha + 3.0 * s) / (8.0 + 8.0 * s)
    c2 = model.alpha * (s - 1.0) / (8.0 * (1.0 + 2.0 * model.alpha + s))
    sigma = (2.0 * s / (1.0 + s)) ** -0.5
    w = spectral_weight(model)
    return GroundStateConstants(l_matrix=l_matrix, c1=c1, c2=c2,
                                sigma=sigma, w=w, eof=gaussian_eof(model))


def two_particle_wavefunction(model: OscillatorModel, qa, qb):
    """Unnormalized ground-state amplitude exp(-q^T L q); vectorized.

    The symmetric mode is spring-free: psi(q, q) = exp(-q^2/2) for every
    coupling, while psi(q, -q) narrows with the stiff mode.
    """
    qa = np.asarray(qa, dtype=np.float64)
    qb = np.asarray(qb, dtype=np.float64)
    s = model.stiffness_root
    l_diag = (1.0 + s) / 8.0
    l_off = (1.0 - s) / 8.0
    exponent = l_diag * (qa * qa + qb * qb) + 2.0 * l_off * qa * qb
    return np.exp(-exponent)


def reduced_density_value(model: OscillatorModel, qa, qa_prime):
    """Normalized one-particle reduced kernel rho^(A)(q_a; q_a'); vectorized.

    sqrt((2 c1 - 2 c2)/pi) exp(-c1 (q^2 + q'^2) + 2 c2 q q'), evaluated as
    exp(-(q^2 + q'^2)/(4 sigma^2) - c2 (q - q')^2) / (sqrt(2 pi) sigma):
    c1 - c2 = 1/(4 sigma^2), and the difference c1 - c2 itself would cancel
    at strong coupling. The diagonal is the normal density of standard
    deviation sigma. Positions past 60 sigma are clipped to it: the exponent
    there is below -(60/2)^2 = -900, whose exp is already 0, so every value
    stays as it was and no finite position overflows its square.
    """
    gs = ground_state_constants(model)
    bound = 60.0 * gs.sigma
    qa = np.clip(np.asarray(qa, dtype=np.float64), -bound, bound)
    qa_prime = np.clip(np.asarray(qa_prime, dtype=np.float64), -bound, bound)
    return np.exp(-(0.25 / (gs.sigma * gs.sigma)) * (qa * qa + qa_prime * qa_prime)
                  - gs.c2 * (qa - qa_prime) ** 2) / (math.sqrt(2.0 * math.pi) * gs.sigma)


def marginal_position_density(model: OscillatorModel, q):
    """Single-particle position density rho^(A)(q; q); vectorized."""
    return reduced_density_value(model, q, q)


def small_a_epsilon_one(model: OscillatorModel, a: float) -> float:
    """Schmidt weight eps when only Alice restricts to a width-2a region.

    Valid in the small-region limit; the surviving entanglement is
    binary_entropy(eps), independent of where the region sits. A weight past
    1/2 is no smaller Schmidt weight: the region is outside the limit, and
    the half width is refused with DomainError.
    """
    if not 0.0 < a < math.inf:  # NaN fails both comparisons
        raise DomainError(f"half width must be finite and positive, got {a}")
    s = model.stiffness_root
    # uncoupled, or too weakly to resolve: the weight is 0 at every width, and
    # a * a, which may overflow, must not meet the zero
    if model.alpha * (s - 1.0) == 0.0:
        return 0.0
    return _small_weight(a * a * model.alpha * (s - 1.0) / (
        12.0 * (1.0 + 2.0 * model.alpha + s)), f"half width {a:.6g}")


def small_a_epsilon_both(model: OscillatorModel, a: float, b: float) -> float:
    """Schmidt weight eps when both parties restrict (widths 2a and 2b); a
    weight past 1/2 is refused as in small_a_epsilon_one."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError("half widths must be finite and positive")
    coupling = 1.0 + 2.0 * model.alpha - model.stiffness_root
    if coupling == 0.0:  # 0 at every width, as in small_a_epsilon_one
        return 0.0
    return _small_weight(a * a * b * b / 72.0 * coupling,
                         f"half widths {a:.6g} and {b:.6g}")


def _small_weight(eps: float, regions: str) -> float:
    """eps, a small-region Schmidt weight of the regions described; past 1/2
    (NaN included) it is refused with DomainError."""
    if not eps <= 0.5:
        raise DomainError(f"the small-region limit fails at {regions}: "
                          f"Schmidt weight {eps:.3g} is past 1/2")
    return eps


def concurrence_density(model: OscillatorModel) -> float:
    """Concurrence per region area in the doubly-restricted small limit.

    Related to the small-region Schmidt weight by
    eps_both = (density * a * b / 2)^2.
    """
    s = model.stiffness_root
    return math.sqrt(2.0) / 6.0 * math.sqrt(1.0 + 2.0 * model.alpha - s)


def small_a_entanglement_one(model: OscillatorModel, a: float) -> float:
    """Small-region entanglement h(eps) for a single restricted party."""
    return binary_entropy(small_a_epsilon_one(model, a))


def small_a_entanglement_both(model: OscillatorModel, a: float, b: float) -> float:
    """Small-region entanglement h(eps) when both parties restrict."""
    return binary_entropy(small_a_epsilon_both(model, a, b))


def classical_widths(model: OscillatorModel) -> ClassicalWidths:
    """Analytic widths of the classical joint and conditional densities.

    sigma_plus is coupling-independent; sigma_1 and sigma_12 diverge for
    uncoupled oscillators (conditioning carries no information there).
    """
    if model.alpha == 0.0:
        raise DivergentWidth("sigma_1 and sigma_12 diverge at alpha = 0")
    s = model.stiffness_root
    sigma_plus = math.sqrt(2.0)
    sigma_minus = math.sqrt(2.0 / s)
    sigma_1 = math.sqrt(2.0 * (1.0 + s)) / (s - 1.0)
    sigma_2 = math.sqrt(2.0 / (1.0 + s))
    sigma_12 = math.sqrt(1.0 / (s - 1.0))
    return ClassicalWidths(sigma_plus, sigma_minus, sigma_1, sigma_2, sigma_12)
