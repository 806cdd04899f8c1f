"""Reference values for the benchmark's output checks, computed apart from entloc.

Only numpy and math are used here, and nothing is imported from entloc.
Every formula is derived from the model as the README states it:

* Spin system: pair k is cos(t_k)|up up> + sin(t_k)|down down>, so the
  four Schmidt coefficients across the A|B cut are the products
  (cos t1, sin t1) x (cos t2, sin t2). The zero-moment filter keeps the
  two terms cos t1 sin t2 and sin t1 cos t2. The mixed state is
  rho = p_F |psi><psi| + (1 - F)/15 * I with p_F = (16 F - 1)/15.
* Oscillator pair: the amplitude is exp(-q^T L q) with
  L = [[1+s, 1-s], [1-s, 1+s]] / 8 and s = sqrt(1 + 4 alpha), that is
  psi = exp(-(qa + qb)^2 / 8 - s (qa - qb)^2 / 8). Restricted entropies come
  from a Gauss-Legendre Nystrom discretization of the restricted operators,
  which converges exponentially for these analytic kernels (Bornemann,
  Math. Comp. 79 (2010) 871-915), not from entloc's uniform grid.
"""

from __future__ import annotations

import math

import numpy as np

# Nodes per interval of the Nystrom references. The tests compare them with
# twice as many nodes and with an mpmath quadrature.
ONE_PARTY_NODES = 64
TWO_PARTY_NODES = 40
MASS_NODES = 64

_erfc = np.frompyfunc(math.erfc, 1, 1)


def erfc(x) -> np.ndarray:
    return np.asarray(_erfc(np.asarray(x, dtype=np.float64)), dtype=np.float64)


def normal_interval(lo, hi) -> np.ndarray:
    """(erf(hi) - erf(lo)) / 2 for lo <= hi, as a difference of erfc values on
    the non-negative side, so a distant interval keeps its relative accuracy."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    flip = hi < 0.0
    return 0.5 * (erfc(np.where(flip, -hi, lo)) - erfc(np.where(flip, -lo, hi)))


def binary_entropy(p) -> np.ndarray:
    """h(p) in bits, vectorized, 0 at the end points."""
    p = np.clip(np.asarray(p, dtype=np.float64), 0.0, 1.0)
    out = np.zeros_like(p)
    live = (p > 0.0) & (p < 1.0)
    q = p[live]
    out[live] = -(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q))
    return out


def entropy_of_weights(weights: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis, after normalizing."""
    lam = np.clip(weights, 0.0, None)
    total = lam.sum(axis=-1, keepdims=True)
    lam = np.divide(lam, total, out=np.zeros_like(lam), where=total > 0)
    logs = np.log2(lam, out=np.zeros_like(lam), where=lam > 0)
    return -(lam * logs).sum(axis=-1)


# -- spin system ---------------------------------------------------------------

def spin_entropy(t1, t2) -> np.ndarray:
    """Entropy of Alice's reduced state: h(cos^2 t1) + h(cos^2 t2)."""
    return binary_entropy(np.cos(t1) ** 2) + binary_entropy(np.cos(t2) ** 2)


def spin_survival(t1, t2) -> np.ndarray:
    """Probability that the pure state survives both filters."""
    return 0.5 * (1.0 - np.cos(2.0 * t1) * np.cos(2.0 * t2))


def spin_restricted_entropy(t1, t2) -> np.ndarray:
    """Entropy of the two-term survivor, weights cos^2 t1 sin^2 t2 : sin^2 t1 cos^2 t2."""
    p = spin_survival(t1, t2)
    w = np.cos(t1) ** 2 * np.sin(t2) ** 2
    safe = np.where(p > 0.0, p, 1.0)
    return np.where(p > 0.0, binary_entropy(w / safe), np.nan)


def _schmidt_pairs(t1, t2):
    """Products s_k s_l (k < l) of the four Schmidt coefficients."""
    c1, n1 = np.abs(np.cos(t1)), np.abs(np.sin(t1))
    c2, n2 = np.abs(np.cos(t2)), np.abs(np.sin(t2))
    s = [c1 * c2, c1 * n2, n1 * c2, n1 * n2]
    return [s[k] * s[l] for k in range(4) for l in range(k + 1, 4)]


def spin_negativity(t1, t2, f) -> np.ndarray:
    """sum over k < l of max(0, p_F s_k s_l - (1 - F)/15)."""
    pf = (16.0 * f - 1.0) / 15.0
    floor = (1.0 - f) / 15.0
    return sum(np.maximum(0.0, pf * pair - floor) for pair in _schmidt_pairs(t1, t2))


def spin_restricted_negativity(t1, t2, f):
    """(negativity, surviving trace) of the filtered mixed state.

    The filter keeps p_F p |phi><phi| + (1 - F)/15 P with P of rank 4, and
    the one negative eigenvalue of the partial transpose of the survivor is
    -p_F |sin 2t1 sin 2t2| / 4 + (1 - F)/15.
    """
    pf = (16.0 * f - 1.0) / 15.0
    floor = (1.0 - f) / 15.0
    trace = pf * spin_survival(t1, t2) + 4.0 * floor
    cross = np.abs(np.sin(2.0 * t1) * np.sin(2.0 * t2)) / 4.0
    safe = np.where(trace > 0.0, trace, 1.0)
    value = np.maximum(0.0, pf * cross - floor) / safe
    return np.where(trace > 0.0, value, np.nan), trace


def vanish_point(t1: float, t2: float) -> float:
    """F* = (1 + m) / (1 + 16 m), m the largest product of two Schmidt coefficients."""
    m = max(float(pair) for pair in _schmidt_pairs(t1, t2))
    return (1.0 + m) / (1.0 + 16.0 * m)


# -- oscillator pair -------------------------------------------------------------

def stiffness(alpha: float) -> float:
    return math.sqrt(1.0 + 4.0 * alpha)


def log_amplitude(alpha: float, qa, qb) -> np.ndarray:
    s = stiffness(alpha)
    return -((qa + qb) ** 2) / 8.0 - s * (qa - qb) ** 2 / 8.0


def kernel_exponents(alpha: float) -> tuple[float, float]:
    """(c1, c2) of the reduced kernel exp(-c1 (q^2 + q'^2) + 2 c2 q q').

    Integrating psi(q, y) psi(q', y) over y gives
    c2 = (s - 1)^2 / (16 (1 + s)) and c1 = (1 + s)/8 - c2.
    """
    s = stiffness(alpha)
    c2 = (s - 1.0) ** 2 / (16.0 * (1.0 + s))
    return (1.0 + s) / 8.0 - c2, c2


def eof(alpha: float) -> float:
    """Entanglement of a two-mode Gaussian pure state.

    The reduced state is thermal with ratio xi = ((t - 1)/(t + 1))^2, where
    t^2 = s is the ratio of the two normal-mode exponents.
    """
    t = math.sqrt(stiffness(alpha))
    xi = ((t - 1.0) / (t + 1.0)) ** 2
    if xi == 0.0:
        return 0.0
    return -math.log2(1.0 - xi) - xi * math.log2(xi) / (1.0 - xi)


def marginal_precision(alpha: float) -> float:
    """kappa of Alice's density sqrt(kappa/pi) exp(-kappa q^2); kappa = s/(1+s)."""
    s = stiffness(alpha)
    return s / (1.0 + s)


def marginal_mass(alpha: float, lo, hi) -> np.ndarray:
    """P(q_a in [lo, hi]) in closed form through erf."""
    r = math.sqrt(marginal_precision(alpha))
    return normal_interval(np.asarray(lo) * r, np.asarray(hi) * r)


def _leggauss(n: int, lo, hi):
    """Gauss-Legendre nodes and weights mapped onto [lo, hi]; broadcast over cells."""
    x, w = np.polynomial.legendre.leggauss(n)
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    half = 0.5 * (hi - lo)
    return half * x + 0.5 * (hi + lo), half * w


def joint_mass(alpha: float, a_lo, a_hi, b_lo, b_hi, n: int = MASS_NODES) -> np.ndarray:
    """P(q_a in A, q_b in B) as a 1-D integral over A of a closed-form inner mass.

    Given q_a, q_b is normal with mean (s-1) q_a/(1+s) and variance 2/(1+s).
    """
    s = stiffness(alpha)
    kappa = marginal_precision(alpha)
    x, w = _leggauss(n, a_lo, a_hi)
    mean = (s - 1.0) / (1.0 + s) * x
    scale = 1.0 / math.sqrt(2.0 * 2.0 / (1.0 + s))
    b_lo = np.asarray(b_lo, dtype=np.float64)[..., None]
    b_hi = np.asarray(b_hi, dtype=np.float64)[..., None]
    inner = normal_interval((b_lo - mean) * scale, (b_hi - mean) * scale)
    density = math.sqrt(kappa / math.pi) * np.exp(-kappa * x * x)
    return (w * density * inner).sum(axis=-1)


def one_restricted_entropy(alpha: float, intervals, n: int = ONE_PARTY_NODES) -> np.ndarray:
    """Entropy after Alice's filter onto a union of intervals, per cell.

    intervals is a sequence of (lo, hi) pairs of arrays sharing one shape;
    the Nystrom matrix sqrt(w_i) K(x_i, x_j) sqrt(w_j) is built on n
    Gauss-Legendre nodes per interval.
    """
    c1, c2 = kernel_exponents(alpha)
    parts = [_leggauss(n, lo, hi) for lo, hi in intervals]
    x = np.concatenate([p[0] for p in parts], axis=-1)
    w = np.concatenate([p[1] for p in parts], axis=-1)
    xi, xj = x[..., :, None], x[..., None, :]
    expo = -c1 * (xi * xi + xj * xj) + 2.0 * c2 * xi * xj
    expo -= expo.max(axis=(-2, -1), keepdims=True)
    root = np.sqrt(w)
    matrix = root[..., :, None] * np.exp(expo) * root[..., None, :]
    return entropy_of_weights(np.linalg.eigvalsh(matrix))


def both_restricted_entropy(alpha: float, a_lo, a_hi, b_lo, b_hi,
                            n: int = TWO_PARTY_NODES) -> np.ndarray:
    """Entropy after both filters: singular values of sqrt(Wa) psi sqrt(Wb)."""
    xa, wa = _leggauss(n, a_lo, a_hi)
    xb, wb = _leggauss(n, b_lo, b_hi)
    expo = log_amplitude(alpha, xa[..., :, None], xb[..., None, :])
    expo -= expo.max(axis=(-2, -1), keepdims=True)
    matrix = np.sqrt(wa)[..., :, None] * np.exp(expo) * np.sqrt(wb)[..., None, :]
    return entropy_of_weights(np.linalg.svd(matrix, compute_uv=False) ** 2)


# -- classical widths and surface fits -----------------------------------------

def classical_widths(alpha: float, half_width: float = 0.0) -> dict[str, float]:
    """Widths of the joint and conditional surfaces over region centers.

    half_width = 0 gives the density widths. A region of half width a
    averages the density over a box, which to second order adds a^2/3 to the
    variance along each axis; the conditional widths then follow from the
    widened covariance, divided by the widened marginal of q_a.
    """
    s = stiffness(alpha)
    box = half_width * half_width / 3.0
    var_plus, var_minus = 2.0, 2.0 / s          # along qa + qb and qa - qb
    cov = 0.25 * np.array([[var_plus + var_minus, var_plus - var_minus],
                           [var_plus - var_minus, var_plus + var_minus]])
    cov = cov + box * np.eye(2)
    prec = np.linalg.inv(cov)
    return {
        "sigma_plus": math.sqrt(var_plus + 2.0 * box),
        "sigma_minus": math.sqrt(var_minus + 2.0 * box),
        "sigma_1": 1.0 / math.sqrt(prec[0, 0] - 1.0 / cov[0, 0]),
        "sigma_2": 1.0 / math.sqrt(prec[1, 1]),
        "sigma_12": 1.0 / math.sqrt(-2.0 * prec[0, 1]),
    }


# Samples below this share of a surface's maximum stay out of a width fit.
FIT_THRESHOLD = 1e-3


def fit_widths(x, y, values, form: str) -> dict[str, float]:
    """Log-quadratic least-squares widths of a surface, as the README describes.

    Samples that are finite, positive and at least FIT_THRESHOLD * max enter a
    fit of log(v) weighted by sqrt(v). form "symmetric" fits
    -(x+y)^2/(2 sp^2) - (x-y)^2/(2 sm^2); form "conditional" fits
    -x^2/(2 s1^2) + x y/(2 s12^2) - y^2/(2 s2^2).
    """
    x, y, v = (np.asarray(a, dtype=np.float64).ravel() for a in (x, y, values))
    keep = np.isfinite(v) & (v > 0.0)
    keep &= v >= FIT_THRESHOLD * v[keep].max()
    x, y, v = x[keep], y[keep], v[keep]
    if form == "symmetric":
        design = np.column_stack([np.ones_like(x), -(x + y) ** 2, -(x - y) ** 2])
        names = ("sigma_plus", "sigma_minus")
    else:
        design = np.column_stack([np.ones_like(x), -x * x, x * y, -y * y])
        names = ("sigma_1", "sigma_12", "sigma_2")
    root = np.sqrt(v)
    coef = np.linalg.lstsq(design * root[:, None], np.log(v) * root, rcond=None)[0]
    return {name: float(1.0 / math.sqrt(2.0 * c)) for name, c in zip(names, coef[1:])}
