"""Four-qubit model: two entangled pairs shared between Alice and Bob.

Alice holds qubits (A1, A2), Bob holds (B1, B2); pair k is
cos(theta_k)|up up> + sin(theta_k)|down down> across the parties. The
spin analogue of a position-region filter is the projection of each
party's two spins onto the zero-total-z-component subspace
(span of |up down>, |down up>).

Basis convention: |up> = 0, |down> = 1, row index = 8 a1 + 4 a2 + 2 b1 + b2,
i.e. Alice's index is the most significant pair, so the A|B cut is the
(4, 4) split used by the partial transpose and partial trace.

Every value is a closed form in the four Schmidt coefficients of the pure
state: spin_scan's surface, whose (0, 0) cell on one-element axes is
spin_entropy and spin_negativity, negativity_vanish_point and the
restricted sweep of negativity_vs_purity. The tests hold them to the 16x16
matrices, which they build themselves. The unrestricted sweep alone still
builds and eigensolves the 16x16 mixed state at every F.
"""

from __future__ import annotations

import math
import numpy as np

from .distribution import Distribution2D
from .errors import DomainError, ZeroNormSubspace
from .linalg import DensityMatrix, negativity, spectral_entropy_bits

DIM = 16
SINGULAR_TRACE = 1e-12

# index pairs k < l of the four Schmidt coefficients
_PAIR_K, _PAIR_L = np.triu_indices(4, 1)


def build_pure_state(theta1: float, theta2: float) -> np.ndarray:
    """Unit-norm 16-component product of the two entangled pairs."""
    psi = np.zeros(DIM)
    for x, amp1 in ((0, math.cos(theta1)), (1, math.sin(theta1))):
        for y, amp2 in ((0, math.cos(theta2)), (1, math.sin(theta2))):
            psi[8 * x + 4 * y + 2 * x + y] = amp1 * amp2
    return psi


def build_mixed_state(theta1: float, theta2: float, F: float) -> DensityMatrix:
    """Pure projector blended with the maximally mixed state.

    rho = (16F - 1)/15 |psi><psi| + (1 - F)/15 * identity; F = 1 is pure,
    F = 1/16 is maximally mixed.
    """
    if not 1.0 / 16.0 <= F <= 1.0:
        raise DomainError(f"F must lie in [1/16, 1], got {F}")
    psi = build_pure_state(theta1, theta2)
    rho = psi[:, None] * psi
    rho *= (16.0 * F - 1.0) / 15.0
    rho += 0.0  # a -0.0 (zero amplitude times a negative one) reads +0.0
    rho.reshape(-1)[::DIM + 1] += (1.0 - F) / 15.0
    return DensityMatrix(rho)


def _schmidt_coefficients(theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Schmidt coefficients (c1c2, c1s2, s1c2, s1s2) at every (theta1[i], theta2[j]).

    Shape (n1, n2, 4). They are the amplitudes build_pure_state writes, bit
    for bit: cos and sin come from math, as there, since a vectorized cos
    may differ in the last bit. Entries 1 and 2 are the two amplitudes the
    moment filter keeps.
    """
    if not (np.isfinite(theta1).all() and np.isfinite(theta2).all()):
        raise DomainError("pair angles must be finite")
    c1, s1 = (np.array([f(t) for t in theta1]) for f in (math.cos, math.sin))
    c2, s2 = (np.array([f(t) for t in theta2]) for f in (math.cos, math.sin))
    return np.stack([np.multiply.outer(x, y) for x in (c1, s1) for y in (c2, s2)],
                    axis=-1)


def _negativity(rho: DensityMatrix) -> float:
    return negativity(rho, (4, 4))


def _check_purity(F) -> None:
    """Refuse the first F outside [1/16, 1] (NaN included); F scalar or array."""
    f = np.asarray(F, dtype=np.float64).ravel()
    bad = ~((f >= 1.0 / 16.0) & (f <= 1.0))
    if bad.any():
        raise DomainError(f"F must lie in [1/16, 1], got {f[bad][0]}")


def _filtered_negativity(a, b, F):
    """Negativity of the moment-filtered mixed state, with prob and mask.

    a and b are the two amplitudes the filter keeps; F is a scalar or an
    array that broadcasts against them. The negativity is
    max(0, p_F |ab| - (1 - F)/15) over the survivor's trace, with
    p_F = (16F - 1)/15. Where the trace is below SINGULAR_TRACE nothing
    survives: the value is NaN, prob 0 and the mask set.
    """
    pf, floor = (16.0 * F - 1.0) / 15.0, (1.0 - F) / 15.0
    # the filtered 16x16 matrix's diagonal pf a^2 + floor, floor, floor,
    # pf b^2 + floor, summed in the order np.trace sums it, so that prob and
    # the mask equal that matrix's trace bit for bit
    trace = (floor + (pf * (b * b) + floor)) + ((pf * (a * a) + floor) + floor)
    mask = trace < SINGULAR_TRACE
    values = np.maximum(0.0, pf * np.abs(a * b) - floor) / np.where(mask, 1.0, trace)
    values[mask] = np.nan
    return values, np.where(mask, 0.0, trace), mask


def _cell(theta1: float, theta2: float, measure: str, restricted: bool,
          F: float = 1.0) -> float:
    """The (0, 0) cell of _surface on one-element axes, the cell spin_scan
    gives at (theta1, theta2) bit for bit; a restricted cell that does not
    survive the moment filter raises ZeroNormSubspace."""
    dist = _surface(np.array([theta1], dtype=np.float64),
                    np.array([theta2], dtype=np.float64), measure, restricted, F)
    if dist.mask[0, 0]:
        raise ZeroNormSubspace(f"nothing survives the moment filter at theta1 = "
                               f"{theta1:.6g}, theta2 = {theta2:.6g}")
    return float(dist.values[0, 0])


def spin_entropy(theta1: float, theta2: float, restricted: bool = False) -> float:
    """Entanglement entropy of Alice's pair, optionally after the moment filter:
    one cell of spin_scan's entropy surface."""
    return _cell(theta1, theta2, "entropy", restricted)


def spin_negativity(theta1: float, theta2: float, F: float,
                    restricted: bool = False) -> float:
    """Negativity of the (optionally filtered) mixed state across the A|B cut:
    one cell of spin_scan's negativity surface at F."""
    return _cell(theta1, theta2, "negativity", restricted, F)


def negativity_vanish_point(theta1: float, theta2: float,
                            restricted: bool = False) -> float:
    """Purity parameter F below which the negativity vanishes.

    The negativity is positive exactly where p_F m > (1 - F)/15, with m the
    largest product |s_k s_l| of two Schmidt coefficients of the pure state
    or, restricted, the product |ab| of the two amplitudes the filter keeps.
    So F* = (1 + m)/(1 + 16 m), which is 1 when m = 0. A restricted state
    that does not survive the filter raises ZeroNormSubspace.
    """
    s = _schmidt_coefficients(np.array([theta1]), np.array([theta2]))[0, 0]
    if restricted:
        a, b = s[1], s[2]
        p = float(a * a + b * b)
        if p < SINGULAR_TRACE:
            raise ZeroNormSubspace(f"restricted trace {p:.3e} is numerically zero")
        m = abs(float(a * b))
    else:
        m = float(np.abs(s[_PAIR_K] * s[_PAIR_L]).max())
    return (1.0 + m) / (1.0 + 16.0 * m)


def negativity_vs_purity(theta1: float, theta2: float, f_values, *,
                         restricted: bool = False) -> Distribution2D:
    """Negativity swept over the purity parameter at fixed angles.

    Returns a single-column surface whose first axis is F; singular
    restricted points are masked. Every F and both angles are checked first.
    The restricted sweep is spin_scan's closed form along F, bit for bit; the
    unrestricted one builds and eigensolves the 16x16 mixed state at each F.
    """
    f_values = np.asarray(f_values, dtype=np.float64)
    _check_purity(f_values)
    s = _schmidt_coefficients(np.array([theta1]), np.array([theta2]))[0, 0]
    if restricted:
        values, prob, mask = _filtered_negativity(s[1], s[2], f_values)
    else:
        values = np.array([_negativity(build_mixed_state(theta1, theta2, f))
                           for f in f_values])
        prob, mask = np.ones(f_values.size), np.zeros(f_values.size, dtype=bool)
    return Distribution2D(axis_a=f_values, axis_b=np.array([theta1]),
                          values=values[:, None], kind="entanglement",
                          mask=mask[:, None], axis_names=("F", "theta1"),
                          extra={"prob": prob[:, None]})


def spin_scan(theta1_values, theta2_values, *, measure: str = "entropy",
              restricted: bool = False, F: float = 1.0) -> Distribution2D:
    """Tabulate an entanglement surface over a (theta1, theta2) grid.

    measure is "entropy" (pure state) or "negativity" (mixed state at F);
    F outside [1/16, 1] is refused for either measure.
    Restricted scans also carry the difference to the unrestricted surface
    as extra layer "delta" and the survival probability as "prob";
    singular grid points (survival below SINGULAR_TRACE) become NaN cells
    flagged in the mask.

    Each surface is one closed-form expression in the Schmidt coefficients
    s = (c1c2, c1s2, s1c2, s1s2) of the pure state; the filter keeps
    a = c1s2 and b = s1c2. The entropy is that of the weights s^2, or
    (a^2, b^2)/p restricted. The negativity is
    sum_{k<l} max(0, p_F |s_k s_l| - (1 - F)/15), or
    max(0, p_F |ab| - (1 - F)/15) / trace restricted, with
    p_F = (16F - 1)/15.
    """
    t1 = np.asarray(theta1_values, dtype=np.float64)
    t2 = np.asarray(theta2_values, dtype=np.float64)
    if t1.size < 2 or t2.size < 2:
        raise DomainError("scan grid needs at least 2 steps per axis")
    return _surface(t1, t2, measure, restricted, F)


def _surface(t1: np.ndarray, t2: np.ndarray, measure: str, restricted: bool,
             F: float) -> Distribution2D:
    """spin_scan's surface on the axes t1 and t2, of any size."""
    if measure not in ("entropy", "negativity"):
        raise DomainError(f"unknown measure {measure!r}")
    _check_purity(F)
    s = _schmidt_coefficients(t1, t2)
    a, b = s[..., 1], s[..., 2]
    if measure == "entropy":
        base = spectral_entropy_bits(s * s)
    else:
        pf, floor = (16.0 * F - 1.0) / 15.0, (1.0 - F) / 15.0
        base = np.maximum(0.0, pf * np.abs(s[..., _PAIR_K] * s[..., _PAIR_L])
                          - floor).sum(axis=-1)

    values, mask = base, np.zeros(base.shape, dtype=bool)
    extra = {"prob": np.ones(base.shape)}
    if restricted:
        if measure == "entropy":
            trace = a * a + b * b  # the survivor's squared norm
            mask = trace < SINGULAR_TRACE
            values = spectral_entropy_bits(np.stack([a * a, b * b], axis=-1)
                                           / np.where(mask, 1.0, trace)[..., None])
            values[mask] = np.nan
            prob = np.where(mask, 0.0, trace)
        else:
            values, prob, mask = _filtered_negativity(a, b, F)
        extra = {"prob": prob, "delta": values - base}
    return Distribution2D(axis_a=t1, axis_b=t2, values=values,
                          kind="entanglement", mask=mask,
                          axis_names=("theta1", "theta2"), extra=extra)
