"""Four-qubit model: two entangled pairs shared between Alice and Bob.

Alice holds qubits (A1, A2), Bob holds (B1, B2); pair k is
cos(theta_k)|up up> + sin(theta_k)|down down> across the parties. The
spin analogue of a position-region filter is the projection of each
party's two spins onto the zero-total-z-component subspace
(span of |up down>, |down up>).

Basis convention: |up> = 0, |down> = 1, row index = 8 a1 + 4 a2 + 2 b1 + b2,
i.e. Alice's index is the most significant pair, so the A|B cut is the
(4, 4) split used by the partial transpose and partial trace.

spin_entropy and spin_negativity evaluate one cell from the 16x16
matrices; spin_scan and negativity_vanish_point use closed forms in the
four Schmidt coefficients of the pure state, which the tests hold to them.
"""

from __future__ import annotations

import math
import numpy as np

from .distribution import Distribution2D
from .errors import DomainError, ZeroNormSubspace
from .linalg import (
    DensityMatrix,
    negativity,
    reduce_to_party,
    spectral_entropy_bits,
    von_neumann_entropy,
)

DIM = 16
SINGULAR_TRACE = 1e-12


_INDEX = np.arange(DIM)
# Zero-moment masks: Alice's two spins differ (a1 != a2), Bob's differ (b1 != b2).
_MS0 = {"A": (((_INDEX >> 3) ^ (_INDEX >> 2)) & 1).astype(np.float64),
        "B": (((_INDEX >> 1) ^ _INDEX) & 1).astype(np.float64)}
_MS0_BOTH = _MS0["A"] * _MS0["B"]
_MS0_BOTH_OUTER = np.outer(_MS0_BOTH, _MS0_BOTH)
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
    rho = (16.0 * F - 1.0) / 15.0 * np.outer(psi, psi) \
        + (1.0 - F) / 15.0 * np.eye(DIM)
    return DensityMatrix(rho)


def restrict_ms0(state):
    """Project both parties onto their zero-moment subspaces and renormalize.

    Accepts a pure state vector or a DensityMatrix. Returns the renormalized
    survivor together with the survival probability (squared norm or trace
    before renormalization). Raises ZeroNormSubspace when nothing survives,
    which for the pure state happens exactly at cos(2 theta1) cos(2 theta2) = 1.
    """
    if isinstance(state, DensityMatrix):
        projected = state.elements * _MS0_BOTH_OUTER
        p = float(np.trace(projected).real)
        if p < SINGULAR_TRACE:
            raise ZeroNormSubspace(f"restricted trace {p:.3e} is numerically zero")
        return DensityMatrix(projected / p), p
    psi = np.asarray(state, dtype=np.float64)
    survivor = psi * _MS0_BOTH
    p = float(survivor @ survivor)
    if p < SINGULAR_TRACE:
        raise ZeroNormSubspace(f"surviving norm^2 {p:.3e} is numerically zero")
    return survivor / math.sqrt(p), p


def ms0_outcome_branches(state: np.ndarray):
    """All four joint measurement branches of a pure state.

    Each party's measurement distinguishes zero total moment from the rest;
    the branches are labelled ((A in M_s=0?), (B in M_s=0?)). Returns a list
    of (label, probability, normalized branch state or None when the branch
    carries no weight).
    """
    psi = np.asarray(state, dtype=np.float64)
    branches = []
    for in_a in (True, False):
        sel_a = _MS0["A"] if in_a else 1.0 - _MS0["A"]
        for in_b in (True, False):
            sel_b = _MS0["B"] if in_b else 1.0 - _MS0["B"]
            branch = psi * sel_a * sel_b
            p = float(branch @ branch)
            if p < SINGULAR_TRACE:
                branches.append(((in_a, in_b), p, None))
            else:
                branches.append(((in_a, in_b), p, branch / math.sqrt(p)))
    return branches


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


def _pure_entropy(psi: np.ndarray) -> float:
    rho_a = reduce_to_party(DensityMatrix.from_state(psi), (4, 4), "A")
    return von_neumann_entropy(rho_a)


def _negativity(rho: DensityMatrix) -> float:
    return negativity(rho, (4, 4))


def _filtered(state, value) -> tuple[float, float]:
    """value of the moment-filtered state and its survival probability.

    A surviving state has probability at least SINGULAR_TRACE, so the
    (nan, 0.0) returned when nothing survives marks a singular cell.
    """
    try:
        survivor, p = restrict_ms0(state)
    except ZeroNormSubspace:
        return math.nan, 0.0
    return value(survivor), p


def spin_entropy(theta1: float, theta2: float, restricted: bool = False) -> float:
    """Entanglement entropy of Alice's pair, optionally after the moment filter."""
    psi = build_pure_state(theta1, theta2)
    if restricted:
        psi, _ = restrict_ms0(psi)
    return _pure_entropy(psi)


def spin_negativity(theta1: float, theta2: float, F: float,
                    restricted: bool = False) -> float:
    """Negativity of the (optionally filtered) mixed state across the A|B cut."""
    rho = build_mixed_state(theta1, theta2, F)
    if restricted:
        rho, _ = restrict_ms0(rho)
    return _negativity(rho)


def survival_probability(theta1: float, theta2: float) -> float:
    """Probability that the pure state survives both moment filters.

    Equals (1 - cos 2 theta1 cos 2 theta2)/2.
    """
    return 0.5 * (1.0 - math.cos(2.0 * theta1) * math.cos(2.0 * theta2))


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
    restricted points are masked.
    """
    f_values = np.asarray(f_values, dtype=np.float64)
    values = np.empty((f_values.size, 1))
    prob = np.ones((f_values.size, 1))
    for i, f in enumerate(f_values):
        rho = build_mixed_state(theta1, theta2, f)
        if restricted:
            values[i, 0], prob[i, 0] = _filtered(rho, _negativity)
        else:
            values[i, 0] = _negativity(rho)
    return Distribution2D(axis_a=f_values, axis_b=np.array([theta1]),
                          values=values, kind="entanglement", mask=prob == 0.0,
                          axis_names=("F", "theta1"), extra={"prob": prob})


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
    if measure not in ("entropy", "negativity"):
        raise DomainError(f"unknown measure {measure!r}")
    if not 1.0 / 16.0 <= F <= 1.0:
        raise DomainError(f"F must lie in [1/16, 1], got {F}")
    s = _schmidt_coefficients(t1, t2)
    a, b = s[..., 1], s[..., 2]
    if measure == "entropy":
        base = spectral_entropy_bits(s * s)
        trace = a * a + b * b  # the survivor's squared norm
    else:
        pf, floor = (16.0 * F - 1.0) / 15.0, (1.0 - F) / 15.0
        base = np.maximum(0.0, pf * np.abs(s[..., _PAIR_K] * s[..., _PAIR_L])
                          - floor).sum(axis=-1)
        # the filtered matrix's diagonal pf a^2 + floor, floor, floor,
        # pf b^2 + floor, summed in the order np.trace sums it in
        # restrict_ms0, so that prob and the mask equal its trace bit for bit
        trace = (floor + (pf * (b * b) + floor)) + ((pf * (a * a) + floor) + floor)

    values, mask = base, np.zeros(base.shape, dtype=bool)
    extra = {"prob": np.ones(base.shape)}
    if restricted:
        mask = trace < SINGULAR_TRACE
        safe = np.where(mask, 1.0, trace)
        if measure == "entropy":
            values = spectral_entropy_bits(np.stack([a * a, b * b], axis=-1)
                                           / safe[..., None])
        else:
            values = np.maximum(0.0, pf * np.abs(a * b) - floor) / safe
        values[mask] = np.nan
        extra = {"prob": np.where(mask, 0.0, trace), "delta": values - base}
    return Distribution2D(axis_a=t1, axis_b=t2, values=values,
                          kind="entanglement", mask=mask,
                          axis_names=("theta1", "theta2"), extra=extra)
