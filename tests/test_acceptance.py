"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured values and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import time

import numpy as np

from entloc.correlate import fit_surface
from entloc.linalg import (
    DensityMatrix,
    binary_entropy,
    eigen_symmetric,
)
from entloc.oscillator import (
    OscillatorModel,
    classical_widths,
    gaussian_eof,
    small_a_epsilon_both,
    small_a_epsilon_one,
)
from entloc.restrict import (
    Partition,
    Region,
    both_restricted_entropy,
    method_equivalence,
    non_discarding_two_path,
    one_restricted_entropy,
    partition_inequality_check,
    precise_measurement_entanglement,
    two_party_map,
)
from entloc.spin import (
    negativity_vanish_point,
    spin_entropy,
    spin_scan,
)

MODEL = OscillatorModel(alpha=6)
QUARTER = math.pi / 4.0


def report(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {label} -- {detail}")
    assert ok, f"criterion {number} ({label}): {detail}"


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


def test_criterion_1_exact_eof():
    gaussian_eof(MODEL)  # warm up
    value, elapsed = timed(gaussian_eof, MODEL)
    ok = abs(value - 0.702) <= 1e-3 and elapsed < 1e-3
    report(1, "exact entanglement of formation at alpha=6", ok,
           f"eof={value:.6f} (target 0.702 +- 0.001), {elapsed * 1e3:.3f} ms")


def test_criterion_2_weak_coupling_eof():
    weak = OscillatorModel(alpha=0.06)
    gaussian_eof(weak)  # warm up
    value, elapsed = timed(gaussian_eof, weak)
    ok = abs(value - 0.00859) / 0.00859 <= 0.05 and elapsed < 1e-3
    report(2, "stabilized weak-coupling entanglement at alpha=0.06", ok,
           f"eof={value:.6f} (target 0.00859 +- 5%), {elapsed * 1e3:.3f} ms")


def test_criterion_3_saturation():
    exact = gaussian_eof(MODEL)
    result, elapsed = timed(one_restricted_entropy, MODEL, Region(0.0, 5.0),
                            n_bins=200)
    ok = abs(result.entanglement - exact) <= 5e-3 and elapsed < 5.0
    report(3, "wide-region saturation to the full entanglement", ok,
           f"S={result.entanglement:.6f} vs exact {exact:.6f}, {elapsed:.2f} s")


def test_criterion_4_small_region_limits():
    start = time.perf_counter()
    one = one_restricted_entropy(MODEL, Region(0.0, 0.025),
                                 n_bins=200)
    one_target = binary_entropy(small_a_epsilon_one(MODEL, 0.025))
    both = both_restricted_entropy(MODEL, Region(0.0, 0.05), Region(0.0, 0.05),
                                   n_bins=100)
    both_target = binary_entropy(small_a_epsilon_both(MODEL, 0.05, 0.05))
    elapsed = time.perf_counter() - start
    rel_one = abs(one.entanglement - one_target) / one_target
    rel_both = abs(both.entanglement - both_target) / both_target
    ok = rel_one <= 0.10 and rel_both <= 0.15 and elapsed < 10.0
    report(4, "small-region analytic limits", ok,
           f"one-restricted rel err {rel_one:.3f} (<=0.10), "
           f"both-restricted rel err {rel_both:.3f} (<=0.15), {elapsed:.2f} s")


def test_criterion_5_classical_widths_row():
    classical_widths(MODEL)  # warm up
    widths, elapsed = timed(classical_widths, MODEL)
    printed = (1.41, 0.632, 0.866, 0.577, 0.500)
    decimals = (2, 3, 3, 3, 3)
    rounded = tuple(round(value, nd)
                    for value, nd in zip(widths.as_tuple(), decimals))
    ok = rounded == printed and elapsed < 1e-3
    report(5, "analytic classical widths (small-region row)", ok,
           f"{widths.as_tuple()} rounds to {rounded} "
           f"(target {printed}), {elapsed * 1e3:.3f} ms")


def _fitted_quantum_widths(width: float, n_bins: int | None):
    centers = np.linspace(-4.0, 4.0, 41)
    start = time.perf_counter()
    surface = two_party_map(MODEL, centers, centers_b=centers,
                            half_width=width / 2.0, n_bins=n_bins)
    fit = fit_surface(surface, "symmetric_pm")
    return fit, time.perf_counter() - start


def test_criterion_6_quantum_width_rows():
    # the 100-bin grid cross-check and the default Gauss-Legendre nodes
    targets = ((0.5, (10.4, 2.29)), (4.0, (3.44, 2.10)))
    ok = True
    details = []
    for n_bins, method in ((100, "grid"), (None, "nodes")):
        for width, (plus, minus) in targets:
            fit, elapsed = _fitted_quantum_widths(width, n_bins)
            rel_plus = abs(fit.sigma_plus - plus) / plus
            rel_minus = abs(fit.sigma_minus - minus) / minus
            ok = ok and rel_plus <= 0.15 and rel_minus <= 0.15 and elapsed < 180.0
            details.append(f"width {width:g} on {method}: ({fit.sigma_plus:.2f}, "
                           f"{fit.sigma_minus:.2f}) vs ({plus}, {minus}), {elapsed:.1f} s")
    report(6, "fitted entanglement-surface widths", ok, "; ".join(details))


def test_criterion_7_spin_landmarks():
    start = time.perf_counter()
    s_unrestricted = spin_entropy(QUARTER, QUARTER)
    s_restricted = spin_entropy(QUARTER, QUARTER, restricted=True)
    f_star = negativity_vanish_point(QUARTER, QUARTER)

    thetas = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    plain = spin_scan(thetas, thetas).values
    period_half_pi = np.abs(plain - np.roll(plain, 16, axis=0)).max()
    period_half_pi = max(period_half_pi,
                         np.abs(plain - np.roll(plain, 16, axis=1)).max())

    restricted = spin_scan(thetas, thetas, restricted=True)
    surface = np.where(restricted.mask, np.nan, restricted.values)
    rolled = np.roll(surface, 32, axis=0)
    both_defined = np.isfinite(surface) & np.isfinite(rolled)
    period_pi = np.abs(surface[both_defined] - rolled[both_defined]).max()
    quarter_rolled = np.roll(surface, 16, axis=0)
    overlap = np.isfinite(surface) & np.isfinite(quarter_rolled)
    not_quarter_periodic = \
        np.abs(surface[overlap] - quarter_rolled[overlap]).max() > 1e-3
    elapsed = time.perf_counter() - start

    ok = (abs(s_unrestricted - 2.0) <= 1e-9
          and abs(s_restricted - 1.0) <= 1e-9
          and abs(f_star - 0.25) <= 1e-3
          and period_half_pi <= 1e-9
          and period_pi <= 1e-9
          and not_quarter_periodic
          and elapsed < 30.0)
    report(7, "spin-model landmarks", ok,
           f"S={s_unrestricted:.10f}, S_D={s_restricted:.10f}, "
           f"F*={f_star:.5f}, period defects ({period_half_pi:.1e}, "
           f"{period_pi:.1e}), {elapsed:.1f} s")


def test_criterion_8_method_equivalence():
    start = time.perf_counter()
    gaps = {}
    for width in (1.0, 2.0, 4.0):
        eq = method_equivalence(MODEL, Region(0.0, width / 2.0),
                                n_bins=200, n_basis=40)
        gaps[width] = eq.gap
    elapsed = time.perf_counter() - start
    ok = all(gap <= 1e-3 for gap in gaps.values()) and elapsed < 120.0
    report(8, "grid/basis method equivalence (extrapolated)", ok,
           ", ".join(f"width {w}: gap {g:.2e}" for w, g in gaps.items())
           + f", {elapsed:.1f} s")


def test_criterion_9_inequality_suite():
    start = time.perf_counter()
    results = []
    for cells in (4, 8):
        partition = Partition.uniform(-4.0, 4.0, cells)
        reportage = partition_inequality_check(MODEL, partition, partition)
        results.append((cells, reportage.slack))
    identity, mixture, gap = non_discarding_two_path(MODEL, Region(0.0, 1.0))
    negativity_precise = precise_measurement_entanglement(MODEL, Region(0.0, 1.0))
    elapsed = time.perf_counter() - start
    ok = (all(slack >= -1e-6 for _, slack in results)
          and gap <= 1e-6
          and negativity_precise <= 1e-8
          and elapsed < 300.0)
    report(9, "measurement-ensemble inequality suite", ok,
           f"slacks {[f'{c}x{c}: {s:.4f}' for c, s in results]}, "
           f"two-path gap {gap:.2e}, precise negativity "
           f"{negativity_precise:.2e}, {elapsed:.1f} s")


def test_criterion_10_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = []

    # LOCC ordering on random placements
    full = gaussian_eof(MODEL)
    for _ in range(4):
        center = rng.uniform(-1.5, 1.5)
        half_width = rng.uniform(0.3, 1.5)
        one = one_restricted_entropy(MODEL, Region(center, half_width),
                                     n_bins=150)
        both = both_restricted_entropy(MODEL, Region(center, half_width),
                                       Region(rng.uniform(-1, 1), half_width),
                                       n_bins=80)
        if not (both.entanglement <= one.entanglement + 1e-6
                and one.entanglement <= full + 1e-6):
            failures.append("locc ordering")

    # mirror symmetry of the one-restricted profile
    for _ in range(4):
        center = rng.uniform(0.2, 2.0)
        half_width = rng.uniform(0.2, 1.0)
        left = one_restricted_entropy(MODEL, Region(-center, half_width),
                                      n_bins=100)
        right = one_restricted_entropy(MODEL, Region(center, half_width),
                                       n_bins=100)
        if abs(left.entanglement - right.entanglement) > 1e-9:
            failures.append("mirror symmetry")

    # grid refinement convergence at random widths
    for _ in range(3):
        half_width = rng.uniform(0.25, 2.0)
        coarse = one_restricted_entropy(MODEL, Region(0.0, half_width),
                                        n_bins=200)
        fine = one_restricted_entropy(MODEL, Region(0.0, half_width),
                                      n_bins=400)
        if abs(coarse.entanglement - fine.entanglement) > 2e-3:
            failures.append("refinement convergence")

    # eigensolver reconstruction residual on random mixtures
    for _ in range(4):
        dim = int(rng.integers(8, 64))
        a = rng.standard_normal((dim, dim))
        rho = a @ a.T + 1e-6 * np.eye(dim)
        rho /= np.trace(rho)
        spectrum, vectors = eigen_symmetric(DensityMatrix(rho), vectors=True)
        rebuilt = (vectors * spectrum.eigenvalues) @ vectors.T
        if np.abs(rebuilt - rho).max() > 1e-9 * np.abs(rho).max():
            failures.append("eigensolver residual")

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    report(10, "randomized property suite", ok,
           ("no violations" if not failures else f"violations: {failures}")
           + f", {elapsed:.1f} s")
