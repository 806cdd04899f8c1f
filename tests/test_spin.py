import math

import numpy as np
import pytest

import entloc.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entloc.errors import DomainError, ZeroNormSubspace
from entloc.linalg import DensityMatrix, eigen_symmetric, negativity
from entloc.spin import (
    SINGULAR_TRACE,
    build_mixed_state,
    build_pure_state,
    negativity_vanish_point,
    negativity_vs_purity,
    spin_entropy,
    spin_negativity,
    spin_scan,
)
from test_linalg import projector, reduce_to_party, von_neumann_entropy

QUARTER = math.pi / 4.0

# pair angles in [0, 2 pi], with extra weight within 1e-7 of the singular
# points 0 and pi/2 of the moment filter
ANGLES = st.one_of(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1e-7),
                   st.floats(math.pi / 2.0 - 1e-7, math.pi / 2.0 + 1e-7))
PURITIES = st.one_of(st.just(1.0), st.floats(1.0 / 16.0, 1.0))


# -- the 16x16 reference: the moment filter on explicit states -----------------

_INDEX = np.arange(16)
# Zero-moment masks: Alice's two spins differ (a1 != a2), Bob's differ (b1 != b2).
_MS0 = {"A": (((_INDEX >> 3) ^ (_INDEX >> 2)) & 1).astype(np.float64),
        "B": (((_INDEX >> 1) ^ _INDEX) & 1).astype(np.float64)}
_MS0_BOTH = _MS0["A"] * _MS0["B"]
_MS0_BOTH_OUTER = np.outer(_MS0_BOTH, _MS0_BOTH)


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


def pure_entropy(psi: np.ndarray) -> float:
    """Entropy of Alice's pair: the 16x16 projector, traced over Bob's pair."""
    return von_neumann_entropy(reduce_to_party(projector(psi), (4, 4), "A"))


def matrix_cell(measure, theta1, theta2, F, restricted):
    """(value, survival probability) of one cell on the 16x16 matrices.

    The entropy of the pure state's or the negativity of the mixed state's
    A|B cut, after the moment filter when restricted (probability 1
    otherwise); a cell that does not survive the filter raises
    ZeroNormSubspace. The unrestricted negativity is the computation the
    unrestricted F sweep makes.
    """
    if measure == "entropy":
        state, value = build_pure_state(theta1, theta2), pure_entropy
    else:
        state, value = build_mixed_state(theta1, theta2, F), lambda rho: negativity(rho, (4, 4))
    p = 1.0
    if restricted:
        state, p = restrict_ms0(state)
    return value(state), p


def library_cell(measure, theta1, theta2, F, restricted):
    if measure == "entropy":
        return spin_entropy(theta1, theta2, restricted)
    return spin_negativity(theta1, theta2, F, restricted)


def analytic_restricted(theta1, theta2):
    """Independent construction of the filtered state.

    Only the cross terms (pair one up-up with pair two down-down and vice
    versa) put each party in the zero-moment subspace; basis indices 5 and
    10 in the (A1, A2, B1, B2) ordering.
    """
    amp_a = math.cos(theta1) * math.sin(theta2)
    amp_b = math.sin(theta1) * math.cos(theta2)
    vec = np.zeros(16)
    vec[0b0101] = amp_a
    vec[0b1010] = amp_b
    norm = math.hypot(amp_a, amp_b)
    return vec / norm, norm**2


class TestPureState:
    def test_aligned_angles_give_basis_state(self):
        psi = build_pure_state(0.0, 0.0)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.allclose(psi, expected)

    def test_double_bell_amplitudes(self):
        psi = build_pure_state(QUARTER, QUARTER)
        nonzero = np.nonzero(psi)[0]
        assert list(nonzero) == [0, 5, 10, 15]
        assert np.allclose(psi[nonzero], 0.5)

    def test_unit_norm(self):
        rng = np.random.default_rng(123)
        for theta1, theta2 in rng.uniform(0, 2 * math.pi, size=(10, 2)):
            psi = build_pure_state(theta1, theta2)
            assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_double_bell_marginal_maximally_mixed(self):
        # brute-force partial trace of the 16-component vector
        psi = build_pure_state(QUARTER, QUARTER)
        rho = np.outer(psi, psi)
        marginal = np.zeros((4, 4))
        for i_a in range(4):
            for j_a in range(4):
                marginal[i_a, j_a] = sum(rho[4 * i_a + k, 4 * j_a + k]
                                         for k in range(4))
        assert np.allclose(marginal, np.eye(4) / 4.0, atol=1e-12)
        reduced = reduce_to_party(projector(psi), (4, 4), "A")
        assert np.allclose(reduced.elements, marginal, atol=1e-14)


class TestProjectors:
    """The moment filter of restrict_ms0 on basis states and mixtures."""

    @staticmethod
    def keeps(i):
        a1, a2, b1, b2 = (i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1
        return a1 != a2 and b1 != b2

    def test_masks_follow_the_bits(self):
        for i in range(16):
            basis = np.eye(16)[i]
            if self.keeps(i):
                survivor, p = restrict_ms0(basis)
                assert np.array_equal(survivor, basis) and p == 1.0
            else:
                with pytest.raises(ZeroNormSubspace):
                    restrict_ms0(basis)

    def test_idempotent(self):
        # filtering twice equals filtering once
        rng = np.random.default_rng(7)
        psi = rng.normal(size=16)
        once, _ = restrict_ms0(psi / np.linalg.norm(psi))
        twice, p_again = restrict_ms0(once)
        assert np.array_equal(twice != 0.0, once != 0.0)
        assert np.allclose(twice, once, rtol=0.0, atol=1e-15)
        assert p_again == pytest.approx(1.0, abs=1e-15)
        rho = build_mixed_state(0.3, 1.1, 0.6)
        once_rho, _ = restrict_ms0(rho)
        twice_rho, p_rho = restrict_ms0(once_rho)
        assert np.allclose(twice_rho.elements, once_rho.elements, rtol=0.0, atol=1e-15)
        assert p_rho == pytest.approx(1.0, abs=1e-15)

    def test_ranks(self):
        # 4 of the 16 components survive
        survivor, p = restrict_ms0(np.full(16, 0.25))
        assert list(np.nonzero(survivor)[0]) == [i for i in range(16) if self.keeps(i)]
        assert len(np.nonzero(survivor)[0]) == 4
        assert p == pytest.approx(0.25, abs=1e-15)
        mixed, p_mixed = restrict_ms0(DensityMatrix(np.eye(16) / 16.0))
        assert np.linalg.matrix_rank(mixed.elements) == 4
        assert p_mixed == pytest.approx(0.25, abs=1e-15)


class TestMixedState:
    def test_pure_limit(self):
        psi = build_pure_state(0.3, 1.1)
        rho = build_mixed_state(0.3, 1.1, 1.0)
        assert np.allclose(rho.elements, np.outer(psi, psi), atol=1e-14)

    def test_maximally_mixed_limit(self):
        rho = build_mixed_state(0.3, 1.1, 1.0 / 16.0)
        assert np.allclose(rho.elements, np.eye(16) / 16.0, atol=1e-14)
        assert spin_negativity(0.3, 1.1, 1.0 / 16.0) <= 1e-12

    def test_trace_and_positivity(self):
        for f in (1.0 / 16.0, 0.25, 0.6, 1.0):
            rho = build_mixed_state(QUARTER, 0.2, f)
            assert np.trace(rho.elements) == pytest.approx(1.0, abs=1e-12)
            lam = eigen_symmetric(rho).eigenvalues
            assert lam[-1] >= -1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            build_mixed_state(0.1, 0.1, 0.02)
        with pytest.raises(DomainError):
            build_mixed_state(0.1, 0.1, 1.01)


class TestRestriction:
    def test_double_bell_projection(self):
        psi, p = restrict_ms0(build_pure_state(QUARTER, QUARTER))
        assert p == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros(16)
        expected[0b0101] = expected[0b1010] = 1.0 / math.sqrt(2.0)
        assert np.allclose(psi, expected, atol=1e-12)

    def test_single_survivor_is_product(self):
        psi, _ = restrict_ms0(build_pure_state(QUARTER, 0.0))
        assert spin_entropy(QUARTER, 0.0, restricted=True) == \
            pytest.approx(0.0, abs=1e-12)
        assert np.count_nonzero(np.abs(psi) > 1e-14) == 1

    def test_singularity(self):
        with pytest.raises(ZeroNormSubspace):
            restrict_ms0(build_pure_state(0.0, 0.0))

    def test_matches_analytic_form(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 100:
            theta1, theta2 = rng.uniform(0, 2 * math.pi, size=2)
            if 1.0 - math.cos(2 * theta1) * math.cos(2 * theta2) <= 1e-3:
                continue
            count += 1
            psi, p = restrict_ms0(build_pure_state(theta1, theta2))
            expected, expected_p = analytic_restricted(theta1, theta2)
            # global sign is irrelevant
            sign = 1.0 if np.dot(psi, expected) >= 0 else -1.0
            assert np.allclose(psi, sign * expected, atol=1e-12)
            assert p == pytest.approx(expected_p, abs=1e-12)

    def test_survival_probability_analytic(self):
        rng = np.random.default_rng(11)
        for theta1, theta2 in rng.uniform(0, 2 * math.pi, size=(50, 2)):
            p_analytic = 0.5 * (1.0 - math.cos(2.0 * theta1) * math.cos(2.0 * theta2))
            if p_analytic < 1e-9:
                continue
            _, p = restrict_ms0(build_pure_state(theta1, theta2))
            assert p == pytest.approx(p_analytic, abs=1e-12)

    def test_mixed_state_restriction(self):
        rho, p = restrict_ms0(build_mixed_state(QUARTER, QUARTER, 0.5))
        assert np.trace(rho.elements) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < p < 1.0


class TestEntropy:
    def test_double_bell_two_ebits(self):
        assert spin_entropy(QUARTER, QUARTER) == pytest.approx(2.0, abs=1e-12)

    def test_one_bell_pair(self):
        assert spin_entropy(QUARTER, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_restricted_single_ebit(self):
        assert spin_entropy(QUARTER, QUARTER, restricted=True) == \
            pytest.approx(1.0, abs=1e-12)

    def test_restricted_maximum_on_equal_angles(self):
        for theta in (0.3, 0.8, 1.2, 2.0):
            assert spin_entropy(theta, theta, restricted=True) == \
                pytest.approx(1.0, abs=1e-9)
            assert spin_entropy(theta + math.pi, theta, restricted=True) == \
                pytest.approx(1.0, abs=1e-9)


class TestNegativity:
    def test_pure_unrestricted(self):
        assert spin_negativity(QUARTER, QUARTER, 1.0) == \
            pytest.approx(1.5, abs=1e-12)

    def test_pure_restricted(self):
        assert spin_negativity(QUARTER, QUARTER, 1.0, restricted=True) == \
            pytest.approx(0.5, abs=1e-12)

    def test_boundary_value(self):
        assert spin_negativity(QUARTER, QUARTER, 0.25) <= 1e-6
        assert spin_negativity(QUARTER, QUARTER, 0.25, restricted=True) <= 1e-6

    def test_monotone_in_purity(self):
        values = [spin_negativity(QUARTER, QUARTER, f)
                  for f in np.arange(1.0 / 16.0, 1.0 + 1e-9, 0.01)]
        assert np.all(np.diff(values) >= -1e-12)

    def test_vanish_point(self):
        assert negativity_vanish_point(QUARTER, QUARTER) == \
            pytest.approx(0.25, abs=1e-4)
        assert negativity_vanish_point(QUARTER, QUARTER, restricted=True) == \
            pytest.approx(0.25, abs=1e-4)

    @staticmethod
    def bisected_vanish_point(theta1, theta2, restricted):
        """F* to 1e-6 by bisection of the 16x16 negativity against a 1e-9 floor."""
        def matrices(f):
            return matrix_cell("negativity", theta1, theta2, f, restricted)[0]
        lo, hi = 1.0 / 16.0, 1.0
        if matrices(hi) <= 1e-9:
            return hi
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if matrices(mid) > 1e-9:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("theta1,theta2", [
        (QUARTER, QUARTER), (0.3, 1.1), (0.2, 0.0), (2.0, 4.4), (0.7, 0.7),
        (1.0, 0.05), (1e-9, 0.5)])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_vanish_point_equals_bisection(self, theta1, theta2, restricted):
        assert negativity_vanish_point(theta1, theta2, restricted) == \
            pytest.approx(self.bisected_vanish_point(theta1, theta2, restricted),
                          abs=1e-6)

    def test_vanish_point_edges(self):
        # m = 0: the negativity vanishes at every F < 1
        assert negativity_vanish_point(0.0, 0.0) == 1.0
        assert negativity_vanish_point(0.2, 0.0, restricted=True) == 1.0
        with pytest.raises(ZeroNormSubspace):
            negativity_vanish_point(0.0, 0.0, restricted=True)
        with pytest.raises(DomainError):
            negativity_vanish_point(math.nan, 0.3)


class TestOutcomeBranches:
    def test_probabilities_sum_to_one(self):
        branches = ms0_outcome_branches(build_pure_state(0.7, 1.9))
        assert sum(p for _, p, _ in branches) == pytest.approx(1.0, abs=1e-12)

    def test_cross_outcomes_empty(self):
        # each superposition term puts both parties in the same moment class
        branches = dict(((label, (p, state)) for label, p, state in
                         ms0_outcome_branches(build_pure_state(0.7, 1.9))))
        assert branches[(True, False)][0] <= 1e-12
        assert branches[(False, True)][0] <= 1e-12

    def test_concentration_inequality_on_grid(self):
        # averaging the conditional entanglement over all measurement
        # branches can never beat the unrestricted entanglement
        thetas = np.linspace(0.05, math.pi - 0.05, 12)
        for theta1 in thetas:
            for theta2 in thetas:
                psi = build_pure_state(theta1, theta2)
                total = spin_entropy(theta1, theta2)
                average = 0.0
                for _, p, state in ms0_outcome_branches(psi):
                    if state is None:
                        continue
                    average += p * pure_entropy(state)
                assert average <= total + 1e-9


class TestScan:
    def test_unrestricted_period_half_pi(self):
        thetas = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        surface = spin_scan(thetas, thetas).values
        shift = 8  # pi/2 in grid steps
        assert np.abs(surface - np.roll(surface, shift, axis=0)).max() <= 1e-9
        assert np.abs(surface - np.roll(surface, shift, axis=1)).max() <= 1e-9

    def test_restricted_period_pi(self):
        thetas = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        dist = spin_scan(thetas, thetas, restricted=True)
        surface = np.where(dist.mask, np.nan, dist.values)
        shift = 16  # pi in grid steps
        rolled = np.roll(surface, shift, axis=0)
        both = np.isfinite(surface) & np.isfinite(rolled)
        assert np.abs(surface[both] - rolled[both]).max() <= 1e-9
        # mask pattern itself must be pi-periodic
        assert np.array_equal(dist.mask, np.roll(dist.mask, shift, axis=0))
        # but the surface is NOT pi/2-periodic
        quarter = np.roll(surface, 8, axis=0)
        overlap = np.isfinite(surface) & np.isfinite(quarter)
        assert np.abs(surface[overlap] - quarter[overlap]).max() > 0.1

    def test_delta_positive_somewhere(self):
        thetas = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        dist = spin_scan(thetas, thetas, restricted=True)
        assert np.nanmax(dist.extra["delta"]) > 0.0

    def test_singular_points_masked(self):
        thetas = np.linspace(0, math.pi, 8)  # includes 0 and pi
        dist = spin_scan(thetas, thetas, restricted=True)
        assert dist.mask[0, 0]
        assert np.isnan(dist.values[0, 0])
        assert not dist.mask[3, 3]

    def test_negativity_scan(self):
        thetas = np.linspace(0, math.pi, 8)
        dist = spin_scan(thetas, thetas, measure="negativity", F=0.65)
        assert dist.values.max() > 0.0
        assert dist.values.min() >= 0.0

    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            spin_scan([0.1], [0.1, 0.2])

    def test_domain_errors(self):
        thetas = [0.1, 0.2]
        with pytest.raises(DomainError):
            spin_scan(thetas, thetas, measure="concurrence")
        for measure in ("negativity", "entropy"):
            for f in (0.05, 1.01, math.nan):
                with pytest.raises(DomainError):
                    spin_scan(thetas, thetas, measure=measure, F=f)
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError):
                spin_scan([0.1, bad], thetas)

    @given(ANGLES, ANGLES, PURITIES, st.sampled_from(["entropy", "negativity"]),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_scan_cell_matches_the_matrices(self, theta1, theta2, F, measure,
                                            restricted):
        # the library cell is the scan's cell bit for bit; both are within
        # 1e-12 of the 16x16 matrices, and prob equals the filtered matrix's
        # trace or norm exactly
        dist = spin_scan([theta1, 0.5], [theta2, 0.5], measure=measure,
                         restricted=restricted, F=F)
        value, prob, masked = dist.values[0, 0], dist.extra["prob"][0, 0], dist.mask[0, 0]
        try:
            want, p = matrix_cell(measure, theta1, theta2, F, restricted)
        except ZeroNormSubspace:
            assert restricted and masked and prob == 0.0 and np.isnan(value)
            with pytest.raises(ZeroNormSubspace):
                library_cell(measure, theta1, theta2, F, restricted)
            return
        assert not masked and prob == p
        assert value == library_cell(measure, theta1, theta2, F, restricted)
        assert value == pytest.approx(want, abs=1e-12)
        if restricted:
            base, _ = matrix_cell(measure, theta1, theta2, F, False)
            assert dist.extra["delta"][0, 0] == pytest.approx(want - base, abs=1e-12)

    @pytest.mark.parametrize("measure,F", [("entropy", 1.0), ("negativity", 0.65),
                                           ("negativity", 1.0)])
    @pytest.mark.parametrize("restricted", [False, True])
    def test_scan_equals_cellwise_values(self, measure, F, restricted):
        thetas = np.linspace(0, math.pi, 5)  # (0, 0) is singular when F = 1
        dist = spin_scan(thetas, thetas, measure=measure, restricted=restricted, F=F)
        singular = 0
        for i, a in enumerate(thetas):
            for j, b in enumerate(thetas):
                value, prob = dist.values[i, j], dist.extra["prob"][i, j]
                try:
                    want, p = matrix_cell(measure, a, b, F, restricted)
                except ZeroNormSubspace:
                    singular += 1
                    assert dist.mask[i, j] and prob == 0.0 and np.isnan(value)
                    with pytest.raises(ZeroNormSubspace):
                        library_cell(measure, a, b, F, restricted)
                    continue
                assert not dist.mask[i, j] and prob == p
                assert value == library_cell(measure, a, b, F, restricted)
                assert value == pytest.approx(want, abs=1e-12)
                if restricted:
                    base, _ = matrix_cell(measure, a, b, F, False)
                    assert dist.extra["delta"][i, j] == pytest.approx(want - base, abs=1e-12)
        assert (singular > 0) == (restricted and F == 1.0)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_negativity_vs_purity_equals_cellwise(self, restricted):
        # the restricted sweep is the closed form, held to the matrices at the
        # bound test_scan_equals_cellwise_values gives it (below F* the
        # matrices leave round-off of about 1e-17 where it gives exact 0); the
        # unrestricted sweep is the matrices' own computation, so it equals
        # them exactly; prob and the mask equal the matrices' trace exactly
        f_values = np.linspace(1.0 / 16.0, 1.0, 5)
        for theta1, theta2 in ((0.0, 0.0), (QUARTER, 0.3)):  # (0, 0) at F = 1 is singular
            dist = negativity_vs_purity(theta1, theta2, f_values, restricted=restricted)
            for i, f in enumerate(f_values):
                value, prob = dist.values[i, 0], dist.extra["prob"][i, 0]
                try:
                    want, p = matrix_cell("negativity", theta1, theta2, f, restricted)
                except ZeroNormSubspace:
                    assert restricted and (theta1, f) == (0.0, 1.0)
                    assert dist.mask[i, 0] and prob == 0.0 and np.isnan(value)
                    continue
                assert not dist.mask[i, 0] and prob == p
                if restricted:
                    assert value == pytest.approx(want, abs=1e-12)
                else:
                    assert value == want

    def test_negativity_vs_purity_sweep(self):
        f_values = np.linspace(1.0 / 16.0, 1.0, 16)
        for restricted in (False, True):
            dist = negativity_vs_purity(QUARTER, QUARTER, f_values,
                                        restricted=restricted)
            values = dist.values[:, 0]
            assert values[0] <= 1e-9            # maximally mixed
            assert values[-1] > 0.4             # pure
            assert np.all(np.diff(values) >= -1e-12)
            below = f_values <= 0.25
            assert np.all(values[below] <= 1e-9)


class TestPuritySweep:
    """negativity_vs_purity: the restricted sweep on the closed form, the
    unrestricted one on the 16x16 matrices."""

    @given(ANGLES, ANGLES, st.lists(PURITIES, min_size=1, max_size=8))
    @example(QUARTER, QUARTER, np.linspace(1.0 / 16.0, 1.0, 128).tolist())  # the CLI's sweep
    @example(0.0, 0.0, [1.0, 0.5])  # singular at F = 1
    @settings(max_examples=200, deadline=None)
    def test_restricted_sweep_is_the_scan_cell_bit_for_bit(self, theta1, theta2, f_values):
        dist = negativity_vs_purity(theta1, theta2, f_values, restricted=True)
        for i, f in enumerate(f_values):
            cell = spin_scan([theta1, 0.5], [theta2, 0.5], measure="negativity",
                             restricted=True, F=f)
            for got, want in ((dist.values, cell.values), (dist.mask, cell.mask),
                              (dist.extra["prob"], cell.extra["prob"])):
                assert got[i, 0].tobytes() == want[0, 0].tobytes()

    @pytest.mark.parametrize("theta1,theta2", [(QUARTER, QUARTER), (QUARTER, 0.3),
                                               (0.3, 1.1), (1e-7, 0.5)])
    def test_restricted_sweep_is_exactly_zero_below_the_vanish_point(self, theta1, theta2):
        f_star = negativity_vanish_point(theta1, theta2, restricted=True)
        f_values = np.linspace(1.0 / 16.0, 1.0, 128)
        values = negativity_vs_purity(theta1, theta2, f_values, restricted=True).values[:, 0]
        below = f_values < f_star
        assert below.any() and not below.all()
        assert np.all(values[below] == 0.0)
        assert np.all(values[~below] >= 0.0)

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("f_values,named", [([0.5, 0.05, 1.5], "0.05"),
                                                ([0.0625, 1.01], "1.01"),
                                                ([0.5, math.nan], "nan")])
    def test_out_of_range_purity_refused_naming_the_first(self, restricted, f_values, named):
        refusal = rf"^F must lie in \[1/16, 1\], got {named}$"
        with pytest.raises(DomainError, match=refusal):
            negativity_vs_purity(QUARTER, QUARTER, f_values, restricted=restricted)
        with pytest.raises(DomainError, match=refusal):  # the single cell at that F
            spin_negativity(QUARTER, QUARTER, float(named), restricted)

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_refused(self, restricted, bad):
        for theta1, theta2 in ((bad, 0.3), (0.3, bad)):
            for call in (lambda: negativity_vs_purity(theta1, theta2, [0.5],
                                                      restricted=restricted),
                         lambda: spin_entropy(theta1, theta2, restricted),
                         lambda: spin_negativity(theta1, theta2, 0.5, restricted)):
                with pytest.raises(DomainError, match="pair angles must be finite"):
                    call()

    @pytest.mark.parametrize("restricted", [False, True])
    def test_matrix_calls_per_sweep(self, monkeypatch, restricted):
        calls = {"DensityMatrix": 0, "eigen_symmetric": 0}
        post_init, eigen = DensityMatrix.__post_init__, entloc.linalg.eigen_symmetric

        def counting_post_init(self):
            calls["DensityMatrix"] += 1
            post_init(self)

        def counting_eigen(*args, **kwargs):
            calls["eigen_symmetric"] += 1
            return eigen(*args, **kwargs)

        monkeypatch.setattr(DensityMatrix, "__post_init__", counting_post_init)
        monkeypatch.setattr(entloc.linalg, "eigen_symmetric", counting_eigen)
        n = 16
        negativity_vs_purity(QUARTER, QUARTER, np.linspace(1.0 / 16.0, 1.0, n),
                             restricted=restricted)
        expected = {"DensityMatrix": 0, "eigen_symmetric": 0} if restricted else \
            {"DensityMatrix": 2 * n, "eigen_symmetric": n}
        assert calls == expected, (
            "bench/tests/test_check.py::test_tracer_counts_exactly_and_restores pins the "
            "unrestricted sweep at one eigensolve and two validated matrices per F; a "
            "change to these counts moves that pin with ROADMAP item 1")
