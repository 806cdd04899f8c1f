import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entloc.errors import DivergentWidth, DomainError
from entloc.linalg import binary_entropy
from entloc.oscillator import (
    ALPHA_LIMIT,
    OscillatorModel,
    classical_widths,
    concurrence_density,
    gaussian_eof,
    ground_state_constants,
    marginal_position_density,
    reduced_density_value,
    small_a_entanglement_both,
    small_a_entanglement_one,
    small_a_epsilon_both,
    small_a_epsilon_one,
    spectral_weight,
    two_particle_wavefunction,
)
from entloc.quadrature import integrate_1d


def joint_position_density(model, qa, qb):
    """Normalized two-particle position density |psi(q_a, q_b)|^2; vectorized.

    The reference for joint masses: |psi|^2 factorizes over the normal modes
    (q_a + q_b) and (q_a - q_b).
    """
    qa = np.asarray(qa, dtype=np.float64)
    qb = np.asarray(qb, dtype=np.float64)
    c_plus = 0.25
    c_minus = model.stiffness_root / 4.0
    norm = 2.0 * math.sqrt(c_plus * c_minus) / math.pi
    u = qa + qb
    v = qa - qb
    return norm * np.exp(-c_plus * u * u - c_minus * v * v)


def square_integral(f, lo, hi, n=256):
    """n x n Gauss-Legendre product rule for a vectorized f(x, y) over [lo, hi]^2."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    weights = 0.5 * (hi - lo) * w
    return float(weights @ f(nodes[:, None], nodes[None, :]) @ weights)


def spectral_weight_highprec(alpha, dps=60):
    """Extended-precision evaluation of the raw rational form of w."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        s = mp.sqrt(1 + 4 * a)
        num = 1 + 3 * s + 2 * (a - (1 + 4 * a) ** mp.mpf("0.25")
                               - (1 + 4 * a) ** mp.mpf("0.75"))
        den = 1 + 2 * a - s
        return float(num / den)


class TestGroundStateConstants:
    def test_alpha_six_exact_fractions(self):
        gs = ground_state_constants(OscillatorModel(alpha=6))
        assert gs.c1 == pytest.approx(7.0 / 12.0, abs=1e-15)
        assert gs.c2 == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert gs.sigma == pytest.approx(math.sqrt(3.0 / 5.0), abs=1e-15)

    def test_uncoupled_limit(self):
        gs = ground_state_constants(OscillatorModel(alpha=0))
        assert gs.c2 == 0.0
        assert gs.sigma == pytest.approx(1.0, abs=1e-15)
        assert gs.eof == 0.0

    def test_length_consistency(self):
        # 4 (c1 - c2) = 1 / sigma^2 links the kernel to the marginal width
        for alpha in (0.06, 0.5, 1.0, 6.0, 25.0):
            gs = ground_state_constants(OscillatorModel(alpha=alpha))
            assert 4.0 * (gs.c1 - gs.c2) == pytest.approx(1.0 / gs.sigma**2,
                                                          abs=1e-12)

    def test_l_matrix_entries(self):
        gs = ground_state_constants(OscillatorModel(alpha=6))
        assert np.allclose(gs.l_matrix, [[0.75, -0.5], [-0.5, 0.75]])

    def test_positivity_ordering(self):
        for alpha in (0.01, 1.0, 10.0):
            gs = ground_state_constants(OscillatorModel(alpha=alpha))
            assert gs.c2 >= 0.0
            assert gs.c1 > gs.c2

    def test_invalid_model(self):
        with pytest.raises(DomainError):
            OscillatorModel(alpha=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan-alpha", "inf-alpha"])
    def test_non_finite_model(self, value):
        with pytest.raises(DomainError):
            OscillatorModel(alpha=value)

    def test_couplings_from_the_limit_on_refused(self):
        # 2^210: t = (1 + 4 alpha)^(1/4) reaches 2^53, and a few doubles on the
        # spectral weight rounds to 1; at 2^214 and past it, it always does
        largest = np.nextafter(ALPHA_LIMIT, 0.0)
        assert ALPHA_LIMIT == 2.0 ** 210
        model = OscillatorModel(alpha=largest)
        assert spectral_weight(model) < 1.0
        assert math.isfinite(gaussian_eof(model))
        for alpha in (ALPHA_LIMIT, 2.0 ** 214, 1e300, sys.float_info.max):
            with pytest.raises(DomainError, match="below 2\\^210"):
                OscillatorModel(alpha=alpha)
        rounds_to_one = [ALPHA_LIMIT]
        while len(rounds_to_one) < 8:
            rounds_to_one.append(np.nextafter(rounds_to_one[-1], math.inf))
        t = (1.0 + 4.0 * rounds_to_one[-1]) ** 0.25
        assert ((t - 1.0) / (t + 1.0)) ** 2 == 1.0

    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(0.0, float(np.nextafter(2.0 ** 210, 0.0))))
    def test_weight_below_one_below_the_limit(self, alpha):
        model = OscillatorModel(alpha=alpha)
        assert spectral_weight(model) < 1.0
        assert math.isfinite(gaussian_eof(model))


class TestSpectralWeight:
    def test_matches_extended_precision(self):
        # the stable rearrangement must track the raw formula evaluated in
        # 60-digit arithmetic, including couplings where float64 fails
        for alpha in (1e-6, 1e-3, 0.06, 0.1, 1.0, 6.0, 50.0):
            stable = spectral_weight(OscillatorModel(alpha=alpha))
            assert stable == pytest.approx(spectral_weight_highprec(alpha),
                                           rel=1e-13)

    def test_matches_kernel_spectrum_ratio(self):
        # independent route: the Gaussian kernel's geometric eigenvalue
        # ratio is c2 / (c1 + sqrt(c1^2 - c2^2))
        for alpha in (0.06, 1.0, 6.0):
            gs = ground_state_constants(OscillatorModel(alpha=alpha))
            ratio = gs.c2 / (gs.c1 + math.sqrt(gs.c1**2 - gs.c2**2))
            assert gs.w == pytest.approx(ratio, rel=1e-12)


class TestGaussianEof:
    def test_alpha_six(self):
        assert gaussian_eof(OscillatorModel(alpha=6)) == \
            pytest.approx(0.7018824866054367, abs=1e-12)

    def test_uncoupled_zero(self):
        assert gaussian_eof(OscillatorModel(alpha=0)) == 0.0

    def test_weak_coupling(self):
        assert gaussian_eof(OscillatorModel(alpha=0.06)) == \
            pytest.approx(0.00859, rel=5e-3)

    def test_strictly_increasing(self):
        alphas = np.arange(0.01, 10.0 + 1e-9, 0.01)
        values = [gaussian_eof(OscillatorModel(alpha=a)) for a in alphas]
        assert np.all(np.diff(values) > 0.0)


class TestReducedDensity:
    def test_diagonal_is_marginal_gaussian(self):
        model = OscillatorModel(alpha=6)
        gs = ground_state_constants(model)
        q = np.linspace(-2, 2, 9)
        expected = np.exp(-q**2 / (2 * gs.sigma**2)) / (gs.sigma * math.sqrt(2 * math.pi))
        assert np.allclose(reduced_density_value(model, q, q), expected,
                           atol=1e-14)

    @pytest.mark.parametrize("alpha", [1e4, 1e8, 1e12])
    def test_strong_coupling_diagonal_against_mpmath(self, alpha):
        # c1 and c2 each grow like sqrt(alpha)/8; the diagonal must not
        # inherit the cancellation of their difference
        model = OscillatorModel(alpha=alpha)
        with mp.workdps(40):
            s = mp.sqrt(1 + 4 * mp.mpf(alpha))
            sigma = 1 / mp.sqrt(2 * s / (1 + s))
            q = np.linspace(-3.0, 3.0, 13) * float(sigma)
            expected = np.array([float(mp.npdf(mp.mpf(x), 0, sigma)) for x in q])
        got = marginal_position_density(model, q)
        assert np.all(np.abs(got - expected) <= 1e-14 * expected)

    def test_origin_value(self):
        value = reduced_density_value(OscillatorModel(alpha=6), 0.0, 0.0)
        assert value == pytest.approx(math.sqrt((2 * 5.0 / 12.0) / math.pi),
                                      abs=1e-12)

    def test_argument_symmetry(self):
        model = OscillatorModel(alpha=2.5)
        assert reduced_density_value(model, 1.3, -0.2) == \
            pytest.approx(reduced_density_value(model, -0.2, 1.3), abs=1e-15)

    def test_diagonal_integrates_to_one(self):
        for alpha in (0.06, 1.0, 6.0):
            model = OscillatorModel(alpha=alpha)
            sigma = ground_state_constants(model).sigma
            mass = integrate_1d(lambda q: marginal_position_density(model, q),
                                -8 * sigma, 8 * sigma)
            assert mass == pytest.approx(1.0, abs=1e-10)

    def test_matches_numerical_marginalization(self):
        # quadrature of psi(qa, qb) psi(qa', qb) over qb, normalized, must
        # reproduce the closed-form kernel
        rng = np.random.default_rng(20)
        for alpha in (0.06, 1.0, 6.0):
            model = OscillatorModel(alpha=alpha)
            norm = square_integral(
                lambda qa, qb: two_particle_wavefunction(model, qa, qb)**2, -12, 12)
            for qa, qa_prime in rng.uniform(-1.5, 1.5, size=(20, 2)):
                overlap = integrate_1d(
                    lambda qb: two_particle_wavefunction(model, qa, qb)
                    * two_particle_wavefunction(model, qa_prime, qb),
                    -12, 12)
                assert overlap / norm == pytest.approx(
                    reduced_density_value(model, qa, qa_prime), abs=1e-8)


class TestWavefunction:
    def test_symmetric_mode_is_spring_free(self):
        q = np.linspace(-2, 2, 7)
        for alpha in (0.0, 1.0, 6.0):
            model = OscillatorModel(alpha=alpha)
            assert np.allclose(two_particle_wavefunction(model, q, q),
                               np.exp(-0.5 * q**2), atol=1e-14)

    def test_antisymmetric_mode_narrows(self):
        model = OscillatorModel(alpha=6)
        q = np.linspace(-1.5, 1.5, 7)
        s = model.stiffness_root
        assert np.allclose(two_particle_wavefunction(model, q, -q),
                           np.exp(-0.5 * s * q**2), atol=1e-14)

    def test_origin(self):
        assert two_particle_wavefunction(OscillatorModel(alpha=3), 0.0, 0.0) == 1.0

    def test_joint_density_normalized(self):
        for alpha in (0.0, 6.0):
            model = OscillatorModel(alpha=alpha)
            mass = square_integral(
                lambda qa, qb: joint_position_density(model, qa, qb), -12, 12)
            assert mass == pytest.approx(1.0, abs=1e-10)


class TestSmallRegionLimits:
    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_half_widths_must_be_finite_and_positive(self, bad):
        model = OscillatorModel(alpha=6)
        with pytest.raises(DomainError, match="half width"):
            small_a_epsilon_one(model, bad)
        for a, b in ((bad, 0.1), (0.1, bad)):
            with pytest.raises(DomainError, match="half widths"):
                small_a_epsilon_both(model, a, b)

    def test_weight_past_one_half_refused(self):
        model = OscillatorModel(alpha=6)
        # eps_one = a^2 / 9 at alpha 6: 1/2 at a = sqrt(4.5)
        assert small_a_epsilon_one(model, 2.0) == pytest.approx(4.0 / 9.0, rel=1e-14)
        for a in (2.5, 10.0, 1e200):
            with pytest.raises(DomainError, match="half width .* past 1/2"):
                small_a_epsilon_one(model, a)
            with pytest.raises(DomainError, match="past 1/2"):
                small_a_entanglement_one(model, a)
        # eps_both = a^2 b^2 / 9 at alpha 6
        assert small_a_epsilon_both(model, 1.0, 2.0) == pytest.approx(4.0 / 9.0, rel=1e-14)
        for a, b in ((1.0, 3.0), (3.0, 1.0), (10.0, 10.0)):
            with pytest.raises(DomainError, match="half widths .* past 1/2"):
                small_a_epsilon_both(model, a, b)
            with pytest.raises(DomainError, match="past 1/2"):
                small_a_entanglement_both(model, a, b)

    def test_epsilon_one_value(self):
        eps = small_a_epsilon_one(OscillatorModel(alpha=6), 0.1)
        assert eps == pytest.approx(1.0 / 900.0, abs=1e-15)

    def test_epsilon_one_uncoupled(self):
        # 0 at every width, also where a * a overflows (1e200)
        for alpha in (0.0, 1e-20):
            for a in (0.3, 1e200):
                assert small_a_epsilon_one(OscillatorModel(alpha=alpha), a) == 0.0

    def test_epsilon_one_quadratic_scaling(self):
        model = OscillatorModel(alpha=2.0)
        assert small_a_epsilon_one(model, 0.2) == \
            pytest.approx(4.0 * small_a_epsilon_one(model, 0.1), abs=1e-15)

    def test_epsilon_both_value(self):
        eps = small_a_epsilon_both(OscillatorModel(alpha=6), 0.1, 0.1)
        assert eps == pytest.approx(1e-4 / 9.0, abs=1e-18)

    def test_epsilon_both_symmetry(self):
        model = OscillatorModel(alpha=3.0)
        assert small_a_epsilon_both(model, 0.1, 0.3) == \
            pytest.approx(small_a_epsilon_both(model, 0.3, 0.1), abs=1e-18)

    def test_epsilon_both_uncoupled(self):
        for alpha in (0.0, 1e-20):
            for a, b in ((0.1, 0.1), (1e200, 1.0), (1.0, 1e200)):
                assert small_a_epsilon_both(OscillatorModel(alpha=alpha), a, b) == 0.0

    def test_concurrence_density_value(self):
        assert concurrence_density(OscillatorModel(alpha=6)) == \
            pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_concurrence_density_uncoupled(self):
        assert concurrence_density(OscillatorModel(alpha=0)) == 0.0

    def test_concurrence_density_relates_to_epsilon(self):
        # eps_both = (density * a * b / 2)^2, verified across couplings
        for alpha in (0.06, 1.0, 6.0, 20.0):
            model = OscillatorModel(alpha=alpha)
            density = concurrence_density(model)
            for a, b in ((0.1, 0.1), (0.3, 0.7)):
                assert small_a_epsilon_both(model, a, b) == \
                    pytest.approx((density * a * b / 2.0) ** 2, rel=1e-12)

    def test_small_region_entropy_is_binary_entropy(self):
        model = OscillatorModel(alpha=6)
        eps = small_a_epsilon_one(model, 0.1)
        assert binary_entropy(eps) == pytest.approx(0.012506, abs=1e-6)


class TestClassicalWidths:
    def test_alpha_six_values(self):
        widths = classical_widths(OscillatorModel(alpha=6))
        assert widths.as_tuple() == pytest.approx(
            (1.41421, 0.63246, 0.86603, 0.57735, 0.50000), abs=5e-6)

    def test_sigma_plus_coupling_independent(self):
        w_weak = classical_widths(OscillatorModel(alpha=0.06))
        w_strong = classical_widths(OscillatorModel(alpha=6))
        assert w_weak.sigma_plus == pytest.approx(w_strong.sigma_plus, abs=1e-15)

    def test_sigma_minus_decreases(self):
        values = [classical_widths(OscillatorModel(alpha=a)).sigma_minus
                  for a in (0.5, 1.0, 6.0, 50.0)]
        assert np.all(np.diff(values) < 0.0)

    def test_divergent_at_zero_coupling(self):
        with pytest.raises(DivergentWidth):
            classical_widths(OscillatorModel(alpha=0))
