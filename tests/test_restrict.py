import math
import re
import sys
import traceback
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entloc.correlate import joint_probability, probability_map
from entloc.distribution import scan_axis
from entloc.errors import DomainError, EmptyRegionMass, NoConvergence, QuadratureNotConverged
from entloc.linalg import (
    EIGENVALUE_CLAMP,
    DensityMatrix,
    binary_entropy,
    eigen_symmetric,
    negativity,
    partial_transpose,
    spectral_entropy_bits,
)
from entloc.oscillator import (
    OscillatorModel,
    gaussian_eof,
    ground_state_constants,
    reduced_density_value,
    small_a_epsilon_both,
    small_a_epsilon_one,
    two_particle_wavefunction,
)
from entloc.quadrature import gauss_legendre, grid_gauss
from entloc.restrict import (
    DEFAULT_BINS_ONE,
    DOMAIN_HALF_LENGTH,
    EMPTY_MASS,
    ERF_COEFFS,
    ERFC_COEFFS,
    ERFC_SHIFT,
    KERNEL_BYTES,
    MAX_NODES,
    NEAR_ZERO_WIDTH,
    Partition,
    Region,
    basis_expansion_entropy,
    both_restricted_entropy,
    both_restricted_profile,
    joint_masses,
    method_equivalence,
    non_discarding_entanglement,
    non_discarding_two_path,
    one_party_map,
    one_restricted_entropy,
    partition_inequality_check,
    precise_measurement_entanglement,
    region_basis,
    _amplitudes,
    _erf_near_zero,
    _erfc,
    _grid_points,
    _normal_interval,
    _normalized_eigvalsh,
    _orbit_masses,
    _rule,
    _schmidt_nodes,
    _segments,
    _two_party_orbits,
    two_party_map,
    two_party_nodes,
)

MODEL = OscillatorModel(alpha=6)
WEAK = OscillatorModel(alpha=0.06)
UNCOUPLED = OscillatorModel(alpha=0)


def _sides(a_lo, a_hi, b_lo, b_hi, n, n_bins=None):
    """Nodes and weights of both sides of two-party cells, n per region on
    the rule that n_bins selects, as a two-party cell takes them."""
    return (*_rule(a_lo, a_hi, n, n_bins), *_rule(b_lo, b_hi, n, n_bins))


def _cell_weights(model, *sides):
    """Normalized Schmidt weights of two-party cells on the nodes and weights
    sides, in ascending order, as the cells take them: the eigenvalues of the
    Gram matrix M M^T of each amplitude matrix M."""
    m = _amplitudes(model, *sides)
    return _normalized_eigvalsh(np.matmul(m, m.transpose(0, 2, 1)))


class TestErfcKernel:
    def test_against_mpmath(self):
        rng = np.random.default_rng(19)
        x = np.concatenate([np.linspace(-6.0, 26.0, 3201), rng.uniform(-6.0, 26.0, 3000)])
        with mp.workdps(32):
            expected = np.array([float(mp.erfc(mp.mpf(float(v)))) for v in x])
        assert np.all(np.abs(_erfc(x) - expected) <= 1e-15 * expected)

    def test_special_values_and_underflow_as_math_erfc(self):
        special = np.array([0.0, -0.0, math.inf, -math.inf])
        assert _erfc(special).tolist() == [math.erfc(v) for v in special] == [1, 1, 0, 2]
        assert math.isnan(_erfc(np.array([math.nan]))[0])
        x = np.concatenate([np.linspace(26.0, 40.0, 28001),
                            [1e3, 1e300, np.finfo(np.float64).max]])
        # the 3000 doubles on each side of the first grid point where it underflows
        first = x[[math.erfc(v) == 0.0 for v in x].index(True)]
        below, above = [first], [first]
        for _ in range(3000):
            below.append(np.nextafter(below[-1], -math.inf))
            above.append(np.nextafter(above[-1], math.inf))
        x = np.concatenate([x, below, above])
        zero = np.array([math.erfc(v) == 0.0 for v in x])
        assert zero.sum() > 3000
        assert np.all(_erfc(x)[zero] == 0.0)
        assert np.all(_erfc(-x[zero]) == 2.0)

    def test_coefficients_rebuilt_from_mpmath(self):
        # R(t) = (P(t) - 1) / (1 + t), P = (1 + 2x) exp(x^2) erfc(x) with x =
        # ERFC_SHIFT (1 + t) / (1 - t): its Chebyshev interpolant on 64 points
        # at 40 digits, truncated to 24 terms, in monomials of t
        with mp.workdps(40):
            shift = mp.mpf(ERFC_SHIFT)

            def r(t):
                x = shift * (1 + t) / (1 - t)
                return ((1 + 2 * x) * mp.exp(x * x) * mp.erfc(x) - 1) * (x + shift) / (2 * x)

            angles = [mp.pi * (j + mp.mpf(1) / 2) / 64 for j in range(64)]
            values = [r(mp.cos(angle)) for angle in angles]
            cheb = [mp.fsum(v * mp.cos(k * angle) for v, angle in zip(values, angles)) / 32
                    for k in range(26)]
            cheb[0] /= 2
            assert abs(cheb[24]) < 1e-17 and abs(cheb[25]) < 1e-17  # the first terms left out
            zero = [mp.mpf(0)] * 24
            basis = [[mp.mpf(1)] + zero[1:], [mp.mpf(0), mp.mpf(1)] + zero[2:]]
            while len(basis) < 24:  # T_(k+1) = 2 t T_k - T_(k-1)
                basis.append([2 * a - b for a, b in zip([mp.mpf(0)] + basis[-1][:-1],
                                                        basis[-2])])
            mono = [mp.fsum(c * poly[i] for c, poly in zip(cheb, basis)) for i in range(24)]
            rebuilt = [float(m) for m in mono]
        np.testing.assert_allclose(ERFC_COEFFS, rebuilt, rtol=2.0 ** -52, atol=0.0)

    def test_same_bits_in_any_block_and_call(self, monkeypatch):
        import entloc.restrict as restrict
        x = np.random.default_rng(7).uniform(-8.0, 30.0, 3000)
        whole = _erfc(x)
        monkeypatch.setattr(restrict, "ERFC_BLOCK", 7)
        assert _erfc(x).tobytes() == whole.tobytes()
        assert _erfc(x.reshape(30, 100)).tobytes() == whole.tobytes()
        singles = np.concatenate([_erfc(x[i:i + 1]) for i in range(0, x.size, 37)])
        assert singles.tobytes() == whole[::37].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(lo=st.floats(-27.0, 27.0), width=st.floats(0.0, 20.0))
    @example(lo=-1.0, width=3.0)    # straddles 0
    @example(lo=-5.0, width=2.0)    # flipped: both edges below 0
    @example(lo=-26.0, width=6.0)   # far out below 0
    @example(lo=20.0, width=6.0)    # far out above 0
    @example(lo=27.0, width=0.25)   # subnormal masses
    @example(lo=26.75, width=0.0078125)
    @example(lo=-0.0, width=0.0)
    def test_normal_interval_against_mpmath(self, lo, width):
        hi = lo + width
        got = float(_normal_interval(np.array([lo]), np.array([hi]))[0])
        # 400 digits resolve 1 - erf(27), about 5e-319
        with mp.workdps(400):
            expected = (mp.erf(hi) - mp.erf(lo)) / 2
            tails = mp.erfc(-hi) + mp.erfc(-lo) if hi < 0 else mp.erfc(lo) + mp.erfc(hi)
        # each erfc within 5e-16 relative: the difference within that of the tails
        assert abs(got - float(expected)) <= 1e-15 * float(tails)

    def test_near_zero_erf_against_mpmath(self):
        rng = np.random.default_rng(23)
        x = np.concatenate([np.linspace(0.0, NEAR_ZERO_WIDTH, 2001),
                            NEAR_ZERO_WIDTH * rng.random(2000),
                            np.geomspace(1e-300, NEAR_ZERO_WIDTH, 600), [5e-324]])
        with mp.workdps(32):
            expected = np.array([float(mp.erf(mp.mpf(float(v)))) for v in x])
        got = _erf_near_zero(x)
        assert np.all(np.abs(got - expected) <= 4e-16 * expected)
        assert (_erf_near_zero(-x) == -got).all()  # odd bit for bit

    def test_near_zero_coefficients_rebuilt_from_mpmath(self):
        # 2 (-1)^n / (sqrt(pi) n! (2n + 1)); the first left out is below 3e-18
        # of erf(x) ~ 2x / sqrt(pi) at the width
        with mp.workdps(40):
            terms = [2 * (-1) ** n / (mp.sqrt(mp.pi) * mp.factorial(n) * (2 * n + 1))
                     for n in range(len(ERF_COEFFS) + 1)]
            left_out = abs(terms[-1]) * mp.mpf(NEAR_ZERO_WIDTH) ** (2 * len(ERF_COEFFS))
            assert left_out / terms[0] < 3e-18
            rebuilt = [float(t) for t in terms[:-1]]
        assert list(ERF_COEFFS) == rebuilt

    @settings(max_examples=300, deadline=None)
    @given(log_hi=st.floats(-300.0, math.log10(NEAR_ZERO_WIDTH)), lo_share=st.floats(-1.0, 1.0))
    @example(log_hi=math.log10(5e-15), lo_share=-1.0)  # the alpha 1e60 cell's Bob intervals
    @example(log_hi=-1.0, lo_share=0.0)                # one edge at 0
    @example(log_hi=-1.0, lo_share=-1.0)
    @example(log_hi=math.log10(NEAR_ZERO_WIDTH) - 1e-12, lo_share=-0.3)
    @example(log_hi=math.log10(2e-12), lo_share=0.5)   # [1e-12, 2e-12], one side of 0
    @example(log_hi=math.log10(1.0001e-4), lo_share=1.0 / 1.0001)
    @example(log_hi=math.log10(0.1001), lo_share=0.1 / 0.1001)
    def test_narrow_interval_near_zero_against_mpmath(self, log_hi, lo_share):
        hi = 10.0 ** log_hi
        lo = lo_share * hi  # straddles 0 for lo_share <= 0
        assume(lo < hi < NEAR_ZERO_WIDTH and hi - lo < NEAR_ZERO_WIDTH)
        got = _normal_interval(np.array([lo, -hi]), np.array([hi, -lo]))
        with mp.workdps(40):
            expected = float((mp.erf(hi) - mp.erf(lo)) / 2)
        # relative: a difference of two erfc values near 1 would be off by
        # about 1e-16 / (hi - lo). Two erf values were off by at most 1.7 eps
        # when they straddle 0, and 1.8 eps max(|lo|, |hi|) / (hi - lo) on one
        # side of it (about 150,000 random intervals, half one-sided); the
        # bound is 2.25 eps in either unit
        scale = max(1.0, max(abs(lo), abs(hi)) / (hi - lo))
        assert abs(got[0] - expected) <= 5e-16 * scale * expected
        assert got[0] == got[1]  # the mirror image takes the same bits

    def test_wider_intervals_keep_the_erfc_difference(self):
        # from NEAR_ZERO_WIDTH on, an interval near 0 (one that straddles it,
        # or one side of it reaching NEAR_ZERO_WIDTH) takes the erfc
        # difference, bit for bit (the README's commands meet no straddling
        # interval narrower than 0.36); below it, the sum of two erf values
        rng = np.random.default_rng(29)
        width = np.repeat([0.2, NEAR_ZERO_WIDTH, 0.3, 0.36], 200)
        straddling = -rng.random(width.size) * width
        one_sided = rng.random(width.size) * 0.1
        lo = np.concatenate([straddling, one_sided, -one_sided - width])
        hi = lo + np.tile(width, 3)
        tails = _erfc(np.stack((lo, hi)))
        tails = np.where(hi < 0.0, _erfc(np.stack((-hi, -lo))), tails)
        wide = (hi - lo >= NEAR_ZERO_WIDTH) | (np.maximum(hi, -lo) >= NEAR_ZERO_WIDTH)
        assert wide.sum() > 1800 and (~wide[width.size:]).sum() > 150
        got = _normal_interval(lo, hi)
        assert got[wide].tobytes() == (0.5 * (tails[0] - tails[1]))[wide].tobytes()
        sums = np.where(hi < 0.0, _erf_near_zero(-lo) + _erf_near_zero(hi),
                        _erf_near_zero(hi) + _erf_near_zero(-lo))
        assert got[~wide].tobytes() == (0.5 * sums)[~wide].tobytes()


class TestRegionTypes:
    def test_region_bounds(self):
        region = Region(center=1.0, half_width=0.5)
        assert region.lo == 0.5 and region.hi == 1.5 and region.width == 1.0

    def test_region_validation(self):
        with pytest.raises(DomainError):
            Region(center=0.0, half_width=0.0)

    @pytest.mark.parametrize("center,half_width", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)])
    def test_region_rejects_non_finite(self, center, half_width):
        with pytest.raises(DomainError):
            Region(center=center, half_width=half_width)

    def test_partition_uniform(self):
        partition = Partition.uniform(-4.0, 4.0, 4)
        assert partition == ((-4.0, -2.0, 0.0, 2.0, 4.0), "truncate")
        centers, halves = _segments(partition)
        assert centers.tolist() == [-3.0, -1.0, 1.0, 3.0]
        assert halves.tolist() == [1.0] * 4

    @pytest.mark.parametrize("edges", [
        (), (0.0,),                                      # fewer than 2 edges
        (0.0, 0.0), (1.0, 0.0), (0.0, 2.0, 1.0),         # not strictly increasing
        (1e8, 1e8 + 2.0, 1e8 + 2.0),                     # a repeated edge far out
        (0.0, math.nan), (-math.inf, 0.0), (0.0, 1.0, math.inf),
    ])
    def test_edges_refused_before_any_mass(self, edges, monkeypatch):
        import entloc.restrict as restrict
        monkeypatch.setattr(restrict, "joint_masses", None)
        for partitions in ((Partition(edges), Partition((0.0, 1.0))),
                           (Partition((0.0, 1.0)), Partition(edges))):
            with pytest.raises(DomainError, match="strictly increasing"):
                partition_inequality_check(MODEL, *partitions)

    def test_unknown_tail_handling_refused(self, monkeypatch):
        import entloc.restrict as restrict
        monkeypatch.setattr(restrict, "joint_masses", None)
        with pytest.raises(DomainError, match="unknown tail handling 'wrap'"):
            partition_inequality_check(MODEL, Partition((0.0, 1.0), "wrap"),
                                       Partition((0.0, 1.0)))

    @pytest.mark.parametrize("extent", [1e-12, 1.0, 1e8, 1e9, 1e300])
    @pytest.mark.parametrize("n_segments", [3, 7])
    def test_uniform_partition_is_contiguous_at_any_scale(self, extent, n_segments):
        # segment k ends where segment k + 1 begins: both are edge k + 1
        partition = Partition.uniform(-extent, extent, n_segments)
        edges = np.array(partition.edges)
        assert edges.size == n_segments + 1 and np.all(np.diff(edges) > 0.0)
        assert edges[0] == -extent and edges[-1] == extent
        centers, halves = _segments(partition)
        assert np.all(halves > 0.0)
        assert np.allclose(centers - halves, edges[:-1], rtol=1e-15, atol=0.0)
        assert np.allclose(centers + halves, edges[1:], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("call", [
        lambda: one_restricted_entropy(MODEL, Region(0.0, 1.0), n_bins=1),
        lambda: both_restricted_entropy(MODEL, Region(0.0, 1.0), Region(0.0, 1.0), n_bins=1),
        lambda: one_party_map(MODEL, [0.0, 1.0], widths=[1.0], n_bins=1),
        lambda: two_party_map(MODEL, [0.0, 1.0], centers_b=[0.0], half_width=0.5,
                              n_bins=1),
        lambda: both_restricted_profile(MODEL, [0.0, 1.0], 0.5, n_bins=1),
        lambda: partition_inequality_check(MODEL, Partition.uniform(-4, 4, 2),
                                           Partition.uniform(-4, 4, 2), n_bins=1),
        lambda: precise_measurement_entanglement(MODEL, Region(0.0, 1.0), n_bins=1),
        # the coarse grid of a 3-bin comparison has 1 bin
        lambda: method_equivalence(MODEL, Region(0.0, 1.0), n_bins=3),
    ], ids=["one", "both", "one-party-map", "two-party-map", "profile", "partition",
            "precise", "method-equivalence"])
    def test_resolution_below_its_floor_refused_before_any_mass(self, call, monkeypatch):
        import entloc.restrict as restrict
        masses = []
        for name in ("integrate_1d", "marginal_masses", "joint_masses"):
            monkeypatch.setattr(restrict, name, lambda *a, _name=name: masses.append(_name))
        with pytest.raises(DomainError, match="n_bins must be >= 2"):
            call()
        assert masses == []


class TestOneRestricted:
    def test_saturates_to_full_entanglement(self):
        result = one_restricted_entropy(MODEL, Region(0.0, 5.0),
                                        n_bins=200)
        assert result.entanglement == pytest.approx(gaussian_eof(MODEL),
                                                    abs=5e-3)
        assert result.survival_probability == pytest.approx(1.0, abs=1e-6)

    def test_small_region_matches_analytic_limit(self):
        result = one_restricted_entropy(MODEL, Region(0.0, 0.025),
                                        n_bins=200)
        expected = binary_entropy(small_a_epsilon_one(MODEL, 0.025))
        assert result.entanglement == pytest.approx(expected, rel=0.10)

    def test_uncoupled_product_state(self):
        result = one_restricted_entropy(UNCOUPLED, Region(0.4, 0.8))
        assert result.entanglement <= 1e-8

    def test_empty_region(self):
        with pytest.raises(EmptyRegionMass):
            one_restricted_entropy(MODEL, Region(40.0, 0.5))

    def test_kernel_budget_refuses_before_any_array(self, monkeypatch):
        import entloc.restrict as restrict

        def refuse(*args):
            raise AssertionError("a mass or kernel was computed")
        with monkeypatch.context() as patch:
            for name in ("region_survival_probability", "reduced_density_value"):
                patch.setattr(restrict, name, refuse)
            with pytest.raises(QuadratureNotConverged, match="8193-point grid kernel"):
                one_restricted_entropy(MODEL, Region(0.0, 1.0), n_bins=8192)
        # the budget's edge: a 41 x 41 kernel fits 8 * 41^2 bytes, 42 x 42 does not
        monkeypatch.setattr(restrict, "KERNEL_BYTES", 8 * 41 ** 2)
        assert one_restricted_entropy(MODEL, Region(0.0, 1.0), n_bins=40).resolution == 40
        with pytest.raises(QuadratureNotConverged, match="42-point grid kernel"):
            one_restricted_entropy(MODEL, Region(0.0, 1.0), n_bins=41)

    def test_grid_refinement_convergence(self):
        for width in (0.5, 2.0, 4.0):
            coarse = one_restricted_entropy(
                MODEL, Region(0.0, width / 2), n_bins=200)
            fine = one_restricted_entropy(
                MODEL, Region(0.0, width / 2), n_bins=400)
            assert abs(coarse.entanglement - fine.entanglement) <= 2e-3

    def test_monotone_saturation_in_width(self):
        values = [one_restricted_entropy(MODEL, Region(0.0, a),
                                         n_bins=100).entanglement
                  for a in np.linspace(0.1, 6.0, 24)]
        assert np.all(np.diff(values) >= -1e-6)

    def test_assembled_matrix_positivity(self):
        # each restricted matrix, trace-normalized, has a spectrum of
        # non-negative weights summing to 1, and its entropy is the cell's
        import entloc.restrict as restrict
        for region in (Region(0.0, 1.0), Region(2.0, 0.3), Region(-1.5, 2.0)):
            result = one_restricted_entropy(MODEL, region, n_bins=150)
            points = np.linspace(region.lo, region.hi, 151)
            entropy, spectrum = restrict._entropy_and_spectrum(
                reduced_density_value(MODEL, points[:, None], points[None, :]))
            assert spectrum.eigenvalues[-1] >= -1e-9
            assert spectrum.eigenvalues.sum() == pytest.approx(1.0, abs=1e-10)
            assert (entropy, spectrum.size) == (result.entanglement, result.spectrum_size)
        # the basis projection's weights as well
        spectra = []
        solve = restrict._normalized_eigvalsh
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(restrict, "_normalized_eigvalsh",
                          lambda m: spectra.append(solve(m)) or spectra[-1])
            basis = basis_expansion_entropy(MODEL, Region(0.0, 1.0), 30)
        (weights,) = spectra
        assert weights.shape == (basis.spectrum_size,)
        assert weights.min() >= -1e-9
        assert weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert float(spectral_entropy_bits(weights)) == basis.entanglement
        # and the Schmidt weights of a two-party cell
        both = both_restricted_entropy(MODEL, Region(0.5, 1.0), Region(-0.5, 0.7))
        width, bounds, _ = _two_party_orbits([0.5], 1.0, [-0.5], 0.7)
        weights = _cell_weights(MODEL, *_sides(*bounds, both.resolution))
        assert weights.shape == (1, both.spectrum_size)
        assert weights.min() >= -1e-9
        assert weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert float(spectral_entropy_bits(weights)[0]) == both.entanglement

    def test_basis_method_dispatch(self, monkeypatch):
        import entloc.restrict as restrict
        masses = []
        closed_form = restrict.marginal_masses
        monkeypatch.setattr(restrict, "marginal_masses",
                            lambda *a, **k: masses.append(1) or closed_form(*a, **k))
        monkeypatch.setattr(restrict, "integrate_1d", None)  # no adaptive quadrature
        result = basis_expansion_entropy(MODEL, Region(0.0, 1.0), 24)
        assert result.resolution == 24
        assert result.entanglement > 0.0
        assert len(masses) == 1  # the region mass is computed once, in closed form
        assert result.survival_probability == float(closed_form(MODEL, -1.0, 1.0))
        with pytest.raises(EmptyRegionMass, match=r"region \[49.8, 50.2\] carries mass"):
            basis_expansion_entropy(MODEL, Region(50.0, 0.2), 24)


class TestBasisExpansion:
    def test_gram_matrix_orthonormal(self):
        region = Region(0.3, 1.0)
        nodes, weights = gauss_legendre(region.lo, region.hi, 16, 24)
        phi = region_basis(region, 40, nodes)
        gram = (phi * weights[None, :]) @ phi.T
        assert np.abs(gram - np.eye(40)).max() <= 1e-10

    def test_rank_one_truncation(self):
        result = basis_expansion_entropy(MODEL, Region(0.0, 1.0), 1)
        assert result.entanglement == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.one_of(st.just(0.0), st.floats(-2.0, 4.0).map(lambda e: 10.0 ** e)),
           center=st.floats(-3.0, 3.0), width=st.floats(0.1, 10.0),
           n_basis=st.integers(1, 120))
    @example(alpha=1e4, center=0.0, width=10.0, n_basis=120)
    @example(alpha=359.5, center=0.09, width=9.74, n_basis=137)
    def test_rule_and_twice_the_rule_agree(self, alpha, center, width, n_basis):
        import entloc.restrict as restrict
        model, region = OscillatorModel(alpha=alpha), Region(center, width / 2.0)
        base = basis_expansion_entropy(model, region, n_basis)
        nodes = restrict._basis_nodes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(restrict, "_basis_nodes", lambda m, w, n: 2 * nodes(m, w, n))
            fine = basis_expansion_entropy(model, region, n_basis)
        assert base.survival_probability == fine.survival_probability
        assert base.spectrum_size == fine.spectrum_size == n_basis
        assert abs(base.entanglement - fine.entanglement) <= 1e-13

    @settings(max_examples=40, deadline=None)
    @given(log_alpha=st.floats(-1.5, 4.0), center=st.floats(-2.0, 2.0),
           half=st.floats(0.1, 5.0), n_basis=st.integers(1, 80))
    def test_one_eigvalsh_is_the_dense_state_route(self, log_alpha, center, half, n_basis):
        # the reference is the trace-normalized DensityMatrix of the same
        # projection and its eigen_symmetric; 3000 random cells of this domain
        # agreed to 1.5e-14 ebit
        import entloc.restrict as restrict
        model, region = OscillatorModel(alpha=10.0 ** log_alpha), Region(center, half)
        result = basis_expansion_entropy(model, region, n_basis)
        nodes, weights = restrict._panel_rule(
            region.lo, region.hi, restrict._basis_nodes(model, region.width, n_basis))
        phi_w = region_basis(region, n_basis, nodes) * weights[None, :]
        projected = phi_w @ reduced_density_value(model, nodes[:, None], nodes[None, :]) @ phi_w.T
        sym = 0.5 * (projected + projected.T)
        spectrum = eigen_symmetric(DensityMatrix(sym / np.trace(sym)))
        assert result.spectrum_size == spectrum.size == n_basis
        assert abs(result.entanglement - float(spectral_entropy_bits(spectrum.eigenvalues))) <= 3e-14

    def test_single_kernel_cells_skip_the_dense_state_layer(self, monkeypatch):
        # the basis cell and the non-discarding ensemble are each one
        # normalized eigvalsh of their assembled matrix
        import entloc.restrict as restrict

        def refuse(*args, **kwargs):
            raise AssertionError("a single-kernel cell reached the dense-state layer")
        expected = (basis_expansion_entropy(MODEL, Region(0.3, 1.0), 40),
                    non_discarding_entanglement(MODEL, Region(0.5, 1.0)))
        for name in ("DensityMatrix", "eigen_symmetric", "_entropy_and_spectrum",
                     "_low_rank_factor"):
            monkeypatch.setattr(restrict, name, refuse)
        assert (basis_expansion_entropy(MODEL, Region(0.3, 1.0), 40),
                non_discarding_entanglement(MODEL, Region(0.5, 1.0))) == expected

    def test_one_kernel_on_one_rule(self, monkeypatch):
        import entloc.restrict as restrict
        shapes = []
        kernel = restrict.reduced_density_value
        monkeypatch.setattr(restrict, "reduced_density_value",
                            lambda m, x, y: shapes.append(np.broadcast(x, y).shape)
                            or kernel(m, x, y))
        region = Region(0.3, 1.0)
        result = basis_expansion_entropy(MODEL, region, 40)
        n = restrict._basis_nodes(MODEL, region.width, 40)
        # 8 + ceil(1.4 * 2 * sqrt(5)) spectral nodes and ceil(40 pi / 2) for the functions
        assert n == 15 + 63
        assert shapes == [(n, n)]
        assert result.resolution == result.spectrum_size == 40

    def test_rule_past_the_cap_uses_panels(self, monkeypatch):
        # alpha 6, width 4, 400 functions take 21 + 629 nodes: two panels of
        # 325, never one Gauss rule past MAX_NODES points
        import entloc.restrict as restrict
        rules = []
        rule = restrict.gauss_legendre
        monkeypatch.setattr(restrict, "gauss_legendre",
                            lambda lo, hi, n, panels=1: rules.append((n, panels))
                            or rule(lo, hi, n, panels))
        region = Region(0.2, 2.0)
        base = basis_expansion_entropy(MODEL, region, 400)
        assert rules == [(325, 2)]
        nodes = restrict._basis_nodes
        monkeypatch.setattr(restrict, "_basis_nodes", lambda m, w, n: 2 * nodes(m, w, n))
        fine = basis_expansion_entropy(MODEL, region, 400)
        assert rules[1] == (434, 3)
        assert abs(base.entanglement - fine.entanglement) <= 1e-13

    def test_kernel_budget_refuses_before_any_array(self, monkeypatch):
        import entloc.restrict as restrict

        def refuse(*args):
            raise AssertionError("a kernel or rule was built")
        strong, region = OscillatorModel(alpha=1e12), Region(0.0, 5.0)
        with monkeypatch.context() as patch:
            for name in ("gauss_legendre", "reduced_density_value"):
                patch.setattr(restrict, name, refuse)
            # the kernel's spectral rule, 8 + ceil(1.4 * 10 * sqrt(2e6)) nodes,
            # passes the cap before the functions' 63 nodes are added
            with pytest.raises(QuadratureNotConverged,
                               match=rf"need 1\.981e\+04 Gauss-Legendre nodes, .* cap of {MAX_NODES}"):
                basis_expansion_entropy(strong, region)
            # pi/2 n_basis would not fit a float
            with pytest.raises(QuadratureNotConverged, match="kernel budget"):
                basis_expansion_entropy(MODEL, region, 10 ** 400)
        # the budget's edge: 40 functions take 78 nodes, 41 take 15 + 65
        region = Region(0.3, 1.0)
        monkeypatch.setattr(restrict, "KERNEL_BYTES", 8 * 78 ** 2)
        assert basis_expansion_entropy(MODEL, region, 40).resolution == 40
        with pytest.raises(QuadratureNotConverged, match="80-node basis"):
            basis_expansion_entropy(MODEL, region, 41)

    def test_extrapolated_methods_agree(self):
        # both discretizations approach the continuum entropy with leading
        # error ~ 1/resolution; their Richardson limits must coincide
        eq = method_equivalence(MODEL, Region(0.0, 1.0), n_bins=200, n_basis=40)
        assert eq.gap <= 1e-3

    @settings(max_examples=40, deadline=None)
    @given(log_alpha=st.floats(-2.0, 4.0), center=st.floats(-3.0, 3.0),
           width=st.floats(0.1, 12.6), n_bins=st.integers(10, 400))
    def test_grid_values_are_the_dense_grid_eigensolve(self, log_alpha, center, width,
                                                        n_bins):
        # the grid values come from the one-party map engine; the dense
        # eigensolve of the same grid kernel is the single cell's
        model, region = OscillatorModel(alpha=10.0 ** log_alpha), Region(center, width / 2.0)
        eq = method_equivalence(model, region, n_bins=n_bins, n_basis=2)
        for value, n in ((eq.grid_coarse, n_bins // 2), (eq.grid_fine, n_bins)):
            assert value == pytest.approx(
                one_restricted_entropy(model, region, n).entanglement, abs=5e-14)

    def test_method_equivalence_refusals(self, monkeypatch):
        import entloc.restrict as restrict
        with pytest.raises(QuadratureNotConverged, match="cap of 512"):
            method_equivalence(OscillatorModel(alpha=1e12), Region(0.0, 0.5))
        projections = []
        monkeypatch.setattr(restrict, "reduced_density_value",
                            lambda *a: projections.append(1))
        with pytest.raises(EmptyRegionMass, match=r"region \[49.8, 50.2\] carries mass"):
            method_equivalence(MODEL, Region(50.0, 0.2))
        assert projections == []

    def test_raw_values_converge_to_common_limit(self):
        region = Region(0.0, 1.0)
        grid = [one_restricted_entropy(MODEL, region,
                                       n_bins=n).entanglement
                for n in (100, 200, 400, 800)]
        basis = [basis_expansion_entropy(MODEL, region, n).entanglement
                 for n in (20, 40, 80)]
        grid_limit = 2 * grid[-1] - grid[-2]
        basis_limit = 2 * basis[-1] - basis[-2]
        assert grid_limit == pytest.approx(basis_limit, abs=1e-3)
        # grid converges from above, basis truncation from below
        assert np.all(np.diff(grid) < 0)
        assert np.all(np.diff(basis) > 0)


class TestBothRestricted:
    def test_small_regions_match_analytic_limit(self):
        result = both_restricted_entropy(MODEL, Region(0.0, 0.05),
                                         Region(0.0, 0.05),
                                         n_bins=100)
        expected = binary_entropy(small_a_epsilon_both(MODEL, 0.05, 0.05))
        assert result.entanglement == pytest.approx(expected, rel=0.15)

    def test_large_regions_saturate(self):
        result = both_restricted_entropy(MODEL, Region(0.0, 5.0),
                                         Region(0.0, 5.0))
        assert result.entanglement == pytest.approx(gaussian_eof(MODEL),
                                                    abs=1e-2)

    def test_bob_measurement_cannot_help(self):
        one = one_restricted_entropy(MODEL, Region(0.5, 1.0),
                                     n_bins=100)
        for qb in (-1.0, 0.0, 0.5, 2.0):
            both = both_restricted_entropy(MODEL, Region(0.5, 1.0),
                                           Region(qb, 1.0))
            assert both.entanglement <= one.entanglement + 1e-6

    def test_uncoupled_zero(self):
        result = both_restricted_entropy(UNCOUPLED, Region(0.0, 1.0),
                                         Region(0.3, 0.5))
        assert result.entanglement <= 1e-8

    def test_locc_ordering_across_scan(self):
        full = gaussian_eof(MODEL)
        for center in np.linspace(-2.0, 2.0, 5):
            one = one_restricted_entropy(MODEL, Region(center, 1.0),
                                         n_bins=160)
            both = both_restricted_entropy(MODEL, Region(center, 1.0),
                                           Region(center, 1.0), n_bins=80)
            assert both.entanglement <= one.entanglement + 1e-6
            assert one.entanglement <= full + 1e-6


def dense_precise_state(model, region, n_bins):
    """The precise readout's whole state on Alice's and Bob's n_bins + 1 grid
    points each, a (n_bins + 1)^2-sided DensityMatrix assembled in one piece:
    the reference for the readout's stack of Alice's blocks."""
    qa = _grid_points(region, n_bins)
    qb = np.linspace(-DOMAIN_HALF_LENGTH, DOMAIN_HALF_LENGTH, n_bins + 1)
    psi = two_particle_wavefunction(model, qa[:, None], qb[None, :])
    n_a, n_b = psi.shape
    rho = np.zeros((n_a, n_b, n_a, n_b))
    i = np.arange(n_a)
    rho[i, :, i, :] = psi[:, :, None] * psi[:, None, :]
    rho = rho.reshape(n_a * n_b, n_a * n_b)
    return DensityMatrix(rho / np.trace(rho))


def precise_readout_with_eigenvalues(model, region, n_bins):
    """The readout's value and the eigenvalues of its stack, sorted."""
    import entloc.restrict as restrict
    solved = []

    def record(solver, stack):
        solved.append(solver(stack))
        return solved[-1]
    with mock.patch.object(restrict, "lapack", record):
        value = precise_measurement_entanglement(model, region, n_bins)
    assert len(solved) == 1
    return value, np.sort(solved[0], axis=None)


class TestPreciseMeasurement:
    def test_no_entanglement_survives(self):
        for region in (Region(0.0, 1.0), Region(1.0, 0.25)):
            assert precise_measurement_entanglement(MODEL, region) <= 1e-8

    def test_uncoupled(self):
        assert precise_measurement_entanglement(UNCOUPLED, Region(0.0, 1.0)) <= 1e-8

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.0, 100.0), center=st.floats(-3.0, 3.0),
           half_width=st.floats(0.01, 3.0), n_bins=st.integers(2, 12))
    def test_stack_matches_the_dense_partial_transpose(self, alpha, center, half_width, n_bins):
        model, region = OscillatorModel(alpha=alpha), Region(center, half_width)
        value, lam = precise_readout_with_eigenvalues(model, region, n_bins)
        state = dense_precise_state(model, region, n_bins)
        dims = (n_bins + 1, n_bins + 1)
        dense = np.linalg.eigvalsh(partial_transpose(state, dims).elements)
        # measured: within 1.5 eps over 3000 random draws
        np.testing.assert_allclose(lam, dense, rtol=0.0, atol=4 * np.finfo(float).eps)
        assert value <= 1e-12 and negativity(state, dims) <= 1e-12

    def test_matrix_budget_refuses_before_any_array(self, monkeypatch):
        import entloc.restrict as restrict

        class Built(Exception):
            pass

        def built(*args):
            raise Built
        monkeypatch.setattr(restrict, "two_particle_wavefunction", built)
        # the stack of 405 blocks of 405^2 values and three blocks besides fit
        # 512 MiB; 406 + 3 of 406^2 do not
        assert 8 * 405 ** 2 * 408 <= KERNEL_BYTES < 8 * 406 ** 2 * 409
        with pytest.raises(Built):
            precise_measurement_entanglement(MODEL, Region(0.0, 1.0), n_bins=404)
        for n_bins in (405, 500, 10 ** 6):
            with pytest.raises(QuadratureNotConverged, match=f"{n_bins + 1}-point"):
                precise_measurement_entanglement(MODEL, Region(0.0, 1.0), n_bins=n_bins)

    @pytest.mark.parametrize("n_bins", [20, 60])
    def test_peak_stays_within_the_budget(self, n_bins, monkeypatch):
        import entloc.restrict as restrict
        stack, block = 8 * (n_bins + 1) ** 3, 8 * (n_bins + 1) ** 2
        precise_measurement_entanglement(MODEL, Region(0.0, 1.0), 4)  # caches and imports
        # the least budget that admits this call holds its stack and three blocks
        # besides (the amplitudes, the eigenvalues and LAPACK's copy of one
        # block): its whole traced peak, but for numpy's buffers (8192 values each)
        monkeypatch.setattr(restrict, "KERNEL_BYTES", stack + 3 * block)
        tracemalloc.start()
        try:
            precise_measurement_entanglement(MODEL, Region(0.0, 1.0), n_bins)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stack < peak <= restrict.KERNEL_BYTES + (128 << 10)
        with pytest.raises(QuadratureNotConverged):
            precise_measurement_entanglement(MODEL, Region(0.0, 1.0), n_bins + 1)
        monkeypatch.setattr(restrict, "KERNEL_BYTES", stack + 3 * block - 1)
        with pytest.raises(QuadratureNotConverged):
            precise_measurement_entanglement(MODEL, Region(0.0, 1.0), n_bins)

    def test_off_diagonal_blocks_vanish(self):
        n = 8
        rho = dense_precise_state(MODEL, Region(0.0, 1.0), n).elements
        blocks = rho.reshape(n + 1, n + 1, n + 1, n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                if i != j:
                    assert np.all(blocks[i, :, j, :] == 0.0)


class TestNonDiscarding:
    def test_whole_domain_recovers_full_entanglement(self):
        half = DOMAIN_HALF_LENGTH
        result = non_discarding_entanglement(MODEL, Region(0.0, half * 0.999))
        assert result.entanglement == pytest.approx(gaussian_eof(MODEL),
                                                    abs=5e-3)

    def test_never_exceeds_full_entanglement(self):
        full = gaussian_eof(MODEL)
        for region in (Region(0.0, 1.0), Region(1.0, 0.5), Region(-0.5, 2.0)):
            result = non_discarding_entanglement(MODEL, region)
            assert result.entanglement <= full + 1e-6

    def test_two_path_identity(self):
        identity, mixture, gap = non_discarding_two_path(MODEL, Region(0.0, 1.0))
        assert gap <= 1e-6
        assert identity.entanglement == pytest.approx(
            identity.survival_probability * identity.entanglement_inside
            + (1 - identity.survival_probability) * identity.entanglement_outside,
            abs=1e-12)

    @staticmethod
    def reference(model, pieces, n=64):
        """Entropy of the reduced kernel, Gauss-Legendre Nystrom on n nodes per piece."""
        x, w = np.polynomial.legendre.leggauss(n)
        nodes = np.concatenate([0.5 * (hi - lo) * x + 0.5 * (hi + lo) for lo, hi in pieces])
        root_w = np.sqrt(np.concatenate([0.5 * (hi - lo) * w for lo, hi in pieces]))
        kernel = (root_w[:, None] * reduced_density_value(model, nodes[:, None], nodes[None, :])
                  * root_w[None, :])
        lam = np.linalg.eigvalsh(kernel / np.trace(kernel))
        lam = lam[lam > 1e-12]
        return float(-(lam * np.log2(lam)).sum())

    def test_off_centre_outside_entropy_converges(self):
        # The two parts of the complement of Region(0.5, 1) differ in length;
        # the outside entropy must equal the Gauss-Legendre Nystrom value of
        # the complement's kernel on 64 nodes per part.
        region = Region(0.5, 1.0)
        half = DOMAIN_HALF_LENGTH
        reference = self.reference(MODEL, ((-half, region.lo), (region.hi, half)))
        result = non_discarding_entanglement(MODEL, region)
        assert abs(result.entanglement_outside - reference) < 1e-10

    @pytest.mark.parametrize("alpha", [0.06, 6.0, 100.0])
    @pytest.mark.parametrize("region", [Region(0.0, 1.0), Region(0.5, 1.0)])
    def test_both_sides_match_the_nystrom_reference(self, alpha, region):
        model = OscillatorModel(alpha=alpha)
        half = DOMAIN_HALF_LENGTH
        result = non_discarding_entanglement(model, region)
        assert abs(result.entanglement_inside
                   - self.reference(model, ((region.lo, region.hi),))) < 1e-10
        assert abs(result.entanglement_outside
                   - self.reference(model, ((-half, region.lo), (region.hi, half)))) < 1e-10

    @staticmethod
    def mp_entropy(alpha, x, w):
        """Entropy of the Nystrom matrix d_g d_h exp(-c2 (x_g - x_h)^2), d =
        sqrt(w) exp(-x^2 / (4 sigma^2)), on the rule (x, w) at 34 digits:
        mpmath.eigsy of L^T L, L the matrix's pivoted Cholesky factor stopped
        once the trace left is below 1e-20 of the whole, which by Weyl's
        inequality moves no weight by more. eigsy of the whole 150-node outside
        matrix at alpha 100 takes 68 QL iterations without converging."""
        with mp.workdps(34):
            a = mp.mpf(alpha)
            s = mp.sqrt(1 + 4 * a)
            c2 = a * (s - 1) / (8 * (1 + 2 * a + s))
            inv_4sigma2 = s / (2 * (1 + s))
            xs = [mp.mpf(float(xg)) for xg in x]
            d = [mp.sqrt(mp.mpf(float(wg))) * mp.exp(-inv_4sigma2 * xg * xg)
                 for wg, xg in zip(w, xs)]
            left = [dg * dg for dg in d]
            total = sum(left)
            columns = []
            while sum(left) > mp.mpf(10) ** -20 * total:
                p = max(range(len(xs)), key=left.__getitem__)
                root = mp.sqrt(left[p])
                column = [(d[g] * d[p] * mp.exp(-c2 * (xs[g] - xs[p]) ** 2)
                           - mp.fdot((c[g], c[p]) for c in columns)) / root
                          for g in range(len(xs))]
                columns.append(column)
                left = [max(rest - v * v, mp.mpf(0)) for rest, v in zip(left, column)]
            gram = mp.matrix(len(columns), len(columns))
            for i, j in np.ndindex(len(columns), len(columns)):
                gram[i, j] = mp.fdot(columns[i], columns[j])
            lam = mp.eigsy(gram, eigvals_only=True)
            weights = [value / sum(lam) for value in lam]
            return float(-sum(p * mp.log(p, 2) for p in weights if p > EIGENVALUE_CLAMP))

    @pytest.mark.parametrize("alpha", [0.06, 6.0, 100.0])
    def test_both_sides_against_a_34_digit_eigensolve(self, alpha):
        # worst of the six 2.4e-15 (alpha 0.06, inside), as tight as a map cell
        import entloc.restrict as restrict
        model, region = OscillatorModel(alpha=alpha), Region(0.5, 1.0)
        half = DOMAIN_HALF_LENGTH
        result = non_discarding_entanglement(model, region)
        for value, pieces in ((result.entanglement_inside, [(region.lo, region.hi)]),
                              (result.entanglement_outside,
                               [(-half, region.lo), (region.hi, half)])):
            x, w = restrict._nodes_on(model, pieces)
            assert abs(value - self.mp_entropy(alpha, x[0], w[0])) <= 5e-14

    @given(st.floats(0.05, 1000.0), st.floats(-3.0, 3.0), st.floats(0.05, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_identity_bounds_and_convergence(self, alpha, center, half_width):
        import entloc.restrict as restrict
        model, region = OscillatorModel(alpha=alpha), Region(center, half_width)
        identity, mixture, gap = non_discarding_two_path(model, region)
        p = identity.survival_probability
        assert identity.entanglement == pytest.approx(
            p * identity.entanglement_inside + (1.0 - p) * identity.entanglement_outside,
            abs=1e-12)
        assert identity.locally_accessible <= identity.entanglement <= gaussian_eof(model) + 1e-9
        assert gap <= 1e-10
        nodes = restrict._schmidt_nodes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(restrict, "_schmidt_nodes",
                          lambda m, width, n_bins=None: 2 * nodes(m, width, n_bins))
            doubled = non_discarding_entanglement(model, region)
        assert abs(doubled.entanglement_inside - identity.entanglement_inside) <= 1e-10
        assert abs(doubled.entanglement_outside - identity.entanglement_outside) <= 1e-10

    def test_two_path_peak_memory(self):
        tracemalloc.start()
        try:
            non_discarding_two_path(MODEL, Region(0.0, 1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20

    def test_no_grid_cell_or_adaptive_mass(self, monkeypatch):
        import entloc.restrict as restrict

        def refuse(*args, **kwargs):
            raise AssertionError("the ensemble ran a grid cell or an adaptive mass")
        for name in ("integrate_1d", "one_restricted_entropy"):
            monkeypatch.setattr(restrict, name, refuse)
        non_discarding_two_path(MODEL, Region(0.5, 1.0))

    def test_bob_nodes_past_the_cap_refused(self):
        with pytest.raises(QuadratureNotConverged, match="more than the cap"):
            non_discarding_two_path(OscillatorModel(alpha=2e4), Region(0.0, 1.0))
        non_discarding_entanglement(OscillatorModel(alpha=2e4), Region(0.0, 1.0))

    def test_two_paths_agree_below_the_cap(self):
        # Bob's 8 + 1.4 nodes per narrow length of the whole domain: 457 at 1e4
        _, _, gap = non_discarding_two_path(OscillatorModel(alpha=1e4), Region(0.0, 1.0))
        assert gap <= 1e-10

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25, 1.0])
    def test_two_paths_agree_at_weak_coupling(self, alpha):
        # Bob's side spans the whole truncated domain, where the envelope
        # length sets his count; at alpha 1 both lengths are near their limit
        model = OscillatorModel(alpha=alpha)
        for region in (Region(0.0, 1.0), Region(0.5, 1.0), Region(-2.0, 0.3),
                       Region(1.5, 3.0)):
            _, _, gap = non_discarding_two_path(model, region)
            assert gap <= 1e-12

    def test_empty_region_refused(self):
        with pytest.raises(EmptyRegionMass, match=r"region \[49.8, 50.2\] carries mass"):
            non_discarding_entanglement(MODEL, Region(50.0, 0.2))

    def test_two_path_without_outside(self):
        # a region covering the truncated domain leaves no outside outcome
        half = DOMAIN_HALF_LENGTH
        identity, mixture, gap = non_discarding_two_path(MODEL, Region(0.0, 2.0 * half))
        assert identity.survival_probability == 1.0
        assert identity.entanglement_outside == 0.0
        assert gap <= 1e-6

    def test_locally_accessible_part(self):
        result = non_discarding_entanglement(MODEL, Region(0.0, 1.0))
        assert result.locally_accessible == pytest.approx(
            result.survival_probability * result.entanglement_inside, abs=1e-12)
        assert result.locally_accessible <= result.entanglement


class TestPartitionInequality:
    def test_single_cell_has_no_slack(self):
        half = DOMAIN_HALF_LENGTH
        partition = Partition.uniform(-half, half, 1)
        report = partition_inequality_check(MODEL, partition, partition)
        assert report.slack == pytest.approx(0.0, abs=5e-3)
        assert report.slack >= -1e-6

    def test_four_by_four(self, monkeypatch):
        import entloc.restrict as restrict
        calls = []
        masses = restrict.joint_masses
        monkeypatch.setattr(restrict, "joint_masses",
                            lambda *a: calls.append(np.size(a[1])) or masses(*a))
        partition = Partition.uniform(-4.0, 4.0, 4)
        report = partition_inequality_check(MODEL, partition, partition)
        # one batched call: one joint mass per symmetry orbit of the 16 cells
        # (centers -3, -1, 1, 3; four diagonal, four anti-diagonal, 8 others)
        assert calls == [6]
        assert report.weighted_sum < gaussian_eof(MODEL)
        assert report.slack >= -1e-6
        assert len(report.cells) == 16
        total_probability = sum(cell.probability for cell in report.cells)
        assert total_probability == pytest.approx(1.0, abs=1e-5)

    def test_tail_merging_recovers_all_mass(self):
        truncated = partition_inequality_check(
            MODEL, Partition.uniform(-2, 2, 4), Partition.uniform(-2, 2, 4))
        merged = partition_inequality_check(
            MODEL,
            Partition.uniform(-2, 2, 4, tail_handling="merge-into-end-segments"),
            Partition.uniform(-2, 2, 4, tail_handling="merge-into-end-segments"))
        mass_truncated = sum(cell.probability for cell in truncated.cells)
        mass_merged = sum(cell.probability for cell in merged.cells)
        assert mass_truncated < 1.0 - 1e-4
        assert mass_merged == pytest.approx(1.0, abs=1e-8)
        assert merged.slack >= -1e-6

    def test_empty_cells(self):
        far = Partition.uniform(-40.0, 40.0, 4)
        report = partition_inequality_check(MODEL, far, far)
        empty = [cell for cell in report.cells
                 if abs(cell.a_lo + cell.a_hi) > 40 or abs(cell.b_lo + cell.b_hi) > 40]
        assert len(empty) == 12
        assert all(cell.probability == 0.0 and cell.entanglement == 0.0 for cell in empty)

    @pytest.mark.parametrize("partition_a,partition_b", [
        (Partition.uniform(-4.0, 4.0, 4), Partition.uniform(-3.0, 3.0, 3)),
        (Partition.uniform(-2.9, 2.9, 7), Partition.uniform(-2.9, 2.9, 3)),
        # merged tails: Alice's one segment, the whole truncated domain, is the
        # widest region of every cell, as in the truncated cases above
        (Partition.uniform(-2.0, 2.0, 1, "merge-into-end-segments"),
         Partition.uniform(-2.5, 2.5, 4, "merge-into-end-segments")),
        (Partition.uniform(-1.0, 3.0, 3, "merge-into-end-segments"),
         Partition.uniform(-2.0, 2.0, 1, "merge-into-end-segments")),
    ], ids=["truncate-4x3", "truncate-7x3", "merge-1x4", "merge-3x1"])
    @pytest.mark.parametrize("n_bins", [None, 40])
    def test_cells_are_the_point_cells_bit_for_bit(self, partition_a, partition_b, n_bins):
        # each cell's bounds, mass and entropy are those of the point cell on
        # its segments, and its mass that of joint_probability: every cell
        # shares the node count of the partition's widest region
        report = partition_inequality_check(MODEL, partition_a, partition_b, n_bins)
        regions_a, regions_b = ([Region(*segment) for segment in zip(*_segments(partition))]
                                for partition in (partition_a, partition_b))
        pairs = [(a, b) for a in regions_a for b in regions_b]
        assert len(report.cells) == len(pairs)
        empty = 0
        for cell, (region_a, region_b) in zip(report.cells, pairs):
            assert cell[:4] == (region_a.lo, region_a.hi, region_b.lo, region_b.hi)
            try:
                point = both_restricted_entropy(MODEL, region_a, region_b, n_bins)
            except EmptyRegionMass:
                empty += 1
                assert cell[4:] == (0.0, 0.0)
                continue
            assert cell[4:] == (point.survival_probability, point.entanglement)
            assert cell.probability == min(1.0, joint_probability(MODEL, region_a, region_b))
        assert empty < len(pairs)

    def test_tail_handling_validation(self):
        with pytest.raises(DomainError):
            Partition.uniform(-1, 1, 2, tail_handling="wrap")

    @pytest.mark.parametrize("lo,hi", [(-math.inf, math.inf), (0.0, math.nan),
                                       (-1e308, 1e308)])  # the last span overflows
    def test_bounds_without_a_finite_span_refused(self, lo, hi):
        for build in (lambda: Partition.uniform(lo, hi, 2), lambda: scan_axis(lo, hi, 3)):
            with pytest.raises(DomainError, match=re.escape(f"bounds {lo!r} and {hi!r} ")):
                build()

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.0, 1e3), extent_a=st.floats(0.25, 12.0),
           extent_b=st.floats(0.25, 12.0), n_a=st.integers(1, 8), n_b=st.integers(1, 8),
           tails=st.sampled_from(["truncate", "merge-into-end-segments"]))
    def test_weighted_sum_never_exceeds_the_full_entanglement(self, alpha, extent_a, extent_b,
                                                              n_a, n_b, tails):
        report = partition_inequality_check(
            OscillatorModel(alpha=alpha), Partition.uniform(-extent_a, extent_a, n_a, tails),
            Partition.uniform(-extent_b, extent_b, n_b, tails))
        assert report.slack >= -1e-9

    def test_refinement_decreases_recovered_entanglement(self):
        # finer joint partitions erase more coherence; measured to hold on
        # this model, though not claimed in general
        coarse = partition_inequality_check(
            MODEL, Partition.uniform(-4, 4, 4), Partition.uniform(-4, 4, 4))
        fine = partition_inequality_check(
            MODEL, Partition.uniform(-4, 4, 8), Partition.uniform(-4, 4, 8))
        assert fine.weighted_sum <= coarse.weighted_sum + 1e-6


class TestEntanglementMap:
    def test_two_party_map_shape_and_symmetry(self):
        centers = np.linspace(-2.0, 2.0, 9)
        dist = two_party_map(MODEL, centers, centers_b=centers,
                             half_width=0.25,
                             n_bins=60)
        assert dist.shape == (9, 9)
        # swapping both centers with their negatives is a symmetry
        assert np.allclose(dist.values, dist.values[::-1, ::-1], atol=1e-9)
        assert dist.extra["prob"].max() <= 1.0

    def test_one_party_map_profiles(self):
        centers = np.linspace(-4.0, 4.0, 17)
        dist = one_party_map(MODEL, centers, widths=[2.0],
                             n_bins=100)
        values = dist.values[:, 0]
        # symmetric about the origin and decaying away from it
        assert np.allclose(values, values[::-1], atol=1e-9)
        upper = values[8:]
        assert np.all(np.diff(upper) <= 1e-9)
        assert dist.extra["rescaled"][:, 0].max() == pytest.approx(1.0)

    def test_small_width_profile_flat(self):
        centers = np.linspace(-2.0, 2.0, 9)
        dist = one_party_map(MODEL, centers, widths=[0.05],
                             n_bins=100)
        values = dist.values[:, 0]
        assert (values.max() - values.min()) / values.max() <= 0.05

    def test_weak_coupling_smaller_and_narrower(self):
        centers = np.linspace(-4.0, 4.0, 17)
        strong = one_party_map(MODEL, centers, widths=[4.0],
                               n_bins=100)
        weak = one_party_map(WEAK, centers, widths=[4.0],
                             n_bins=100)
        assert weak.values.max() < strong.values.max()
        # rescaled profile of the weak coupling decays faster at this width
        strong_tail = strong.extra["rescaled"][-3, 0]
        weak_tail = weak.extra["rescaled"][-3, 0]
        assert weak_tail < strong_tail

    def test_empty_cells_flagged(self):
        centers = np.array([0.0, 45.0])
        dist = two_party_map(MODEL, centers, centers_b=centers,
                             half_width=0.5,
                             n_bins=40)
        assert dist.extra["flag"][1, 1] == 1.0
        assert dist.values[1, 1] == 0.0
        assert dist.extra["flag"][0, 0] == 0.0


class TestGaussLegendreEngine:
    """Two-party cells on Gauss-Legendre nodes, the default without n_bins."""

    def test_map_equals_single_cells(self):
        centers = np.linspace(-6.0, 6.0, 7)
        dist = two_party_map(MODEL, centers, centers_b=centers[::2], half_width=0.5,
                             half_width_b=1.0)
        n = two_party_nodes(MODEL, 2.0)
        empty = 0
        for i, ca in enumerate(centers):
            for j, cb in enumerate(centers[::2]):
                try:
                    cell = both_restricted_entropy(MODEL, Region(ca, 0.5), Region(cb, 1.0))
                except EmptyRegionMass:
                    empty += 1
                    assert dist.extra["flag"][i, j] == 1.0
                    assert dist.values[i, j] == dist.extra["prob"][i, j] == 0.0
                    continue
                assert cell.resolution == n
                assert cell.spectrum_size == n
                assert dist.extra["flag"][i, j] == 0.0
                assert dist.values[i, j] == pytest.approx(cell.entanglement, abs=1e-12)
                assert dist.extra["prob"][i, j] == pytest.approx(cell.survival_probability,
                                                                 rel=1e-12)
        assert 0 < empty < dist.values.size

    def test_masses_match_twice_the_nodes(self):
        centers = np.linspace(-6.0, 6.0, 25)
        ca, cb = (grid.ravel() for grid in np.meshgrid(centers, centers, indexing="ij"))
        for alpha in (0.05, 0.25, 1.0, 6.0, 30.0, 1e2, 1e4, 1e6):
            model = OscillatorModel(alpha=alpha)
            for width in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
                n = two_party_nodes(model, width)
                edges = (ca - width / 2, ca + width / 2, cb - width / 2, cb + width / 2)
                mass, fine = joint_masses(model, *edges, n), joint_masses(model, *edges, 2 * n)
                live = fine >= EMPTY_MASS
                assert live.any()
                assert np.all(np.abs(mass - fine)[live] <= 1e-12 * fine[live])

    def test_masses_past_the_cap_use_panels(self):
        # alpha 1e8, width 10 asks for 1988 nodes: four panels of 497 nodes;
        # the expected masses are the former 2-d adaptive quadrature's
        strong = OscillatorModel(alpha=1e8)
        n = two_party_nodes(strong, 10.0)
        assert n == 1988
        lo = np.array([-9.0, -9.0, -13.0, -13.0])
        lo_b = np.array([-9.0, -1.0, -9.0, 3.0])
        edges = (lo, lo + 10.0, lo_b, lo_b + 10.0)
        mass = joint_masses(strong, *edges, n)
        expected = [0.920517174239, 0.842690415392, 1.10504714679e-05, 0.0]
        assert mass[:3] == pytest.approx(expected[:3], rel=1e-11)
        assert mass[3] < EMPTY_MASS
        fine = joint_masses(strong, *edges, 2 * n)
        assert np.all(np.abs(mass - fine)[:3] <= 1e-11 * fine[:3])

    @pytest.mark.parametrize("alpha", [0.25, 6.0, 1e2, 1e4, 1e6])
    def test_doubling_the_rule_moves_no_entropy(self, alpha):
        model = OscillatorModel(alpha=alpha)
        for width in (0.5, 2.0, 4.0, 8.0):
            n = two_party_nodes(model, width)
            cells = np.array([(0.0, 0.0), (0.3 * width, -0.2 * width), (1.0, 0.5),
                              (-1.5, -1.0), (2.5, 2.0)])
            edges = (cells[:, 0] - width / 2, cells[:, 0] + width / 2,
                     cells[:, 1] - width / 2, cells[:, 1] + width / 2)
            base = spectral_entropy_bits(
                _cell_weights(model, *_sides(*edges, n)))
            fine = spectral_entropy_bits(
                _cell_weights(model, *_sides(*edges, 2 * n)))
            assert np.all(np.abs(base - fine) <= 1e-12)
            for (qa, qb), value in zip(cells, base):
                cell = both_restricted_entropy(model, Region(qa, width / 2),
                                               Region(qb, width / 2))
                assert cell.resolution == n
                assert cell.entanglement == pytest.approx(value, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(log_alpha=st.floats(math.log(0.05), math.log(1e4)),
           halves=st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 4.0)),
           centers=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                            min_size=1, max_size=8),
           n_bins=st.one_of(st.none(), st.integers(10, 400)))
    def test_gram_entropy_matches_the_svd(self, log_alpha, halves, centers, n_bins):
        # Schmidt weights from the Gram eigensolve against the squared singular
        # values of the same assembled amplitude stack, on live cells
        model = OscillatorModel(alpha=math.exp(log_alpha))
        ca, cb = np.array(centers).T
        width, bounds, _ = _two_party_orbits(ca, halves[0], cb, halves[1])
        n, prob = _schmidt_nodes(model, width, n_bins), _orbit_masses(model, width, bounds)
        live = prob >= EMPTY_MASS
        assume(live.any())
        sides = _sides(*(edge[live] for edge in bounds), n, n_bins)
        gram = spectral_entropy_bits(_cell_weights(model, *sides))
        sigma = np.linalg.svd(_amplitudes(model, *sides), compute_uv=False)
        weights = sigma * sigma
        svd = spectral_entropy_bits(weights / weights.sum(axis=1, keepdims=True))
        assert np.all(np.isfinite(gram)) and np.all(gram >= 0.0)
        assert np.all(np.abs(gram - svd) <= 1e-13)

    @settings(max_examples=20, deadline=None)
    @given(log_alpha=st.floats(-1.3, 4.0), width=st.floats(0.1, 8.0),
           start_a=st.floats(-5.0, 1.0), start_b=st.floats(-5.0, 1.0),
           step=st.floats(0.2, 1.5))
    @example(log_alpha=math.log10(5.0), width=1.0, start_a=-1.0, start_b=-1.0, step=1.0)
    @example(log_alpha=-1.3, width=8.0, start_a=-5.0, start_b=-4.0, step=1.0)
    def test_rule_and_twice_the_rule_agree_on_whole_maps(self, log_alpha, width, start_a,
                                                         start_b, step):
        import entloc.restrict as restrict
        model = OscillatorModel(alpha=10.0 ** log_alpha)
        centers_a = start_a + step * np.arange(7)
        centers_b = start_b + step * np.arange(7)
        base = two_party_map(model, centers_a, centers_b=centers_b, half_width=width / 2)
        nodes = restrict._schmidt_nodes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(restrict, "_schmidt_nodes",
                          lambda m, w, n_bins=None: 2 * nodes(m, w, n_bins))
            fine = two_party_map(model, centers_a, centers_b=centers_b, half_width=width / 2)
        # the masses do not read the spectral rule
        for layer in ("prob", "flag"):
            assert base.extra[layer].tobytes() == fine.extra[layer].tobytes()
        live = base.extra["flag"] == 0.0
        assert np.all(np.abs(base.values - fine.values)[live] <= 1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25])
    def test_whole_domain_cell_at_weak_coupling(self, alpha, monkeypatch):
        # the envelope length sigma, not the narrow one, sets the count here
        import entloc.restrict as restrict
        model, whole = OscillatorModel(alpha=alpha), Region(0.0, DOMAIN_HALF_LENGTH)
        base = both_restricted_entropy(model, whole, whole)
        nodes = restrict._schmidt_nodes
        monkeypatch.setattr(restrict, "_schmidt_nodes",
                            lambda m, w, n_bins=None: 3 * nodes(m, w, n_bins))
        fine = both_restricted_entropy(model, whole, whole)
        assert fine.resolution == 3 * base.resolution
        assert abs(base.entanglement - fine.entanglement) <= 1e-12

    def test_node_rule(self, monkeypatch):
        # joint masses take the spectral rule's count, on two-party and
        # classical maps alike, and past MAX_NODES on classical maps
        import entloc.restrict as restrict
        counts = []
        masses = restrict.joint_masses
        monkeypatch.setattr(restrict, "joint_masses",
                            lambda model, *a: counts.append(a[-1]) or masses(model, *a))
        strong = OscillatorModel(alpha=1e4)
        for model, half in ((MODEL, 2.0), (strong, 1.0), (strong, 2.0)):
            two_party_map(model, [0.0], centers_b=[0.5], half_width=half)
            probability_map(model, [0.0], [0.5], half)
        probability_map(OscillatorModel(alpha=1e8), [0.0], [0.5], 5.0)
        assert counts == [21, 21, 48, 48, 88, 88, 1988]

    def test_spectral_node_rule(self):
        # 8 + ceil(1.4 width sqrt(s)) where the narrow length decides, no floor
        assert two_party_nodes(MODEL, 0.5) == 10
        assert two_party_nodes(MODEL, 4.0) == 21
        strong = OscillatorModel(alpha=1e4)
        assert two_party_nodes(strong, 2.0) == 48
        assert two_party_nodes(strong, 4.0) == 88
        assert two_party_nodes(OscillatorModel(alpha=1e6), 8.0) == 509

    def test_node_cap_refuses_before_any_array(self, monkeypatch):
        import entloc.restrict as restrict
        built = []
        monkeypatch.setattr(restrict, "gauss_legendre",
                            lambda lo, hi, n: built.append(n))
        extreme = OscillatorModel(alpha=1e10)
        with pytest.raises(QuadratureNotConverged, match=f"cap of {MAX_NODES}"):
            both_restricted_entropy(extreme, Region(0.0, 5.0), Region(0.0, 5.0))
        with pytest.raises(QuadratureNotConverged):
            two_party_map(extreme, [0.0, 1.0], centers_b=[0.0], half_width=5.0)
        with pytest.raises(QuadratureNotConverged, match="exceeds the chunk"):
            joint_probability(OscillatorModel(alpha=1e20), Region(0.0, 5.0),
                              Region(0.0, 0.1))
        assert built == []

    def test_one_cell_chunks_change_no_byte(self, monkeypatch):
        import entloc.restrict as restrict
        calls, mass_calls = [], []
        amplitudes, density = restrict._amplitudes, restrict.marginal_position_density
        monkeypatch.setattr(restrict, "_amplitudes",
                            lambda model, *a: calls.append(len(a[0])) or amplitudes(model, *a))
        monkeypatch.setattr(restrict, "marginal_position_density",
                            lambda model, x: mass_calls.append(len(x)) or density(model, x))
        centers = np.linspace(-4.0, 4.0, 9)
        whole = two_party_map(MODEL, centers, centers_b=centers, half_width=0.25)
        # the axis is its own mirror bit for bit: one cell per orbit of
        # exchange and mirror, (i, j) -> (j, i), (8 - i, 8 - j), (8 - j, 8 - i)
        def orbits(cells):
            return len({min((i, j), (j, i), (8 - i, 8 - j), (8 - j, 8 - i)) for i, j in cells})
        live = orbits(zip(*np.nonzero(whole.extra["flag"] == 0.0)))
        distinct = orbits(np.ndindex(9, 9))
        assert distinct == 25
        assert calls == [live] and mass_calls == [distinct]
        calls.clear()
        mass_calls.clear()
        # one cell per chunk, for the (cells, n, n) stacks and the (cells, n) masses
        monkeypatch.setattr(restrict, "CHUNK_BYTES", 8 * two_party_nodes(MODEL, 0.5))
        single = two_party_map(MODEL, centers, centers_b=centers, half_width=0.25)
        assert calls == [1] * live and mass_calls == [1] * distinct
        for layer in ("prob", "flag"):
            assert whole.extra[layer].tobytes() == single.extra[layer].tobytes()
        assert whole.values.tobytes() == single.values.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.0, 100.0), qa=st.floats(-3.0, 3.0), qb=st.floats(-3.0, 3.0),
           ha=st.floats(0.05, 2.0), hb=st.floats(0.05, 2.0))
    def test_bounded_by_eof_with_mirror_and_exchange_symmetry(self, alpha, qa, qb, ha, hb):
        model = OscillatorModel(alpha=alpha)
        assume(joint_probability(model, Region(qa, ha), Region(qb, hb)) > 1e-12)
        base = both_restricted_entropy(model, Region(qa, ha), Region(qb, hb))
        mirror = both_restricted_entropy(model, Region(-qa, ha), Region(-qb, hb))
        exchange = both_restricted_entropy(model, Region(qb, hb), Region(qa, ha))
        assert 0.0 <= base.entanglement <= gaussian_eof(model) + 1e-9
        for other in (mirror, exchange):
            assert other.entanglement == pytest.approx(base.entanglement, abs=1e-9)
            assert other.survival_probability == pytest.approx(base.survival_probability,
                                                               rel=1e-11)


@pytest.mark.parametrize("solve_map", [
    lambda: two_party_map(MODEL, np.linspace(-4.0, 4.0, 9), np.linspace(-3.0, 5.0, 9), 0.5),
    lambda: one_party_map(MODEL, np.linspace(-4.0, 4.0, 9), widths=[0.5, 1.0, 4.0]),
])
def test_map_spectra_reach_lapack_once_per_chunk(solve_map, monkeypatch):
    # every eigensolve of a map's cells runs in _chunked_entropies, one a chunk
    import entloc.restrict as restrict
    solves, chunks = [], []
    lapack, cell_slices = restrict.lapack, restrict._cell_slices

    def traced_lapack(solver, *args):
        if solver is np.linalg.eigvalsh:
            solves.append([frame.name for frame in traceback.extract_stack()])
        return lapack(solver, *args)

    def traced_slices(k, cell_bytes):
        slices = cell_slices(k, cell_bytes)
        if sys._getframe(1).f_code.co_name == "_chunked_entropies":
            chunks.append(len(slices))
        return slices

    monkeypatch.setattr(restrict, "lapack", traced_lapack)
    monkeypatch.setattr(restrict, "_cell_slices", traced_slices)
    monkeypatch.setattr(restrict, "CHUNK_BYTES", 1 << 12)
    solve_map()
    assert sum(chunks) > len(chunks)  # a call with more than one chunk
    assert len(solves) == sum(chunks)
    assert all("_chunked_entropies" in frames for frames in solves)


class TestOnePartyMap:
    """One-party maps: each cell's grid kernel by Nystrom discretization on the
    Gauss rule of the grid's own sum (at most n_bins + 1 nodes of Alice's
    region, nothing on Bob's side), masses in closed form, batched
    eigensolves."""

    CENTERS = np.array([-8.0, -3.0, -1.0, 0.0, 0.5, 2.0, 8.0])  # +-8: empty at width 0.5
    WIDTHS = [0.5, 2.0, 10.0]

    @pytest.mark.parametrize("alpha", [0.06, 6.0, 1e2, 1e4])
    def test_map_equals_single_cells(self, alpha):
        model = OscillatorModel(alpha=alpha)
        dist = one_party_map(model, self.CENTERS, widths=self.WIDTHS)
        empty = 0
        for i, center in enumerate(self.CENTERS):
            for j, width in enumerate(self.WIDTHS):
                try:
                    cell = one_restricted_entropy(model, Region(center, width / 2))
                except EmptyRegionMass:
                    empty += 1
                    assert dist.extra["flag"][i, j] == 1.0
                    assert dist.values[i, j] == dist.extra["prob"][i, j] == 0.0
                    continue
                assert dist.extra["flag"][i, j] == 0.0
                assert dist.values[i, j] == pytest.approx(cell.entanglement, abs=1e-12)
                assert dist.extra["prob"][i, j] == pytest.approx(cell.survival_probability,
                                                                 rel=1e-12)
        assert 0 < empty < dist.values.size

    @pytest.mark.parametrize("n_bins", [40, 200])
    @pytest.mark.parametrize("alpha", [0.06, 6.0, 1e4])
    def test_map_equals_the_grid_eigensolve(self, alpha, n_bins):
        model = OscillatorModel(alpha=alpha)
        dist = one_party_map(model, self.CENTERS, widths=self.WIDTHS, n_bins=n_bins)
        live = 0
        for i, center in enumerate(self.CENTERS):
            for j, width in enumerate(self.WIDTHS):
                if dist.extra["flag"][i, j]:
                    continue
                live += 1
                q = np.linspace(center - width / 2, center + width / 2, n_bins + 1)
                kernel = reduced_density_value(model, q[:, None], q[None, :])
                lam = np.linalg.eigvalsh(kernel / np.trace(kernel))
                expected = float(spectral_entropy_bits(lam[None, :])[0])
                assert dist.values[i, j] == pytest.approx(expected, abs=1e-12)
        assert live > 0

    @staticmethod
    def grid_entropy(model, center, width, n_bins):
        q = np.linspace(center - width / 2, center + width / 2, n_bins + 1)
        kernel = reduced_density_value(model, q[:, None], q[None, :])
        lam = np.linalg.eigvalsh(kernel / np.trace(kernel))
        return float(spectral_entropy_bits(lam[None, :])[0])

    @settings(max_examples=30, deadline=None)
    @given(alpha=st.floats(0.05, 1e3), half_range=st.floats(0.25, 8.0),
           steps=st.integers(2, 41), widths=st.lists(st.floats(0.05, 6.0), min_size=1,
                                                     max_size=3))
    def test_map_is_its_own_mirror_and_the_grid_eigensolve(self, alpha, half_range, steps,
                                                           widths):
        from entloc.cli import _linspace
        model = OscillatorModel(alpha=alpha)
        centers = _linspace(-half_range, half_range, steps)
        dist = one_party_map(model, centers, widths=widths, n_bins=40)
        for layer in (dist.values, *(dist.extra[name] for name in ("prob", "flag", "rescaled"))):
            assert layer.tobytes() == np.ascontiguousarray(layer[::-1]).tobytes()
        assert np.all(dist.values <= math.log2(41))
        for i, j in zip(*np.nonzero(dist.extra["flag"] == 0.0)):
            expected = self.grid_entropy(model, centers[i], widths[j], 40)
            assert abs(dist.values[i, j] - expected) <= 1e-12

    def test_wide_cells_far_off_centre_match_the_grid_eigensolve(self):
        # every factor of the Nystrom matrix is at most 1, so cells reaching 60
        # sigma from the centre assemble without overflow
        dist = one_party_map(MODEL, [-30.0, 30.0], widths=[60.0], n_bins=120)
        expected = self.grid_entropy(MODEL, 30.0, 60.0, 120)
        assert np.all(dist.extra["flag"] == 0.0)
        assert np.all(np.abs(dist.values - expected) <= 1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.25])
    def test_wide_cells_at_weak_coupling_match_the_dense_grid_eigensolve(self, alpha):
        # widths of 10 to 16, where the envelope length sets the count
        model, centers = OscillatorModel(alpha=alpha), np.array([-2.0, 0.0, 0.7])
        for n_bins in (41, 200):
            dist = one_party_map(model, centers, widths=[10.0, 12.25, 16.0], n_bins=n_bins)
            for (i, j), value in np.ndenumerate(dist.values):
                region = Region(centers[i], dist.axis_b[j] / 2.0)
                expected = one_restricted_entropy(model, region, n_bins).entanglement
                assert abs(value - expected) <= 5e-14

    @pytest.mark.parametrize("alpha", [0.06, 6.0, 1e2, 1e4])
    def test_doubling_bob_nodes_moves_no_entropy(self, alpha, monkeypatch):
        # the map has no Bob side: double Alice's rule, still capped at n_bins + 1
        import entloc.restrict as restrict
        model = OscillatorModel(alpha=alpha)
        base = one_party_map(model, self.CENTERS, widths=self.WIDTHS)
        rule, used = restrict.grid_gauss, []

        def doubled(lo, hi, points, m):
            used.append(min(points, 2 * m))
            return rule(lo, hi, points, used[-1])

        monkeypatch.setattr(restrict, "grid_gauss", doubled)
        fine = one_party_map(model, self.CENTERS, widths=self.WIDTHS)
        expected = [min(DEFAULT_BINS_ONE + 1, 2 * two_party_nodes(model, width))
                    for width in self.WIDTHS]
        assert used == expected
        assert np.all(np.abs(base.values - fine.values) <= 1e-12)

    def test_one_cell_chunks_change_no_byte(self, monkeypatch):
        # the eigensolve sees each live mirror orbit once: a centred 81-point
        # axis has 41 representatives, the centers <= 0
        import entloc.restrict as restrict
        from entloc.cli import _linspace
        centers = _linspace(-4.0, 4.0, 81)
        calls = []
        solve = restrict._normalized_eigvalsh
        monkeypatch.setattr(restrict, "_normalized_eigvalsh",
                            lambda gram: calls.append(len(gram)) or solve(gram))
        whole = one_party_map(MODEL, centers, widths=self.WIDTHS)
        assert np.count_nonzero(centers <= 0.0) == 41
        live = int((whole.extra["flag"][centers <= 0.0] == 0.0).sum())
        assert sum(calls) == live and len(calls) < live
        calls.clear()
        monkeypatch.setattr(restrict, "CHUNK_BYTES", 1)
        single = one_party_map(MODEL, centers, widths=self.WIDTHS)
        assert calls == [1] * live
        for layer in ("prob", "flag", "rescaled"):
            assert whole.extra[layer].tobytes() == single.extra[layer].tobytes()
        assert whole.values.tobytes() == single.values.tobytes()

    def test_node_cap_refuses_before_any_array(self, monkeypatch):
        import entloc.restrict as restrict
        built = []
        for name in ("gauss_legendre", "grid_gauss", "marginal_masses", "_chunked_entropies"):
            monkeypatch.setattr(restrict, name, lambda *a, _name=name: built.append(_name))
        with pytest.raises(QuadratureNotConverged, match=f"cap of {MAX_NODES}"):
            one_party_map(OscillatorModel(alpha=1e12), [0.0, 1.0], widths=[0.5, 1.0])
        assert built == []

    def test_empty_centers_give_empty_surfaces(self):
        one = one_party_map(MODEL, [], widths=self.WIDTHS)
        assert one.values.shape == (0, len(self.WIDTHS))
        assert all(layer.shape == one.values.shape for layer in one.extra.values())
        two = two_party_map(MODEL, [], centers_b=[0.0, 1.0], half_width=0.5)
        assert two.values.shape == (0, 2)
        assert all(layer.shape == two.values.shape for layer in two.extra.values())
        with pytest.raises(DomainError):
            one_party_map(MODEL, [], widths=[-1.0])

    def test_invalid_widths_refused(self):
        for widths in ([0.0], [-1.0], [math.nan]):
            with pytest.raises(DomainError):
                one_party_map(MODEL, [0.0, 1.0], widths=widths)

    # -- the low-rank factor of each width's shared kernel --

    @staticmethod
    def nystrom_cell(model, center, width, n_bins=DEFAULT_BINS_ONE):
        """Nodes, weights and (n, n) Nystrom matrix of one map cell on the map's
        own rule (Gauss nodes of the grid sum), up to a constant."""
        n = min(n_bins + 1, two_party_nodes(model, width))
        u, w = grid_gauss(-1.0, 1.0, n_bins + 1, n)
        gs = ground_state_constants(model)
        x = center + width / 2 * u
        d = np.sqrt(w) * np.exp(-(0.25 / (gs.sigma * gs.sigma)) * (x * x))
        return x, w, d[:, None] * np.exp(-gs.c2 * np.square(x[:, None] - x[None, :])) * d

    @classmethod
    def direct_weights(cls, model, center, width):
        """Normalized eigenvalues of the cell's full n x n Nystrom matrix."""
        lam = np.linalg.eigvalsh(cls.nystrom_cell(model, center, width)[2])
        return lam / lam.sum()

    @staticmethod
    def clamp_allowance(weights, window=1e-14):
        """The entropy terms of weights within `window` of EIGENVALUE_CLAMP: a
        weight that close may land on either side of the clamp under round-off,
        which moves an entropy by its whole term (about 4e-11 ebit)."""
        near = np.abs(weights - EIGENVALUE_CLAMP) <= window
        return float(-(weights[near] * np.log2(weights[near])).sum())

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0.05, 1e4),
           widths=st.lists(st.floats(0.05, 12.0), min_size=1, max_size=3),
           centers=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4))
    def test_factored_cells_equal_the_direct_eigensolve(self, alpha, widths, centers):
        model = OscillatorModel(alpha=alpha)
        axis = np.array(centers + [-c for c in centers])
        dist = one_party_map(model, axis, widths=widths)
        k = len(centers)
        for layer in (dist.values, *dist.extra.values()):
            assert layer[:k].tobytes() == layer[k:].tobytes()
        for i, j in zip(*np.nonzero(dist.extra["flag"] == 0.0)):
            weights = self.direct_weights(model, axis[i], widths[j])
            expected = float(spectral_entropy_bits(weights[None, :])[0])
            assert abs(dist.values[i, j] - expected) <= 1e-13 + self.clamp_allowance(weights)

    @pytest.mark.parametrize("alpha, center, width, n_bins", [
        (6.0, 0.0, 2.0, 200), (6.0, -1.5, 0.5, 200), (0.06, -3.0, 10.0, 200),
        (1e2, -0.4, 1.0, 200), (1e4, 0.0, 0.25, 200),
        # the worst of 160 random cells, 3.1e-14 off: its weights sit at one
        # end of the region, where the factor's error of about eps times the
        # kernel's largest eigenvalue is not scaled down as in a direct solve
        (10.927664814182204, -5.7750102953416675, 5.913143156031397, 40)])
    def test_cells_against_a_34_digit_eigensolve(self, alpha, center, width, n_bins):
        model = OscillatorModel(alpha=alpha)
        x, w, _ = self.nystrom_cell(model, center, width, n_bins)
        with mp.workdps(34):
            a = mp.mpf(alpha)
            s = mp.sqrt(1 + 4 * a)
            c2 = a * (s - 1) / (8 * (1 + 2 * a + s))
            inv_4sigma2 = s / (2 * (1 + s))
            xs = [mp.mpf(float(xg)) for xg in x]
            d = [mp.sqrt(mp.mpf(float(wg))) * mp.exp(-inv_4sigma2 * xg * xg)
                 for wg, xg in zip(w, xs)]
            matrix = mp.matrix(len(xs), len(xs))
            for g, h in np.ndindex(len(xs), len(xs)):
                matrix[g, h] = d[g] * d[h] * mp.exp(-c2 * (xs[g] - xs[h]) ** 2)
            lam = mp.eigsy(matrix, eigvals_only=True)
            total = sum(lam)
            weights = [value / total for value in lam]
            expected = float(-sum(p * mp.log(p, 2) for p in weights if p > EIGENVALUE_CLAMP))
        value = one_party_map(model, [center], widths=[width], n_bins=n_bins).values[0, 0]
        assert abs(value - expected) <= 5e-14

    @pytest.mark.parametrize("alpha", [0.06, 6.0, 1e2, 1e4])
    def test_entropy_is_within_the_rank_of_the_factor(self, alpha, monkeypatch):
        import entloc.restrict as restrict
        shapes = []
        factor = restrict._low_rank_factor

        def recorded(kernel):
            g = factor(kernel)
            shapes.append(g.shape)
            return g

        monkeypatch.setattr(restrict, "_low_rank_factor", recorded)
        widths = [0.5, 1.0, 2.0, 4.0, 8.0, 10.0]
        dist = one_party_map(OscillatorModel(alpha=alpha), np.linspace(-4.0, 4.0, 9),
                             widths=widths)
        assert len(shapes) == len(widths)
        for j, (n, r) in enumerate(shapes):
            assert 1 <= r <= n
            assert np.all(dist.values[:, j] <= math.log2(r) + 1e-15)

    def test_uncoupled_cells_carry_no_entanglement(self):
        dist = one_party_map(UNCOUPLED, np.linspace(-4.0, 4.0, 9), widths=[0.5, 2.0, 10.0])
        assert np.any(dist.extra["flag"] == 0.0)
        assert np.all(dist.values == 0.0)

    def test_failed_factor_is_no_convergence(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergence, match="did not converge"):
            one_party_map(MODEL, [0.0, 1.0], widths=[1.0])


class TestTwoPartyGrid:
    def test_grid_cell_equals_the_grid_eigensolve(self):
        for region_a, region_b in ((Region(0.0, 0.25), Region(0.5, 0.25)),
                                   (Region(-1.0, 2.0), Region(0.5, 1.0))):
            cell = both_restricted_entropy(MODEL, region_a, region_b, n_bins=60)
            qa = np.linspace(region_a.lo, region_a.hi, 61)
            qb = np.linspace(region_b.lo, region_b.hi, 61)
            psi = two_particle_wavefunction(MODEL, qa[:, None], qb[None, :])
            rho = psi @ psi.T
            lam = np.linalg.eigvalsh(rho / np.trace(rho))
            lam = lam[lam > 1e-12]
            expected = float(-(lam * np.log2(lam)).sum())
            assert cell.entanglement == pytest.approx(expected, abs=1e-12)
            # the cell's spectrum has one weight per node of the grid's Gauss rule
            width = 2.0 * max(region_a.half_width, region_b.half_width)
            assert cell.spectrum_size == min(61, two_party_nodes(MODEL, width))

    @staticmethod
    def uniform_grid_entropy(model, a_lo, a_hi, b_lo, b_hi, n_bins):
        """(entropy, slack): the entropy of the normalized squared singular
        values of the amplitude on both regions' n_bins + 1 uniform points with
        unit weights, and what its weights within 1 % of EIGENVALUE_CLAMP add to
        it, which round-off can put on either side of the clamp."""
        qa = np.linspace(a_lo, a_hi, n_bins + 1)
        qb = np.linspace(b_lo, b_hi, n_bins + 1)
        psi = two_particle_wavefunction(model, qa[:, None], qb[None, :])
        sigma = np.linalg.svd(psi / psi.max(), compute_uv=False)
        weights = sigma * sigma / np.sum(sigma * sigma)
        near = weights[np.abs(weights / EIGENVALUE_CLAMP - 1.0) < 0.01]
        return float(spectral_entropy_bits(weights)), float(-(near * np.log2(near)).sum())

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(0.0, 1e4), qa=st.floats(-4.0, 4.0), qb=st.floats(-4.0, 4.0),
           ha=st.floats(0.025, 4.0), hb=st.floats(0.025, 4.0), n_bins=st.integers(2, 400))
    def test_cells_equal_the_uniform_grid(self, alpha, qa, qb, ha, hb, n_bins):
        # map, profile, partition and point cells on the grid's Gauss rule
        # against the singular values on the grid itself
        model = OscillatorModel(alpha=alpha)
        cells = []  # (value, live, a_lo, a_hi, b_lo, b_hi)
        dist = two_party_map(model, [qa, -qa], centers_b=[qb, qa], half_width=ha,
                             half_width_b=hb, n_bins=n_bins)
        for i, ca in enumerate([qa, -qa]):
            for j, cb in enumerate([qb, qa]):
                cells.append((dist.values[i, j], dist.extra["flag"][i, j] == 0.0,
                              ca - ha, ca + ha, cb - hb, cb + hb))
        centers, values, _, flags = both_restricted_profile(model, [qa, qb], ha, n_bins=n_bins)
        cells += [(value, flag == 0.0, c - ha, c + ha, c - ha, c + ha)
                  for c, value, flag in zip(centers, values, flags)]
        report = partition_inequality_check(model, Partition.uniform(qa - ha, qa + ha, 2),
                                            Partition.uniform(qb - hb, qb + hb, 1), n_bins)
        cells += [(cell.entanglement, cell.probability > 0.0, cell.a_lo, cell.a_hi,
                   cell.b_lo, cell.b_hi) for cell in report.cells]
        if dist.extra["flag"][0, 0] == 0.0:
            point = both_restricted_entropy(model, Region(qa, ha), Region(qb, hb), n_bins)
            assert point.resolution == n_bins
            assert point.spectrum_size == min(n_bins + 1, two_party_nodes(model, 2 * max(ha, hb)))
            cells.append((point.entanglement, True, qa - ha, qa + ha, qb - hb, qb + hb))
        for value, live, *bounds in cells:
            if live:
                expected, slack = self.uniform_grid_entropy(model, *bounds, n_bins)
                assert abs(value - expected) <= 1e-13 + slack
            else:
                assert value == 0.0

    def test_grid_map_equals_single_cells(self):
        centers = np.array([-1.0, 0.0, 0.75, 45.0])
        dist = two_party_map(MODEL, centers, centers_b=centers[:3], half_width=0.5,
                             half_width_b=0.25, n_bins=40)
        for i, ca in enumerate(centers):
            for j, cb in enumerate(centers[:3]):
                if i == 3:
                    assert dist.extra["flag"][i, j] == 1.0 and dist.values[i, j] == 0.0
                    continue
                cell = both_restricted_entropy(MODEL, Region(ca, 0.5), Region(cb, 0.25),
                                               n_bins=40)
                assert dist.values[i, j] == cell.entanglement
                assert dist.extra["prob"][i, j] == cell.survival_probability


_DYADIC = st.integers(-24, 24).map(lambda k: k / 8)  # exact bounds: touching intervals
_CENTER = st.one_of(st.sampled_from([0.0, -0.0]), _DYADIC, st.floats(-5.0, 5.0))
_HALF = st.one_of(st.integers(1, 16).map(lambda k: k / 8), st.floats(0.01, 3.0))


@st.composite
def _image_cells(draw):
    """(c_a, h_a, c_b, h_b) of a cell whose half widths are drawn apart; side
    b may be side a's mirror, or touch it on either end."""
    ca, ha, hb = draw(_CENTER), draw(_HALF), draw(_HALF)
    cb = draw(st.one_of(_CENTER, st.sampled_from([-ca, ca + ha + hb, ca - ha - hb])))
    return ca, ha, cb, hb


def _bound_images(ca, ha, cb, hb):
    """The bounds (a_lo, a_hi, b_lo, b_hi) of A x B, B x A, -A x -B and -B x -A."""
    a, b = (ca - ha, ca + ha), (cb - hb, cb + hb)
    return {(*a, *b), (*b, *a), (-a[1], -a[0], -b[1], -b[0]), (-b[1], -b[0], -a[1], -a[0])}


class TestSymmetryOrbits:
    """psi(q_a, q_b) = psi(q_b, q_a) = psi(-q_a, -q_b): a two-party cell is
    solved once per orbit of exchange and mirror, and every image of a cell
    reads its representative's row."""

    def test_images_equal_the_single_cell_bit_for_bit(self):
        centers = np.linspace(-2.0, 2.0, 9)  # holds the exact negative of each center
        last = centers.size - 1
        dist = two_party_map(MODEL, centers, centers_b=centers, half_width=0.5,
                             half_width_b=0.25)
        swapped = two_party_map(MODEL, centers, centers_b=centers, half_width=0.25,
                                half_width_b=0.5)
        joint = probability_map(MODEL, centers, centers, 0.5, 0.25)
        swapped_joint = probability_map(MODEL, centers, centers, 0.25, 0.5)
        for i, j in np.ndindex(dist.shape):
            cell = both_restricted_entropy(MODEL, Region(centers[i], 0.5),
                                           Region(centers[j], 0.25))
            mass = joint_probability(MODEL, Region(centers[i], 0.5), Region(centers[j], 0.25))
            for surface, masses, (k, m) in ((dist, joint, (i, j)),
                                            (dist, joint, (last - i, last - j)),
                                            (swapped, swapped_joint, (j, i)),
                                            (swapped, swapped_joint, (last - j, last - i))):
                assert surface.values[k, m] == cell.entanglement
                assert surface.extra["prob"][k, m] == cell.survival_probability
                assert masses.values[k, m] == mass
            assert cell.survival_probability == min(1.0, mass)
            _, bounds, _ = _two_party_orbits([centers[i]], 0.5, [centers[j]], 0.25)
            for ca, ha, cb, hb in ((centers[last - i], 0.5, centers[last - j], 0.25),
                                   (centers[j], 0.25, centers[i], 0.5),
                                   (centers[last - j], 0.25, centers[last - i], 0.5)):
                image = both_restricted_entropy(MODEL, Region(ca, ha), Region(cb, hb))
                assert image == cell
                # one canonical image, bit for bit, so one rule on each side
                _, image_bounds, _ = _two_party_orbits([ca], ha, [cb], hb)
                assert np.stack(image_bounds).tobytes() == np.stack(bounds).tobytes()
                assert joint_probability(MODEL, Region(ca, ha), Region(cb, hb)) == mass

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0.0, 100.0),
           centers_a=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
           extra_b=st.lists(st.floats(-3.0, 3.0), max_size=3),
           ha=st.floats(0.05, 2.0), hb=st.floats(0.05, 2.0),
           n_bins=st.sampled_from([None, 20]))
    @example(alpha=98.4057281354207, centers_a=[2.2533783767980395],
             extra_b=[-0.1248718386613703], ha=0.62109375, hb=2.0, n_bins=20)
    def test_map_equals_the_unreduced_cells(self, alpha, centers_a, extra_b, ha, hb, n_bins):
        model = OscillatorModel(alpha=alpha)
        # Bob's axis holds Alice's centers and their negatives, so cells have images
        centers_b = np.array(centers_a + [-c for c in centers_a] + extra_b)
        dist = two_party_map(model, centers_a, centers_b=centers_b, half_width=ha,
                             half_width_b=hb, n_bins=n_bins)
        ca, cb = np.repeat(centers_a, centers_b.size), np.tile(centers_b, len(centers_a))
        n = two_party_nodes(model, 2.0 * max(ha, hb))
        if n_bins is not None:
            n = min(n, n_bins + 1)  # the grid's Gauss rule has at most its points
        # each cell on its own canonical image, one cell a call: nothing deduped
        bounds = tuple(np.concatenate(edge) for edge in zip(
            *(_two_party_orbits([a], ha, [b], hb)[1] for a, b in zip(ca, cb))))
        mass = np.clip(joint_masses(model, *bounds, two_party_nodes(model, 2.0 * max(ha, hb))),
                       0.0, 1.0)
        assume(np.all(np.abs(mass - EMPTY_MASS) > 1e-9 * EMPTY_MASS))
        live = mass >= EMPTY_MASS
        entropy = np.zeros(mass.size)
        if live.any():
            entropy[live] = spectral_entropy_bits(_cell_weights(
                model, *_sides(*(edge[live] for edge in bounds), n, n_bins)))
        assert np.array_equal(dist.extra["flag"].ravel(), ~live)
        assert np.all(np.abs(dist.values.ravel() - entropy) <= 1e-14)
        # the map integrates each mass on the cell's canonical image too
        prob = dist.extra["prob"].ravel()[live]
        assert np.all(np.abs(prob - mass[live]) <= np.minimum(1e-14, 1e-12 * mass[live]))

    def test_square_map_solves_one_cell_per_orbit(self, monkeypatch):
        import entloc.restrict as restrict
        calls = []
        monkeypatch.setattr(restrict, "joint_masses",
                            lambda *a, _f=restrict.joint_masses: calls.append(np.size(a[1]))
                            or _f(*a))
        model = OscillatorModel(alpha=1)
        # 33 centers that are their own mirror bit for bit: (33^2 + 33 + 1 + 33) / 4 orbits
        centers = np.linspace(-4.0, 4.0, 33)
        two_party_map(model, centers, centers_b=centers, half_width=0.25)
        probability_map(model, centers, centers, 0.25)
        assert calls == [289, 289]
        calls.clear()
        # no center's negative on the axis: the exchange half only, 33 * 34 / 2
        two_party_map(model, centers + 0.1, centers_b=centers + 0.1, half_width=0.25)
        assert calls == [561]

    @settings(max_examples=40, deadline=None)
    @given(centers=st.lists(st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.5, 1.5, 2.0]),
                            max_size=12),
           halves=st.lists(st.sampled_from([0.25, 0.5]), min_size=1, max_size=12))
    def test_orbits_match_an_axis_unique(self, centers, halves):
        # the canonical images, their order and the inverse are those of
        # np.unique(axis=0) over the cells' canonical bounds
        k = min(len(centers), len(halves)) // 2
        ca, cb = np.array(centers[:k]), np.array(centers[k:2 * k])
        ha, hb = np.array(halves[:k]), np.array(halves[-k:] if k else [])
        width, bounds, inverse = _two_party_orbits(ca, ha, cb, hb)
        rows = np.stack(bounds, axis=-1)
        reps = rows[inverse]
        expected, expected_inverse = np.unique(reps, axis=0, return_inverse=True)
        assert np.array_equal(rows, expected)
        assert np.array_equal(inverse, expected_inverse.reshape(-1))

        def key(lo, hi):  # an interval and its mirror share it
            return min((lo, hi), (-hi, -lo))
        for i in range(k):
            a_lo, a_hi, b_lo, b_hi = reps[i]
            assert (a_lo, a_hi, b_lo, b_hi) in _bound_images(ca[i], ha[i], cb[i], hb[i])
            # the side with the smaller key first, and its midpoint not negative
            assert key(a_lo, a_hi) <= key(b_lo, b_hi)
            assert a_hi > -a_lo or (a_hi == -a_lo and b_hi >= -b_lo)

    @settings(max_examples=300, deadline=None)
    @given(cells=st.lists(_image_cells(), min_size=1, max_size=6))
    @example(cells=[(-0.0, 0.5, 0.0, 0.25), (0.0, 0.25, -0.0, 0.25), (0.5, 0.25, 1.0, 0.25)])
    def test_images_share_one_canonical_image(self, cells):
        # A x B, B x A, -A x -B and -B x -A: one row of bounds, bit for bit, that
        # is one of the four
        for ca, ha, cb, hb in cells:
            images = np.array([(ca, ha, cb, hb), (cb, hb, ca, ha), (-ca, ha, -cb, hb),
                               (-cb, hb, -ca, ha)])
            canonical = {np.stack(_two_party_orbits([c1], h1, [c2], h2)[1]).tobytes()
                         for c1, h1, c2, h2 in images}
            assert len(canonical) == 1
            _, bounds, inverse = _two_party_orbits(*images.T)
            assert np.stack(bounds).tobytes() in canonical
            assert inverse.tolist() == [0, 0, 0, 0]
            assert tuple(np.stack(bounds).ravel()) in _bound_images(ca, ha, cb, hb)

    def test_empty_centers_refuse_a_bad_half_width(self):
        for call in (lambda h: two_party_map(MODEL, [], centers_b=[0.0, 1.0], half_width=h),
                     lambda h: two_party_map(MODEL, [0.0], centers_b=[], half_width=0.5,
                                             half_width_b=h),
                     lambda h: both_restricted_profile(MODEL, [], h),
                     lambda h: both_restricted_profile(MODEL, [], h, bob_center=0.0)):
            for half in (-1.0, 0.0, math.nan):
                with pytest.raises(DomainError):
                    call(half)
        profile = both_restricted_profile(MODEL, [], 0.5)
        assert [part.shape for part in profile] == [(0,)] * 4

    def test_empty_centers_keep_the_node_cap(self):
        # the node rule follows the half widths given, not the cells they make
        extreme = OscillatorModel(alpha=1e10)
        for centers_a in ([], [1.0]):
            with pytest.raises(QuadratureNotConverged, match=f"cap of {MAX_NODES}"):
                two_party_map(extreme, centers_a, centers_b=[0.0], half_width=5.0)
