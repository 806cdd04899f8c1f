import math

import numpy as np
import pytest

from entloc.errors import DomainError, EmptyRegionMass
from entloc.linalg import binary_entropy
from entloc.oscillator import (
    OscillatorModel,
    gaussian_eof,
    reduced_density_value,
    small_a_epsilon_both,
    small_a_epsilon_one,
)
from entloc.quadrature import panel_nodes
from entloc.restrict import (
    DiscretizationSpec,
    Partition,
    Region,
    basis_expansion_entropy,
    both_restricted_entropy,
    domain_half_length,
    entanglement_map,
    method_equivalence,
    non_discarding_entanglement,
    non_discarding_two_path,
    one_restricted_entropy,
    partition_inequality_check,
    precise_measurement_entanglement,
    region_basis,
)

MODEL = OscillatorModel(alpha=6)
WEAK = OscillatorModel(alpha=0.06)
UNCOUPLED = OscillatorModel(alpha=0)


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
        assert len(partition.segments) == 4
        assert partition.lo == -4.0 and partition.hi == 4.0

    def test_partition_contiguity(self):
        with pytest.raises(DomainError):
            Partition((Region(0.0, 1.0), Region(3.0, 1.0)))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            DiscretizationSpec(method="fft")
        with pytest.raises(DomainError):
            DiscretizationSpec(n_bins=1)


class TestOneRestricted:
    def test_saturates_to_full_entanglement(self):
        result = one_restricted_entropy(MODEL, Region(0.0, 5.0),
                                        DiscretizationSpec(n_bins=200))
        assert result.entanglement == pytest.approx(gaussian_eof(MODEL),
                                                    abs=5e-3)
        assert result.survival_probability == pytest.approx(1.0, abs=1e-6)

    def test_small_region_matches_analytic_limit(self):
        result = one_restricted_entropy(MODEL, Region(0.0, 0.025),
                                        DiscretizationSpec(n_bins=200))
        expected = binary_entropy(small_a_epsilon_one(MODEL, 0.025))
        assert result.entanglement == pytest.approx(expected, rel=0.10)

    def test_uncoupled_product_state(self):
        result = one_restricted_entropy(UNCOUPLED, Region(0.4, 0.8))
        assert result.entanglement <= 1e-8

    def test_empty_region(self):
        with pytest.raises(EmptyRegionMass):
            one_restricted_entropy(MODEL, Region(40.0, 0.5))

    def test_grid_refinement_convergence(self):
        for width in (0.5, 2.0, 4.0):
            coarse = one_restricted_entropy(
                MODEL, Region(0.0, width / 2), DiscretizationSpec(n_bins=200))
            fine = one_restricted_entropy(
                MODEL, Region(0.0, width / 2), DiscretizationSpec(n_bins=400))
            assert abs(coarse.entanglement - fine.entanglement) <= 2e-3

    def test_monotone_saturation_in_width(self):
        values = [one_restricted_entropy(MODEL, Region(0.0, a),
                                         DiscretizationSpec(n_bins=100)).entanglement
                  for a in np.linspace(0.1, 6.0, 24)]
        assert np.all(np.diff(values) >= -1e-6)

    def test_assembled_matrix_positivity(self):
        for region in (Region(0.0, 1.0), Region(2.0, 0.3), Region(-1.5, 2.0)):
            result = one_restricted_entropy(MODEL, region,
                                            DiscretizationSpec(n_bins=150))
            assert result.spectrum.eigenvalues[-1] >= -1e-9
            assert result.spectrum.eigenvalues.sum() == pytest.approx(1.0,
                                                                      abs=1e-10)
        # both-restricted and basis-projected matrices as well
        both = both_restricted_entropy(MODEL, Region(0.5, 1.0),
                                       Region(-0.5, 0.7))
        assert both.spectrum.eigenvalues[-1] >= -1e-9
        basis = basis_expansion_entropy(MODEL, Region(0.0, 1.0), 30)
        assert basis.spectrum.eigenvalues[-1] >= -1e-9
        assert basis.spectrum.eigenvalues.sum() == pytest.approx(1.0,
                                                                 abs=1e-10)

    def test_basis_method_dispatch(self):
        spec = DiscretizationSpec(method="basis", n_basis=24)
        result = one_restricted_entropy(MODEL, Region(0.0, 1.0), spec)
        assert result.spec.method == "basis"
        assert result.entanglement > 0.0


class TestBasisExpansion:
    def test_gram_matrix_orthonormal(self):
        region = Region(0.3, 1.0)
        nodes, weights = panel_nodes(region.lo, region.hi, 24)
        phi = region_basis(region, 40, nodes)
        gram = (phi * weights[None, :]) @ phi.T
        assert np.abs(gram - np.eye(40)).max() <= 1e-10

    def test_rank_one_truncation(self):
        result = basis_expansion_entropy(MODEL, Region(0.0, 1.0), 1)
        assert result.entanglement == pytest.approx(0.0, abs=1e-12)

    def test_extrapolated_methods_agree(self):
        # both discretizations approach the continuum entropy with leading
        # error ~ 1/resolution; their Richardson limits must coincide
        eq = method_equivalence(MODEL, Region(0.0, 1.0), n_bins=200, n_basis=40)
        assert eq.gap <= 1e-3

    def test_raw_values_converge_to_common_limit(self):
        region = Region(0.0, 1.0)
        grid = [one_restricted_entropy(MODEL, region,
                                       DiscretizationSpec(n_bins=n)).entanglement
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
                                         DiscretizationSpec(n_bins=100))
        expected = binary_entropy(small_a_epsilon_both(MODEL, 0.05, 0.05))
        assert result.entanglement == pytest.approx(expected, rel=0.15)

    def test_large_regions_saturate(self):
        result = both_restricted_entropy(MODEL, Region(0.0, 5.0),
                                         Region(0.0, 5.0))
        assert result.entanglement == pytest.approx(gaussian_eof(MODEL),
                                                    abs=1e-2)

    def test_bob_measurement_cannot_help(self):
        one = one_restricted_entropy(MODEL, Region(0.5, 1.0),
                                     DiscretizationSpec(n_bins=100))
        for qb in (-1.0, 0.0, 0.5, 2.0):
            both = both_restricted_entropy(MODEL, Region(0.5, 1.0),
                                           Region(qb, 1.0))
            assert both.entanglement <= one.entanglement + 1e-6

    def test_uncoupled_zero(self):
        result = both_restricted_entropy(UNCOUPLED, Region(0.0, 1.0),
                                         Region(0.3, 0.5))
        assert result.entanglement <= 1e-8

    def test_basis_method_rejected(self):
        with pytest.raises(DomainError):
            both_restricted_entropy(MODEL, Region(0.0, 1.0), Region(0.0, 1.0),
                                    DiscretizationSpec(method="basis"))

    def test_locc_ordering_across_scan(self):
        full = gaussian_eof(MODEL)
        spec = DiscretizationSpec(n_bins=80)
        for center in np.linspace(-2.0, 2.0, 5):
            one = one_restricted_entropy(MODEL, Region(center, 1.0),
                                         DiscretizationSpec(n_bins=160))
            both = both_restricted_entropy(MODEL, Region(center, 1.0),
                                           Region(center, 1.0), spec)
            assert both.entanglement <= one.entanglement + 1e-6
            assert one.entanglement <= full + 1e-6


class TestPreciseMeasurement:
    def test_no_entanglement_survives(self):
        for region in (Region(0.0, 1.0), Region(1.0, 0.25)):
            assert precise_measurement_entanglement(MODEL, region) <= 1e-8

    def test_uncoupled(self):
        assert precise_measurement_entanglement(UNCOUPLED, Region(0.0, 1.0)) <= 1e-8

    def test_off_diagonal_blocks_vanish(self):
        # assemble the ensemble the same way and verify exact block structure
        from entloc.restrict import _grid_points, _wavefunction_grid
        region = Region(0.0, 1.0)
        n = 8
        qa = _grid_points(region, n)
        qb = np.linspace(-domain_half_length(MODEL), domain_half_length(MODEL),
                         n + 1)
        psi = _wavefunction_grid(MODEL, qa, qb)
        dim = (n + 1) ** 2
        rho = np.zeros((dim, dim))
        for i in range(n + 1):
            rho[i * (n + 1):(i + 1) * (n + 1),
                i * (n + 1):(i + 1) * (n + 1)] = np.outer(psi[i], psi[i])
        blocks = rho.reshape(n + 1, n + 1, n + 1, n + 1)
        for i in range(n + 1):
            for j in range(n + 1):
                if i != j:
                    assert np.all(blocks[i, :, j, :] == 0.0)


class TestNonDiscarding:
    def test_whole_domain_recovers_full_entanglement(self):
        half = domain_half_length(MODEL)
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

    def test_off_centre_outside_entropy_converges(self):
        # The two parts of the complement of Region(0.5, 1) differ in length;
        # the outside entropy must still converge at first order to the
        # Gauss-Legendre Nystrom value of the complement's kernel.
        region = Region(0.5, 1.0)
        half = domain_half_length(MODEL)
        x, w = np.polynomial.legendre.leggauss(64)
        pieces = ((-half, region.lo), (region.hi, half))
        nodes = np.concatenate([0.5 * (hi - lo) * x + 0.5 * (hi + lo) for lo, hi in pieces])
        root_w = np.sqrt(np.concatenate([0.5 * (hi - lo) * w for lo, hi in pieces]))
        kernel = (root_w[:, None] * reduced_density_value(MODEL, nodes[:, None], nodes[None, :])
                  * root_w[None, :])
        lam = np.linalg.eigvalsh(kernel / np.trace(kernel))
        lam = lam[lam > 1e-12]
        reference = float(-(lam * np.log2(lam)).sum())
        errors = [abs(non_discarding_entanglement(
            MODEL, region, DiscretizationSpec(n_bins=n)).entanglement_outside - reference)
            for n in (200, 400)]
        assert errors[0] < 0.015
        assert errors[1] < 0.6 * errors[0]

    def test_locally_accessible_part(self):
        result = non_discarding_entanglement(MODEL, Region(0.0, 1.0))
        assert result.locally_accessible == pytest.approx(
            result.survival_probability * result.entanglement_inside, abs=1e-12)
        assert result.locally_accessible <= result.entanglement


class TestPartitionInequality:
    def test_single_cell_has_no_slack(self):
        half = domain_half_length(MODEL)
        partition = Partition.uniform(-half, half, 1)
        report = partition_inequality_check(MODEL, partition, partition)
        assert report.slack == pytest.approx(0.0, abs=5e-3)
        assert report.slack >= -1e-6

    def test_four_by_four(self):
        partition = Partition.uniform(-4.0, 4.0, 4)
        report = partition_inequality_check(MODEL, partition, partition)
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

    def test_tail_handling_validation(self):
        with pytest.raises(DomainError):
            Partition.uniform(-1, 1, 2, tail_handling="wrap")

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
        dist = entanglement_map(MODEL, centers, centers_b=centers,
                                half_width=0.25,
                                spec=DiscretizationSpec(n_bins=60))
        assert dist.shape == (9, 9)
        # swapping both centers with their negatives is a symmetry
        assert np.allclose(dist.values, dist.values[::-1, ::-1], atol=1e-9)
        assert dist.extra["prob"].max() <= 1.0

    def test_one_party_map_profiles(self):
        centers = np.linspace(-4.0, 4.0, 17)
        dist = entanglement_map(MODEL, centers, widths=[2.0],
                                spec=DiscretizationSpec(n_bins=100))
        values = dist.values[:, 0]
        # symmetric about the origin and decaying away from it
        assert np.allclose(values, values[::-1], atol=1e-9)
        upper = values[8:]
        assert np.all(np.diff(upper) <= 1e-9)
        assert dist.extra["rescaled"][:, 0].max() == pytest.approx(1.0)

    def test_small_width_profile_flat(self):
        centers = np.linspace(-2.0, 2.0, 9)
        dist = entanglement_map(MODEL, centers, widths=[0.05],
                                spec=DiscretizationSpec(n_bins=100))
        values = dist.values[:, 0]
        assert (values.max() - values.min()) / values.max() <= 0.05

    def test_weak_coupling_smaller_and_narrower(self):
        centers = np.linspace(-4.0, 4.0, 17)
        strong = entanglement_map(MODEL, centers, widths=[4.0],
                                  spec=DiscretizationSpec(n_bins=100))
        weak = entanglement_map(WEAK, centers, widths=[4.0],
                                spec=DiscretizationSpec(n_bins=100))
        assert weak.values.max() < strong.values.max()
        # rescaled profile of the weak coupling decays faster at this width
        strong_tail = strong.extra["rescaled"][-3, 0]
        weak_tail = weak.extra["rescaled"][-3, 0]
        assert weak_tail < strong_tail

    def test_empty_cells_flagged(self):
        centers = np.array([0.0, 45.0])
        dist = entanglement_map(MODEL, centers, centers_b=centers,
                                half_width=0.5,
                                spec=DiscretizationSpec(n_bins=40))
        assert dist.extra["flag"][1, 1] == 1.0
        assert dist.values[1, 1] == 0.0
        assert dist.extra["flag"][0, 0] == 0.0

    def test_requires_exactly_one_layout(self):
        with pytest.raises(DomainError):
            entanglement_map(MODEL, [0.0, 1.0])
        with pytest.raises(DomainError):
            entanglement_map(MODEL, [0.0, 1.0], centers_b=[0.0], widths=[1.0])
