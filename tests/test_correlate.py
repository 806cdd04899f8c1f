import mpmath as mp
import numpy as np
import pytest

from entloc.correlate import (
    FitParams,
    conditional_probability,
    fit_surface,
    joint_probability,
    probability_map,
    sigma_vs_alpha_scan,
)
from entloc.distribution import Distribution2D
from entloc.errors import (
    ConditioningOnNullEvent,
    DomainError,
    InsufficientSupport,
    NonPositiveCurvature,
)
from entloc.oscillator import (
    OscillatorModel,
    classical_widths,
    joint_position_density,
    marginal_position_density,
)
from entloc.restrict import Partition, Region, two_party_map

MODEL = OscillatorModel(alpha=6)
UNCOUPLED = OscillatorModel(alpha=0)
FULL = Region(0.0, 12.0)


class TestJointProbability:
    def test_full_domain_is_certain(self):
        assert joint_probability(MODEL, FULL, FULL) == pytest.approx(1.0,
                                                                     abs=1e-10)

    def test_small_region_limit(self):
        a = b = 0.01
        for qa, qb in ((0.0, 0.0), (0.5, -0.3), (1.0, 1.2)):
            p = joint_probability(MODEL, Region(qa, a), Region(qb, b))
            approx = 4 * a * b * joint_position_density(MODEL, qa, qb)
            assert p / approx == pytest.approx(1.0, rel=1e-2)

    def test_matches_mpmath_double_integral(self):
        # independent oracle: tanh-sinh quadrature of the normalized density,
        # down to a cell of mass ~1e-12 where relative accuracy still holds
        c_plus, c_minus = mp.mpf(1) / 4, mp.mpf(MODEL.stiffness_root) / 4
        norm = 2 * mp.sqrt(c_plus * c_minus) / mp.pi
        with mp.workdps(20):
            for qa, qb, a, b in ((0.0, 0.0, 0.25, 0.25), (3.0, -1.5, 0.25, 0.4),
                                 (2.0, 3.5, 2.0, 1.0)):
                want = mp.quad(lambda x, y: norm * mp.exp(-c_plus * (x + y) ** 2
                                                          - c_minus * (x - y) ** 2),
                               [qa - a, qa + a], [qb - b, qb + b])
                got = joint_probability(MODEL, Region(qa, a), Region(qb, b))
                assert got == pytest.approx(float(want), rel=1e-12)

    def test_normalization_over_partition(self):
        partition = Partition.uniform(-12.0, 12.0, 6)
        total = sum(joint_probability(MODEL, seg_a, seg_b)
                    for seg_a in partition.segments
                    for seg_b in partition.segments)
        assert total == pytest.approx(1.0, abs=1e-8)


class TestConditionalProbability:
    def test_full_target_is_certain(self):
        assert conditional_probability(MODEL, FULL, Region(0.3, 0.5)) == \
            pytest.approx(1.0, abs=1e-10)

    def test_independence_when_uncoupled(self):
        from entloc.restrict import region_survival_probability
        region_b = Region(0.7, 0.3)
        region_a = Region(-0.4, 0.2)
        assert conditional_probability(UNCOUPLED, region_b, region_a) == \
            pytest.approx(region_survival_probability(UNCOUPLED, region_b),
                          abs=1e-12)

    def test_small_region_limit(self):
        b = 0.01
        for qa, qb in ((0.0, 0.0), (0.4, 0.6)):
            value = conditional_probability(MODEL, Region(qb, b),
                                            Region(qa, 0.01))
            approx = 2 * b * joint_position_density(MODEL, qa, qb) \
                / marginal_position_density(MODEL, qa)
            assert value / approx == pytest.approx(1.0, rel=1e-2)

    def test_sums_to_one_over_target_partition(self):
        partition = Partition.uniform(-12.0, 12.0, 8)
        region_a = Region(0.3, 0.4)
        total = sum(conditional_probability(MODEL, seg, region_a)
                    for seg in partition.segments)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_null_event(self):
        with pytest.raises(ConditioningOnNullEvent):
            conditional_probability(MODEL, Region(0.0, 0.5), Region(50.0, 0.1))


class TestProbabilityMap:
    def test_exchange_and_sign_symmetry(self):
        centers = np.linspace(-2.0, 2.0, 9)
        dist = probability_map(MODEL, centers, centers, 0.25)
        assert np.allclose(dist.values, dist.values.T, atol=1e-12)
        assert np.allclose(dist.values, dist.values[::-1, ::-1], atol=1e-12)

    def test_elongated_along_diagonal(self):
        centers = np.linspace(-2.0, 2.0, 17)
        dist = probability_map(MODEL, centers, centers, 0.25)
        fit = fit_surface(dist, "symmetric_pm")
        assert fit.sigma_plus > fit.sigma_minus

    def test_conditional_kind(self):
        centers = np.linspace(-1.5, 1.5, 9)
        dist = probability_map(MODEL, centers, centers, 0.25,
                               kind="conditional_probability")
        assert dist.kind == "conditional_probability"
        assert np.all(dist.values[~dist.mask] >= 0.0)
        assert np.all(dist.values[~dist.mask] <= 1.0 + 1e-12)

    def test_conditional_map_equals_cellwise_conditional(self, monkeypatch):
        import entloc.restrict as restrict
        calls = {"1d": 0, "joint": 0}
        for name, key in (("integrate_1d", "1d"), ("joint_masses", "joint")):
            def counted(*args, _f=getattr(restrict, name), _key=key, **kwargs):
                calls[_key] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(restrict, name, counted)
        centers_a = np.array([-1.0, 0.0, 0.5, 50.0])  # Alice's last row has no mass
        centers_b = np.array([-1.0, 0.25, 1.0])
        dist = probability_map(MODEL, centers_a, centers_b, 0.25, 0.4,
                               kind="conditional_probability")
        assert calls == {"1d": 0, "joint": 1}  # closed-form marginals, one batched joint call
        for i, ca in enumerate(centers_a):
            for j, cb in enumerate(centers_b):
                try:
                    expected = conditional_probability(MODEL, Region(cb, 0.4),
                                                       Region(ca, 0.25))
                except ConditioningOnNullEvent:
                    assert dist.mask[i, j] and np.isnan(dist.values[i, j])
                    continue
                assert not dist.mask[i, j]
                assert dist.values[i, j] == expected
        assert dist.mask[3].all() and not dist.mask[:3].any()

    def test_joint_map_equals_cellwise_joint(self):
        centers = np.array([-1.0, 0.0, 0.75])
        dist = probability_map(MODEL, centers, centers, 0.25, 0.4)
        for i, ca in enumerate(centers):
            for j, cb in enumerate(centers):
                assert dist.values[i, j] == joint_probability(
                    MODEL, Region(ca, 0.25), Region(cb, 0.4))
        assert not dist.mask.any()

    def test_empty_centers(self):
        for kind in ("joint_probability", "conditional_probability"):
            dist = probability_map(MODEL, [], [0.0, 1.0], 0.25, kind=kind)
            assert dist.values.shape == (0, 2)
            for half in (-1.0, 0.0, np.nan):
                with pytest.raises(DomainError):
                    probability_map(MODEL, [], [0.0, 1.0], half, kind=kind)
                with pytest.raises(DomainError):
                    probability_map(MODEL, [0.0], [], 0.25, half, kind=kind)

    def test_probability_kind_validation(self):
        axis = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            Distribution2D(axis_a=axis, axis_b=axis,
                           values=np.array([[0.5, -0.2], [0.1, 0.3]]),
                           kind="joint_probability")
        with pytest.raises(ValueError):
            Distribution2D(axis_a=axis, axis_b=axis,
                           values=np.array([[0.5, 1.5], [0.1, 0.3]]),
                           kind="joint_probability")


class TestFitSurface:
    def test_recovers_synthetic_symmetric_surface(self):
        x = np.linspace(-3, 3, 21)
        params = FitParams(form="symmetric_pm", amplitude=0.7, residual=0.0,
                           sigma_plus=2.0, sigma_minus=0.5)
        xg, yg = np.meshgrid(x, x, indexing="ij")
        dist = Distribution2D(axis_a=x, axis_b=x,
                              values=params.surface(xg, yg))
        fit = fit_surface(dist, "symmetric_pm")
        assert fit.sigma_plus == pytest.approx(2.0, abs=1e-6)
        assert fit.sigma_minus == pytest.approx(0.5, abs=1e-6)
        assert fit.amplitude == pytest.approx(0.7, abs=1e-6)

    def test_fit_idempotent(self):
        x = np.linspace(-2, 2, 15)
        params = FitParams(form="conditional", amplitude=1.2, residual=0.0,
                           sigma_1=0.9, sigma_2=0.6, sigma_12=0.5)
        xg, yg = np.meshgrid(x, x, indexing="ij")
        dist = Distribution2D(axis_a=x, axis_b=x,
                              values=params.surface(xg, yg))
        first = fit_surface(dist, "conditional")
        refit_dist = Distribution2D(axis_a=x, axis_b=x,
                                    values=first.surface(xg, yg))
        second = fit_surface(refit_dist, "conditional")
        assert second.sigma_1 == pytest.approx(first.sigma_1, abs=1e-9)
        assert second.sigma_2 == pytest.approx(first.sigma_2, abs=1e-9)
        assert second.sigma_12 == pytest.approx(first.sigma_12, abs=1e-9)

    def test_small_region_classical_fit_recovers_analytic(self):
        centers = np.linspace(-1.5, 1.5, 25)
        analytic = classical_widths(MODEL)
        joint = probability_map(MODEL, centers, centers, 0.01)
        fit = fit_surface(joint, "symmetric_pm")
        assert fit.sigma_plus == pytest.approx(analytic.sigma_plus, rel=0.02)
        assert fit.sigma_minus == pytest.approx(analytic.sigma_minus, rel=0.02)
        conditional = probability_map(MODEL, centers, centers, 0.01,
                                      kind="conditional_probability")
        cond_fit = fit_surface(conditional, "conditional")
        assert cond_fit.sigma_1 == pytest.approx(analytic.sigma_1, rel=0.02)
        assert cond_fit.sigma_2 == pytest.approx(analytic.sigma_2, rel=0.02)
        assert cond_fit.sigma_12 == pytest.approx(analytic.sigma_12, rel=0.02)

    def test_entanglement_wider_than_classical(self):
        centers = np.linspace(-4.0, 4.0, 17)
        classical_fit = fit_surface(
            probability_map(MODEL, centers, centers, 0.25), "symmetric_pm")
        quantum_fit = fit_surface(
            two_party_map(MODEL, centers, centers_b=centers,
                          half_width=0.25,
                          n_bins=60),
            "symmetric_pm")
        assert quantum_fit.sigma_plus > classical_fit.sigma_plus
        assert quantum_fit.sigma_minus > classical_fit.sigma_minus

    def test_insufficient_support(self):
        x = np.linspace(-1, 1, 3)
        xg, yg = np.meshgrid(x, x, indexing="ij")
        dist = Distribution2D(axis_a=x, axis_b=x, values=np.exp(-xg**2 - yg**2))
        with pytest.raises(InsufficientSupport):
            fit_surface(dist, "symmetric_pm")

    @pytest.mark.parametrize("threshold,window", [
        (np.nan, None), (np.inf, None), (-np.inf, None),
        (1e-3, np.nan), (1e-3, np.inf), (1e-3, 0.0), (1e-3, -1.0)])
    def test_non_finite_threshold_or_bad_window_refused(self, threshold, window):
        x = np.linspace(-2, 2, 9)
        xg, yg = np.meshgrid(x, x, indexing="ij")
        dist = Distribution2D(axis_a=x, axis_b=x, values=np.exp(-xg**2 - yg**2))
        with pytest.raises(DomainError, match="threshold|window"):
            fit_surface(dist, "symmetric_pm", threshold=threshold, window=window)

    def test_non_positive_curvature(self):
        x = np.linspace(-2, 2, 15)
        xg, yg = np.meshgrid(x, x, indexing="ij")
        dist = Distribution2D(axis_a=x, axis_b=x,
                              values=np.exp(+0.2 * (xg + yg)**2
                                            - (xg - yg)**2) * 1e-2)
        with pytest.raises(NonPositiveCurvature):
            fit_surface(dist, "symmetric_pm")

    def test_window_restricts_samples(self):
        x = np.linspace(-6, 6, 25)
        params = FitParams(form="symmetric_pm", amplitude=1.0, residual=0.0,
                           sigma_plus=3.0, sigma_minus=1.0)
        xg, yg = np.meshgrid(x, x, indexing="ij")
        dist = Distribution2D(axis_a=x, axis_b=x,
                              values=params.surface(xg, yg))
        fit = fit_surface(dist, "symmetric_pm", window=3.0)
        assert fit.sigma_plus == pytest.approx(3.0, abs=1e-6)


class TestSigmaScan:
    def test_analytic_branch_orderings(self):
        alphas = [0.1, 0.5, 1.0, 2.0, 4.0, 8.0]
        rows = sigma_vs_alpha_scan(alphas, which="small_a_analytic")
        plus = [row.sigma_plus for row in rows]
        assert np.allclose(plus, plus[0])
        for row in rows:
            assert row.sigma_1 > row.sigma_2
            assert row.sigma_1 > row.sigma_12

    def test_sigma12_sigma2_crossing(self):
        # sigma_12 dominates at weak coupling, sigma_2 beyond alpha = 2
        rows = sigma_vs_alpha_scan([0.5, 1.0, 3.0, 6.0],
                                   which="small_a_analytic")
        assert rows[0].sigma_12 > rows[0].sigma_2
        assert rows[-1].sigma_12 < rows[-1].sigma_2

    def test_numeric_classical_branch(self):
        rows = sigma_vs_alpha_scan([6.0], which="classical", half_width=0.05,
                                   extent=1.5, steps=21)
        analytic = classical_widths(MODEL)
        assert rows[0].sigma_plus == pytest.approx(analytic.sigma_plus, rel=0.05)
        assert rows[0].sigma_minus == pytest.approx(analytic.sigma_minus,
                                                    rel=0.05)
        assert rows[0].sigma_12 == pytest.approx(analytic.sigma_12, rel=0.05)

    def test_quantum_branch(self):
        rows = sigma_vs_alpha_scan([6.0], which="quantum", half_width=0.25,
                                   extent=4.0, steps=17)
        assert rows[0].sigma_plus > rows[0].sigma_minus > 0.0
