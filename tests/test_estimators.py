"""Estimator-layer tests: fixtures, algebraic identities, and oracle equality."""

import math

import numpy as np
import pytest

from qfest import oracle
from qfest.estimators import (
    AsymptoticVariance,
    EstimateConfig,
    InsufficientDataError,
    UndefinedEntropyError,
    estimate_divergence,
    estimate_q11,
    estimate_q11_incomplete,
    estimate_q20,
    estimate_q20_incomplete,
    estimate_renyi2,
    log_gap,
    sqrt_gap,
)
from qfest.processes import GaussianMA, SeededStream, paired_generate

Q20_STD_NORMAL = 1.0 / (2.0 * math.sqrt(math.pi))


class TestConfig:
    def test_rejects_bad_kl(self):
        with pytest.raises(ValueError):
            EstimateConfig(k=2, l=1, epsilon=0.5)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            EstimateConfig(k=2, l=0, epsilon=0.0)

    def test_incomplete_needs_gap(self):
        with pytest.raises(ValueError):
            EstimateConfig(k=2, l=0, epsilon=0.5, variant="incomplete")

    def test_complete_takes_no_gap(self):
        with pytest.raises(ValueError):
            EstimateConfig(k=2, l=0, epsilon=0.5, gap=3)


class TestGapRules:
    def test_log_gap_values(self):
        assert log_gap(100) == 4
        assert log_gap(1000) == 6

    def test_sqrt_gap_values(self):
        assert sqrt_gap(100) == 10
        assert sqrt_gap(1000) == 31


class TestQ20:
    def test_coincident_pair(self):
        est = estimate_q20([0.0, 0.0], 0.5)
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.raw_count == 1

    def test_three_point_fixture(self):
        est = estimate_q20([0.0, 0.5, 2.0], 1.0)
        assert est.value == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert est.raw_count == 1
        assert est.normalizer == pytest.approx(3 * 2.0, rel=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            estimate_q20([1.0], 0.5)

    def test_large_iid_normal(self):
        rng = np.random.default_rng(101)
        x = rng.normal(size=4000)
        est = estimate_q20(x, 0.05)
        assert est.value == pytest.approx(Q20_STD_NORMAL, abs=0.02)


class TestQ11:
    def test_single_pair(self):
        est = estimate_q11([0.0], [0.4], 0.5)
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_disjoint_supports(self):
        assert estimate_q11([0.0, 1.0], [10.0, 11.0], 0.5).value == 0.0

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            estimate_q11([0.0, 1.0], [0.0], 0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(102)
        x = rng.normal(size=150)
        y = rng.normal(size=150) + 1.0
        assert estimate_q11(x, y, 0.2).value == estimate_q11(y, x, 0.2).value

    def test_large_iid_normal_pair(self):
        rng = np.random.default_rng(103)
        x = rng.normal(size=4000)
        y = rng.normal(1.0, math.sqrt(0.75), size=4000)
        truth = math.exp(-1.0 / 3.5) / math.sqrt(2.0 * math.pi * 1.75)
        assert estimate_q11(x, y, 0.05).value == pytest.approx(truth, abs=0.02)


class TestIncomplete:
    def test_gap_zero_matches_complete_within(self):
        rng = np.random.default_rng(104)
        x = rng.normal(size=120)
        a = estimate_q20(x, 0.1)
        b = estimate_q20_incomplete(x, 0.1, 0)
        assert a.value == b.value
        assert a.raw_count == b.raw_count

    def test_all_coincident_with_gap(self):
        est = estimate_q20_incomplete([0.0] * 5, 0.5, 2)
        assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_q11_gap0_two_points(self):
        est = estimate_q11_incomplete([0.0, 0.0], [0.0, 0.0], 1.0, 0)
        assert est.value == pytest.approx(0.5, rel=1e-12)
        assert est.raw_count == 2

    def test_all_coincident_q11_value_is_inverse_ball(self):
        est = estimate_q11_incomplete([1.0] * 6, [1.0] * 6, 0.25, 2)
        assert est.value == pytest.approx(1.0 / 0.5, rel=1e-12)

    def test_between_gap_zero_algebra(self):
        # full-count relation: n^2 b q11 = 2 comb(n,2) b q11*(gap 0) + diagonal count
        rng = np.random.default_rng(105)
        n = 90
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        eps = 0.3
        complete = estimate_q11(x, y, eps)
        inc = estimate_q11_incomplete(x, y, eps, 0)
        diag = int(np.count_nonzero((x - y) ** 2 <= eps * eps))
        assert complete.raw_count == inc.raw_count + diag
        lhs = complete.value * complete.normalizer
        rhs = inc.value * inc.normalizer + diag
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_gap_too_large(self):
        with pytest.raises(InsufficientDataError):
            estimate_q20_incomplete([0.0, 1.0, 2.0], 0.5, 2)
        with pytest.raises(InsufficientDataError):
            estimate_q11_incomplete([0.0, 1.0], [0.0, 1.0], 0.5, 1)

    def test_non_integer_gap_is_rejected(self):
        x = np.arange(20.0)
        with pytest.raises(ValueError, match="gap must be an integer"):
            estimate_q20_incomplete(x, 0.5, 2.7)
        with pytest.raises(ValueError, match="gap must be an integer"):
            estimate_q11_incomplete(x, x, 0.5, 2.5)

    def test_numpy_integer_gap_is_accepted(self):
        rng = np.random.default_rng(109)
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        assert estimate_q20_incomplete(x, 0.2, np.int64(3)) == estimate_q20_incomplete(x, 0.2, 3)
        assert estimate_divergence(x, y, 0.2, "incomplete", np.int32(3)) == estimate_divergence(
            x, y, 0.2, "incomplete", 3
        )

    def test_complete_variant_rejects_a_gap(self):
        x = np.arange(20.0)
        with pytest.raises(ValueError, match="complete variant takes no gap"):
            estimate_divergence(x, x + 0.5, 0.5, "complete", gap=3)
        with pytest.raises(ValueError, match="complete variant takes no gap"):
            estimate_renyi2(x, 0.5, "complete", gap=0)

    def test_default_gap_is_log_n(self):
        rng = np.random.default_rng(106)
        x = rng.normal(size=150)
        assert (
            estimate_q20_incomplete(x, 0.2).value
            == estimate_q20_incomplete(x, 0.2, log_gap(150)).value
        )


class TestDivergence:
    def test_identical_samples_algebra(self):
        rng = np.random.default_rng(107)
        x = rng.normal(size=80)
        got = estimate_divergence(x, x, 0.2)
        q20 = estimate_q20(x, 0.2).value
        q11 = estimate_q11(x, x, 0.2).value
        assert got == pytest.approx(2.0 * q20 - 2.0 * q11, rel=1e-12)

    def test_component_arithmetic(self):
        # q20 = q02 = 1, q11 = 0 by construction
        assert estimate_divergence([0.0, 0.0], [10.0, 10.0], 0.5) == pytest.approx(2.0)

    def test_negative_value_reported_raw(self):
        # identical samples make q11 dominate through the diagonal
        x = np.array([0.0, 10.0, 20.0, 30.0])
        value = estimate_divergence(x, x, 0.5)
        assert value < 0.0
        assert estimate_divergence(x, x, 0.5, clamp_nonnegative=True) == 0.0

    def test_incomplete_variant_uses_shared_gap(self):
        rng = np.random.default_rng(108)
        x = rng.normal(size=130)
        y = rng.normal(size=130) + 0.3
        got = estimate_divergence(x, y, 0.2, variant="incomplete", gap=5)
        expect = (
            estimate_q20_incomplete(x, 0.2, 5).value
            - 2.0 * estimate_q11_incomplete(x, y, 0.2, 5).value
            + estimate_q20_incomplete(y, 0.2, 5).value
        )
        assert got == pytest.approx(expect, rel=1e-12)

    def test_large_sample_near_truth(self):
        stream = SeededStream(2718)
        x_spec = GaussianMA(taps=(1 / math.sqrt(3),) * 3)
        y_spec = GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0)
        x, y = paired_generate(x_spec, y_spec, 6000, stream)
        value = estimate_divergence(x, y, 0.05)
        assert value == pytest.approx(0.15458075288363582, abs=0.03)


class TestRenyi2:
    def test_value_one_gives_zero(self):
        assert estimate_renyi2([0.0, 0.0], 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_value_half_gives_log_two(self):
        # one close pair over ball volume 2 gives q20 = 1/2
        est = estimate_q20([0.0, 0.0], 1.0)
        assert est.value == pytest.approx(0.5, rel=1e-12)
        assert estimate_renyi2([0.0, 0.0], 1.0) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_zero_count_raises(self):
        with pytest.raises(UndefinedEntropyError):
            estimate_renyi2([0.0, 5.0, 10.0], 0.1)

    def test_large_iid_normal(self):
        rng = np.random.default_rng(109)
        x = rng.normal(size=5000)
        assert estimate_renyi2(x, 0.05) == pytest.approx(1.2655121234846454, abs=0.06)


class TestScaleCovariance:
    @pytest.mark.parametrize("lam", [0.5, 2.0, 4.0])
    def test_counts_fixed_value_scales(self, lam):
        rng = np.random.default_rng(110)
        x = rng.normal(size=(120, 2))
        y = rng.normal(size=(120, 2))
        eps = 0.4
        for est, scaled in (
            (estimate_q20(x, eps), estimate_q20(x * lam, eps * lam)),
            (estimate_q11(x, y, eps), estimate_q11(x * lam, y * lam, eps * lam)),
        ):
            assert scaled.raw_count == est.raw_count
            assert scaled.value == pytest.approx(est.value / lam**2, rel=1e-12)


class TestOracleEquality:
    """Spot equality against the reference double loops (full scale in acceptance)."""

    def test_random_instances(self):
        rng = np.random.default_rng(111)
        for _ in range(60):
            n = int(rng.integers(2, 180))
            d = int(rng.integers(1, 4))
            eps = float(10.0 ** rng.uniform(-2, 0.5))
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d)) + rng.uniform(-1, 1)
            assert estimate_q20(x, eps).value == oracle.naive_q20(x, eps).value
            assert estimate_q11(x, y, eps).value == oracle.naive_q11(x, y, eps).value
            if n >= 3:
                gap = int(rng.integers(0, n - 1))
                a = estimate_q20_incomplete(x, eps, gap)
                b = oracle.naive_q20_incomplete(x, eps, gap)
                assert (a.value, a.raw_count) == (b.value, b.raw_count)
                a = estimate_q11_incomplete(x, y, eps, gap)
                b = oracle.naive_q11_incomplete(x, y, eps, gap)
                assert (a.value, a.raw_count) == (b.value, b.raw_count)


class TestEpsilonLevelUnbiasedness:
    def test_incomplete_mean_matches_smoothed_target(self):
        # with gap >= dependence range the estimator is exactly unbiased for
        # the radius-smoothed target
        x_spec = GaussianMA(taps=(1 / math.sqrt(3),) * 3)
        y_spec = GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0)
        eps, n, reps, gap = 0.25, 200, 400, 2
        target = oracle.epsilon_level_target(x_spec, y_spec, eps)
        base = SeededStream(31415)
        values = []
        for r in range(reps):
            x, y = paired_generate(x_spec, y_spec, n, base.child(r))
            values.append(estimate_q11_incomplete(x, y, eps, gap).value)
        values = np.asarray(values)
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - target) < 4.0 * se


class TestAsymptoticVariance:
    def test_consistency_enforced(self):
        AsymptoticVariance(sigma2=1.5, m=1, lag_covariances=(1.0, 0.25))
        with pytest.raises(ValueError):
            AsymptoticVariance(sigma2=2.0, m=1, lag_covariances=(1.0, 0.25))
        with pytest.raises(ValueError):
            AsymptoticVariance(sigma2=1.0, m=2, lag_covariances=(1.0,))
