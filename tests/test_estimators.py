"""Estimator-layer tests: fixtures, algebraic identities, and oracle equality."""

import math
import re
import warnings

import numpy as np
import pytest

from qfest import oracle
from qfest.core import (
    count_close_between,
    count_close_between_gap,
    count_close_within,
    count_close_within_gap,
    unit_ball_volume,
)
from qfest.estimators import (
    AsymptoticVariance,
    InsufficientDataError,
    PairCounts,
    UndefinedEntropyError,
    _count_stack,
    count_pairs,
    estimate_divergence,
    estimate_q11,
    estimate_q11_incomplete,
    estimate_q20,
    estimate_q20_incomplete,
    estimate_piece,
    estimate_renyi2,
    evaluate,
    log_gap,
    sqrt_gap,
)
from qfest.processes import GaussianMA, SeededStream, paired_generate

Q20_STD_NORMAL = 1.0 / (2.0 * math.sqrt(math.pi))


class TestConfig:
    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            estimate_q20(np.arange(10.0), 0.0)

    def test_complete_takes_no_gap(self):
        with pytest.raises(ValueError):
            estimate_divergence(np.arange(10.0), np.arange(10.0), 0.5, "complete", 3)


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
        for gap in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="gap must be an integer"):
                estimate_q20_incomplete(x, 0.5, gap)
            with pytest.raises(ValueError, match="gap must be an integer"):
                estimate_divergence(x, x, 0.5, "incomplete", gap)

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


# every public estimator and its brute-force reference, called on samples x and y
_ESTIMATES = {
    "q20": lambda x, y, eps: estimate_q20(x, eps),
    "q11": lambda x, y, eps: estimate_q11(x, y, eps),
    "q20-incomplete": lambda x, y, eps: estimate_q20_incomplete(x, eps),
    "q11-incomplete": lambda x, y, eps: estimate_q11_incomplete(x, y, eps),
    "divergence": lambda x, y, eps: estimate_divergence(x, y, eps),
    "divergence-incomplete": lambda x, y, eps: estimate_divergence(x, y, eps, "incomplete"),
    "renyi2": lambda x, y, eps: estimate_renyi2(x, eps),
    "naive-q20": lambda x, y, eps: oracle.naive_q20(x, eps),
    "naive-q11": lambda x, y, eps: oracle.naive_q11(x, y, eps),
    "naive-q20-incomplete": lambda x, y, eps: oracle.naive_q20_incomplete(x, eps),
    "naive-q11-incomplete": lambda x, y, eps: oracle.naive_q11_incomplete(x, y, eps),
}


class TestRadiusExtremes:
    @pytest.mark.parametrize(("d", "eps"), [(2, 1e200), (3, 1e-110)], ids=["overflow", "underflow"])
    def test_volume_beyond_the_float_range_is_rejected(self, d, eps):
        x = np.random.default_rng(110).random((20, d))
        with pytest.raises(ValueError, match=re.escape(f"d={d}, epsilon={eps!r}")):
            estimate_q20(x, eps)

    def test_normalizer_overflow_is_rejected(self):
        # the ball volume 2e307 is finite, but comb(20, 2) times it is not
        x = np.random.default_rng(111).random(20)
        with pytest.raises(ValueError, match=re.escape("d=1, epsilon=1e+307")):
            estimate_q20(x, 1e307)

    @pytest.mark.parametrize("name", list(_ESTIMATES))
    @pytest.mark.parametrize(("d", "eps", "what"), [
        (2, 1e200, "ball volume"), (3, 1e-110, "ball volume"), (1, 1e307, "normalizer"),
    ], ids=["overflow", "underflow", "normalizer"])
    def test_bad_radius_fails_before_counting(self, no_count, d, eps, what, name):
        x, y = np.random.default_rng(117).random((2, 20, d))
        with pytest.raises(ValueError, match=re.escape(f"{what} at d={d}, epsilon={eps!r}")):
            _ESTIMATES[name](x, y, eps)

    def test_tiny_finite_normalizer_gives_inf(self):
        x = np.random.default_rng(112).random((20, 2)) * 1e-160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_q20(x, 1e-158)
            stacked = evaluate(_count_stack("q20", x[None], None, 1e-158, None), "q20")
            renyi2 = estimate_renyi2(x, 1e-158)
        assert est.raw_count == 190
        assert est.value == math.inf
        assert stacked.tolist() == [math.inf]
        assert renyi2 == -math.inf

    @pytest.mark.parametrize("variant", ["complete", "incomplete"])
    def test_overflowing_divergence_is_rejected(self, variant):
        # every piece is inf, and inf - 2*inf + inf is NaN
        x, y = np.random.default_rng(115).random((2, 20, 2)) * 1e-160
        with pytest.raises(ValueError, match=re.escape("epsilon=1e-158")):
            estimate_divergence(x, y, 1e-158, variant)
        # a stack evaluates it to NaN, which the harness counts as a failed replication
        counts = _count_stack("divergence", x[None], y[None], 1e-158, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isnan(evaluate(counts, "divergence")[0])


class TestStackedEvaluate:
    """Each row of a stacked evaluation equals Python-float arithmetic on its own counts."""

    @staticmethod
    def _stack(d):
        rng = np.random.default_rng(113)
        n = 16
        grid = np.arange(n, dtype=float)
        x = [grid * 10, rng.normal(size=n), grid * 2, np.zeros(n), rng.normal(size=n)]
        y = [grid * 10 + 1000, rng.normal(size=n) + 0.5, grid * 2 + 0.9, rng.normal(size=n),
             rng.normal(size=n) * 0.3]
        # row 0 has no close pair, row 2 only cross pairs (a negative divergence)
        xs, ys = np.array(x)[..., None], np.array(y)[..., None]
        if d == 2:
            xs = np.concatenate([xs, rng.random(xs.shape) * 0.1], axis=2)
            ys = np.concatenate([ys, rng.random(ys.shape) * 0.1], axis=2)
        return xs, ys

    @staticmethod
    def _reference(x, y, eps, functional, gap, clamp):
        n, d = x.shape
        vol = unit_ball_volume(d) * eps**d

        def piece(name):
            if name == "q11":
                count = count_close_between(x, y, eps) if gap is None else (
                    count_close_between_gap(x, y, eps, gap))
                pairs = float(n) ** 2 if gap is None else 2 * math.comb(n - gap, 2)
            else:
                sample = x if name == "q20" else y
                count = count_close_within(sample, eps) if gap is None else (
                    count_close_within_gap(sample, eps, gap))
                pairs = math.comb(n, 2) if gap is None else math.comb(n - gap, 2)
            return count / (pairs * vol)

        if functional == "divergence":
            value = piece("q20") - 2.0 * piece("q11") + piece("q02")
            return 0.0 if clamp and value < 0.0 else value
        if functional == "renyi2":
            q20 = piece("q20")
            return -math.log(q20) if q20 > 0.0 else math.nan
        return piece(functional)

    @pytest.mark.parametrize("d", [1, 2])
    def test_rows_match_python_floats(self, d):
        xs, ys = self._stack(d)
        eps, max_gap = 1.0, 4
        cases = [("q20", False), ("q11", False), ("q02", False), ("divergence", False),
                 ("divergence", True), ("renyi2", False)]
        for functional, clamp in cases:
            kind = "divergence" if functional in ("q11", "q02") else functional
            counts = _count_stack(kind, xs, ys, eps, max_gap)
            for gap in (None, *range(max_gap + 1)):
                values = evaluate(counts, functional, gap, clamp)
                assert values.shape == (len(xs),)
                for r, value in enumerate(values.tolist()):
                    want = self._reference(xs[r], ys[r], eps, functional, gap, clamp)
                    assert repr(value) == repr(want), (functional, clamp, gap, r)
        # the stack mixes rows with and without close pairs
        renyi = evaluate(_count_stack("renyi2", xs, ys, eps, max_gap), "renyi2")
        assert np.isnan(renyi[0]) and np.isnan(renyi[2]) and np.isfinite(renyi[1])
        divergence = evaluate(_count_stack("divergence", xs, ys, eps, max_gap), "divergence")
        assert divergence[2] < 0.0

    def test_renyi2_rows_take_math_log(self):
        # np.log rounds differently from math.log on some of these values
        n, eps = 1000, 0.05
        full = np.arange(20001)
        counts = PairCounts(n, 1, eps, None, {"q20": full}, {"q20": None})
        values = evaluate(counts, "renyi2").tolist()
        assert math.isnan(values[0])
        vol = unit_ball_volume(1) * eps
        for count, value in zip(full.tolist()[1:], values[1:]):
            assert value == -math.log(count / (math.comb(n, 2) * vol))


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
        # sigma2 and m are derived from the lag covariances, so they cannot disagree
        variance = AsymptoticVariance((1.0, 0.25))
        assert variance.sigma2 == 1.5 and variance.m == 1 and variance.se is None
        assert AsymptoticVariance((2.0,), se=0.1).sigma2 == 2.0
        assert AsymptoticVariance((2.0,)).m == 0


class TestArgumentErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: estimate_renyi2(np.arange(5.0), 0.5, variant="x"),
         "variant must be one of ('complete', 'incomplete'), got 'x'"),
        (lambda: count_pairs("bogus", np.arange(5.0), None, 0.5),
         "functional must be one of ('q20', 'q11', 'divergence', 'renyi2'), got 'bogus'"),
        (lambda: estimate_piece(count_pairs("q20", np.arange(9.0), None, 0.5, "incomplete", 2),
                                "q20", 5),
         "no near-lag counts up to gap 5 (counted to 2)"),
        (lambda: estimate_q20_incomplete(np.arange(9.0), 0.5, 2.5),
         "gap must be an integer, got 2.5"),
        (lambda: count_pairs("q11", np.arange(9.0), np.arange(9.0), 0.5, "incomplete", math.nan),
         "gap must be an integer, got nan"),
        (lambda: estimate_divergence(np.arange(9.0), np.arange(9.0), 0.5, "incomplete", math.inf),
         "gap must be an integer, got inf"),
        (lambda: estimate_q11(np.arange(9.0), np.arange(9.0), 0.0),
         "epsilon must be finite and > 0, got 0.0"),
        (lambda: count_pairs("renyi2", np.arange(9.0), None, 0.5, "complete", 3),
         "complete variant takes no gap"),
        (lambda: estimate_q11_incomplete(np.arange(9.0), np.arange(9.0), 0.5, -1),
         "incomplete variant requires a nonnegative gap"),
    ], ids=["config-variant", "count_pairs-functional", "estimate_piece-gap", "config-gap-fraction",
            "config-gap-nan", "config-gap-inf", "epsilon-zero", "complete-with-gap",
            "incomplete-negative-gap"])
    def test_message_names_the_argument(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_config_stores_an_integral_gap_as_an_int(self):
        gap = estimate_q20_incomplete(np.arange(9.0), 0.5, 3.0).gap
        assert gap == 3 and type(gap) is int


class TestEstimateGap:
    X = np.random.default_rng(5).normal(size=60)
    Y = np.random.default_rng(6).normal(size=60)

    @pytest.mark.parametrize("estimate", [
        lambda x, y: estimate_q20(x, 0.5), lambda x, y: estimate_q11(x, y, 0.5),
        lambda x, y: oracle.naive_q20(x, 0.5), lambda x, y: oracle.naive_q11(x, y, 0.5),
    ], ids=["q20", "q11", "naive_q20", "naive_q11"])
    def test_complete_estimate_has_no_gap(self, estimate):
        assert estimate(self.X, self.Y).gap is None

    @pytest.mark.parametrize("estimate", [
        lambda x, y, gap: estimate_q20_incomplete(x, 0.5, gap),
        lambda x, y, gap: estimate_q11_incomplete(x, y, 0.5, gap),
        lambda x, y, gap: oracle.naive_q20_incomplete(x, 0.5, gap),
        lambda x, y, gap: oracle.naive_q11_incomplete(x, y, 0.5, gap),
    ], ids=["q20", "q11", "naive_q20", "naive_q11"])
    def test_incomplete_estimate_holds_its_resolved_gap(self, estimate):
        assert estimate(self.X, self.Y, None).gap == log_gap(60) == 4
        gap = estimate(self.X, self.Y, 3.0).gap
        assert gap == 3 and type(gap) is int
