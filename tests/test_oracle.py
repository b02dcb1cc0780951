"""Oracle tests: quadrature, closed forms, smoothed targets, long-run variance."""

import inspect
import math
import re
import warnings

import numpy as np
import pytest

from qfest import estimators, oracle
from qfest.estimators import InsufficientDataError
from qfest.oracle import (
    TruthReport,
    UnsupportedProcessError,
    adaptive_simpson,
    epsilon_level_target,
    naive_lag_counts,
    naive_q11,
    naive_q11_incomplete,
    naive_q20,
    naive_q20_incomplete,
    sigma2_oracle,
    true_q,
)
from qfest.processes import (
    ExponentialMarginal,
    GaussianMA,
    Iid,
    MaxIid,
    MinExp,
    NormalMarginal,
    ProductGauss,
    SeededStream,
    UniformMarginal,
)

SQ3 = math.sqrt(3.0)
FIG_X = GaussianMA(taps=(1 / SQ3,) * 3)
FIG_Y = GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0)


class TestAdaptiveSimpson:
    def test_cubic_is_exact(self):
        value, err = adaptive_simpson(lambda t: t**3 - 2.0 * t + 1.0, -1.0, 2.0)
        assert value == pytest.approx(15.0 / 4.0 - 2.0 * 1.5 + 3.0, rel=1e-13)
        assert err <= 1e-12

    def test_sine(self):
        value, err = adaptive_simpson(math.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, rel=1e-10)

    def test_reversed_limits_negate(self):
        forward, _ = adaptive_simpson(math.exp, 0.0, 1.0)
        backward, _ = adaptive_simpson(math.exp, 1.0, 0.0)
        assert backward == -forward

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 2.0, 2.0) == (0.0, 0.0)


class TestTrueQ:
    def test_normal_pair_closed_form(self):
        report = true_q(FIG_X, FIG_Y)
        assert report.method == "closed-form"
        assert report.q20 == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-14)
        assert report.q02 == pytest.approx(1.0 / (2.0 * math.sqrt(0.75 * math.pi)), rel=1e-14)
        want_q11 = math.exp(-1.0 / 3.5) / math.sqrt(2.0 * math.pi * 1.75)
        assert report.q11 == pytest.approx(want_q11, rel=1e-14)
        assert abs(report.divergence - 0.155) < 5e-4

    def test_exponential_closed_form(self):
        report = true_q(MinExp(rate=1.0 / 3.0, window=3))
        assert report.method == "closed-form"
        assert report.q20 == pytest.approx(0.5, rel=1e-14)
        assert report.divergence == 0.0

    def test_exponential_cross(self):
        report = true_q(Iid(ExponentialMarginal(1.0)), Iid(ExponentialMarginal(3.0)))
        assert report.q11 == pytest.approx(3.0 / 4.0, rel=1e-14)

    def test_report_identities_exact(self):
        report = true_q(FIG_X, FIG_Y)
        assert report.divergence == report.q20 - 2.0 * report.q11 + report.q02
        assert report.renyi2 == -math.log(report.q20)

    def test_report_derives_divergence_and_entropy(self):
        q20, q11, q02 = 0.3, 0.1 + 0.2, 1.0 / 3.0
        report = TruthReport(q20, q11, q02, "quadrature", 1e-12)
        assert report.divergence == q20 - 2.0 * q11 + q02
        assert report.renyi2 == -math.log(q20)
        assert report.value_for("renyi2") == report.renyi2

    @pytest.mark.parametrize("function, removed", [
        (adaptive_simpson, {"tol", "max_depth"}),
        (true_q, {"tol"}),
        (epsilon_level_target, {"tol"}),
        (sigma2_oracle, {"batches"}),
    ], ids=["adaptive_simpson", "true_q", "epsilon_level_target", "sigma2_oracle"])
    def test_fixed_numerics_are_not_parameters(self, function, removed):
        assert not removed & set(inspect.signature(function).parameters)

    def test_quadrature_agrees_with_closed_form(self):
        for spec_x, spec_y in (
            (FIG_X, FIG_Y),
            (Iid(ExponentialMarginal(1.0)), Iid(ExponentialMarginal(0.5))),
            (Iid(NormalMarginal(0.0, 1.0)), Iid(ExponentialMarginal(1.0))),
        ):
            quad = true_q(spec_x, spec_y, method="quadrature")
            assert quad.error_bound < 1e-8
            if spec_x.marginal().__class__ is spec_y.marginal().__class__:
                closed = true_q(spec_x, spec_y, method="closed-form")
                for key in ("q20", "q11", "q02", "divergence"):
                    assert getattr(quad, key) == pytest.approx(
                        getattr(closed, key), abs=1e-8
                    )

    def test_max_iid_by_quadrature(self):
        report = true_q(MaxIid())
        assert report.method == "quadrature"
        assert report.q20 == pytest.approx(4.0 / 3.0, rel=1e-9)

    def test_uniform_pair(self):
        report = true_q(Iid(UniformMarginal(0.0, 1.0)), Iid(UniformMarginal(0.5, 1.5)))
        assert report.q20 == pytest.approx(1.0, rel=1e-9)
        assert report.q11 == pytest.approx(0.5, rel=1e-9)

    def test_unsupported_process(self):
        with pytest.raises(UnsupportedProcessError):
            true_q(ProductGauss())
        with pytest.raises(UnsupportedProcessError):
            true_q(MaxIid(), method="closed-form")

    def test_value_lookup(self):
        report = true_q(FIG_X, FIG_Y)
        assert report.value_for("divergence") == report.divergence
        with pytest.raises(ValueError):
            report.value_for("q30")


class TestEpsilonLevelTarget:
    def test_uniform_exact_area(self):
        spec = Iid(UniformMarginal(0.0, 1.0))
        assert epsilon_level_target(spec, spec, 0.1) == pytest.approx(0.95, abs=1e-9)

    def test_converges_to_q11_monotonically(self):
        pairs = [
            (Iid(NormalMarginal(0.0, 1.0)), Iid(NormalMarginal(0.0, 1.0))),
            (Iid(ExponentialMarginal(1.0)), Iid(ExponentialMarginal(1.0))),
        ]
        for spec_x, spec_y in pairs:
            q11 = true_q(spec_x, spec_y).q11
            targets = [epsilon_level_target(spec_x, spec_y, e) for e in (0.2, 0.1, 0.05, 0.02)]
            assert all(a < b for a, b in zip(targets, targets[1:]))
            assert all(t < q11 for t in targets)
            # smoothing bias is at worst first order in the radius (kinked
            # difference densities); the normal pair converges quadratically
            assert abs(targets[-1] - q11) < 0.02 / 2.0

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            epsilon_level_target(FIG_X, FIG_Y, 0.0)

    def test_unsupported(self):
        with pytest.raises(UnsupportedProcessError):
            epsilon_level_target(ProductGauss(), FIG_X, 0.1)


class TestSigma2Oracle:
    def test_iid_exponential_closed_form(self):
        # Var(exp(-X)) for unit-rate X is 1/3 - 1/4 = 1/12; no lag terms
        av = sigma2_oracle(
            Iid(ExponentialMarginal(1.0)), (2, 0), reps=150_000, stream=SeededStream(51)
        )
        assert av.m == 0
        assert len(av.lag_covariances) == 1
        assert av.se is not None and av.se > 0.0
        assert abs(av.sigma2 - 1.0 / 12.0) < 4.0 * av.se

    def test_iid_normal_pair_cross_kernel(self):
        # g = (pdf(X) + pdf(Y))/2 for two independent standard normals:
        # Var(g) = Var(pdf(Z))/2 with Var(pdf(Z)) = 1/(2*pi*sqrt(3)) - 1/(4*pi)
        spec = Iid(NormalMarginal(0.0, 1.0))
        av = sigma2_oracle(spec, (1, 1), spec_y=spec, reps=150_000, stream=SeededStream(52))
        want = (1.0 / (2.0 * math.pi * SQ3) - 1.0 / (4.0 * math.pi)) / 2.0
        assert abs(av.sigma2 - want) < 4.0 * av.se

    def test_min_exp_dependent_lags(self):
        av = sigma2_oracle(
            MinExp(rate=1.0 / 3.0, window=3), (2, 0), reps=150_000, stream=SeededStream(53)
        )
        assert av.m == 2
        assert len(av.lag_covariances) == 3
        assert av.sigma2 > 1.0 / 12.0  # positive lag covariances add to the iid term
        assert av.sigma2 == av.lag_covariances[0] + 2.0 * sum(av.lag_covariances[1:])

    def test_independent_streams_agree(self):
        spec = MinExp(rate=1.0 / 3.0, window=3)
        a = sigma2_oracle(spec, (2, 0), reps=120_000, stream=SeededStream(54))
        b = sigma2_oracle(spec, (2, 0), reps=120_000, stream=SeededStream(55))
        assert abs(a.sigma2 - b.sigma2) < 6.0 * (a.se + b.se)

    def test_functional_zero_two_uses_second_spec(self):
        av = sigma2_oracle(
            ProductGauss(), (0, 2), spec_y=Iid(ExponentialMarginal(1.0)),
            reps=60_000, stream=SeededStream(56),
        )
        assert abs(av.sigma2 - 1.0 / 12.0) < 6.0 * av.se

    def test_unknown_marginal_unsupported(self):
        with pytest.raises(UnsupportedProcessError):
            sigma2_oracle(ProductGauss(), (2, 0), reps=10_000)

    def test_bad_functional(self):
        with pytest.raises(ValueError):
            sigma2_oracle(Iid(), (3, 0), reps=10_000)


class TestNaiveEstimators:
    def test_fixtures(self):
        assert naive_q20([0.0, 0.5, 2.0], 1.0).value == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert naive_q11([0.0], [0.4], 0.5).value == pytest.approx(1.0, rel=1e-12)

    def test_error_contracts(self):
        with pytest.raises(InsufficientDataError):
            naive_q20([1.0], 0.5)
        with pytest.raises(ValueError):
            naive_q11([0.0, 1.0], [0.0], 0.5)

    @pytest.mark.parametrize("gap", [2.5, math.inf, math.nan], ids=["fraction", "inf", "nan"])
    def test_non_integer_gap_is_rejected(self, gap):
        # as in the estimators: no truncation to int, and no OverflowError
        x = [float(i) for i in range(20)]
        with pytest.raises(ValueError, match="gap must be an integer"):
            naive_q20_incomplete(x, 0.5, gap)
        with pytest.raises(ValueError, match="gap must be an integer"):
            naive_q11_incomplete(x, [v + 0.25 for v in x], 0.5, gap)

    def test_integral_float_gap_is_accepted(self):
        x = [float(i) for i in range(20)]
        assert naive_q20_incomplete(x, 3.0, 2.0).gap == 2
        assert naive_q11_incomplete(x, x, 3.0, 2.0).gap == 2

    @pytest.mark.parametrize("name", ["q20", "q11", "q20_incomplete", "q11_incomplete"])
    def test_overflowing_normalizer_is_rejected_as_by_the_estimator(self, name):
        # the ball volume 2e307 is finite, but no pair count times it is
        x, y = np.random.default_rng(118).random((2, 20))
        args = (x, 1e307) if name.startswith("q20") else (x, y, 1e307)
        with pytest.raises(ValueError) as want:
            getattr(estimators, f"estimate_{name}")(*args)
        with pytest.raises(ValueError) as got:
            getattr(oracle, f"naive_{name}")(*args)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("normalizer at d=1, epsilon=1e+307 ")


class TestNaiveLagCounts:
    def test_hand_counted_lags(self):
        # close within 1.0: (0, 1) and (1, 2) at lag 1, (1, 3) and (2, 4) at
        # lag 2, (0, 3) at lag 3
        x = [0.0, 1.0, 2.0, 0.5, 3.0]
        assert naive_lag_counts(x, None, 1.0).tolist() == [0, 2, 2, 1, 0]
        # ordered cross pairs (x_i, y_j) at lag |j - i|: (0, 0) and (2, 2) at
        # lag 0; (1, 0), (1, 2), (2, 3), (3, 2) and (4, 3) at lag 1; (3, 0) at lag 3
        y = [0.25, 5.0, 1.5, 2.5, 9.0]
        assert naive_lag_counts(x, y, 1.0).tolist() == [2, 5, 0, 1, 0]

    def test_zero_radius_counts_underflowing_pairs(self):
        # squared differences of at most (2e-170)**2 underflow to 0.0, so the
        # points 0, 1e-170 and 2e-170 are close at eps = 0; 1.0 is close to none
        x = np.array([0.0, 1e-170, 2e-170, 1.0, 1e-170])
        # the close pairs are those among rows 0, 1, 2 and 4
        assert naive_lag_counts(x, None, 0.0).tolist() == [0, 2, 2, 1, 1]
        # each of them twice, plus the five diagonal pairs
        assert naive_lag_counts(x, x, 0.0).tolist() == [5, 4, 4, 2, 2]

    def test_overflowing_squares_are_not_close(self):
        # eps**2 = 1e300 is finite, and (2e300)**2 overflows to inf
        x = np.array([[1e300, 0.0], [-1e300, 0.0], [1e300, 0.0]])
        y = -x
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            within = naive_lag_counts(x, None, 1e150)
            between = naive_lag_counts(x, y, 1e150)
        # only equal points are close: rows 0 and 2 of x, and x_i with y_j at lag 1
        assert within.tolist() == [0, 0, 1]
        assert between.tolist() == [0, 4, 0]

    @pytest.mark.parametrize("eps", [-0.5, math.nan])
    def test_rejects_a_negative_or_nan_radius(self, eps):
        with pytest.raises(ValueError, match="radius"):
            naive_lag_counts([0.0, 1.0], None, eps)
        with pytest.raises(ValueError, match="radius"):
            naive_lag_counts([0.0, 1.0], [0.0, 1.0], eps)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            naive_lag_counts([0.0, 1.0, 2.0], [0.0, 1.0], 1.0)


class TestArgumentErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: true_q(MinExp(), method="x"), "unknown method 'x'"),
        (lambda: sigma2_oracle(MinExp(), reps=100), "reps=100 too small for 32 batches"),
        (lambda: sigma2_oracle(MinExp(), (0, 2), reps=200),
         "functional (0, 2) requires spec_y"),
        (lambda: sigma2_oracle(MinExp(), (1, 1), reps=200),
         "functional (1, 1) requires spec_y"),
    ], ids=["true_q-method", "sigma2-reps", "sigma2-q02-without-y", "sigma2-q11-without-y"])
    def test_message_names_the_argument(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
