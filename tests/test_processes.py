"""Process-generator tests: marginals, dependence range, ties, determinism."""

import math
import re

import numpy as np
import pytest
import scipy.stats

from qfest.cli import _BASED, _KINDS
from qfest.processes import (
    BernoulliShuffle,
    ExponentialMarginal,
    GaussianMA,
    Iid,
    MaxIid,
    MaxOfPairMarginal,
    MinExp,
    NormalMarginal,
    ProductGauss,
    SeededStream,
    UniformMarginal,
    _child_ids,
    _generate_stack,
    generate,
    paired_generate,
)

SQ3 = math.sqrt(3.0)


def _path(spec, n, seed=0, stream=0):
    return generate(spec, n, SeededStream(seed, stream))[:, 0]


class TestSeededStream:
    def test_same_key_same_output(self):
        a = SeededStream(7, 3).generator().standard_normal(8)
        b = SeededStream(7, 3).generator().standard_normal(8)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = SeededStream(7, 0).generator().standard_normal(8)
        b = SeededStream(7, 1).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_child_depends_on_index_order(self):
        base = SeededStream(7)
        assert base.child(1, 2) == base.child(1, 2)
        assert base.child(1, 2) != base.child(2, 1)
        assert base.child(0) != base.child(1)

    @pytest.mark.parametrize("args", [(1.5,), (0, math.inf), (math.nan, 0), (0, 2.5)])
    def test_rejects_a_non_integer_field(self, args):
        # a fractional seed once drew silently with its truncation
        with pytest.raises(ValueError, match="^(seed|stream) must be an integer"):
            SeededStream(*args)

    def test_integral_fields_are_stored_as_ints(self):
        stream = SeededStream(7.0, 3.0)
        assert stream == SeededStream(7, 3)
        assert type(stream.seed) is int and type(stream.stream) is int

    def test_philox_reference_sequence(self):
        # counter-based contract: fixed key, fixed draws, any platform
        got = SeededStream(12345, 6789).generator().integers(0, 2**32, 4)
        again = SeededStream(12345, 6789).generator().integers(0, 2**32, 4)
        assert np.array_equal(got, again)


class TestSpecValidation:
    def test_gaussian_ma_rejects_zero_taps(self):
        with pytest.raises(ValueError):
            GaussianMA(taps=(0.0, 0.0))

    def test_gaussian_ma_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            GaussianMA(taps=(1.0, float("inf")))

    def test_min_exp_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MinExp(rate=1.0, window=0)

    def test_min_exp_stores_an_integral_window(self):
        spec = MinExp(window=2.0)
        assert type(spec.window) is int
        np.testing.assert_array_equal(generate(spec, 50, SeededStream(1)),
                                      generate(MinExp(window=2), 50, SeededStream(1)))

    def test_generate_rejects_bad_length(self):
        with pytest.raises(ValueError):
            generate(ProductGauss(), 0, SeededStream(1))

    def test_dependence_ranges(self):
        assert GaussianMA(taps=(1.0, 1.0, 1.0)).m == 2
        assert MinExp(window=3).m == 2
        assert ProductGauss().m == 1
        assert MaxIid().m == 1
        assert BernoulliShuffle().m == 1
        assert Iid().m == 0


class TestMarginals:
    def test_gaussian_ma_standard_normal(self):
        marg = GaussianMA(taps=(1 / SQ3,) * 3).marginal()
        assert isinstance(marg, NormalMarginal)
        assert marg.mean == 0.0
        assert marg.variance == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_ma_shifted(self):
        marg = GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0).marginal()
        assert marg.mean == 1.0
        assert marg.variance == pytest.approx(0.75, rel=1e-12)

    def test_min_exp_rate_sums(self):
        marg = MinExp(rate=1.0 / 3.0, window=3).marginal()
        assert isinstance(marg, ExponentialMarginal)
        assert marg.rate == pytest.approx(1.0, rel=1e-12)
        assert marg.pdf(2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_max_iid_uniform_density(self):
        marg = MaxIid().marginal()
        assert isinstance(marg, MaxOfPairMarginal)
        for x in (0.1, 0.5, 0.9):
            assert marg.pdf(x) == pytest.approx(2.0 * x, rel=1e-12)
            assert marg.cdf(x) == pytest.approx(x * x, rel=1e-12)

    def test_product_gauss_has_no_closed_form(self):
        assert ProductGauss().marginal() is None

    def test_bernoulli_shuffle_keeps_base(self):
        base = NormalMarginal(2.0, 4.0)
        assert BernoulliShuffle(base=base).marginal() is base

    def test_normal_cdf_vectorized(self):
        marg = NormalMarginal(0.0, 1.0)
        grid = np.array([-1.0, 0.0, 1.0])
        out = marg.cdf(grid)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5, abs=1e-15)

    def test_uniform_marginal(self):
        marg = UniformMarginal(1.0, 3.0)
        assert marg.pdf(2.0) == 0.5
        assert marg.pdf(0.0) == 0.0
        assert marg.cdf(2.0) == 0.5


class TestMoments:
    def test_gaussian_ma_standard_normal_moments(self):
        x = _path(GaussianMA(taps=(1 / SQ3,) * 3), 200_000, seed=1)
        assert x.mean() == pytest.approx(0.0, abs=0.02)
        assert x.var() == pytest.approx(1.0, abs=0.03)

    def test_gaussian_ma_shifted_moments(self):
        x = _path(GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0), 200_000, seed=2)
        assert x.mean() == pytest.approx(1.0, abs=0.02)
        assert x.var() == pytest.approx(0.75, abs=0.03)

    def test_min_exp_unit_mean(self):
        x = _path(MinExp(rate=1.0 / 3.0, window=3), 200_000, seed=3)
        assert x.mean() == pytest.approx(1.0, abs=0.02)


def _lag_corr(x, h):
    return float(np.corrcoef(x[:-h], x[h:])[0, 1])


class TestDependenceRange:
    N = 100_000
    TOL = 4.0 / math.sqrt(100_000)

    @pytest.mark.parametrize("spec,seed", [
        (GaussianMA(taps=(1 / SQ3,) * 3), 11),
        (MinExp(rate=1.0 / 3.0, window=3), 12),
        (ProductGauss(), 13),
        (MaxIid(), 14),
        (BernoulliShuffle(), 15),
        (Iid(), 16),
    ])
    def test_vanishing_beyond_m(self, spec, seed):
        x = _path(spec, self.N, seed=seed)
        for h in (spec.m + 1, spec.m + 2):
            assert abs(_lag_corr(x, h)) < self.TOL

    def test_gaussian_ma_matches_closed_form_within_m(self):
        spec = GaussianMA(taps=(1 / SQ3,) * 3)
        x = _path(spec, self.N, seed=17)
        for h in (1, 2):
            want = spec.autocovariance(h) / spec.autocovariance(0)
            assert _lag_corr(x, h) == pytest.approx(want, abs=self.TOL)

    def test_alternating_ma_matches_closed_form(self):
        spec = GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0)
        assert spec.autocovariance(0) == pytest.approx(0.75)
        assert spec.autocovariance(1) == pytest.approx(-0.5)
        assert spec.autocovariance(2) == pytest.approx(0.25)
        x = _path(spec, self.N, seed=18)
        for h in (1, 2):
            want = spec.autocovariance(h) / spec.autocovariance(0)
            assert _lag_corr(x, h) == pytest.approx(want, abs=self.TOL)


class TestStationaryStart:
    """X_1 across many streams must already follow the marginal law."""

    STREAMS = 2000

    @pytest.mark.parametrize("spec,seed", [
        (GaussianMA(taps=(1 / SQ3,) * 3), 21),
        (GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0), 22),
        (MinExp(rate=1.0 / 3.0, window=3), 23),
        (MaxIid(), 24),
        (BernoulliShuffle(), 25),
    ])
    def test_first_observation_distribution(self, spec, seed):
        base = SeededStream(seed)
        firsts = np.array(
            [generate(spec, 1, base.child(r))[0, 0] for r in range(self.STREAMS)]
        )
        marginal = spec.marginal()
        result = scipy.stats.kstest(firsts, marginal.cdf)
        assert result.pvalue > 0.01


class TestTies:
    def test_max_iid_tie_probability(self):
        n = 30_000
        x = _path(MaxIid(), n, seed=31)
        ties = float(np.mean(x[1:] == x[:-1]))
        se = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / (n - 1))
        assert abs(ties - 1.0 / 3.0) < 4.0 * se

    def test_bernoulli_shuffle_tie_probability(self):
        n = 30_000
        x = _path(BernoulliShuffle(), n, seed=32)
        ties = float(np.mean(x[1:] == x[:-1]))
        se = math.sqrt((1.0 / 4.0) * (3.0 / 4.0) / (n - 1))
        assert abs(ties - 1.0 / 4.0) < 4.0 * se

    def test_gaussian_ma_never_ties(self):
        x = _path(GaussianMA(taps=(1 / SQ3,) * 3), 30_000, seed=33)
        assert not np.any(x[1:] == x[:-1])


class TestPairedGenerate:
    def test_shapes_and_determinism(self):
        spec = GaussianMA(taps=(1 / SQ3,) * 3)
        x1, y1 = paired_generate(spec, MinExp(), 500, SeededStream(41))
        x2, y2 = paired_generate(spec, MinExp(), 500, SeededStream(41))
        assert x1.shape == y1.shape == (500, 1)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)

    def test_same_spec_same_substream_identical(self):
        spec = GaussianMA(taps=(1 / SQ3,) * 3)
        s = SeededStream(42).child(0)
        assert np.array_equal(generate(spec, 100, s), generate(spec, 100, s))

    def test_components_uncorrelated(self):
        spec = GaussianMA(taps=(1 / SQ3,) * 3)
        x, y = paired_generate(spec, spec, 100_000, SeededStream(43))
        corr = float(np.corrcoef(x[:, 0], y[:, 0])[0, 1])
        assert abs(corr) < 4.0 / math.sqrt(100_000)


STACK_SPECS = (
    GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0),
    MinExp(),
    ProductGauss(),
    MaxIid(),
    BernoulliShuffle(),
    Iid(ExponentialMarginal(2.0)),
)


def _reference_path(spec, n, rng):
    """One sample drawn from ``rng`` by the plain per-row construction of each kind."""
    if spec.kind == "gaussian-ma":
        m = spec.m
        z = rng.standard_normal(n + m)
        x = spec.taps[0] * z[m : m + n]
        for k in range(1, m + 1):
            x = x + spec.taps[k] * z[m - k : m - k + n]
        return x + spec.shift
    if spec.kind == "min-exp":
        z = rng.exponential(1.0 / spec.rate, n + spec.window - 1)
        x = z[:n].copy()
        for k in range(1, spec.window):
            np.minimum(x, z[k : k + n], out=x)
        return x
    if spec.kind == "product-gauss":
        z = rng.standard_normal(n + 1)
        return z[1:] * z[:-1]
    if spec.kind == "max-iid":
        u = spec.base.sample(rng, n + 1)
        return np.maximum(u[1:], u[:-1])
    if spec.kind == "bernoulli-shuffle":
        u = spec.base.sample(rng, n + 1)
        flips = rng.integers(0, 2, size=n)
        return u[np.arange(n) + flips]
    assert spec.kind == "iid"
    return spec.base.sample(rng, n)


class TestStackedGeneration:
    @pytest.mark.parametrize("spec", STACK_SPECS, ids=lambda spec: spec.kind)
    def test_rows_equal_fresh_generators(self, spec):
        # one generator fills every row; a state carried over from the row
        # before (bernoulli-shuffle makes two draws per stream) would show
        streams = [SeededStream(11, 5).child(r) for r in range(6)]
        ids = [s.stream for s in streams]
        for n in (1, 2, 7, 50):
            stack = _generate_stack(spec, n, 11, ids)
            assert stack.shape == (len(streams), n, 1)
            for row, stream in zip(stack, streams):
                assert np.array_equal(row[:, 0], _reference_path(spec, n, stream.generator()))
            assert np.array_equal(generate(spec, n, streams[3]), stack[3])

    def test_every_kind_is_covered(self):
        assert sorted(spec.kind for spec in STACK_SPECS) == sorted([*_KINDS, *_BASED])

    def test_long_moving_sum_rows(self):
        # the moving sum's scratch buffer spans a block of rows; rows past it must match too
        spec = GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0)
        streams = [SeededStream(12).child(r) for r in range(40)]
        stack = _generate_stack(spec, 1000, 12, [s.stream for s in streams])
        for row, stream in zip(stack, streams):
            assert np.array_equal(row[:, 0], _reference_path(spec, 1000, stream.generator()))


class TestChildIds:
    """The array stream ids equal ``SeededStream.child`` bit for bit."""

    INDICES = (0, 1, 2**32, 2**63 - 1, -1, -(2**40))

    @pytest.mark.parametrize("seed,stream", [(7, 0), (2**63 + 5, 3), (2**64 + 9, 2**63 + 1)])
    def test_each_index(self, seed, stream):
        base = SeededStream(seed, stream)
        for ix in self.INDICES:
            assert _child_ids(stream, ix).tolist() == [base.child(ix).stream]
            assert _child_ids(stream, ix, 0).tolist() == [base.child(ix, 0).stream]

    def test_index_arrays_broadcast(self):
        base = SeededStream(2**63 + 5)
        reps = np.array([0, 1, 2**32, 2**63 - 1, -1, -3], dtype=np.int64)
        ids = _child_ids(base.stream, 4, reps)
        assert ids.tolist() == [base.child(4, int(r)).stream for r in reps]
        for k in (0, 1):
            assert _child_ids(ids, k).tolist() == [base.child(4, int(r), k).stream for r in reps]


class TestArgumentErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: NormalMarginal(variance=0), "variance must be finite and > 0, got 0"),
        (lambda: ExponentialMarginal(rate=0), "rate must be finite and > 0, got 0"),
        (lambda: UniformMarginal(1, 1), "need lo < hi, got [1, 1]"),
        (lambda: MinExp(rate=0), "rate must be finite and > 0, got 0"),
    ], ids=["normal-variance", "exponential-rate", "uniform-bounds", "min-exp-rate"])
    def test_message_names_the_argument(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
