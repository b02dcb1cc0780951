"""Counting-layer tests: geometry, dispatch equality, and index-set sizes."""

import math
import re
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfest import core, oracle
from qfest.bandwidth import EpsilonSchedule
from qfest.core import (
    as_points,
    ball_volume,
    count_close_between,
    count_close_between_gap,
    count_close_within,
    count_close_within_gap,
    iter_pairs_between_gap,
    iter_pairs_within_gap,
    unit_ball_volume,
)
from qfest.estimators import _count_stack, estimate_q20_incomplete
from qfest.processes import MinExp, SeededStream, generate


class TestBallVolume:
    def test_interval(self):
        assert ball_volume(1, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_unit_disc(self):
        assert ball_volume(2, 1.0) == pytest.approx(math.pi, rel=1e-14)

    def test_sphere_radius_two(self):
        assert ball_volume(3, 2.0) == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-14)

    def test_fields(self):
        assert ball_volume(4, 0.25) == unit_ball_volume(4) * 0.25**4

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_is_the_unit_volume_times_the_radius_power(self, d):
        for eps in (1e-3, 0.1, 0.25, 0.5, 1.0, 1.7, 3.0):
            assert type(ball_volume(d, eps)) is float
            assert ball_volume(d, eps) == unit_ball_volume(d) * eps**d

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_doubling_ratio(self, d):
        ratio = ball_volume(d, 0.4) / ball_volume(d, 0.2)
        assert ratio == pytest.approx(2.0**d, rel=1e-12)

    def test_monotone_in_radius(self):
        eps = np.linspace(0.1, 2.0, 25)
        vols = [ball_volume(3, e) for e in eps]
        assert all(a < b for a, b in zip(vols, vols[1:]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_radius(self, bad):
        with pytest.raises(ValueError):
            ball_volume(2, bad)

    @pytest.mark.parametrize(("d", "eps", "message"), [
        (2, 0.0, "radius must be finite and > 0, got 0.0"),
        (2, -1, "radius must be finite and > 0, got -1"),
        (1, float("nan"), "radius must be finite and > 0, got nan"),
        (3, float("inf"), "radius must be finite and > 0, got inf"),
        (2, 1e200, "ball volume at d=2, epsilon=1e+200 is not a positive finite float"),
        (0, 0.5, "dimension must be a positive integer, got 0"),
        (1.5, 0.5, "dimension must be an integer, got 1.5"),
    ])
    def test_rejection_messages(self, d, eps, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ball_volume(d, eps)

    @pytest.mark.parametrize(("d", "eps"), [(2, 1e200), (3, 1e-110)], ids=["overflow", "underflow"])
    def test_rejects_a_volume_beyond_the_float_range(self, d, eps):
        with pytest.raises(ValueError, match=re.escape(f"d={d}, epsilon={eps!r}")):
            ball_volume(d, eps)

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_rejects_bad_dimension(self, bad):
        with pytest.raises(ValueError):
            unit_ball_volume(bad)


class TestValidation:
    def test_one_dimensional_promotion(self):
        pts = as_points([1.0, 2.0, 3.0])
        assert pts.shape == (3, 1)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_points(np.empty((0, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            as_points([[0.0], [float("nan")]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            as_points([[1.0, 2.0], [3.0]])

    def test_dimension_mismatch_between(self):
        with pytest.raises(ValueError):
            count_close_between([[0.0, 0.0]], [[0.0]], 1.0)

    def test_unequal_lengths_between(self):
        with pytest.raises(ValueError):
            count_close_between([0.0, 1.0], [0.0], 1.0)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            count_close_within([0.0, 1.0], -0.1)

    def test_gap_too_large(self):
        with pytest.raises(ValueError):
            count_close_within_gap([0.0, 1.0, 2.0], 1.0, 3)

    @pytest.mark.parametrize("gap", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_gap_is_rejected(self, gap):
        x = np.arange(20.0)
        with pytest.raises(ValueError, match="gap must be an integer"):
            count_close_within_gap(x, 0.5, gap)
        with pytest.raises(ValueError, match="gap must be an integer"):
            count_close_between_gap(x, x, 0.5, gap)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 2.5])
    @pytest.mark.parametrize(
        "name,call",
        [
            ("dimension", unit_ball_volume),
            ("window", lambda v: MinExp(window=v)),
            ("dimension", lambda v: EpsilonSchedule("thm1iii", d=v)),
            ("sample size", EpsilonSchedule("thm1iii", d=1).epsilon_at),
            ("sample length", lambda v: generate(MinExp(), v, SeededStream(0))),
            ("reps", lambda v: oracle.sigma2_oracle(MinExp(), reps=v)),
        ],
        ids=["unit_ball_volume", "MinExp", "EpsilonSchedule", "epsilon_at", "generate",
             "sigma2_oracle"],
    )
    def test_integer_arguments_share_one_rule(self, name, call, value):
        # an infinite value once escaped as OverflowError, a NaN with int()'s
        # own message, and a fraction was truncated or named as out of range
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            call(value)

    def test_integral_dimension_is_stored_as_int(self):
        d = EpsilonSchedule("thm1iii", d=2.0).d
        assert d == 2 and type(d) is int


class TestCountExamples:
    def test_within_fixture(self):
        assert count_close_within([0.0, 0.5, 2.0], 1.0) == 1

    def test_within_all_pairs_when_radius_covers_diameter(self):
        x = np.linspace(0, 1, 17)
        assert count_close_within(x, 2.0) == math.comb(17, 2)

    def test_within_zero_radius_distinct_points(self):
        assert count_close_within([0.0, 1.0, 2.0], 0.0) == 0

    def test_within_zero_radius_ties(self):
        assert count_close_within([1.0, 1.0, 2.0], 0.0) == 1

    def test_within_singleton(self):
        assert count_close_within([3.0], 1.0) == 0

    def test_between_single_pair(self):
        assert count_close_between([0.0], [0.4], 0.5) == 1

    def test_between_disjoint_clusters(self):
        assert count_close_between([0.0, 1.0], [10.0, 11.0], 0.5) == 0

    def test_between_fixture(self):
        assert count_close_between([0.0, 1.0], [0.5, 1.2], 0.6) == 3

    def test_between_includes_diagonal(self):
        assert count_close_between([0.0, 5.0], [0.0, 5.0], 0.1) == 2

    def test_within_gap_all_close(self):
        assert count_close_within_gap([0.0] * 5, 1.0, 2) == 3

    def test_within_gap_zero_matches_plain(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=40)
        assert count_close_within_gap(x, 0.3, 0) == count_close_within(x, 0.3)

    def test_between_gap_all_close(self):
        x = np.zeros(4)
        assert count_close_between_gap(x, x, 1.0, 1) == 2 * math.comb(3, 2)

    def test_between_gap_zero_excludes_diagonal_only(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        diag = int(np.count_nonzero((x - y) ** 2 <= 0.3**2))
        assert count_close_between_gap(x, y, 0.3, 0) == count_close_between(x, y, 0.3) - diag


class TestIndexSets:
    @pytest.mark.parametrize("n,gap", [(5, 2), (10, 0), (12, 11), (30, 7)])
    def test_within_cardinality(self, n, gap):
        assert sum(1 for _ in iter_pairs_within_gap(n, gap)) == math.comb(n - gap, 2)

    @pytest.mark.parametrize("n,gap", [(5, 2), (10, 0), (12, 11), (30, 7)])
    def test_between_cardinality(self, n, gap):
        assert sum(1 for _ in iter_pairs_between_gap(n, gap)) == 2 * math.comb(n - gap, 2)

    def test_within_gap_two_n_five_pairs(self):
        assert list(iter_pairs_within_gap(5, 2)) == [(0, 3), (0, 4), (1, 4)]


def _past(lags, gap=None):
    """The close pairs of a reference lag vector at lags past ``gap``, or at every lag."""
    return int(lags[0 if gap is None else gap + 1 :].sum())


def _naive_within(x, eps, gap=None):
    return _past(oracle.naive_lag_counts(x, None, eps), gap)


def _naive_between(x, y, eps, gap=None):
    return _past(oracle.naive_lag_counts(x, y, eps), gap)


def _random_instance(rng, min_n=2, max_n=220):
    n = int(rng.integers(min_n, max_n + 1))
    d = int(rng.integers(1, 4))
    scale = 10.0 ** rng.uniform(-6, 6)
    pts = rng.normal(size=(n, d)) * scale
    eps = float(rng.uniform(0, 2.5) * scale)
    return pts, eps


class TestDispatchMatchesNaive:
    """The sweep/grid paths must agree with the brute-force loops bit for bit."""

    def test_within_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        for _ in range(120):
            pts, eps = _random_instance(rng, min_n=64)
            got = count_close_within(pts, eps)
            want = _naive_within(pts, eps)
            assert got == want

    def test_within_large_samples(self):
        rng = np.random.default_rng(2027)
        for _ in range(8):
            pts, eps = _random_instance(rng, min_n=300, max_n=500)
            assert count_close_within(pts, eps) == _naive_within(pts, eps)

    def test_between_seeded_sweep(self):
        rng = np.random.default_rng(2025)
        for _ in range(120):
            pts, eps = _random_instance(rng, min_n=64)
            other = rng.normal(size=pts.shape) * np.abs(pts).max()
            got = count_close_between(pts, other, eps)
            want = _naive_between(pts, other, eps)
            assert got == want

    def test_gap_variants_seeded(self):
        rng = np.random.default_rng(2026)
        for _ in range(80):
            pts, eps = _random_instance(rng, min_n=64, max_n=160)
            n = pts.shape[0]
            gap = int(rng.integers(0, n))
            other = rng.normal(size=pts.shape) * np.abs(pts).max()
            assert count_close_within_gap(pts, eps, gap) == _naive_within(pts, eps, gap)
            assert count_close_between_gap(pts, other, eps, gap) == _naive_between(pts, other, eps, gap)

    def test_duplicate_heavy_data(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3):
            pts = rng.integers(0, 4, size=(150, d)).astype(float)
            for eps in (0.0, 1.0, 1.5, 10.0):
                assert count_close_within(pts, eps) == _naive_within(pts, eps)

    def test_boundary_distances(self):
        # distances exactly at the radius must count (closed ball)
        x = np.array([0.0, 1.0, 2.0, 3.5])
        assert count_close_within(x, 1.0) == 2
        pts = np.concatenate([np.arange(100.0), [0.25]])
        assert count_close_within(pts, 1.0) == _naive_within(pts, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=180),
    d=st.integers(min_value=1, max_value=4),
    eps=st.floats(min_value=0.0, max_value=6.0),
)
def test_property_within_equals_naive(data, n, d, eps):
    flat = data.draw(
        st.lists(
            st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
            min_size=n * d,
            max_size=n * d,
        )
    )
    pts = np.asarray(flat, dtype=float).reshape(n, d)
    assert count_close_within(pts, eps) == _naive_within(pts, eps)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=120),
    d=st.integers(min_value=1, max_value=2),
    eps=st.floats(min_value=0.0, max_value=4.0),
)
def test_property_gap_counts_equal_naive(data, n, d, eps):
    gap = data.draw(st.integers(min_value=0, max_value=min(60, n - 1)))
    flat = data.draw(
        st.lists(
            st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
            min_size=2 * n * d,
            max_size=2 * n * d,
        )
    )
    arr = np.asarray(flat, dtype=float).reshape(2, n, d)
    x, y = arr[0], arr[1]
    assert count_close_within_gap(x, eps, gap) == _naive_within(x, eps, gap)
    assert count_close_between_gap(x, y, eps, gap) == _naive_between(x, y, eps, gap)


class TestCountProperties:
    def test_monotone_in_radius(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(150, 2))
        counts = [count_close_within(x, e) for e in np.linspace(0, 3, 20)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_between_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=130)
        y = rng.normal(size=130) + 0.5
        assert count_close_between(x, y, 0.2) == count_close_between(y, x, 0.2)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 2.0, 8.0])
    def test_power_of_two_scaling_preserves_counts(self, lam):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(140, 2))
        y = rng.normal(size=(140, 2))
        eps = 0.4
        assert count_close_within(x * lam, eps * lam) == count_close_within(x, eps)
        assert count_close_between(x * lam, y * lam, eps * lam) == count_close_between(
            x, y, eps
        )

    def test_order_is_irrelevant_for_plain_counts(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=100)
        perm = rng.permutation(100)
        assert count_close_within(x, 0.3) == count_close_within(x[perm], 0.3)


def _adversarial_d1(kind, n, rng):
    """A d = 1 pair (x, y) and radius that stress the exact-window boundaries."""
    if kind == "duplicates":
        x = rng.integers(0, 4, size=n).astype(float)
        y = rng.integers(0, 4, size=n).astype(float)
        return x, y, 1.0
    if kind == "zero-radius":
        x = np.round(rng.normal(size=n) * 3) / 3
        y = np.round(rng.normal(size=n) * 3) / 3
        return x, y, 0.0
    if kind == "offset-1e12":
        scale = 1e12 * 10.0 ** float(rng.uniform(-3, 3))
        ulp = np.spacing(scale)
        x = scale + rng.integers(0, 40, size=n) * ulp
        y = scale + rng.integers(0, 40, size=n) * ulp
        # a fractional ulp radius makes q + eps round past the exact boundary
        return x, y, (int(rng.integers(0, 6)) + float(rng.choice([0.0, 0.5, 0.6]))) * ulp
    # radius equal to an attained distance, so pairs sit exactly on the sphere
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    return x, y, abs(float(x[0] - y[-1]))


class TestExactWindows:
    """The d = 1 counts against the brute-force loops, bit for bit, at every n."""

    @pytest.mark.parametrize(
        "kind,seed",
        [("duplicates", 41), ("zero-radius", 42), ("offset-1e12", 43), ("on-sphere", 44)],
    )
    def test_matches_naive(self, kind, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 260))
            x, y, eps = _adversarial_d1(kind, n, rng)
            assert count_close_within(x, eps) == _naive_within(x, eps)
            assert count_close_between(x, y, eps) == _naive_between(x, y, eps)

    def test_sphere_pairs_are_counted(self):
        # every consecutive pair of an evenly spaced grid sits exactly at eps
        x = np.arange(100.0) * 0.25
        assert count_close_within(x, 0.25) == 99
        # y_j - x_i = 0.25 * (j - i + 1): close for j - i in {-2, -1, 0}
        assert count_close_between(x, x + 0.25, 0.25) == 98 + 99 + 100

    # Both inputs put every window end far from its searchsorted guess; an end
    # that stepped one value per round would take minutes here.
    WALL_S = 30.0

    def test_long_tie_runs_past_the_guess(self):
        # 0.6 ulp: each q + eps rounds onto the next run, whose values are not close
        k = 50_000
        ulp = np.spacing(1e15)
        x = np.concatenate([np.full(k, 1e15), np.full(k, 1e15 + ulp)])
        start = time.monotonic()
        assert count_close_within(x, 0.6 * ulp) == 2 * math.comb(k, 2)
        assert count_close_between(x, x[::-1], 0.6 * ulp) == 2 * k * k
        assert time.monotonic() - start < self.WALL_S

    def test_underflowing_squares_close_every_pair(self):
        # squared differences up to 1e-330 underflow to 0, so at eps = 0 all
        # pairs are close, far past each guess q + 0
        n = 100_000
        x = np.arange(n) * 1e-170
        start = time.monotonic()
        assert count_close_within(x, 0.0) == math.comb(n, 2)
        assert count_close_between(x, x[::-1], 0.0) == n * n
        assert time.monotonic() - start < self.WALL_S

    def test_sweep_windows_tie_runs(self):
        # d = 2 with tie runs in the first coordinate, one ulp apart at 1e15 and
        # not close, and none close in the second: the strip grid keys the
        # first by cells and windows the second
        k = 50_000
        ulp = np.spacing(1e15)
        x = np.column_stack([np.repeat([1e15, 1e15 + ulp], k), np.arange(2 * k) * 1.0])
        keys, strides, end = core._strip_keys(0.6 * ulp, x)
        assert len(strides) == 1 and end.size == 2 * k and len(np.unique(keys[0])) == 2 * k
        start = time.monotonic()
        assert count_close_within(x, 0.6 * ulp) == 0
        assert time.monotonic() - start < self.WALL_S


class TestOverflow:
    """Squares past the float range are inf and not close, and warn of nothing."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_huge_coordinates_match_naive(self, d):
        rng = np.random.default_rng([2050, d])
        # pairs among the first half have finite squares; any pair with a
        # point of the second half overflows unless the two points coincide
        x = np.concatenate([rng.normal(size=(100, d)) * 1e150, rng.normal(size=(100, d)) * 1e300])
        y = x[rng.permutation(200)]
        eps = 1e150  # eps**2 is finite; 1e200 would square to inf and make every pair close
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = count_close_within(x, eps), count_close_between(x, y, eps)
        assert got == (_naive_within(x, eps), _naive_between(x, y, eps))
        assert got[0] > 0 and got[1] > 200

    @pytest.mark.parametrize("d", [1, 2])
    def test_huge_coordinates_gap_counts_match_naive(self, d):
        rng = np.random.default_rng([2061, d])
        # neighbours repeat, so the near lags hold close pairs; the rest
        # overflow when squared, or are finite and close at the 1e150 scale
        points = np.concatenate([rng.normal(size=(50, d)) * 1e150,
                                 rng.normal(size=(50, d)) * 1e300])
        x = np.repeat(points[rng.permutation(100)], 2, axis=0)
        y = x[::-1].copy()
        eps = 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = count_close_within_gap(x, eps, 2), count_close_between_gap(x, y, eps, 2)
            estimate_q20_incomplete(x, eps, 2)
        assert got == (_naive_within(x, eps, 2), _naive_between(x, y, eps, 2))
        assert count_close_within(x, eps) > got[0]


# Points whose squared distances sit on the edges of the float range, each
# with radii about those distances: runs of ties one ulp (0.125) apart at
# 1e15, differences of 1e-170 whose squares underflow to 0 (as 1e-170**2 does),
# differences past 1e154 whose squares overflow to inf, and squares of 1 and
# 2**-54 whose float sum depends on the order they are added in.
_CLOSE_CASES = {
    "1e15 tie runs": (lambda rng, n, d: 1e15 + rng.integers(0, 4, size=(n, d)) * 0.125,
                      (0.0, 0.075, 0.125, 0.2, 0.25)),
    "underflowing squares": (
        lambda rng, n, d: rng.integers(0, 4, size=(n, d)) * 1e-170
        + rng.integers(0, 2, size=(n, d)),
        (0.0, 1e-170),
    ),
    "overflowing squares": (lambda rng, n, d: rng.normal(size=(n, d)) * 1e155,
                            (1e150, 1e154, 1.3e154, 1e155)),
    "summation order": (lambda rng, n, d: rng.choice([0.0, 1.0, 2.0**-27], size=(n, d)),
                        (0.5, 1.0)),
}


class TestClose:
    """The one closeness test equals the brute force's, bit for bit."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", _CLOSE_CASES)
    def test_matches_the_reference(self, kind, d):
        make, radii = _CLOSE_CASES[kind]
        pts = make(np.random.default_rng([2076, d, list(_CLOSE_CASES).index(kind)]), 40, d)
        seen = set()
        for eps in radii:
            eps2 = eps * eps
            with np.errstate(over="ignore"):  # as the kernel and the reference call them
                for p in pts:
                    got = core._close([pts[:, k] - p[k] for k in range(d)], eps2)
                    want = oracle._close_to(p, pts, eps2)
                    assert got.tolist() == want.tolist()
                    seen.update(got.tolist())
        assert seen == {False, True}


# Rows of these kinds are mixed within one stack, so a row's window that ran
# past its own ends would reach values of another scale.
_ROW_KINDS = {
    # distinct points, close at eps = 0: their squared differences underflow
    "tiny": lambda rng, n, d: rng.integers(0, 3, size=(n, d)) * 1e-170,
    # one ulp (0.125) apart at 1e15
    "translated": lambda rng, n, d: 1e15 + rng.integers(0, 8, size=(n, d)) * 0.125,
    "ties": lambda rng, n, d: rng.integers(0, 2, size=(n, d)).astype(float),
    "normal": lambda rng, n, d: rng.normal(size=(n, d)),
    "constant": lambda rng, n, d: np.full((n, d), 0.5),
    # squared differences overflow
    "huge": lambda rng, n, d: rng.normal(size=(n, d)) * 1e300,
}
# 0.075 is 0.6 ulp at 1e15, so q + eps rounds past the exact boundary;
# 1e155 squares to inf, so every pair is close
_STACK_RADII = (0.0, 0.075, 1.0, 1e150, 1e155)


def _mixed_stack(rng, rows, n, d, kinds=_ROW_KINDS):
    kinds = list(kinds.values())
    return np.stack([kinds[k](rng, n, d) for k in rng.integers(0, len(kinds), size=rows)])


# Runs of 7 tied points one apart, in time order: with tiles of 5 values, the
# tie runs of the sorted row and the close near-lag pairs both cross tile edges.
_TILE_KINDS = {
    **_ROW_KINDS,
    "runs": lambda rng, n, d: np.repeat(np.arange(n) // 7, d).reshape(n, d).astype(float),
}


class TestStacks:
    """Every row of a stacked count equals the brute force on that row alone."""

    @pytest.mark.parametrize("block", [None, 5], ids=["default-block", "block-5"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_match_naive(self, monkeypatch, d, block):
        # with a block of 5, rows span several tiles, tie runs and near-lag
        # pairs cross tile edges, and d >= 2 candidate pairs come in chunks of 5
        if block is not None:
            monkeypatch.setattr(core, "_STACK_BLOCK", block)
        rng = np.random.default_rng([2062, d])
        for n in (1, 2, 3, 5, 17, 40, 61):
            # no near lags, a few, and every lag up to the largest valid gap
            gaps = [None] if n == 1 else [max(n - 2, 0), min(n - 1, 3), n - 1, None]
            for k in range(8 if n <= 40 else 2):
                gap = gaps[k % len(gaps)]
                a = _mixed_stack(rng, 7, n, d, _TILE_KINDS)
                b = _mixed_stack(rng, 7, n, d, _TILE_KINDS)
                for eps in _STACK_RADII:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        (within, near_w), = core._record_counts([(a, None)], eps, gap)
                        (between, near_b), = core._record_counts([(a, b)], eps, gap)
                    for r in range(len(a)):
                        lags_w = oracle.naive_lag_counts(a[r], None, eps)
                        lags_b = oracle.naive_lag_counts(a[r], b[r], eps)
                        assert within[r] == _past(lags_w)
                        assert between[r] == _past(lags_b)
                        if gap is not None:
                            lags = slice(0, gap + 1)
                            assert near_w[r].tolist() == lags_w[lags].tolist()
                            assert near_b[r].tolist() == lags_b[lags].tolist()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_public_counts_with_small_tiles_match_naive(self, monkeypatch, d):
        monkeypatch.setattr(core, "_STACK_BLOCK", 5)
        rng = np.random.default_rng([2065, d])
        for n in (2, 9, 33, 61):
            for make in _TILE_KINDS.values():
                x, y = make(rng, n, d), make(rng, n, d)
                for eps in _STACK_RADII:
                    gap = int(rng.integers(0, n - 1))  # 0..n-2
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        got = (
                            count_close_within(x, eps),
                            count_close_between(x, y, eps),
                            count_close_within_gap(x, eps, gap),
                            count_close_between_gap(x, y, eps, gap),
                        )
                    lags_w = oracle.naive_lag_counts(x, None, eps)
                    lags_b = oracle.naive_lag_counts(x, y, eps)
                    assert got == (_past(lags_w), _past(lags_b), _past(lags_w, gap), _past(lags_b, gap))

    def test_library_count_is_a_stack_of_one(self):
        rng = np.random.default_rng(2063)
        a, b = _mixed_stack(rng, 6, 30, 1), _mixed_stack(rng, 6, 30, 1)
        (full, near), = core._record_counts([(a, b)], 1.0, 4)
        for r in range(len(a)):
            assert full[r] == count_close_between(a[r], b[r], 1.0)
            (_, one), = core._record_counts([(a[r][None], b[r][None])], 1.0, 4)
            assert near[r].tolist() == one[0].tolist()


class TestTinyBlocks:
    """With blocks of 5 values every row here is long, so each pass is tiled and
    each window's guesses are merged a piece of the span at a time, all in the
    calling thread."""

    @pytest.fixture(autouse=True)
    def tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(core, "_STACK_BLOCK", 5)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_counts_and_records_match_naive(self, seed):
        rng = np.random.default_rng([2067, seed])
        for n in (6, 11, 33, 61):
            for make in _TILE_KINDS.values():
                for eps in _STACK_RADII:
                    xs, ys = (np.stack([make(rng, n, 1) for _ in range(2)]) for _ in range(2))
                    x, y = xs[0], ys[0]
                    gap = int(rng.integers(0, n - 1))  # 0..n-2
                    threads = threading.active_count()
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        got = (
                            count_close_within(x, eps),
                            count_close_between(x, y, eps),
                            count_close_within_gap(x, eps, gap),
                            count_close_between_gap(x, y, eps, gap),
                        )
                        record = _count_stack("divergence", xs, ys, eps, gap)
                    assert threading.active_count() == threads
                    # one reference lag vector per (row, piece); x and y are row 0
                    lags = [
                        {"q20": oracle.naive_lag_counts(xs[r], None, eps),
                         "q11": oracle.naive_lag_counts(xs[r], ys[r], eps),
                         "q02": oracle.naive_lag_counts(ys[r], None, eps)}
                        for r in range(len(xs))
                    ]
                    lags_w, lags_b = lags[0]["q20"], lags[0]["q11"]
                    assert got == (_past(lags_w), _past(lags_b), _past(lags_w, gap), _past(lags_b, gap))
                    for r, row in enumerate(lags):
                        for piece, lag in row.items():
                            assert record.full[piece][r] == _past(lag)
                            assert record.near[piece][r].tolist() == lag[: gap + 1].tolist()

    def test_huge_coordinates_without_warnings(self):
        rng = np.random.default_rng(2068)
        xs, ys = rng.normal(size=(2, 2, 40, 1)) * 1e300
        for eps in (1.0, 1e150, 1e155, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                record = _count_stack("divergence", xs, ys, eps, 7)
            for r in range(len(xs)):
                lags_b = oracle.naive_lag_counts(xs[r], ys[r], eps)
                assert record.full["q20"][r] == _naive_within(xs[r], eps)
                assert record.full["q11"][r] == _past(lags_b)
                assert record.full["q02"][r] == _naive_within(ys[r], eps)
                assert record.near["q11"][r].tolist() == lags_b[:8].tolist()


# Values and radii whose guesses q + eps tie with row values, meet across
# signed zeros (-0.0 + 0.0 is +0.0), equal the queries, or overflow to inf.
_MERGE_CASES = {
    "ties": (lambda rng, n: rng.integers(-3, 4, size=n).astype(float), (0.0, 1.0, 2.0)),
    "signed-zeros": (
        lambda rng, n: rng.choice([-0.0, 0.0, -5e-324, 5e-324, 1.0], size=n),
        (0.0, 5e-324, 1.0),
    ),
    "radius-0": (lambda rng, n: rng.integers(0, 3, size=n) * 1e-170 + rng.integers(0, 2, size=n), (0.0,)),
    "overflow": (
        lambda rng, n: rng.choice([-1.0, 1.0], size=n) * rng.uniform(1.5e308, 1.79e308, size=n),
        (1e150, 1e308, 1.7e308),
    ),
    # runs of ties one ulp (0.125) apart, where q + eps rounds past the close
    # run, so the guesses are late
    "1e15-runs": (
        lambda rng, n: 1e15 + rng.integers(0, 4, size=n) * np.spacing(1e15),
        (0.6 * np.spacing(1e15), 1.6 * np.spacing(1e15)),
    ),
}


def _brute_ends(x, q, eps2):
    """One past the close run of each query in the sorted row ``x``: the values at or below it or close to it."""
    with np.errstate(over="ignore"):
        return [int(np.count_nonzero((x <= v) | oracle._close_to(np.array([v]), x[:, None], eps2)))
                for v in q]


def _skewed_pair(n):
    """Sorted x spread over [-1, 1] and sorted y concentrated about 0, where x is sparse."""
    rng = np.random.default_rng(2072)
    return np.sort(rng.uniform(-1.0, 1.0, size=n)), np.sort(rng.normal(size=n) * 1e-6)


class TestMergedEnds:
    """The merged guesses equal ``searchsorted`` and the window ends the brute force."""

    @pytest.mark.parametrize("kind", _MERGE_CASES)
    @pytest.mark.parametrize("block", [None, 5], ids=["default-block", "block-5"])
    def test_matches_searchsorted_and_brute_force(self, monkeypatch, kind, block):
        # with blocks of 5, rows of more than 5 values are merged in pieces
        if block is not None:
            monkeypatch.setattr(core, "_STACK_BLOCK", block)
        make, radii = _MERGE_CASES[kind]
        rng = np.random.default_rng([2073, list(_MERGE_CASES).index(kind)])
        # rows of 1 and 2 values are the edges of a row-wide bisection
        for n, m in [(1, 1), (1, 2), (2, 1), (2, 2), (4, 4), (5, 2), (6, 6), (23, 9), (60, 60),
                     (60, 3)]:
            xs = np.sort(np.stack([make(rng, n) for _ in range(3)]), axis=1)
            q = np.sort(np.stack([make(rng, m) for _ in range(3)]), axis=1)
            for eps in radii:
                with np.errstate(over="ignore"):
                    g = q + eps
                    ends = core._window_ends(xs, q, eps, eps * eps)
                want = [x.searchsorted(r, side="right").tolist() for x, r in zip(xs, g)]
                # positions in the flattened stack: row r's ends plus r * n
                merged = core._merged_ends(xs, g).reshape(q.shape) - np.arange(0, 3 * n, n)[:, None]
                assert merged.tolist() == want
                assert [core._span_ends(x, r).tolist() for x, r in zip(xs, g)] == want
                assert ends.tolist() == [_brute_ends(x, r, eps * eps) for x, r in zip(xs, q)]

    @pytest.mark.parametrize("n", [4, 23])
    def test_every_guess_missed(self, monkeypatch, n):
        # every query is below its row's top value, and the next value above
        # it is one or two steps up: at 1e-163 a step squares to 0 within about
        # 15 steps, so that value is close and past the guess q + 1e-170, and
        # the guess is early; at 1e15 a step of one ulp rounds q + 0.6 ulp onto
        # it, not close, and the guess is late.  Rows of 4 are merged whole and
        # rows of 23 a piece at a time; each missed end is bisected in its row
        monkeypatch.setattr(core, "_STACK_BLOCK", 5)
        rng = np.random.default_rng([2077, n])
        for steps, scale, offset, eps in ((3, 1e-163, 0.0, 1e-170), (2, 0.125, 1e15, 0.075)):
            rise = rng.integers(0, steps, size=(4, n))  # steps of 0 are tie runs
            rise[:, -1] = 1
            xs = offset + np.cumsum(rise, axis=1) * scale
            q = xs[:, :-1]
            ends = core._window_ends(xs, q, eps, eps * eps)
            want = [_brute_ends(x, r, eps * eps) for x, r in zip(xs, q)]
            guesses = [x.searchsorted(r + eps, side="right").tolist() for x, r in zip(xs, q)]
            assert all(a != b for row, guess in zip(want, guesses) for a, b in zip(row, guess))
            assert ends.tolist() == want

    def test_skewed_long_row(self):
        # a tile of x about 0 covers every value of y: a span of about n values
        n = 4 * core._STACK_BLOCK
        x, y = _skewed_pair(n)
        eps = 1e-6
        tile = x[n // 2 - core._STACK_BLOCK // 2 :][: core._STACK_BLOCK]
        lo, hi = y.searchsorted(tile[[0, -1]] + eps, side="right")
        assert hi - lo > 3 * core._STACK_BLOCK
        ends = core._window_ends(y[None], tile[None], eps, eps * eps)[0]
        assert core._span_ends(y, tile + eps).tolist() == y.searchsorted(tile + eps, side="right").tolist()
        picks = np.arange(0, tile.size, 61)
        assert ends[picks].tolist() == _brute_ends(y, tile[picks], eps * eps)

    def test_skewed_counts_match_naive(self, monkeypatch):
        monkeypatch.setattr(core, "_STACK_BLOCK", 5)
        x, y = _skewed_pair(300)
        for eps in (0.0, 1e-6, 0.01):
            assert count_close_between(x, y, eps) == _naive_between(x, y, eps)
            assert count_close_within(y, eps) == _naive_within(y, eps)


def _traced_peak(func, *args):
    """Bytes allocated at the peak of ``func(*args)`` above what was allocated before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        func(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMemoryBounds:
    """Counting temporaries stay O(block) beyond the sorted copies of the sample."""

    @pytest.mark.parametrize("d,n,bound", [(1, 200_000, 2), (2, 50_000, 16)])
    @pytest.mark.parametrize("count", ["within", "between", "within_gap", "between_gap"])
    def test_traced_peak_is_a_small_multiple_of_the_input(self, count, d, n, bound):
        rng = np.random.default_rng([2066, d])
        x, y = rng.normal(size=(2, n, d))
        eps = math.log(n) * n ** (-1 / d)
        samples = (x,) if count.startswith("within") else (x, y)
        args = (*samples, eps, 13) if count.endswith("gap") else (*samples, eps)
        peak = _traced_peak(getattr(core, f"count_close_{count}"), *args)
        assert peak <= bound * sum(v.nbytes for v in samples)

    @pytest.mark.parametrize("rows", [1, 2, 8])
    @pytest.mark.parametrize("gap", [None, 13], ids=["complete", "gap-13"])
    def test_traced_peak_of_a_divergence_record(self, gap, rows):
        # each sample is sorted once for all three pieces and no mirrored copy
        # is made; each pass adds only its tiles, however the same input is
        # split into rows of the stack
        n = 200_000 // rows
        x, y = np.random.default_rng([2066, 1]).normal(size=(2, rows, n, 1))
        peak = _traced_peak(_count_stack, "divergence", x, y, math.log(n) / n, gap)
        assert peak <= 1.6 * (x.nbytes + y.nbytes)

    def test_traced_peak_of_a_skewed_pass(self):
        # the tile of x about 0 spans all eight blocks of y: merged whole, its
        # guesses took about 19 blocks of floats, and cut at every block about 6
        block = core._STACK_BLOCK
        x, y = _skewed_pair(8 * block)
        peak = max(
            _traced_peak(core._window_ends, y[None], x[None, s : s + block], 1e-6, 1e-12)
            for s in range(0, x.size, block)
        )
        assert peak <= 8 * x[:block].nbytes

    @pytest.mark.parametrize("gap", [None, 13], ids=["complete", "gap-13"])
    def test_traced_peak_of_a_d2_divergence_record(self, gap):
        # the cells of x and y are built once, and each sample's keys sorted once;
        # the peak, 3.53 times the input, is in counting: the sorted copies, the
        # window starts and ends of the row, and one pass's tile
        n = 50_000
        x, y = np.random.default_rng([2066, 2]).normal(size=(2, 1, n, 2))
        peak = _traced_peak(_count_stack, "divergence", x, y, math.log(n) / math.sqrt(n), gap)
        assert peak <= 4 * (x.nbytes + y.nbytes)

    @pytest.mark.parametrize("gap", [None, 13], ids=["complete", "gap-13"])
    def test_traced_peak_of_a_d3_divergence_record(self, gap):
        # as at d = 2, with two coordinates cut into cells; the peak, 3.68
        # times the input, holds the window starts the row keeps
        n = 20_000
        x, y = np.random.default_rng([2066, 3]).normal(size=(2, 1, n, 3))
        peak = _traced_peak(_count_stack, "divergence", x, y, math.log(n) * n ** (-1 / 3), gap)
        assert peak <= 4 * (x.nbytes + y.nbytes)

    def test_traced_peak_of_a_d2_strip_pass(self):
        # a pass counts one tile of queries, so its probe keys, window starts
        # and candidate ranges are O(block), not O(n)
        n = 100_000
        x, y = np.random.default_rng([2066, 2]).normal(size=(2, 1, n, 2))
        eps = math.log(n) / math.sqrt(n)
        grids, frames = core._sorted_strips(eps, {"x": x, "y": y})
        peak = max(
            _traced_peak(
                core._count_strips, grids["x"], grids["y"], frames, eps * eps,
                slice(s, s + core._STACK_BLOCK),
            )
            for s in range(0, n, core._STACK_BLOCK)
        )
        assert peak <= 16 * x[0, : core._STACK_BLOCK, 0].nbytes


def _clustered(rng, n, d, spread):
    """Points of the given spread, a fifth of them within 0.6 per coordinate of another."""
    centres = rng.normal(size=(n - n // 5, d)) * spread
    partners = centres[: n // 5] + rng.uniform(-0.6, 0.6, size=(n // 5, d))
    return np.concatenate([centres, partners])


def _adversarial_grid(kind, d, n, rng):
    """A d >= 2 pair (x, y) and radius for the strip grid and its sweep."""
    if kind == "gaussian":
        shift = rng.uniform(-0.5, 0.5, size=d)
        x, y = rng.normal(size=(2, n, d))
        return x, y + shift, math.log(n) * n ** (-1 / d)
    if kind == "duplicates":
        # radii equal to distances of the integer lattice, so pairs sit on the sphere
        x = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(0, 4, size=(n, d)).astype(float)
        return x, y, float(rng.choice([1.0, math.sqrt(2.0), 2.0, math.sqrt(d)]))
    if kind == "translated":
        # |x| / eps > 2**52: the cells lose integer resolution
        x, y = rng.normal(size=(2, n, d)) * 0.5 + 1e15
        return x, y, 0.2
    if kind == "cauchy":
        x, y = rng.standard_cauchy(size=(2, n, d))
        return x, y, math.log(n) * n ** (-1 / d) / 2
    if kind == "zero-radius":
        # (1e-170)**2 underflows to 0.0, so distinct points can be close at
        # eps = 0; 1 + 1e-170 == 1, so the lattice is {0, 1e-170, 2e-170, 1}
        x, y = rng.integers(0, 3, size=(2, n, d)) * 1e-170 + rng.integers(0, 2, size=(2, n, d))
        return x, y, 0.0
    # about 1e7 cells per coordinate: an uncompressed cell key spans (2e7)**d
    # values, past an int64 at d >= 3
    x = _clustered(rng, n, d, 1e7)
    y = x[rng.permutation(n)] + rng.uniform(-0.6, 0.6, size=(n, d))
    return x, y, 1.0


GRID_KINDS = ("gaussian", "duplicates", "translated", "cauchy", "zero-radius", "wide")


class TestStripGrid:
    """The d >= 2 strip grid and its sweep against the brute force, bit for bit."""

    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_oracle(self, kind, d):
        rng = np.random.default_rng([d, GRID_KINDS.index(kind)])
        for _ in range(4):
            n = int(rng.integers(2, 400))
            x, y, eps = _adversarial_grid(kind, d, n, rng)
            want = _naive_within(x, eps), _naive_between(x, y, eps)
            assert (count_close_within(x, eps), count_close_between(x, y, eps)) == want

    @pytest.mark.parametrize(
        "kind,d", [("gaussian", 2), ("gaussian", 3), ("gaussian", 4), ("translated", 2)]
    )
    def test_matches_oracle_at_ten_thousand_points(self, kind, d):
        rng = np.random.default_rng([d, 10_000, GRID_KINDS.index(kind)])
        x, y, eps = _adversarial_grid(kind, d, 10_000, rng)
        want = _naive_within(x, eps), _naive_between(x, y, eps)
        assert (count_close_within(x, eps), count_close_between(x, y, eps)) == want


def _guarded_inputs():
    """Inputs of every dimension and size, the grid's former fallbacks among them."""
    rng = np.random.default_rng(2040)
    n = 128
    x, y, eps = _adversarial_grid("wide", 3, n, rng)
    yield "strip grid", x, y, eps
    zero = rng.integers(0, 3, size=(2, n, 2)) * 1e-170
    yield "zero radius", zero[0], zero[1], 0.0
    shifted = rng.normal(size=(2, n, 3)) + 1e15
    yield "cell resolution", shifted[0], shifted[1], 0.2
    # compressed ranks up to about 2n per coordinate: (2n)**6 passes an int64
    wide = _clustered(rng, 1000, 6, 1e7)
    yield "key width", wide, wide[::-1] + 0.25, 1.0
    small = rng.normal(size=(2, 10, 2))
    yield "short strip grid", small[0], small[1], 0.8
    line = rng.normal(size=(2, n, 1))
    yield "line", line[0], line[1], 0.1
    yield "short line", line[0, :10], line[1, :10], 0.5


class TestNoQuadraticFallback:
    """Every input, at any n or d, gets grid keys; no brute force is left in ``core`` to reach."""

    @pytest.mark.parametrize(
        "label,x,y,eps", [pytest.param(*case, id=case[0]) for case in _guarded_inputs()]
    )
    def test_never_calls_the_brute_force(self, label, x, y, eps):
        want = _naive_within(x, eps), _naive_between(x, y, eps)
        for samples in ((x,), (x, y)):
            keys, strides, end = core._strip_keys(eps, *samples)
            assert [len(k) for k in keys] == [len(s) for s in samples]
            assert len(strides) <= x.shape[1] - 1 and end.size >= 1
        assert (count_close_within(x, eps), count_close_between(x, y, eps)) == want


def _bounded_inputs(d, n, rng):
    """Inputs on which a count that is not output-sensitive checks far more pairs than it finds."""
    side = round(n ** (1 / d))
    lattice = rng.integers(0, side, size=(2, n, d)).astype(float)
    yield "zero-radius lattice", lattice[0], lattice[1], 0.0
    tiny = rng.integers(0, 3, size=(2, n, d)) * 1e-170 + rng.integers(0, 2, size=(2, n, d))
    yield "1e-170 lattice", tiny[0], tiny[1], 0.0
    x, y, eps = _adversarial_grid("translated", d, n, rng)
    yield "translated", x, y, eps
    ulp = np.spacing(1e15)
    ties = 1e15 + rng.integers(0, 2, size=(2, n, d)) * ulp
    ties[..., -1] = np.arange(n)
    yield "1e15 tie runs", ties[0], ties[1], 0.6 * ulp
    # about 2n ranks per coordinate: at d = 6 a key of every coordinate passes an int64
    wide = _clustered(rng, n, d, 1e7)
    yield "key width", wide, wide[::-1] + 0.25, 1.0


class TestOutputSensitive:
    """The candidates a d >= 2 count checks are bounded by the close pairs it finds."""

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_candidates_per_close_pair(self, monkeypatch, d):
        n = 4000
        inspected = []
        check = core._close_in_ranges

        def counting(a, b, lo, hi, eps2):
            inspected.append(int(np.maximum(hi - lo, 0).sum()))
            return check(a, b, lo, hi, eps2)

        monkeypatch.setattr(core, "_close_in_ranges", counting)
        for label, x, y, eps in _bounded_inputs(d, n, np.random.default_rng([2069, d])):
            for count, samples in ((count_close_within, (x,)), (count_close_between, (x, y))):
                inspected.clear()
                close = count(*samples, eps)
                assert sum(inspected) <= 3 ** (d - 1) * close + n, (label, count.__name__)


_CELL_COLUMNS = {
    "ties": lambda rng, n: rng.integers(0, 3, size=n).astype(float),
    "1e-170 steps": lambda rng, n: rng.integers(0, 5, size=n) * 1e-170,
    "1e15 + ulp steps": lambda rng, n: 1e15 + rng.integers(0, 8, size=n) * np.spacing(1e15),
    "1e300 values": lambda rng, n: rng.normal(size=n) * 1e300,
    "cauchy": lambda rng, n: rng.standard_cauchy(size=n),
}


class TestCellRanks:
    """The cell rule on its own: ranks two apart are never close, and ties share a cell."""

    @pytest.mark.parametrize("kind", _CELL_COLUMNS)
    def test_far_ranks_are_never_close(self, kind):
        rng = np.random.default_rng([2070, list(_CELL_COLUMNS).index(kind)])
        for _ in range(10):
            column = _CELL_COLUMNS[kind](rng, int(rng.integers(1, 60)))
            for eps in (0.0, 0.6 * float(np.spacing(1e15)), 1.0, 1e150, 1e155):
                eps2 = eps * eps
                points = column[:, None]
                with np.errstate(over="ignore"):  # as the kernel and the reference call them
                    ranks = core._cell_ranks([column], eps, eps2).tolist()
                    # close[i][j]: the reference's per-pair predicate on values i and j
                    close = [oracle._close_to(p, points, eps2).tolist() for p in points]
                values = column.tolist()
                for i, (u, ru) in enumerate(zip(values, ranks)):
                    for v, rv, near in zip(values[i + 1 :], ranks[i + 1 :], close[i][i + 1 :]):
                        if u == v:
                            assert ru == rv
                        if abs(ru - rv) >= 2:
                            assert not near
                # neighbouring values in different cells skip a rank exactly when not close
                cells = sorted(set(zip(values, ranks)))
                for (u, ru), (v, rv) in zip(cells, cells[1:]):
                    if ru != rv:
                        assert (rv - ru == 1) == close[values.index(u)][values.index(v)]


class TestValueWindows:
    """The window rule on its own: each distinct value's [start, end) is exactly its close values."""

    @pytest.mark.parametrize("kind", _CELL_COLUMNS)
    def test_windows_are_the_close_values(self, kind):
        rng = np.random.default_rng([2071, list(_CELL_COLUMNS).index(kind)])
        for _ in range(10):
            column = _CELL_COLUMNS[kind](rng, int(rng.integers(1, 60)))
            distinct = np.unique(column)
            for eps in (0.0, 0.6 * float(np.spacing(1e15)), 1.0, 1e150, 1e155):
                eps2 = eps * eps
                with np.errstate(over="ignore"):  # as the kernel and the reference call them
                    values, rank, end = core._distinct_ends([column], eps, eps2)
                    close = [oracle._close_to(p, distinct[:, None], eps2) for p in distinct[:, None]]
                start = core._window_starts(end, np.arange(end.size))
                assert values.tolist() == distinct.tolist()
                assert values[rank].tolist() == column.tolist()
                for u, near in enumerate(close):
                    assert np.flatnonzero(near).tolist() == list(range(start[u], end[u]))

    @pytest.mark.parametrize("kind", _CELL_COLUMNS)
    def test_frame_starts_are_the_window_starts(self, kind):
        # the starts each row's frame keeps, counted from its ends once, are
        # the searched starts of every rank, on the union of both samples
        rng = np.random.default_rng([2074, list(_CELL_COLUMNS).index(kind)])
        for _ in range(5):
            n = int(rng.integers(1, 60))
            x, y = (np.stack([np.column_stack([rng.normal(size=n), _CELL_COLUMNS[kind](rng, n)])
                              for _ in range(3)]) for _ in range(2))
            for eps in (0.0, 0.6 * float(np.spacing(1e15)), 1.0, 1e150, 1e155):
                with np.errstate(over="ignore"):  # as the kernel calls it
                    _, frames = core._sorted_strips(eps, {"x": x, "y": y})
                for _, start, end in frames:
                    assert start.tolist() == core._window_starts(end, np.arange(end.size)).tolist()


class TestFlatRanges:
    """Chunks of candidate ranges are exactly the ranges, concatenated, a block at a time."""

    @pytest.mark.parametrize("block", [None, 5], ids=["default-block", "block-5"])
    def test_chunks_concatenate_to_the_ranges(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(core, "_STACK_BLOCK", block)
        size = core._STACK_BLOCK
        rng = np.random.default_rng(2075)
        # empty and reversed ranges, ranges longer than a chunk, and ranges
        # that end exactly on a chunk boundary or cross one
        lengths = [0, 3 * size + 2, 0, -4, 1, size - 1, 0, size, 2 * size, 0, 7, 0]
        for lens in (lengths, lengths[::-1], [0, 0], [size], rng.integers(-3, 9, size=200)):
            lo = rng.integers(0, 1000, size=len(lens))
            hi = lo + np.asarray(lens)
            want_rows = [i for i, (a, b) in enumerate(zip(lo, hi)) for _ in range(a, b)]
            want_pos = [j for a, b in zip(lo, hi) for j in range(a, b)]
            got_rows, got_pos, sizes = [], [], []
            for rows, reps, pos in core._iter_flat_ranges(lo, hi):
                assert len(reps) == rows.stop - rows.start and reps.min() >= 0
                got_rows += np.repeat(np.arange(rows.start, rows.stop), reps).tolist()
                got_pos += pos.tolist()
                sizes.append(pos.size)
            assert (got_rows, got_pos) == (want_rows, want_pos)
            # every chunk but the last is full, and none is empty
            assert sizes == [size] * (len(sizes) - 1) + sizes[-1:] and 0 not in sizes


def _identity_instances():
    rng = np.random.default_rng(2031)
    for d in (1, 2):
        for n in (40, 150):
            x = rng.normal(size=(n, d))
            y = rng.normal(size=(n, d)) + 0.3
            yield x, y, 0.6 if d == 2 else 0.2


class TestGapIdentities:
    def test_gap_counts_non_increasing(self):
        for x, y, eps in _identity_instances():
            within = [count_close_within_gap(x, eps, g) for g in range(12)]
            between = [count_close_between_gap(x, y, eps, g) for g in range(12)]
            assert all(a >= b for a, b in zip(within, within[1:]))
            assert all(a >= b for a, b in zip(between, between[1:]))

    def test_full_minus_near_lags_is_gap_count(self):
        for x, y, eps in _identity_instances():
            (_, (near_w,)), = core._record_counts([(as_points(x)[None], None)], eps, 10)
            (_, (near_b,)), = core._record_counts(
                [(as_points(x)[None], as_points(y)[None])], eps, 10
            )
            full_w = count_close_within(x, eps)
            full_b = count_close_between(x, y, eps)
            lags_w = oracle.naive_lag_counts(x, None, eps)
            lags_b = oracle.naive_lag_counts(x, y, eps)
            for g in range(11):
                assert full_w - sum(near_w[: g + 1]) == _past(lags_w, g)
                assert full_b - sum(near_b[: g + 1]) == _past(lags_b, g)

    def test_complete_counts_ignore_time_order(self):
        rng = np.random.default_rng(2032)
        for x, y, eps in _identity_instances():
            within = count_close_within(x, eps)
            between = count_close_between(x, y, eps)
            px, py = rng.permutation(len(x)), rng.permutation(len(y))
            assert count_close_within(x[::-1], eps) == within
            assert count_close_within(x[px], eps) == within
            assert count_close_between(x[::-1], y[::-1], eps) == between
            assert count_close_between(x[px], y[py], eps) == between


class TestArgumentErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: as_points(np.zeros((2, 2, 2))),
         "sample must be 1- or 2-dimensional, got shape (2, 2, 2)"),
        (lambda: as_points(np.zeros((3, 0))), "observations must have at least one coordinate"),
        (lambda: count_close_within_gap(np.arange(5.0), 0.5, -1),
         "gap must be a nonnegative integer, got -1"),
    ], ids=["as_points-3d", "as_points-no-columns", "negative-gap"])
    def test_message_names_the_argument(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
