"""Independent ground truth for the estimators.

Three kinds of oracle live here:

* ``true_q`` / ``epsilon_level_target``: the target integrals, by closed form
  where the marginal family admits one and otherwise by adaptive Simpson
  quadrature over a truncated domain, to the fixed tolerance ``_TOL``.
* ``sigma2_oracle``: Monte Carlo evaluation of the long-run variance constant
  that appears in the 4*sigma2/n mean-square limit.  Known densities are
  evaluated on simulated paths; analytic lag covariances exist only case by
  case, while this route is uniform, with a standard error from batch means.
* ``naive_lag_counts``: the one brute-force reference for every close-pair
  count, O(n^2) one row at a time, resolved by index lag; the ``naive_q*``
  references normalise its sums after the estimators' checks.  It shares
  nothing with the counting kernel of ``core`` except the per-pair
  arithmetic contract (squared distance, coordinate-accumulated, <= eps**2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _check_integer, _check_radius, _pair_points, as_points, ball_volume
from .estimators import AsymptoticVariance, EstimationError, FunctionalEstimate, _validated
from .processes import (
    ExponentialMarginal,
    NormalMarginal,
    SeededStream,
    generate,
    paired_generate,
)


class UnsupportedProcessError(EstimationError):
    """The process has no closed-form marginal, so no truth can be produced."""


# The quadrature's tolerance and depth limit, and sigma2_oracle's batch count.
_TOL = 1e-11
_MAX_DEPTH = 48
_BATCHES = 32


# ---------------------------------------------------------------------------
# Adaptive Simpson quadrature
# ---------------------------------------------------------------------------


def adaptive_simpson(f, a: float, b: float):
    """Integrate ``f`` over [a, b] by adaptive Simpson with Richardson extrapolation.

    Returns (value, error_estimate).  Interval halving stops once the local
    Richardson error estimate is below the interval's share of ``_TOL`` or
    after ``_MAX_DEPTH`` halvings; the returned error estimate is the sum of
    the local ones and is usually conservative for smooth integrands.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0, 0.0
    if a > b:
        value, err = adaptive_simpson(f, b, a)
        return -value, err
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_branch(f, a, b, fa, fm, fb, whole, _TOL, _MAX_DEPTH)


def _simpson_branch(f, a, b, fa, fm, fb, whole, tol, depth):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = f(lm)
    frm = f(rm)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0
    lv, le = _simpson_branch(f, a, mid, fa, flm, fm, left, tol / 2.0, depth - 1)
    rv, re = _simpson_branch(f, mid, b, fm, frm, fb, right, tol / 2.0, depth - 1)
    return lv + rv, le + re


# ---------------------------------------------------------------------------
# Truth reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruthReport:
    """True functional values for a pair of marginals; the divergence and
    the Renyi-2 entropy are derived from the q-values."""

    q20: float
    q11: float
    q02: float
    method: str
    error_bound: float

    @property
    def divergence(self) -> float:
        return self.q20 - 2.0 * self.q11 + self.q02

    @property
    def renyi2(self) -> float:
        return -math.log(self.q20)

    def value_for(self, functional: str) -> float:
        """Look up the truth for a named functional."""
        try:
            return getattr(self, functional)
        except AttributeError:
            raise ValueError(f"unknown functional {functional!r}") from None


def _require_marginal(spec):
    marginal = spec.marginal()
    if marginal is None:
        raise UnsupportedProcessError(
            f"process {getattr(spec, 'kind', spec)!r} has no closed-form marginal"
        )
    return marginal


def _normal_pair_q11(a: NormalMarginal, b: NormalMarginal) -> float:
    # integral of two normal densities = density of the difference at 0
    var = a.variance + b.variance
    return math.exp(-((a.mean - b.mean) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def _closed_form(mx, my):
    if isinstance(mx, NormalMarginal) and isinstance(my, NormalMarginal):
        return _normal_pair_q11(mx, mx), _normal_pair_q11(mx, my), _normal_pair_q11(my, my)
    if isinstance(mx, ExponentialMarginal) and isinstance(my, ExponentialMarginal):
        q20 = mx.rate / 2.0
        q11 = mx.rate * my.rate / (mx.rate + my.rate)
        q02 = my.rate / 2.0
        return q20, q11, q02
    return None


def _quadrature_q(mx, my):
    lo_x, hi_x = mx.support()
    lo_y, hi_y = my.support()
    q20, e20 = adaptive_simpson(lambda t: mx.pdf(t) ** 2, lo_x, hi_x)
    q02, e02 = adaptive_simpson(lambda t: my.pdf(t) ** 2, lo_y, hi_y)
    lo, hi = max(lo_x, lo_y), min(hi_x, hi_y)
    if lo < hi:
        q11, e11 = adaptive_simpson(lambda t: mx.pdf(t) * my.pdf(t), lo, hi)
    else:
        q11, e11 = 0.0, 0.0
    return (q20, q11, q02), e20 + e11 + e02


def true_q(spec_x, spec_y=None, method: str = "auto") -> TruthReport:
    """True q20/q11/q02 (and derived divergence/entropy) for a process pair.

    With ``spec_y=None`` the same marginal is used on both sides, so q11 and
    q02 coincide with q20 and the divergence is exactly zero.  ``method`` may
    force ``"closed-form"`` or ``"quadrature"``; the default uses the closed
    form when the marginal families admit one.
    """
    mx = _require_marginal(spec_x)
    my = mx if spec_y is None else _require_marginal(spec_y)
    if method not in ("auto", "closed-form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method != "quadrature":
        closed = _closed_form(mx, my)
        if closed is not None:
            return TruthReport(*closed, method="closed-form", error_bound=0.0)
        if method == "closed-form":
            raise UnsupportedProcessError(
                f"no closed form for marginals {type(mx).__name__}/{type(my).__name__}"
            )
    values, err = _quadrature_q(mx, my)
    return TruthReport(*values, method="quadrature", error_bound=err)


def epsilon_level_target(spec_x, spec_y, epsilon: float) -> float:
    """The radius-smoothed target P(d(X, Y) <= eps) / ball_volume for independent X, Y.

    This is what the cross estimator is unbiased for (given enough index
    separation); it converges to q11 as the radius shrinks.  Univariate
    marginals only.
    """
    volume = ball_volume(1, epsilon)
    eps = float(epsilon)
    mx = _require_marginal(spec_x)
    my = mx if spec_y is None else _require_marginal(spec_y)
    lo, hi = mx.support()

    def integrand(t: float) -> float:
        return mx.pdf(t) * (my.cdf(t + eps) - my.cdf(t - eps))

    prob, _ = adaptive_simpson(integrand, lo, hi)
    return prob / volume


# ---------------------------------------------------------------------------
# Long-run variance oracle
# ---------------------------------------------------------------------------


def _lag_covariances(series: np.ndarray, m: int) -> tuple[float, ...]:
    mean = float(series.mean())
    centered = series - mean
    n = centered.size
    covs = [float(np.mean(centered * centered))]
    for h in range(1, m + 1):
        covs.append(float(np.mean(centered[:-h] * centered[h:])) if h < n else 0.0)
    return tuple(covs)


def sigma2_oracle(
    spec_x,
    functional: tuple[int, int] = (2, 0),
    spec_y=None,
    reps: int = 200_000,
    stream: SeededStream | None = None,
) -> AsymptoticVariance:
    """Monte Carlo long-run variance of the projected kernel.

    For the one-sample functional the projected kernel is the marginal
    density evaluated along the path; for the cross functional it is
    ``(p_Y(X_t) + p_X(Y_t)) / 2`` along a jointly generated pair of paths.
    The standard error comes from batch means over ``_BATCHES`` contiguous
    blocks of one long run.
    """
    if stream is None:
        stream = SeededStream(0)
    reps = _check_integer(reps, "reps")
    if reps < 4 * _BATCHES:
        raise ValueError(f"reps={reps} too small for {_BATCHES} batches")

    if functional == (2, 0) or functional == (0, 2):
        spec = spec_x if functional == (2, 0) else spec_y
        if spec is None:
            raise ValueError("functional (0, 2) requires spec_y")
        marginal = _require_marginal(spec)
        path = generate(spec, reps, stream)[:, 0]
        series = np.asarray(marginal.pdf(path), dtype=float)
        m = spec.m
    elif functional == (1, 1):
        if spec_y is None:
            raise ValueError("functional (1, 1) requires spec_y")
        mx = _require_marginal(spec_x)
        my = _require_marginal(spec_y)
        x, y = paired_generate(spec_x, spec_y, reps, stream)
        series = 0.5 * (
            np.asarray(my.pdf(x[:, 0]), dtype=float)
            + np.asarray(mx.pdf(y[:, 0]), dtype=float)
        )
        m = max(spec_x.m, spec_y.m)
    else:
        raise ValueError(f"functional must be (2,0), (1,1) or (0,2), got {functional!r}")

    batch_len = series.size // _BATCHES
    batch_values = [
        AsymptoticVariance(_lag_covariances(series[b * batch_len : (b + 1) * batch_len], m)).sigma2
        for b in range(_BATCHES)
    ]
    spread = float(np.std(batch_values, ddof=1))
    return AsymptoticVariance(_lag_covariances(series, m), se=spread / math.sqrt(_BATCHES))


# ---------------------------------------------------------------------------
# The brute-force reference (always O(n^2), one row at a time)
# ---------------------------------------------------------------------------


def _close_to(p: np.ndarray, pts: np.ndarray, eps2: float) -> np.ndarray:
    """Whether each row of ``pts`` is close to ``p``: the reference's one per-pair predicate."""
    diff = pts[:, 0] - p[0]
    s = diff * diff
    for k in range(1, pts.shape[1]):
        diff = pts[:, k] - p[k]
        s = s + diff * diff
    return s <= eps2


def _lag_counts(xp: np.ndarray, yp: np.ndarray | None, eps2: float) -> np.ndarray:
    """``naive_lag_counts`` of validated samples and a squared radius."""
    n = xp.shape[0]
    # the close pairs at each signed lag j - i = 1-n..n-1, offset by n - 1
    signed = np.zeros(2 * n - 1, dtype=np.int64)
    others = xp if yp is None else yp
    # squares past the float range are inf, and not close
    with np.errstate(over="ignore"):
        for i in range(n):
            # a within-count pairs row i with the later rows only
            j = i + 1 if yp is None else 0
            signed[n - 1 - i + j : 2 * n - 1 - i] += _close_to(xp[i], others[j:], eps2)
    lags = signed[n - 1 :].copy()
    lags[1:] += signed[: n - 1][::-1]
    return lags


def naive_lag_counts(x, y, epsilon) -> np.ndarray:
    """Close pairs at each index lag 0..n-1, by brute force, one row at a time.

    The pairs are i < j within ``x`` (lag j - i; lag 0 holds none) when ``y``
    is None, and ordered cross pairs (x_i, y_j) of equal-length samples (lag
    |j - i|) otherwise.  A pair is close when its squared distance, summed
    coordinate by coordinate from the first term, is <= epsilon * epsilon.
    Every full, gap-restricted and near-lag count is a sum or a slice of the
    result.  Any radius >= 0 is accepted.
    """
    xp, yp = (as_points(x), None) if y is None else _pair_points(x, y)
    eps = _check_radius(epsilon)
    return _lag_counts(xp, yp, eps * eps)


def _naive_estimate(x, y, epsilon, variant="complete", gap=None) -> FunctionalEstimate:
    """A reference estimate of q20 (``y`` None) or q11, the sum of its lag counts past the gap.

    The estimators' ``_validated`` checks the arguments, so both fail alike;
    the count and the normalizer are the reference's own.
    """
    piece = "q20" if y is None else "q11"
    xp, yp, eps, g = _validated(piece, x, y, epsilon, variant, gap)
    n = xp.shape[0]
    lags = _lag_counts(xp, yp, eps * eps)
    if g is None:
        count = int(lags.sum())
        pairs = math.comb(n, 2) if y is None else float(n) ** 2
    else:
        count = int(lags[g + 1 :].sum())
        pairs = (1 if y is None else 2) * math.comb(n - g, 2)
    normalizer = pairs * ball_volume(xp.shape[1], eps)
    return FunctionalEstimate(count / normalizer, count, normalizer, g)


def naive_q20(x, epsilon) -> FunctionalEstimate:
    """Reference version of ``estimate_q20``, from ``naive_lag_counts``."""
    return _naive_estimate(x, None, epsilon)


def naive_q11(x, y, epsilon) -> FunctionalEstimate:
    """Reference version of ``estimate_q11``, from ``naive_lag_counts``."""
    return _naive_estimate(x, y, epsilon)


def naive_q20_incomplete(x, epsilon, gap=None) -> FunctionalEstimate:
    """Reference version of ``estimate_q20_incomplete``, from ``naive_lag_counts``."""
    return _naive_estimate(x, None, epsilon, "incomplete", gap)


def naive_q11_incomplete(x, y, epsilon, gap=None) -> FunctionalEstimate:
    """Reference version of ``estimate_q11_incomplete``, from ``naive_lag_counts``."""
    return _naive_estimate(x, y, epsilon, "incomplete", gap)
