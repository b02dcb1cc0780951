"""Close-pair estimators of the quadratic density functionals.

The estimators turn raw close-pair counts into estimates of the integrals
``q_kl = integral p_X(x)**k * p_Y(x)**l dx`` for k + l = 2:

* ``estimate_q20`` / ``estimate_q11`` use every eligible index pair.
* ``estimate_q20_incomplete`` / ``estimate_q11_incomplete`` restrict to pairs
  whose index separation exceeds a gap, which removes the dependence bias of
  serially dependent samples without further assumptions.
* ``estimate_divergence`` and ``estimate_renyi2`` are plug-in compositions.

``q02`` needs no code of its own: it is ``q20`` applied to the second sample.

Every estimate is arithmetic on one ``PairCounts`` record, counted once per
sample or pair by ``count_pairs``: ``evaluate`` is the one dispatch from
(functional, gap) to a value, and each piece is
``raw_count / (pair_count * ball_volume)``, where a gap-restricted count is
the full count minus the near-lag counts up to the gap.  The value is
nonnegative and may exceed 1 (it estimates an integral, not a probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import core
from .core import as_points, ball_volume


class EstimationError(Exception):
    """Base class for estimator failures that are not argument errors."""


class InsufficientDataError(EstimationError):
    """The sample is too short for the requested estimator."""


class UndefinedEntropyError(EstimationError):
    """No close pairs were found, so -log of the estimate is undefined.

    Raised instead of returning +inf: a silent infinity would poison any
    downstream mean-square aggregation.  It usually means epsilon is too
    small for the sample at hand.
    """


_VALID_KL = {(2, 0), (1, 1), (0, 2)}
_VARIANTS = ("complete", "incomplete")


def log_gap(n: int) -> int:
    """Default index-separation gap, floor(log n)."""
    return int(math.floor(math.log(n)))


def sqrt_gap(n: int) -> int:
    """Alternative index-separation gap, floor(sqrt n)."""
    return int(math.floor(math.sqrt(n)))


@dataclass(frozen=True)
class EstimateConfig:
    """Functional selector (k, l), radius, variant, and gap of one estimate."""

    k: int
    l: int
    epsilon: float
    variant: str = "complete"
    gap: int | None = None

    def __post_init__(self):
        if (self.k, self.l) not in _VALID_KL:
            raise ValueError(f"(k, l) must be one of {sorted(_VALID_KL)}, got {(self.k, self.l)}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if self.variant == "incomplete":
            if self.gap is None or self.gap < 0:
                raise ValueError("incomplete variant requires a nonnegative gap")
        elif self.gap is not None:
            raise ValueError("complete variant takes no gap")


@dataclass(frozen=True)
class FunctionalEstimate:
    """A point estimate together with the count and normalizer behind it."""

    value: float
    raw_count: int
    normalizer: float
    config: EstimateConfig


@dataclass(frozen=True)
class AsymptoticVariance:
    """Long-run variance of the projected kernel of a dependent sample.

    ``sigma2`` is the lag-0 variance plus twice the lag-1..m covariances; it
    is the constant in the 4*sigma2/n limit of the estimators' mean squared
    error.  ``lag_covariances[h]`` stores the lag-h term, so
    ``sigma2 == lag_covariances[0] + 2 * sum(lag_covariances[1:])``.
    ``se`` is the standard error of a Monte Carlo evaluation, when known.
    """

    sigma2: float
    m: int
    lag_covariances: tuple[float, ...]
    se: float | None = None

    def __post_init__(self):
        if len(self.lag_covariances) != self.m + 1:
            raise ValueError(
                f"expected {self.m + 1} lag covariances, got {len(self.lag_covariances)}"
            )
        combined = self.lag_covariances[0] + 2.0 * sum(self.lag_covariances[1:])
        if not math.isclose(combined, self.sigma2, rel_tol=1e-9, abs_tol=1e-15):
            raise ValueError(
                f"sigma2={self.sigma2} inconsistent with lag covariances (sum {combined})"
            )


# The pieces each functional is computed from: q20 counts pairs within x, q02
# within y, q11 ordered cross pairs.
_PIECES = {
    "q20": ("q20",),
    "q11": ("q11",),
    "divergence": ("q11", "q20", "q02"),
    "renyi2": ("q20",),
}
_KL = {"q20": (2, 0), "q11": (1, 1), "q02": (0, 2)}


@dataclass(frozen=True)
class PairCounts:
    """The close-pair counts behind every estimate on one sample or pair.

    ``full[piece]`` is the complete count of ``q20`` (pairs within x), ``q02``
    (pairs within y) or ``q11`` (ordered cross pairs).  ``near[piece][h]`` is
    the number of those close pairs at index lag exactly h, for
    h = 0..max_gap; ``max_gap`` is None when only complete counts were made.
    """

    n: int
    d: int
    epsilon: float
    max_gap: int | None
    full: dict[str, int]
    near: dict[str, tuple[int, ...]]


def count_pairs(functional, x, y, epsilon, variant="complete", gap=None) -> PairCounts:
    """Validate the input of one estimate and count its close pairs once.

    ``functional`` is q20, q11, divergence or renyi2; ``y`` is the second
    sample of q11 and divergence.  The incomplete variant also counts the
    near lags up to ``gap``, an integer, by default floor(log n) of the sample
    estimated; the complete variant takes no gap.
    """
    if functional not in _PIECES:
        raise ValueError(f"functional must be one of {tuple(_PIECES)}, got {functional!r}")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    pieces = _PIECES[functional]
    xp = as_points(x)
    yp = as_points(y) if "q11" in pieces else None
    n = xp.shape[0]
    if n < 2 and (functional != "q11" or variant == "incomplete"):
        raise InsufficientDataError(f"need at least 2 observations, got {n}")
    g = None
    if gap is not None:
        if variant == "complete":
            raise ValueError("complete variant takes no gap")
        g = int(gap)
        if g != gap:
            raise ValueError(f"gap must be an integer, got {gap!r}")
    if variant == "incomplete":
        g = log_gap(n) if g is None else g
        if g >= n - 1:
            raise InsufficientDataError(f"gap {g} leaves no index pairs for n={n}")
    eps = EstimateConfig(*_KL[pieces[0]], float(epsilon), variant, g).epsilon
    if yp is not None:
        core._check_same_dim(xp, yp)
        core._check_equal_length(xp, yp)
    return _count_stack(functional, xp[None], None if yp is None else yp[None], eps, g)[0]


def _count_stack(functional, xs, ys, eps: float, gap: int | None) -> list[PairCounts]:
    """Count the pieces of ``functional`` once over stacks of samples: one record per row.

    ``xs`` and ``ys`` are (R, n, d) stacks of validated samples (``ys`` is
    None unless a piece needs it), and row r of ``xs`` is paired with row r
    of ``ys``.  Each piece is counted over all R rows at once, with its near
    lags up to ``gap`` unless that is None.
    """
    samples = {"q20": (xs, None), "q11": (xs, ys), "q02": (ys, None)}
    full, near = {}, {}
    for piece in _PIECES[functional]:
        a, b = samples[piece]
        counts, lags = core._close_counts(a, b, eps, gap)
        full[piece] = counts.tolist()
        if lags is not None:
            near[piece] = [tuple(row) for row in lags.tolist()]
    rows, n, d = xs.shape
    return [
        PairCounts(
            n, d, eps, gap, {p: c[r] for p, c in full.items()}, {p: c[r] for p, c in near.items()}
        )
        for r in range(rows)
    ]


def estimate_piece(counts: PairCounts, piece: str, gap: int | None = None) -> FunctionalEstimate:
    """The q20, q11 or q02 estimate of a count record; gap None is the complete variant."""
    n = counts.n
    count = counts.full[piece]
    if gap is None:
        config = EstimateConfig(*_KL[piece], counts.epsilon)
        pairs = float(n) ** 2 if piece == "q11" else math.comb(n, 2)
    else:
        if counts.max_gap is None or gap > counts.max_gap:
            raise ValueError(f"no near-lag counts up to gap {gap} (counted to {counts.max_gap})")
        config = EstimateConfig(*_KL[piece], counts.epsilon, "incomplete", gap)
        count -= sum(counts.near[piece][: gap + 1])
        pairs = (2 if piece == "q11" else 1) * math.comb(n - gap, 2)
    normalizer = pairs * ball_volume(counts.d, counts.epsilon).volume
    return FunctionalEstimate(count / normalizer, count, normalizer, config)


def evaluate(
    counts: PairCounts, functional: str, gap: int | None = None, clamp_nonnegative: bool = False
) -> float:
    """The value of one functional on a count record; gap None is the complete variant.

    ``functional`` is a piece (q20, q11, q02), ``divergence`` (q20 - 2*q11 +
    q02, floored at zero with ``clamp_nonnegative``) or ``renyi2`` (-log q20).
    """
    if functional == "divergence":
        value = (
            estimate_piece(counts, "q20", gap).value
            - 2.0 * estimate_piece(counts, "q11", gap).value
            + estimate_piece(counts, "q02", gap).value
        )
        if clamp_nonnegative and value < 0.0:
            return 0.0
        return value
    if functional == "renyi2":
        est = estimate_piece(counts, "q20", gap)
        if est.raw_count == 0:
            raise UndefinedEntropyError(
                f"no close pairs at epsilon={counts.epsilon}; entropy estimate undefined"
            )
        return -math.log(est.value)
    return estimate_piece(counts, functional, gap).value


def estimate_q20(x, epsilon) -> FunctionalEstimate:
    """Estimate the integrated squared density of the sample's marginal.

    value = close_pairs_within(x, eps) / (comb(n, 2) * ball_volume).
    """
    return estimate_piece(count_pairs("q20", x, None, epsilon), "q20")


def estimate_q11(x, y, epsilon) -> FunctionalEstimate:
    """Estimate the cross functional integral p_X * p_Y from equal-size samples.

    value = close_pairs_between(x, y, eps) / (n**2 * ball_volume).
    """
    return estimate_piece(count_pairs("q11", x, y, epsilon), "q11")


def estimate_q20_incomplete(x, epsilon, gap=None) -> FunctionalEstimate:
    """Gap-restricted variant of ``estimate_q20``.

    Only pairs with index separation j - i > gap enter; the normalizer is the
    matching pair count comb(n - gap, 2).  ``gap=None`` uses floor(log n).
    """
    counts = count_pairs("q20", x, None, epsilon, "incomplete", gap)
    return estimate_piece(counts, "q20", counts.max_gap)


def estimate_q11_incomplete(x, y, epsilon, gap=None) -> FunctionalEstimate:
    """Gap-restricted variant of ``estimate_q11`` over ordered pairs |j - i| > gap."""
    counts = count_pairs("q11", x, y, epsilon, "incomplete", gap)
    return estimate_piece(counts, "q11", counts.max_gap)


def estimate_divergence(
    x, y, epsilon, variant: str = "complete", gap=None, clamp_nonnegative: bool = False
) -> float:
    """Plug-in integrated squared density difference, q20 - 2*q11 + q02.

    All three components use the same epsilon, variant, and gap; q02 is the
    within-sample estimator applied to ``y``.  The raw value may be negative
    in finite samples and is reported as computed; pass
    ``clamp_nonnegative=True`` to floor it at zero.
    """
    counts = count_pairs("divergence", x, y, epsilon, variant, gap)
    return evaluate(counts, "divergence", counts.max_gap, clamp_nonnegative)


def estimate_renyi2(x, epsilon, variant: str = "complete", gap=None) -> float:
    """Quadratic (collision) entropy estimate, -log of the q20 estimate."""
    counts = count_pairs("renyi2", x, None, epsilon, variant, gap)
    return evaluate(counts, "renyi2", counts.max_gap)
