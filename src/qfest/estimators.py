"""Close-pair estimators of the quadratic density functionals.

The estimators turn raw close-pair counts into estimates of the integrals
``q_kl = integral p_X(x)**k * p_Y(x)**l dx`` for k + l = 2:

* ``estimate_q20`` / ``estimate_q11`` use every eligible index pair.
* ``estimate_q20_incomplete`` / ``estimate_q11_incomplete`` restrict to pairs
  whose index separation exceeds a gap, which removes the dependence bias of
  serially dependent samples without further assumptions.
* ``estimate_divergence`` and ``estimate_renyi2`` are plug-in compositions.

``q02`` needs no code of its own: it is ``q20`` applied to the second sample.

Every estimate is arithmetic on one ``PairCounts`` record of count arrays,
one row per sample or pair: ``evaluate`` is the one dispatch from
(functional, gap) to the values of all rows at once, and each piece is
``raw_count / (pair_count * ball_volume)``, where a gap-restricted count is
the full count minus the near-lag counts up to the gap.  The value is
nonnegative and may exceed 1 (it estimates an integral, not a probability).

The pieces of a functional are counted together, by one call of the
counting kernel per record, so a sample shared by two pieces (x in q20 and
q11, y in q11 and q02) is sorted once.  The Monte Carlo harness evaluates a
chunk of replications as one record.  A library sample is a stack of one,
checked once by ``_validated``; its ``FunctionalEstimate`` (value, count,
normalizer and resolved gap) or ``UndefinedEntropyError`` comes from row 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


_VARIANTS = ("complete", "incomplete")


def log_gap(n: int) -> int:
    """Default index-separation gap, floor(log n)."""
    return int(math.floor(math.log(n)))


def sqrt_gap(n: int) -> int:
    """Alternative index-separation gap, floor(sqrt n)."""
    return int(math.floor(math.sqrt(n)))


@dataclass(frozen=True)
class FunctionalEstimate:
    """A point estimate, the count and normalizer behind it, and its gap (None if complete)."""

    value: float
    raw_count: int
    normalizer: float
    gap: int | None


@dataclass(frozen=True)
class AsymptoticVariance:
    """Long-run variance of the projected kernel of a dependent sample.

    ``lag_covariances[h]`` is the lag-h covariance for h = 0..m.  ``sigma2``
    is the lag-0 variance plus twice the lag-1..m covariances; it is the
    constant in the 4*sigma2/n limit of the estimators' mean squared error.
    ``se`` is the standard error of a Monte Carlo evaluation, when known.
    """

    lag_covariances: tuple[float, ...]
    se: float | None = None

    @property
    def m(self) -> int:
        return len(self.lag_covariances) - 1

    @property
    def sigma2(self) -> float:
        return self.lag_covariances[0] + 2.0 * sum(self.lag_covariances[1:])


# The pieces each functional is computed from: q20 counts pairs within x, q02
# within y, q11 ordered cross pairs.
_PIECES = {
    "q20": ("q20",),
    "q11": ("q11",),
    "divergence": ("q11", "q20", "q02"),
    "renyi2": ("q20",),
}


@dataclass(frozen=True)
class PairCounts:
    """The close-pair counts behind every estimate on a stack of R samples or pairs.

    ``full[piece]``, shape (R,), holds each row's complete count of ``q20``
    (pairs within x), ``q02`` (pairs within y) or ``q11`` (ordered cross
    pairs).  ``near[piece][r, h]`` is the number of those close pairs of row r
    at index lag exactly h, for h = 0..max_gap; ``near[piece]`` and
    ``max_gap`` are None when only complete counts were made.  A library
    sample is a stack of one.
    """

    n: int
    d: int
    epsilon: float
    max_gap: int | None
    full: dict[str, np.ndarray]
    near: dict[str, np.ndarray | None]


def _validated(functional, x, y, epsilon, variant="complete", gap=None):
    """The checked input of one estimate, (xp, yp, eps, gap), before anything is counted.

    ``functional`` is q20, q11, divergence or renyi2; ``y`` is the second
    sample of q11 and divergence.  An incomplete estimate's integer gap
    defaults to floor(log n).  The radius, variant and gap are checked here,
    every piece's normalizer by ``_normalizer``.  The ``oracle.naive_q*``
    references share this one rule.
    """
    if functional not in _PIECES:
        raise ValueError(f"functional must be one of {tuple(_PIECES)}, got {functional!r}")
    pieces = _PIECES[functional]
    xp, yp = core._pair_points(x, y) if "q11" in pieces else (as_points(x), None)
    n, d = xp.shape
    if n < 2 and (functional != "q11" or variant == "incomplete"):
        raise InsufficientDataError(f"need at least 2 observations, got {n}")
    g = None if gap is None else core._check_integer(gap, "gap")
    if variant == "incomplete":
        g = log_gap(n) if g is None else g
        if g >= n - 1:
            raise InsufficientDataError(f"gap {g} leaves no index pairs for n={n}")
    eps = float(epsilon)
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"epsilon must be finite and > 0, got {eps!r}")
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    if variant == "incomplete" and g < 0:
        raise ValueError("incomplete variant requires a nonnegative gap")
    if variant == "complete" and g is not None:
        raise ValueError("complete variant takes no gap")
    for piece in pieces:
        _normalizer(piece, n, d, eps, g)
    return xp, yp, eps, g


def count_pairs(functional, x, y, epsilon, variant="complete", gap=None) -> PairCounts:
    """Count the close pairs of one estimate once, as a stack of one, after ``_validated``."""
    xp, yp, eps, g = _validated(functional, x, y, epsilon, variant, gap)
    return _count_stack(functional, xp[None], None if yp is None else yp[None], eps, g)


def _count_stack(functional, xs, ys, eps: float, gap: int | None) -> PairCounts:
    """Count the pieces of ``functional`` once over stacks of samples.

    ``xs`` and ``ys`` are (R, n, d) stacks of validated samples (``ys`` is
    None unless a piece needs it), and row r of ``xs`` is paired with row r
    of ``ys``.  The pieces are counted as one record over all R rows at once,
    with their near lags up to ``gap`` unless that is None.
    """
    samples = {"q20": (xs, None), "q11": (xs, ys), "q02": (ys, None)}
    pieces = _PIECES[functional]
    counts = core._record_counts([samples[piece] for piece in pieces], eps, gap)
    full = {piece: f for piece, (f, _) in zip(pieces, counts)}
    near = {piece: lags for piece, (_, lags) in zip(pieces, counts)}
    _, n, d = xs.shape
    return PairCounts(n, d, eps, gap, full, near)


def _normalizer(piece: str, n: int, d: int, eps: float, gap: int | None) -> float:
    """A piece's eligible index pairs times the ball volume; gap None is the complete variant."""
    if gap is None:
        pairs = float(n) ** 2 if piece == "q11" else math.comb(n, 2)
    else:
        pairs = (2 if piece == "q11" else 1) * math.comb(n - gap, 2)
    normalizer = pairs * ball_volume(d, eps)
    if not 0.0 < normalizer < math.inf:
        raise ValueError(f"normalizer at d={d}, epsilon={eps!r} is not a positive finite float")
    return normalizer


def _piece_counts(counts: PairCounts, piece: str, gap: int | None):
    """Each row's count of one piece, shape (R,), and their normalizer; gap None is complete."""
    count = counts.full[piece]
    if gap is not None:
        if counts.max_gap is None or gap > counts.max_gap:
            raise ValueError(f"no near-lag counts up to gap {gap} (counted to {counts.max_gap})")
        count = count - counts.near[piece][:, : gap + 1].sum(axis=1)
    return count, _normalizer(piece, counts.n, counts.d, counts.epsilon, gap)


def estimate_piece(counts: PairCounts, piece: str, gap: int | None = None) -> FunctionalEstimate:
    """The q20, q11 or q02 estimate of row 0 of a count record; gap None is the complete variant."""
    count, normalizer = _piece_counts(counts, piece, gap)
    raw_count = int(count[0])
    return FunctionalEstimate(raw_count / normalizer, raw_count, normalizer, gap)


def evaluate(
    counts: PairCounts, functional: str, gap: int | None = None, clamp_nonnegative: bool = False
) -> np.ndarray:
    """The value of one functional on each row of a count record, shape (R,).

    ``functional`` is a piece (q20, q11, q02), ``divergence`` (q20 - 2*q11 +
    q02, floored at zero with ``clamp_nonnegative``) or ``renyi2`` (-log q20,
    NaN on a row without close pairs); gap None is the complete variant.
    Each value rounds as on Python floats: an overflow gives inf (or NaN from
    inf - inf) without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = {}
        for piece in _PIECES.get(functional, (functional,)):
            count, normalizer = _piece_counts(counts, piece, gap)
            q[piece] = count / normalizer
        if functional == "divergence":
            value = q["q20"] - 2.0 * q["q11"] + q["q02"]
            if clamp_nonnegative:
                value[value < 0.0] = 0.0
            return value
    if functional == "renyi2":
        # a finite normalizer leaves a value of 0 only to a row without close
        # pairs; math.log, not np.log, which rounds differently on some inputs
        return np.array([-math.log(v) if v else math.nan for v in q["q20"].tolist()])
    return q[functional]


def _single_value(
    counts: PairCounts, functional: str, gap: int | None = None, clamp_nonnegative: bool = False
) -> float:
    """The value of ``functional`` on a stack of one; a NaN value raises.

    A renyi2 value is NaN only without close pairs.  A divergence is NaN when
    its pieces overflow to inf (inf - 2*inf + inf), at a radius tiny against
    the normalizer's float range.
    """
    value = float(evaluate(counts, functional, gap, clamp_nonnegative)[0])
    if math.isnan(value):
        if functional == "renyi2":
            raise UndefinedEntropyError(
                f"no close pairs at epsilon={counts.epsilon}; entropy estimate undefined"
            )
        raise ValueError(
            f"{functional} pieces overflow the float range at epsilon={counts.epsilon!r}"
        )
    return value


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
    ``clamp_nonnegative=True`` to floor it at zero.  Pieces that overflow to
    inf make the value undefined, and raise a ``ValueError``.
    """
    counts = count_pairs("divergence", x, y, epsilon, variant, gap)
    return _single_value(counts, "divergence", counts.max_gap, clamp_nonnegative)


def estimate_renyi2(x, epsilon, variant: str = "complete", gap=None) -> float:
    """Quadratic (collision) entropy estimate, -log of the q20 estimate."""
    counts = count_pairs("renyi2", x, None, epsilon, variant, gap)
    return _single_value(counts, "renyi2", counts.max_gap)
