"""Geometry and exact fixed-radius pair counting.

Counts pairs of observations at Euclidean distance <= epsilon (closed ball,
no tolerance slack).  Every implementation compares the squared distance,
accumulated coordinate by coordinate, against epsilon**2, so the brute-force
reference and the accelerated paths agree bit for bit on any input.

Both full counts go through one kernel, which treats a within-count as a
sample against itself with each pair taken from one side only.  At d >= 2 a
strip grid (the cell method of Bentley, Stanat and Williams, 1977) sorts the
points by a key of compressed integer cells, so the candidates of a point in
each of its 3**(d-1) neighbour strips form one contiguous range.  At d = 1,
and where no cell can be formed (a zero radius, coordinates beyond the cells'
integer resolution, or a key wider than 64 bits), an exact sweep takes the
1-D windows of the coordinate with the fewest 1-D close pairs over its sorted
values; at d = 1 the window count is the answer.  Every other candidate is
checked with the full predicate.  Every gap count is the full count minus the
near-lag counts up to the gap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Above this |coordinate| / cell-side ratio the grid loses integer resolution;
# such inputs take the one-coordinate sweep.
_MAX_CELL_COORD = 2.0**52

# Flattened candidate-pair buffers are processed in chunks of this many pairs.
_PAIR_CHUNK = 4_000_000


def as_points(x) -> np.ndarray:
    """Validate a sample as an (n, d) float array.

    Accepts any array-like; a 1-d input is treated as n scalar observations.
    Row order is meaningful (it encodes time) and is never modified; the
    counting routines sort private copies only.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise ValueError(f"sample must be 1- or 2-dimensional, got shape {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("sample must contain at least one observation")
    if pts.shape[1] < 1:
        raise ValueError("observations must have at least one coordinate")
    if not np.isfinite(pts).all():
        raise ValueError("sample contains non-finite coordinates")
    return pts


def _check_radius(epsilon) -> float:
    eps = float(epsilon)
    if not math.isfinite(eps) or eps < 0.0:
        raise ValueError(f"radius must be finite and >= 0, got {epsilon!r}")
    return eps


def _check_gap(gap, n: int) -> int:
    g = int(gap)
    if g != gap or g < 0:
        raise ValueError(f"gap must be a nonnegative integer, got {gap!r}")
    if g >= n:
        raise ValueError(f"gap {g} leaves an empty index set for n={n}")
    return g


def _check_same_dim(xp: np.ndarray, yp: np.ndarray) -> None:
    if xp.shape[1] != yp.shape[1]:
        raise ValueError(
            f"samples have mismatched dimensions {xp.shape[1]} and {yp.shape[1]}"
        )


def _check_equal_length(xp: np.ndarray, yp: np.ndarray) -> None:
    if xp.shape[0] != yp.shape[0]:
        raise ValueError(
            f"samples must have equal lengths, got {xp.shape[0]} and {yp.shape[0]}"
        )


# ---------------------------------------------------------------------------
# Ball volume
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallVolume:
    """Volume of a Euclidean ball of radius ``epsilon`` in dimension ``d``."""

    d: int
    epsilon: float
    volume: float


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in dimension d: pi^(d/2) / Gamma(d/2 + 1)."""
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def ball_volume(d: int, epsilon: float) -> BallVolume:
    """Volume of the radius-``epsilon`` ball, ``unit_ball_volume(d) * eps**d``."""
    eps = float(epsilon)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"radius must be finite and > 0, got {epsilon!r}")
    return BallVolume(d=int(d), epsilon=eps, volume=unit_ball_volume(d) * eps**d)


# ---------------------------------------------------------------------------
# Index sets of the gap-restricted counts
# ---------------------------------------------------------------------------


def iter_pairs_within_gap(n: int, gap: int):
    """Yield 0-based pairs (i, j) with i < j and j - i > gap.

    Exactly comb(n - gap, 2) pairs are produced; the brute-force counters
    iterate this generator, so instrumenting it measures the pairs inspected.
    """
    for i in range(n - gap - 1):
        for j in range(i + gap + 1, n):
            yield i, j


def iter_pairs_between_gap(n: int, gap: int):
    """Yield 0-based ordered pairs (i, j) with |j - i| > gap.

    Exactly 2 * comb(n - gap, 2) pairs are produced.
    """
    for i in range(n):
        for j in range(n):
            if abs(j - i) > gap:
                yield i, j


# ---------------------------------------------------------------------------
# Brute-force counters (explicit iteration over the index sets), kept as the
# reference the tests hold every fast path to
# ---------------------------------------------------------------------------


def _sq_dist_rows(a, b) -> float:
    s = 0.0
    for p, q in zip(a, b):
        diff = p - q
        s += diff * diff
    return s


def _count_within_naive(pts: np.ndarray, eps2: float) -> int:
    rows = pts.tolist()
    n = len(rows)
    count = 0
    for i in range(n - 1):
        ri = rows[i]
        for j in range(i + 1, n):
            if _sq_dist_rows(ri, rows[j]) <= eps2:
                count += 1
    return count


def _count_within_gap_naive(pts: np.ndarray, eps2: float, gap: int) -> int:
    rows = pts.tolist()
    count = 0
    for i, j in iter_pairs_within_gap(len(rows), gap):
        if _sq_dist_rows(rows[i], rows[j]) <= eps2:
            count += 1
    return count


def _count_between_naive(xp: np.ndarray, yp: np.ndarray, eps2: float) -> int:
    xrows = xp.tolist()
    yrows = yp.tolist()
    count = 0
    for ri in xrows:
        for rj in yrows:
            if _sq_dist_rows(ri, rj) <= eps2:
                count += 1
    return count


def _count_between_gap_naive(xp: np.ndarray, yp: np.ndarray, eps2: float, gap: int) -> int:
    xrows = xp.tolist()
    yrows = yp.tolist()
    count = 0
    for i, j in iter_pairs_between_gap(len(xrows), gap):
        if _sq_dist_rows(xrows[i], yrows[j]) <= eps2:
            count += 1
    return count


# ---------------------------------------------------------------------------
# Exact checks of candidate ranges
# ---------------------------------------------------------------------------


def _iter_flat_ranges(lo: np.ndarray, hi: np.ndarray):
    """Flatten per-row candidate ranges [lo_i, hi_i) into chunks of pairs.

    Each chunk is (rows, lens, pos): a slice of rows, the length of each of
    their ranges, and the candidate positions of those ranges, row after row.
    """
    lens = np.maximum(hi - lo, 0)
    csum = np.concatenate(([0], np.cumsum(lens)))
    n = len(lens)
    start = 0
    while start < n:
        stop = int(np.searchsorted(csum, csum[start] + _PAIR_CHUNK, side="right")) - 1
        stop = min(max(stop, start + 1), n)
        m = int(csum[stop] - csum[start])
        if m:
            reps = lens[start:stop]
            first = lo[start:stop] - (csum[start:stop] - csum[start])
            yield slice(start, stop), reps, np.arange(m) + np.repeat(first, reps)
        start = stop


def _columns(pts: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The rows ``order`` of ``pts`` as contiguous coordinate columns, shape (d, n)."""
    return np.ascontiguousarray(pts.T[:, order])


def _close_in_ranges(
    a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray, eps2: float
) -> int:
    """Close pairs (a_i, b_j) over j in [lo_i, hi_i), each checked exactly.

    ``a`` and ``b`` hold one coordinate per row, shape (d, n).  The squared
    distance of a_i - b_j is accumulated coordinate by coordinate, as in the
    brute force.
    """
    count = 0
    for rows, reps, pos in _iter_flat_ranges(lo, hi):
        s = None
        for ak, bk in zip(a, b):
            # in place, with the rounding of s + (a - b) * (a - b)
            diff = np.repeat(ak[rows], reps)
            diff -= bk[pos]
            diff *= diff
            if s is None:
                s = diff
            else:
                s += diff
        count += int(np.count_nonzero(s <= eps2))
    return count


# ---------------------------------------------------------------------------
# Exact 1-D windows in a sorted sample
# ---------------------------------------------------------------------------


def _window_ends(xs: np.ndarray, q: np.ndarray, eps: float, eps2: float) -> np.ndarray:
    """One past the close run of each query ``q`` in the sorted sample ``xs``.

    The end is the first value above the query that fails ``diff*diff <= eps2``.
    Rounding is monotone, so the predicate holds on a contiguous run of a
    sorted array; the searchsorted guess ``q + eps`` is then grown or shrunk
    past the values where the exact predicate disagrees with it.
    """
    n = xs.size
    ends = np.searchsorted(xs, q + eps, side="right")
    active = np.nonzero(ends < n)[0]
    while active.size:
        diff = xs[ends[active]] - q[active]
        active = active[diff * diff <= eps2]
        ends[active] += 1
        active = active[ends[active] < n]
    active = np.nonzero(ends > 0)[0]
    while active.size:
        last = xs[ends[active] - 1]
        diff = last - q[active]
        active = active[(last > q[active]) & ~(diff * diff <= eps2)]
        ends[active] -= 1
        active = active[ends[active] > 0]
    return ends


def _window_bounds(xs: np.ndarray, qs: np.ndarray, eps: float, eps2: float):
    """The close run [start, end) of each query of the sorted ``qs`` in the sorted ``xs``."""
    ends = _window_ends(xs, qs, eps, eps2)
    # starts from the mirrored problem: negation is exact, so -x and -q give
    # the same predicate, and a window end there is n minus a start here
    starts = xs.size - _window_ends(-xs[::-1], -qs[::-1], eps, eps2)[::-1]
    return starts, ends


# ---------------------------------------------------------------------------
# The counting kernel: a strip grid, and a one-coordinate sweep where no cell fits
# ---------------------------------------------------------------------------

# Relative inflation of the cell side; the exact predicate filters candidates,
# so this only trades work, never correctness.
_WINDOW_SLACK = 1.000000001


def _grid_cells(pts: np.ndarray, eps: float):
    """Integer cell coordinates, or None when the scale defeats the grid."""
    side = eps * _WINDOW_SLACK
    if side == 0.0:
        return None
    q = pts / side
    if not (np.abs(q) < _MAX_CELL_COORD).all():
        return None
    return np.floor(q).astype(np.int64)


def _strip_keys(eps: float, *samples: np.ndarray):
    """Strip-grid keys of each sample's points, and the key stride of each dimension.

    The samples share one lattice of cells of side just above ``eps``.  Along
    each dimension the occupied cells get compressed ranks: adjacent cells
    stay one rank apart, any wider jump becomes two, and ranks start at 1 with
    one spare rank past the last, so a step of one rank in any dimension
    reaches only the cell it should.  The keys are mixed-radix with the last
    dimension fastest, so sorted keys lay the points out as strips along the
    last dimension.  Returns None when a cell cannot be formed or a key would
    not fit in an int64.
    """
    cells = [_grid_cells(pts, eps) for pts in samples]
    if any(c is None for c in cells):
        return None
    stacked = np.concatenate(cells)
    keys = np.zeros(stacked.shape[0], dtype=np.int64)
    strides: list[int] = []
    span = 1
    for column in stacked.T:
        occupied, inverse = np.unique(column, return_inverse=True)
        steps = np.where(np.diff(occupied) == 1, 1, 2)
        ranks = np.concatenate(([1], 1 + np.cumsum(steps)))
        width = int(ranks[-1]) + 2
        span *= width
        if span > np.iinfo(np.int64).max:
            return None
        keys = keys * width + ranks[inverse]
        strides = [s * width for s in strides] + [1]
    split = np.cumsum([len(c) for c in cells])[:-1]
    return np.split(keys, split), strides


def _strip_offsets(strides: list[int]) -> list[int]:
    """Key offsets of the 3**(d-1) strips around a strip, in lexicographic order.

    The middle one is the strip itself; the ones after it are the
    lexicographically positive offsets, one of each +-pair.
    """
    steps = itertools.product((-1, 0, 1), repeat=len(strides) - 1)
    return [sum(o * s for o, s in zip(step, strides)) for step in steps]


def _strip_range(keys: np.ndarray, probe: np.ndarray):
    """Positions of the sorted ``keys`` within one cell of ``probe`` in the last dimension."""
    return (
        np.searchsorted(keys, probe - 1, side="left"),
        np.searchsorted(keys, probe + 1, side="right"),
    )


def _count_strips(
    a: np.ndarray, b: np.ndarray | None, keys: list[np.ndarray], strides: list[int], eps2: float
) -> int:
    """Close pairs in neighbouring cells of the strip grid; ``b=None`` counts within ``a``.

    A between-count takes every ordered pair (a_i, b_j) over all 3**(d-1)
    strips.  A within-count is ``a`` against itself with each pair found from
    one side only: the candidates start after the query in key order, and only
    the query's own strip and the lexicographically positive ones are walked.
    The start clips only the own strip; a positive strip lies wholly after the
    query, and a negative one could hold no later position.
    """
    oa = np.argsort(keys[0])
    ka, acols = keys[0][oa], _columns(a, oa)
    offsets = _strip_offsets(strides)
    if b is None:
        kb, bcols, first = ka, acols, np.arange(1, ka.size + 1)
        offsets = offsets[len(offsets) // 2 :]
    else:
        ob = np.argsort(keys[1])
        kb, bcols, first = keys[1][ob], _columns(b, ob), 0
    count = 0
    for off in offsets:
        lo, hi = _strip_range(kb, ka + off)
        count += _close_in_ranges(acols, bcols, np.maximum(lo, first), hi, eps2)
    return count


# A close pair is also close in each coordinate on its own: the squared
# distance is a float sum of non-negative terms, and rounding is monotone, so
# it is never below any one term.


def _count_sweep(a: np.ndarray, b: np.ndarray | None, eps: float, eps2: float) -> int:
    """Close pairs from the exact 1-D windows of one coordinate; ``b=None`` counts within ``a``.

    Every coordinate's windows are taken over its sorted values, and the one
    with the fewest 1-D close pairs is kept.  At d = 1 its window count is the
    answer; otherwise each candidate in its windows is checked in full.
    """
    best = None
    for k in range(a.shape[1]):
        qs = np.sort(a[:, k])
        if b is None:
            lo, hi = np.arange(1, qs.size + 1), _window_ends(qs, qs, eps, eps2)
        else:
            lo, hi = _window_bounds(np.sort(b[:, k]), qs, eps, eps2)
        found = int((hi - lo).sum())
        if best is None or found < best[0]:
            best = (found, k, lo, hi)
    found, k, lo, hi = best
    if a.shape[1] == 1:
        return found
    acols = _columns(a, np.argsort(a[:, k]))
    bcols = acols if b is None else _columns(b, np.argsort(b[:, k]))
    return _close_in_ranges(acols, bcols, lo, hi, eps2)


def _count_close(a: np.ndarray, b: np.ndarray | None, eps: float) -> int:
    """Close pairs i < j within ``a`` when ``b`` is None, else ordered cross pairs (a_i, b_j).

    This is the one counting kernel behind both full counts.  At d >= 2 the
    strip grid counts whenever its keys fit; otherwise, and at d = 1, the
    sweep does.  Squares of huge differences overflow to inf and compare as
    not close, as in the brute force; the overflow is expected, so it is not
    warned about.
    """
    samples = (a,) if b is None else (a, b)
    with np.errstate(over="ignore"):
        strips = _strip_keys(eps, *samples) if a.shape[1] > 1 else None
        if strips is None:
            return _count_sweep(a, b, eps, eps * eps)
        return _count_strips(a, b, *strips, eps * eps)


# ---------------------------------------------------------------------------
# Near-lag counts: a gap count is the full count minus these
# ---------------------------------------------------------------------------


def _shifted_close_count(a: np.ndarray, b: np.ndarray, eps2: float) -> int:
    """Close pairs among (a_i, b_i) rows, coordinate-accumulated distances."""
    diff = a[:, 0] - b[:, 0]
    s = diff * diff
    for k in range(1, a.shape[1]):
        diff = a[:, k] - b[:, k]
        s = s + diff * diff
    return int(np.count_nonzero(s <= eps2))


def near_lag_counts(a: np.ndarray, b: np.ndarray | None, epsilon: float, max_gap: int):
    """Close pairs at index lag exactly h, for h = 0..max_gap, as a tuple.

    With ``b=None`` these are the pairs i < j of ``a`` with j - i = h (lag 0
    holds none); otherwise the ordered cross pairs (a_i, b_j) with
    |j - i| = h.  The samples must already be validated by ``as_points`` (and
    ``a``, ``b`` be of equal length), the radius by the caller.
    """
    eps2 = epsilon * epsilon
    lags = range(1, max_gap + 1)
    if b is None:
        return (0, *(_shifted_close_count(a[h:], a[:-h], eps2) for h in lags))
    cross = (
        _shifted_close_count(a[:-h], b[h:], eps2) + _shifted_close_count(a[h:], b[:-h], eps2)
        for h in lags
    )
    return (_shifted_close_count(a, b, eps2), *cross)


# ---------------------------------------------------------------------------
# Public counting operations
# ---------------------------------------------------------------------------


def count_close_within(x, epsilon) -> int:
    """Number of unordered pairs i < j of ``x`` at distance <= epsilon."""
    return _count_close(as_points(x), None, _check_radius(epsilon))


def count_close_between(x, y, epsilon) -> int:
    """Number of ordered cross pairs (x_i, y_j), all i and j, at distance <= epsilon."""
    xp = as_points(x)
    yp = as_points(y)
    _check_same_dim(xp, yp)
    _check_equal_length(xp, yp)
    return _count_close(xp, yp, _check_radius(epsilon))


def count_close_within_gap(x, epsilon, gap) -> int:
    """Close pairs i < j of ``x`` with index separation j - i > gap."""
    pts = as_points(x)
    eps = _check_radius(epsilon)
    g = _check_gap(gap, pts.shape[0])
    return count_close_within(pts, eps) - sum(near_lag_counts(pts, None, eps, g))


def count_close_between_gap(x, y, epsilon, gap) -> int:
    """Close ordered cross pairs (x_i, y_j) with index separation |j - i| > gap."""
    xp = as_points(x)
    yp = as_points(y)
    _check_same_dim(xp, yp)
    _check_equal_length(xp, yp)
    eps = _check_radius(epsilon)
    g = _check_gap(gap, xp.shape[0])
    return count_close_between(xp, yp, eps) - sum(near_lag_counts(xp, yp, eps, g))
