"""Geometry and exact fixed-radius pair counting.

Counts pairs of observations at Euclidean distance <= epsilon (closed ball,
no tolerance slack).  Every implementation compares the squared distance,
accumulated coordinate by coordinate, against epsilon**2, so the brute-force
reference and the accelerated paths agree bit for bit on any input.

Full counts take the brute-force loop below ``NAIVE_CUTOFF`` points.  Above
it, at d = 1 one exact-window routine over sorted values gives both the
within- and the between-count; at d >= 2 a uniform hash grid probes 3**d
neighbor cells, and falls back to the quadratic brute force when coordinates
overflow its integer cell resolution.  Every gap count is the full count minus
the near-lag counts up to the gap.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Brute force below this many points; window/grid overheads dominate there.
NAIVE_CUTOFF = 64

# Above this |coordinate| / cell-side ratio the grid loses integer resolution
# (and the superset windows get slow); hand such inputs to the brute force.
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
# Brute-force counters (explicit iteration over the index sets)
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
# Candidate-pair pieces of the grid
# ---------------------------------------------------------------------------


def _sq_dists_indexed(a: np.ndarray, ai: np.ndarray, b: np.ndarray, bi: np.ndarray):
    """Squared distances between a[ai] and b[bi], coordinate-accumulated."""
    diff = a[ai, 0] - b[bi, 0]
    s = diff * diff
    for k in range(1, a.shape[1]):
        diff = a[ai, k] - b[bi, k]
        s = s + diff * diff
    return s


def _iter_flat_ranges(lo: np.ndarray, hi: np.ndarray):
    """Flatten per-row candidate ranges [lo_i, hi_i) into (row, position) chunks."""
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
            rows = np.repeat(np.arange(start, stop), reps)
            offsets = np.arange(m) - np.repeat(csum[start:stop] - csum[start], reps)
            yield rows, offsets + np.repeat(lo[start:stop], reps)
        start = stop


# ---------------------------------------------------------------------------
# d = 1: exact windows in a sorted sample
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


def _count_within_windows(x: np.ndarray, eps: float, eps2: float) -> int:
    xs = np.sort(x)
    ends = _window_ends(xs, xs, eps, eps2)
    return int((ends - np.arange(1, xs.size + 1)).sum())


def _count_between_windows(x: np.ndarray, y: np.ndarray, eps: float, eps2: float) -> int:
    xs = np.sort(x)
    ys = np.sort(y)
    ends = _window_ends(xs, ys, eps, eps2)
    # starts from the mirrored problem: negation is exact, so -x and -y give
    # the same predicate, and a window end there is n minus a start here
    starts = xs.size - _window_ends(-xs[::-1], -ys[::-1], eps, eps2)
    return int(ends.sum() - starts.sum())


# ---------------------------------------------------------------------------
# d >= 2: uniform grid with 3**d neighbor-cell probing
# ---------------------------------------------------------------------------

# Relative inflation of the cell side; the exact predicate filters candidates,
# so this only trades work, never correctness.
_WINDOW_SLACK = 1.000000001


def _grid_cells(pts: np.ndarray, eps: float):
    """Integer cell coordinates, or None when the scale defeats the grid."""
    side = eps * _WINDOW_SLACK
    if side == 0.0:
        return None
    with np.errstate(over="ignore"):
        q = pts / side
    if not (np.abs(q) < _MAX_CELL_COORD).all():
        return None
    return np.floor(q).astype(np.int64)


def _cell_keys(cells: np.ndarray) -> np.ndarray:
    key = np.zeros(cells.shape[0], dtype=np.uint64)
    for k in range(cells.shape[1]):
        key = key * np.uint64(0x9E3779B97F4A7C15) + cells[:, k].astype(np.uint64)
        key ^= key >> np.uint64(29)
    return key


def _probe_count(
    pts_a: np.ndarray,
    cells_a: np.ndarray,
    pts_b: np.ndarray,
    cells_b: np.ndarray,
    eps2: float,
    exclude_self: bool,
) -> int:
    """Ordered close pairs (a_i, b_j) with cells within one step per coordinate.

    A candidate also has to sit in the exact probed cell (hash collisions are
    filtered), so each ordered pair is counted exactly once.
    """
    keys_b = _cell_keys(cells_b)
    order = np.argsort(keys_b, kind="stable")
    sorted_keys = keys_b[order]
    d = pts_a.shape[1]
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d)), dtype=np.int64)
    count = 0
    for off in offsets:
        probe = _cell_keys(cells_a + off)
        lo = np.searchsorted(sorted_keys, probe, side="left")
        hi = np.searchsorted(sorted_keys, probe, side="right")
        for rows, pos in _iter_flat_ranges(lo, hi):
            cand = order[pos]
            ok = (cells_b[cand] == cells_a[rows] + off).all(axis=1)
            if exclude_self:
                ok &= cand != rows
            if not ok.any():
                continue
            rows = rows[ok]
            cand = cand[ok]
            s = _sq_dists_indexed(pts_a, rows, pts_b, cand)
            count += int(np.count_nonzero(s <= eps2))
    return count


def _count_within_grid(pts: np.ndarray, eps: float, eps2: float) -> int:
    cells = _grid_cells(pts, eps)
    if cells is None:
        return _count_within_naive(pts, eps2)
    ordered = _probe_count(pts, cells, pts, cells, eps2, exclude_self=True)
    return ordered // 2


def _count_between_grid(xp: np.ndarray, yp: np.ndarray, eps: float, eps2: float) -> int:
    cells_x = _grid_cells(xp, eps)
    cells_y = _grid_cells(yp, eps)
    if cells_x is None or cells_y is None:
        return _count_between_naive(xp, yp, eps2)
    return _probe_count(xp, cells_x, yp, cells_y, eps2, exclude_self=False)


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
    pts = as_points(x)
    eps = _check_radius(epsilon)
    n = pts.shape[0]
    if n < 2:
        return 0
    eps2 = eps * eps
    if n < NAIVE_CUTOFF:
        return _count_within_naive(pts, eps2)
    if pts.shape[1] == 1:
        return _count_within_windows(pts[:, 0], eps, eps2)
    return _count_within_grid(pts, eps, eps2)


def count_close_between(x, y, epsilon) -> int:
    """Number of ordered cross pairs (x_i, y_j), all i and j, at distance <= epsilon."""
    xp = as_points(x)
    yp = as_points(y)
    _check_same_dim(xp, yp)
    _check_equal_length(xp, yp)
    eps = _check_radius(epsilon)
    eps2 = eps * eps
    n = xp.shape[0]
    if n < NAIVE_CUTOFF:
        return _count_between_naive(xp, yp, eps2)
    if xp.shape[1] == 1:
        return _count_between_windows(xp[:, 0], yp[:, 0], eps, eps2)
    return _count_between_grid(xp, yp, eps, eps2)


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
