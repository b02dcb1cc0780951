"""Geometry and exact fixed-radius pair counting.

Counts pairs of observations at Euclidean distance <= epsilon (closed ball,
no tolerance slack).  Every implementation compares the squared distance,
accumulated coordinate by coordinate, against epsilon**2, so the brute-force
reference and the accelerated paths agree bit for bit on any input.

Every count goes through one kernel, ``_record_counts``, which counts a
record of pieces (within-counts of a sample and cross counts of a pair) over
stacks of equal-length samples (one per row) into per-row full and near-lag
counts; a single sample is a stack of one, and ``_close_counts`` is a record
of one piece.  It treats a within-count as a sample against itself with each
pair taken from one side only.  At d >= 2 a strip grid (the cell method of
Bentley, Stanat and Williams, 1977) sorts the points by a key of compressed
integer cells, so the candidates of a point in each of its 3**(d-1)
neighbour strips form one contiguous range; where no cell can be formed (a
zero radius, coordinates beyond the cells' integer resolution, or a key
wider than 64 bits), an exact sweep takes the 1-D windows of the coordinate
with the fewest 1-D close pairs over its sorted values, and every candidate
is checked with the full predicate.  At d = 1 the window is the whole
predicate: each sample is sorted once per record, and a count is a sum of
window ends over the sorted rows (a within-count less n(n + 1)/2, a cross
count the ends of x in y plus those of y in x, less n**2).  Every gap count
is the full count minus the near-lag counts up to the gap, each lag a dense
comparison of the stack shifted along time.

One block size, ``_STACK_BLOCK``, bounds every temporary.  Short rows are
counted a block of whole rows at a time; a longer row is counted one tile of
that many sorted queries (each windowed against the whole sorted row) or time
indices (for the near lags) at a time; and d >= 2 candidate pairs are checked
that many at a time.  A d = 1 record so needs the sorted copies of its
samples and O(block) more memory per pass.  The passes of a long d = 1 row
run concurrently on a pool of threads that lives for one count; short rows
are counted in the calling thread.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

# Above this |coordinate| / cell-side ratio the grid loses integer resolution;
# such inputs take the one-coordinate sweep.
_MAX_CELL_COORD = 2.0**52

# Every temporary of the counting kernel is bounded by about this many values:
# stacks are counted in blocks of whole rows of about this size, long rows in
# tiles of this many queries or time indices, and d >= 2 candidate pairs in
# chunks of this many pairs.
_STACK_BLOCK = 2**14


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


def _check_integer_gap(gap) -> int:
    """``gap`` as an int; a fractional, infinite or NaN gap is rejected."""
    try:
        if int(gap) == gap:
            return int(gap)
    except (OverflowError, ValueError):
        pass
    raise ValueError(f"gap must be an integer, got {gap!r}")


def _check_gap(gap, n: int) -> int:
    g = _check_integer_gap(gap)
    if g < 0:
        raise ValueError(f"gap must be a nonnegative integer, got {gap!r}")
    if g >= n:
        raise ValueError(f"gap {g} leaves an empty index set for n={n}")
    return g


def _pair_points(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate the two samples of a cross count: equal dimensions and equal lengths."""
    xp, yp = as_points(x), as_points(y)
    if xp.shape[1] != yp.shape[1]:
        raise ValueError(
            f"samples have mismatched dimensions {xp.shape[1]} and {yp.shape[1]}"
        )
    if xp.shape[0] != yp.shape[0]:
        raise ValueError(
            f"samples must have equal lengths, got {xp.shape[0]} and {yp.shape[0]}"
        )
    return xp, yp


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
    """Volume of the radius-``epsilon`` ball, ``unit_ball_volume(d) * eps**d``.

    A radius whose volume overflows or underflows the float range is rejected.
    """
    eps = float(epsilon)
    if not math.isfinite(eps) or eps <= 0.0:
        raise ValueError(f"radius must be finite and > 0, got {epsilon!r}")
    try:
        volume = unit_ball_volume(d) * eps**d
    except OverflowError:
        volume = math.inf
    if not 0.0 < volume < math.inf:
        raise ValueError(f"ball volume at d={d}, epsilon={eps!r} is not a positive finite float")
    return BallVolume(d=int(d), epsilon=eps, volume=volume)


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
    """Flatten per-row candidate ranges [lo_i, hi_i) into chunks of ``_STACK_BLOCK`` pairs.

    Each chunk is (rows, lens, pos): a slice of rows, the number of each
    row's candidates in the chunk, and their positions, row after row.  A
    range longer than a chunk is split between chunks.
    """
    csum = np.concatenate(([0], np.cumsum(np.maximum(hi - lo, 0))))
    # pair p of the flattening is candidate lo_i + p - csum_i of the row i holding it
    starts = np.arange(0, csum[-1], _STACK_BLOCK)
    stops = np.minimum(starts + _STACK_BLOCK, csum[-1])
    first_rows = np.searchsorted(csum, starts, side="right") - 1
    stop_rows = np.searchsorted(csum, stops, side="left")
    for p0, p1, r0, r1 in zip(*(v.tolist() for v in (starts, stops, first_rows, stop_rows))):
        lens = np.diff(np.clip(csum[r0 : r1 + 1], p0, p1))
        yield slice(r0, r1), lens, np.arange(p0, p1) + np.repeat(lo[r0:r1] - csum[r0:r1], lens)


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
# Exact 1-D windows in sorted rows
# ---------------------------------------------------------------------------


def _gallop(inside: np.ndarray, limit: np.ndarray, step: int, holds) -> np.ndarray:
    """The first position past ``inside`` in direction ``step`` where ``holds`` fails.

    ``holds(pos, which)`` is a predicate of the queries ``which`` at the flat
    positions ``pos``; it holds at each query's ``inside`` and, going in the
    direction of ``step`` (+1 or -1), holds on a run and then fails for good.
    ``limit`` is each query's first position out of its row, where the answer
    stops.  Strides double until they pass the run's end, which is then
    bisected, so an end k positions away costs O(log k) rounds.
    """
    inside = inside.copy()
    outside = limit.copy()
    active = np.arange(inside.size)
    while active.size:  # gallop: strides 1, 2, 4, ... until one fails
        probe = inside[active] + step
        within = (probe - limit[active]) * step < 0
        ok = np.zeros(active.size, dtype=bool)
        ok[within] = holds(probe[within], active[within])
        inside[active[ok]] = probe[ok]
        stop = within & ~ok
        outside[active[stop]] = probe[stop]
        active = active[ok]
        step *= 2
    active = np.flatnonzero(np.abs(outside - inside) > 1)
    while active.size:  # bisect the bracket [inside, outside)
        mid = (inside[active] + outside[active]) // 2
        ok = holds(mid, active)
        inside[active[ok]] = mid[ok]
        outside[active[~ok]] = mid[~ok]
        active = active[np.abs(outside[active] - inside[active]) > 1]
    return outside


def _search_span(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``x.searchsorted(g, side="right")`` for sorted ``g``, searching only the span it covers.

    A tile of a long row's queries covers a short span of the row, so its
    binary searches stay in cache.
    """
    lo, hi = x.searchsorted(g[[0, -1]], side="right")
    found = x[lo:hi].searchsorted(g, side="right")
    found += lo
    return found


def _window_ends(xs: np.ndarray, q: np.ndarray, eps: float, eps2: float) -> np.ndarray:
    """One past the close run of each query of ``q`` in its own row of ``xs``.

    ``xs`` is an (R, n) stack of sorted rows and ``q`` an (R, m) stack of
    sorted rows of queries; the queries of row r are windowed in row r of
    ``xs`` only.  The end is the first value above the query that fails
    ``diff*diff <= eps2``.  Rounding is monotone, so the predicate holds on a
    contiguous run of a sorted row, and the guesses ``q + eps`` of a row stay
    sorted.  Each row's searchsorted guess is checked once, for the whole
    stack, against the values on both sides of it; only the queries where the
    exact predicate disagrees are then grown or shrunk, by galloping, each
    stopping at its own row's bounds.
    """
    rows, n = xs.shape
    m = q.shape[1]
    first = np.arange(0, rows * n, n)[:, None]  # each row's offset in the flattened stack
    found = [
        _search_span(x, g) if m < n else x.searchsorted(g, side="right")
        for x, g in zip(xs, q + eps)
    ]
    ends = found[0][None] if rows == 1 else np.concatenate(found).reshape(q.shape)
    flat_x, flat_q = xs.ravel(), q.ravel()

    def close(x, qv):  # squares the difference in the fresh array x
        x -= qv
        x *= x
        return x <= eps2

    def beyond(x, qv):  # above the query and not close
        return (x > qv) & ~close(x, qv)

    # whether the value at the end, and the one before it, lie in the query's row
    at_end, before_end = (ends < n).ravel(), (ends > 0).ravel()
    ends += first  # the ends' positions in the flattened stack, viewed by ``flat``
    flat = ends.ravel()
    grow = np.flatnonzero(at_end & close(flat_x.take(flat, mode="clip"), flat_q))
    flat -= 1
    shrink = np.flatnonzero(before_end & beyond(flat_x.take(flat, mode="clip"), flat_q))
    flat += 1
    if grow.size:  # up to the end of the query's row
        flat[grow] = _gallop(
            flat[grow], (grow // m + 1) * n, 1,
            lambda pos, k: close(flat_x[pos], flat_q[grow[k]]),
        )
    if shrink.size:  # down to one before the start of the query's row
        flat[shrink] = 1 + _gallop(
            flat[shrink] - 1, shrink // m * n - 1, -1,
            lambda pos, k: beyond(flat_x[pos], flat_q[shrink[k]]),
        )
    ends -= first
    return ends


def _sorted_windows(a: np.ndarray, b: np.ndarray | None, eps: float, eps2: float):
    """Exact 1-D windows [lo, hi) of the rows of ``a``, each row sorted; ``b=None`` is within.

    The d >= 2 sweep takes its candidates from these; a d = 1 count needs
    only the sums of window ends.  ``a`` and ``b`` are (R, n) stacks of one
    coordinate.  The windows of a within-count start after the query; a
    between-count's are the close runs of each sorted row of ``a`` in the
    sorted row of ``b`` with the same index.
    The windows are yielded a tile of ``_STACK_BLOCK`` queries of each row at
    a time, each tile's queries windowed against the whole sorted rows.
    """
    qs = np.sort(a, axis=1)
    xs = qs if b is None else np.sort(b, axis=1)
    # starts from the mirrored problem: negation is exact, so -x and -q give
    # the same predicate, and a window end there is n minus a start here
    mirrored = None if b is None else -xs[:, ::-1]
    n = qs.shape[1]
    for s in range(0, n, _STACK_BLOCK):
        q = qs[:, s : s + _STACK_BLOCK]
        hi = _window_ends(xs, q, eps, eps2)
        if b is None:
            yield np.arange(s + 1, s + q.shape[1] + 1)[None], hi
        else:
            yield n - _window_ends(mirrored, -q[:, ::-1], eps, eps2)[:, ::-1], hi


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

    ``a`` and ``b`` are single samples of d >= 2 coordinates.  Every
    coordinate's windows are taken over its sorted values, and the one with
    the fewest 1-D close pairs is kept; each candidate in its windows is then
    checked in full.
    """
    best = None
    for k in range(a.shape[1]):
        tiles = _sorted_windows(a[None, :, k], None if b is None else b[None, :, k], eps, eps2)
        lo, hi = (np.concatenate(parts, axis=1)[0] for parts in zip(*tiles))
        found = int((hi - lo).sum())
        if best is None or found < best[0]:
            best = (found, k, lo, hi)
    found, k, lo, hi = best
    acols = _columns(a, np.argsort(a[:, k]))
    bcols = acols if b is None else _columns(b, np.argsort(b[:, k]))
    return _close_in_ranges(acols, bcols, lo, hi, eps2)


def _count_close(a: np.ndarray, b: np.ndarray | None, eps: float, eps2: float) -> np.ndarray:
    """Close pairs i < j within each row of ``a`` when ``b`` is None, else ordered cross pairs.

    ``a`` and ``b`` are (R, n, d) stacks of d >= 2 coordinates, and row r of
    ``a`` is paired with row r of ``b``.  The strip grid counts a row whenever
    its keys fit, and the sweep otherwise.
    """
    counts = []
    for r, pts in enumerate(a):
        other = None if b is None else b[r]
        strips = _strip_keys(eps, pts) if other is None else _strip_keys(eps, pts, other)
        if strips is None:
            counts.append(_count_sweep(pts, other, eps, eps2))
        else:
            counts.append(_count_strips(pts, other, *strips, eps2))
    return np.array(counts, dtype=np.int64)


def _end_sums(xs: np.ndarray, qs: np.ndarray, eps: float, eps2: float) -> np.ndarray:
    """Each row's sum of the window ends of the sorted queries ``qs`` in the sorted rows ``xs``.

    The stacks are (R, n); the sums have shape (R,).  The queries are windowed
    a tile of ``_STACK_BLOCK`` at a time, so the pass allocates only tiles.
    """
    total = np.zeros(len(qs), dtype=np.int64)
    for s in range(0, qs.shape[1], _STACK_BLOCK):
        total += _window_ends(xs, qs[:, s : s + _STACK_BLOCK], eps, eps2).sum(axis=1)
    return total


# ---------------------------------------------------------------------------
# Near-lag counts: a gap count is the full count minus these
# ---------------------------------------------------------------------------


def _shifted_close_count(a: np.ndarray, b: np.ndarray, eps2: float) -> np.ndarray:
    """Close pairs among (a[r, i], b[r, i]) in each row r, coordinate-accumulated distances.

    The stacks are (R, L, d); the counts broadcast to shape (R,).
    """
    s = a[..., 0] - b[..., 0]
    s *= s
    for k in range(1, a.shape[2]):
        term = a[..., k] - b[..., k]
        term *= term
        s += term
    close = s <= eps2
    if len(close) == 1:  # the flat count of one row is several times faster
        return np.count_nonzero(close)
    return np.count_nonzero(close, axis=1)


def _near_lags(a: np.ndarray, b: np.ndarray | None, eps2: float, max_gap: int) -> np.ndarray:
    """Close pairs at index lag exactly h in each row, shape (R, max_gap + 1).

    The lags are compared a tile of ``_STACK_BLOCK`` time indices i at a time,
    as the pairs (i - h, i) with i in the tile.
    """
    n = a.shape[1]
    near = np.zeros((max_gap + 1, len(a)), dtype=np.int64)
    lags = near.copy()  # one tile's counts, lag by lag
    for s in range(0, n, _STACK_BLOCK):
        e = min(s + _STACK_BLOCK, n)
        if b is not None:
            lags[0] = _shifted_close_count(a[:, s:e], b[:, s:e], eps2)
        for h in range(1, min(max_gap + 1, e)):
            i = max(s, h)
            if b is None:
                lags[h] = _shifted_close_count(a[:, i:e], a[:, i - h : e - h], eps2)
            else:
                pairs = _shifted_close_count(a[:, i - h : e - h], b[:, i:e], eps2)
                lags[h] = pairs + _shifted_close_count(a[:, i:e], b[:, i - h : e - h], eps2)
        near += lags
    return near.T


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _quiet(task):
    # squares of huge differences overflow to inf and compare as not close, as
    # in the brute force; numpy's error state does not carry into worker
    # threads, so each task sets its own
    with np.errstate(over="ignore"):
        return task()


def _run(tasks: list, concurrent: bool) -> list:
    """The results of ``tasks``, in order.

    They run on a pool of threads, one per task up to the CPUs at hand, when
    ``concurrent`` and more than one task and CPU are at hand, and in this
    thread otherwise.  The pool lives for this call only.
    """
    workers = min(len(tasks), _cpus()) if concurrent and len(tasks) > 1 else 1
    if workers < 2:
        return [_quiet(task) for task in tasks]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(_quiet, tasks))


def _record_counts(pieces, eps: float, max_gap=None) -> list:
    """Full and near-lag close-pair counts of each piece of one record.

    This is the one counting kernel.  Each piece is a pair ``(a, b)`` of
    (R, n, d) stacks of validated samples (``b=None`` counts pairs within
    ``a``; otherwise ``b`` matches ``a`` in shape), and every piece has the
    same shape; a single sample is a stack of one.  Returns, per piece, the
    per-row full counts, shape (R,), and, when ``max_gap`` is given, the
    close pairs at each index lag h = 0..max_gap, shape (R, max_gap + 1):
    lag h is j - i = h within ``a`` (lag 0 holds none), |j - i| = h between.

    The stacks are counted in blocks of whole rows of about ``_STACK_BLOCK``
    values, or one row at a time when a row is longer.  A block's passes form
    one task list: at d = 1, one pass of window ends per within-piece and two
    per cross piece, and one near-lag pass per piece when ``max_gap`` is
    given.  At d = 1 each sample is sorted once per block, in this thread,
    and the sorted rows are shared by every piece that uses the sample.  The
    passes of a long row run concurrently; they allocate only tile-sized
    temporaries, and integer sums do not depend on the order they finish in.
    """
    eps2 = eps * eps
    rows, n, d = pieces[0][0].shape
    step = max(1, _STACK_BLOCK // n)
    counts = [
        (
            np.zeros(rows, dtype=np.int64),
            None if max_gap is None else np.zeros((rows, max_gap + 1), dtype=np.int64),
        )
        for _ in pieces
    ]
    for r in range(0, rows, step):
        block = slice(r, r + step)
        if d == 1:
            ordered = {}
            for sample in itertools.chain.from_iterable(pieces):
                if sample is not None and id(sample) not in ordered:
                    ordered[id(sample)] = np.sort(sample[block, :, 0], axis=1)
        fulls, lags = [], []  # (the counts a pass adds to, the pass)
        for (full, near), (a, b) in zip(counts, pieces):
            x, y = a[block], None if b is None else b[block]
            if d > 1:
                fulls.append((full, partial(_count_close, x, y, eps, eps2)))
            elif b is None:
                xs = ordered[id(a)]
                fulls.append((full, partial(_end_sums, xs, xs, eps, eps2)))
            else:
                xs, ys = ordered[id(a)], ordered[id(b)]
                fulls.append((full, partial(_end_sums, ys, xs, eps, eps2)))
                fulls.append((full, partial(_end_sums, xs, ys, eps, eps2)))
            if near is not None:
                lags.append((near, partial(_near_lags, x, y, eps2, max_gap)))
        # the window passes take longest, so they start first and the pool's
        # threads finish close together
        tasks = fulls + lags
        results = _run([task for _, task in tasks], d == 1 and n > _STACK_BLOCK)
        for (target, _), value in zip(tasks, results):
            target[block] += value
    if d == 1:
        # A within-count's window of sorted query i starts at i + 1, so its
        # count is the sum of its ends less n(n + 1)/2.  A cross count's
        # window of x_i in the sorted y starts past the y below x_i and not
        # close to it; (a - b)**2 equals (b - a)**2 bit for bit, so summed
        # over i these are n**2 less the sum of the ends of each y_j in the
        # sorted x.
        for (full, _), (_, b) in zip(counts, pieces):
            full -= n * (n + 1) // 2 if b is None else n * n
    return counts


def _close_counts(a: np.ndarray, b: np.ndarray | None, eps: float, max_gap=None):
    """The full and near-lag counts of the one piece ``(a, b)``, as ``_record_counts`` gives them."""
    return _record_counts([(a, b)], eps, max_gap)[0]


# ---------------------------------------------------------------------------
# Public counting operations
# ---------------------------------------------------------------------------


def _count_one(a: np.ndarray, b: np.ndarray | None, eps: float, gap=None) -> int:
    """The full count of one validated sample or pair, less its near lags up to ``gap``."""
    full, near = _close_counts(a[None], None if b is None else b[None], eps, gap)
    return int(full[0]) if near is None else int(full[0] - near[0].sum())


def count_close_within(x, epsilon) -> int:
    """Number of unordered pairs i < j of ``x`` at distance <= epsilon."""
    return _count_one(as_points(x), None, _check_radius(epsilon))


def count_close_between(x, y, epsilon) -> int:
    """Number of ordered cross pairs (x_i, y_j), all i and j, at distance <= epsilon."""
    xp, yp = _pair_points(x, y)
    return _count_one(xp, yp, _check_radius(epsilon))


def count_close_within_gap(x, epsilon, gap) -> int:
    """Close pairs i < j of ``x`` with index separation j - i > gap."""
    pts = as_points(x)
    eps = _check_radius(epsilon)
    return _count_one(pts, None, eps, _check_gap(gap, pts.shape[0]))


def count_close_between_gap(x, y, epsilon, gap) -> int:
    """Close ordered cross pairs (x_i, y_j) with index separation |j - i| > gap."""
    xp, yp = _pair_points(x, y)
    eps = _check_radius(epsilon)
    return _count_one(xp, yp, eps, _check_gap(gap, xp.shape[0]))
