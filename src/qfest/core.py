"""Geometry and exact fixed-radius pair counting.

Counts pairs of observations at Euclidean distance <= epsilon (closed ball,
no tolerance slack).  One function, ``_close``, decides every closeness: it
sums a pair's squared differences coordinate by coordinate, as the brute
force does, and compares the sum with epsilon**2, so the counts agree bit
for bit on any input with the one brute-force reference,
``oracle.naive_lag_counts``.

Every count goes through one kernel, ``_record_counts``, which counts a record
of pieces (within-counts of a sample and cross counts of a pair) over stacks
of equal-length samples (one per row) into per-row full and near-lag counts; a
single sample is a stack of one.  It treats a within-count as a sample against
itself with each pair taken from one side only.  One 1-D primitive, the exact
window end of ``_window_ends``, serves every dimension.  At d = 1 the window
is the whole predicate: each sample is sorted once per record, and a count is
a sum of window ends over the sorted rows (a within-count less n(n + 1)/2, a
cross count the ends of x in y plus those of y in x, less n**2).  At d >= 2 a
strip grid (the cell method of Bentley, Stanat and Williams, 1977) counts
every input.  Each coordinate but the last is cut into cells, runs of its
sorted values each starting at the first value not close to the start of the
one before, so a close pair lies in neighbouring cells at any radius and
magnitude.  Along the last, each distinct value gets the exact window of the
values close to it.  Cells and window ends are built once per row of a
record, and the window starts are counted from the ends once per row, so a
pass only looks them up; each sample is sorted once by a key of cell ranks
and, fastest, last-value ranks, so a point's candidates in each of its
3**(k-1) neighbour strips are one contiguous range, and each candidate is
checked by ``_close``.  Every gap count is the full count minus the near-lag
counts up to the gap, each lag a dense comparison of the stack shifted along
time.

Each window end starts from a guess, placed by one stable merge of the sorted
guesses q + eps with their sorted row; the ends that missed are then
bisected, each over its whole row, on the one predicate "at or below the
query or close to it", which holds on a prefix of the row.  One block size,
``_STACK_BLOCK``, bounds every temporary.  Rows are counted a block of whole
rows of about that many values at a time (one row when a row is longer), each
block sorted or gridded once; one loop then walks the rows a tile of that
many positions at a time, and each pass counts just its tile: window ends of
sorted queries, their guesses merged with the span of the row they cover a
piece of that many values at a time; strip candidates, checked that many
pairs at a time; or near lags.  A record so needs the sorted copies of its
samples (at d >= 2 with their keys and window starts and ends) and O(block)
more memory per pass.  Every pass runs in the calling thread.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Every temporary of the counting kernel is bounded by about this many values:
# stacks are counted in blocks of whole rows of about this size, each pass
# counts one tile of this many positions of a row, and d >= 2 candidate pairs
# are checked in chunks of this many pairs.
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


def _check_integer(value, name: str) -> int:
    """``value`` as an int; a fractional, infinite or NaN value of the argument ``name`` is rejected."""
    try:
        if int(value) == value:
            return int(value)
    except (OverflowError, ValueError):
        pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_gap(gap, n: int) -> int:
    g = _check_integer(gap, "gap")
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


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in dimension d: pi^(d/2) / Gamma(d/2 + 1)."""
    if _check_integer(d, "dimension") < 1:
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def ball_volume(d: int, epsilon: float) -> float:
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
    return volume


# ---------------------------------------------------------------------------
# Index sets of the gap-restricted counts
# ---------------------------------------------------------------------------


def iter_pairs_within_gap(n: int, gap: int):
    """Yield 0-based pairs (i, j) with i < j and j - i > gap.

    Exactly comb(n - gap, 2) pairs are produced.  No count iterates it: it
    states the index set that a gap-restricted count covers.
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
# Exact checks of candidate ranges
# ---------------------------------------------------------------------------


def _iter_flat_ranges(lo: np.ndarray, hi: np.ndarray):
    """Flatten per-row candidate ranges [lo_i, hi_i) into chunks of ``_STACK_BLOCK`` pairs.

    Each chunk is (rows, lens, pos): a slice of rows, the number of each
    row's candidates in the chunk, and their positions, row after row.  A
    range longer than a chunk is split between chunks, so only a chunk's
    first and last rows can hold part of their range: its lengths are the
    rows' range lengths with just those two trimmed.
    """
    lengths = hi - lo
    np.maximum(lengths, 0, out=lengths)
    csum = np.concatenate(([0], np.cumsum(lengths)))
    starts = np.arange(0, csum[-1], _STACK_BLOCK)
    stops = np.minimum(starts + _STACK_BLOCK, csum[-1])
    first_rows = np.searchsorted(csum, starts, side="right") - 1
    stop_rows = np.searchsorted(csum, stops, side="left")
    # the pairs of the first row before the chunk, and of the last row after it
    before, after = starts - csum[first_rows], csum[stop_rows] - stops
    chunks = (starts, stops, first_rows, stop_rows, before, after)
    # pair p of the flattening is candidate p + lo_i - csum_i of the row i holding it
    shift = np.subtract(lo, csum[:-1], out=csum[:-1])
    for p0, p1, r0, r1, trim0, trim1 in zip(*(v.tolist() for v in chunks)):
        lens = lengths[r0:r1].copy()
        lens[0] -= trim0
        lens[-1] -= trim1
        pos = np.repeat(shift[r0:r1], lens)
        pos += np.arange(p0, p1)
        yield slice(r0, r1), lens, pos


def _close(diffs, eps2: float) -> np.ndarray:
    """Whether each pair is close, given its coordinate differences in coordinate order.

    Each difference is a fresh array and is squared in place; the squares are
    summed from the first coordinate, as the brute force sums them.
    """
    s = None
    for diff in diffs:
        diff *= diff
        if s is None:
            s = diff
        else:
            s += diff
    return s <= eps2


def _close_in_ranges(
    a: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray, eps2: float
) -> int:
    """Close pairs (a_i, b_j) over j in [lo_i, hi_i), each checked exactly.

    ``a`` and ``b`` hold one coordinate per row, shape (d, n).
    """

    def diffs(rows, reps, pos):  # in place: each query coordinate, repeated, less the candidates'
        for ak, bk in zip(a, b):
            diff = np.repeat(ak[rows], reps)
            diff -= bk.take(pos)
            yield diff

    chunks = _iter_flat_ranges(lo, hi)
    return sum(int(np.count_nonzero(_close(diffs(*chunk), eps2))) for chunk in chunks)


# ---------------------------------------------------------------------------
# Exact 1-D windows in sorted rows
# ---------------------------------------------------------------------------


def _merged_ends(xs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``searchsorted(side="right")`` of each row of sorted ``g`` in its row of sorted ``xs``.

    Each row is merged with its guesses by one stable argsort of the whole
    stack, row values first, so a guess stays behind the values equal to it
    and after the guesses before it: its merged position less its own index
    is the number of row values at or below it.  Counted over the flattened
    stacks, guess j of row r less the r*m + j guesses before it is at that
    number plus r*n, so the ends come out as positions in ``xs.ravel()``.
    """
    order = np.argsort(np.concatenate((xs, g), axis=1), axis=1, kind="stable")
    ends = np.flatnonzero(order >= xs.shape[1])
    ends -= np.arange(ends.size)
    return ends


def _span_ends(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``_merged_ends`` of the sorted guesses ``g`` in one long sorted row ``x``.

    The span of ``x`` that the guesses cover is merged a piece of
    ``_STACK_BLOCK`` values at a time, with the guesses whose ends lie in it:
    those at or above the value before the piece and below its last value.
    Pieces no guess ends in are skipped, so the temporaries stay O(block)
    however many values the span holds.
    """
    lo, hi = x.searchsorted(g[[0, -1]], side="right")
    starts = np.arange(lo, max(hi, lo + 1), _STACK_BLOCK)
    cuts = [0, *g.searchsorted(x[starts[1:] - 1]).tolist(), g.size]
    ends = np.empty(g.size, dtype=np.intp)
    for s, a, b in zip(starts.tolist(), cuts, cuts[1:]):
        if a < b:
            ends[a:b] = _merged_ends(x[None, s : min(s + _STACK_BLOCK, hi)], g[None, a:b]) + s
    return ends


def _window_ends(xs: np.ndarray, q: np.ndarray, eps: float, eps2: float) -> np.ndarray:
    """One past the close run of each query of ``q`` in its own row of ``xs``.

    This is the one 1-D primitive: a d = 1 count is a sum of these ends, and
    at d >= 2 they mark where each coordinate's cells start.  ``xs`` is an
    (R, n) stack of sorted rows and ``q`` an (R, m) stack of sorted rows of
    queries; the queries of row r are windowed in row r of ``xs`` only.  The
    end is the first value that fails the one predicate "at or below the
    query, or ``_close`` to it".  Rounding is monotone, so the predicate
    holds on a prefix of a sorted row, and the guesses ``q + eps`` of a row
    stay sorted.  The guesses are placed by one stable merge with their rows,
    the whole stack at once for rows of up to ``_STACK_BLOCK`` values and a
    piece of the span at a time for longer ones.  Each guess is then checked
    once, for the whole stack, against the values on both sides of it; the
    queries where the predicate disagrees with the guess are bisected
    together, each over its whole row, in O(log n) rounds.
    """
    rows, n = xs.shape
    m = q.shape[1]
    first = np.arange(0, rows * n, n)[:, None]  # each row's offset in the flattened stack
    g = q + eps
    if n <= _STACK_BLOCK:  # the ends' positions in the flattened stack
        flat = _merged_ends(xs, g)
    else:
        flat = (np.stack([_span_ends(x, gr) for x, gr in zip(xs, g)]) + first).ravel()
    flat_x, flat_q = xs.ravel(), q.ravel()

    def holds(x, qv):  # at or below the query or close to it; x is a fresh array
        below = x <= qv
        below |= _close((np.subtract(x, qv, out=x),), eps2)
        return below

    # a guess is early when the predicate holds at its end, and late when it
    # fails just before it, each position checked only if it lies in the
    # query's row: the end is the number of the row's values at or below g
    early, late = (g < xs[:, -1:]).ravel(), (g >= xs[:, :1]).ravel()
    early &= holds(flat_x.take(flat, mode="clip"), flat_q)
    late &= ~holds(flat_x.take(flat - 1, mode="clip"), flat_q)
    # a missed end, early or late, is the first failure in the bracket (row
    # start - 1, row start + n]: the predicate holds on a prefix of the row, so
    # taking it to hold before the row and fail past it, it is asked only within
    miss = np.flatnonzero(early | late)
    inside = miss // m * n - 1
    outside = inside + (n + 1)
    active = np.arange(miss.size)
    while active.size:
        mid = (inside[active] + outside[active]) // 2
        ok = holds(flat_x[mid], flat_q[miss[active]])
        inside[active[ok]], outside[active[~ok]] = mid[ok], mid[~ok]
        active = active[outside[active] - inside[active] > 1]
    flat[miss] = outside
    return flat.reshape(q.shape) - first


# ---------------------------------------------------------------------------
# The counting kernel at d >= 2: a strip grid of exact 1-D cells
# ---------------------------------------------------------------------------

# A close pair is also close in each coordinate on its own: the squared
# distance is a float sum of non-negative terms, and rounding is monotone, so
# it is never below any one term.  A pair whose cells are not neighbours in
# some coordinate is so never close.


def _distinct_ends(columns, eps: float, eps2: float):
    """The sorted distinct values of ``columns``' union, each value's rank among them, and their window ends.

    ``columns`` is a sequence of 1-D arrays.  Their union is argsorted once
    and dropped once its sorted copy is made; the values and the ranks come
    from the sorted copy, whose buffer then holds the ranks in sorted order
    until they are scattered back to the points.
    """
    column = np.concatenate(columns)
    order = column.argsort()
    column = column.take(order)
    new = np.empty(column.size, dtype=bool)  # where a run of equal sorted values starts
    new[:1] = True
    np.not_equal(column[1:], column[:-1], out=new[1:])
    values = column[new]
    ranks = column.view(np.int64)
    np.cumsum(new, out=ranks)
    ranks -= 1
    inverse = np.empty_like(ranks)
    inverse[order] = ranks
    del column, ranks, order, new
    ends = np.concatenate([
        _window_ends(values[None], values[None, s : s + _STACK_BLOCK], eps, eps2)[0]
        for s in range(0, values.size, _STACK_BLOCK)
    ])
    return values, inverse, ends


def _cell_ranks(columns, eps: float, eps2: float) -> np.ndarray:
    """The rank of each value's cell along one coordinate, over the union of ``columns``.

    Over the sorted distinct values, a new cell starts at the first value that
    is not close to the start of the cell before it, the window end that
    ``_window_ends`` finds exactly.  Ranks start at 1 and grow by one from a
    cell to the next, or by two when the next cell's start is not close to the
    value just before it.  Rounding is monotone, so two values whose ranks
    differ by two or more are never close, for any radius and at any
    magnitude, and equal values share a cell.
    """
    values, inverse, ends = _distinct_ends(columns, eps, eps2)
    starts, s = [], int(ends[0])  # the first cell starts at 0
    while s < values.size:
        starts.append(s)
        s = int(ends[s])
    starts = np.array(starts, dtype=np.intp)
    jumps = np.zeros(values.size, dtype=np.int64)
    jumps[starts] = np.where(_close((values[starts] - values[starts - 1],), eps2), 1, 2)
    del values, ends  # before the ranks are gathered for every point
    cells = np.cumsum(jumps, out=jumps)
    cells += 1
    return cells.take(inverse)


def _window_starts(end: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The start of each rank u's exact window [start_u, end_u), given ``_distinct_ends``' ends.

    The ends never decrease and (a - b)**2 equals (b - a)**2 bit for bit, so
    u lies in the window of w < u exactly when end_w > u.  ``_sorted_strips``
    keeps these starts for every rank of a row, counted from the ends once.
    """
    return end.searchsorted(u, side="right")


def _strip_keys(eps: float, *samples: np.ndarray):
    """Strip-grid keys of each sample's points, the key strides of the strips, and the window ends.

    The samples share the ``_cell_ranks`` of their union in each coordinate
    but the last, and the windows of the last; the rules hold on any subset
    of the values they were built on.  The keys are mixed-radix with, fastest,
    the rank u of the last coordinate among its U distinct values, so sorted
    keys lay the points out as strips along it.  Cell ranks start at 1 with
    one spare rank past the last, so a step of one rank reaches only the strip
    it should.  Room for the last digit is reserved first, and a coordinate
    whose ranks would carry the key past an int64 is left out of the key and
    to the full predicate, so every input gets keys.
    """
    eps2 = eps * eps
    keys = np.zeros(sum(len(pts) for pts in samples), dtype=np.int64)
    strides: list[int] = []
    span = keys.size  # room for the last digit
    for k in range(samples[0].shape[1] - 1):
        ranks = _cell_ranks([pts[:, k] for pts in samples], eps, eps2)
        width = int(ranks.max()) + 2
        if span * width <= np.iinfo(np.int64).max:
            span *= width
            keys *= width
            keys += ranks
            strides = [s * width for s in strides] + [1]
        del ranks
    _, inverse, end = _distinct_ends([pts[:, -1] for pts in samples], eps, eps2)
    keys *= end.size
    keys += inverse
    split = np.cumsum([len(pts) for pts in samples])[:-1]
    return np.split(keys, split), [s * end.size for s in strides], end


def _sorted_strips(eps: float, samples: dict):
    """The strip grid of each row of a record's samples.

    ``samples`` maps each sample to its (R, n, d) stack.  The cells and the
    window ends of a row are built once, on the union of the samples' rows,
    and each sample's keys are sorted once.  The window starts of a row's U
    ranks are then counted from its ends, once: the ends never decrease, so
    the start of rank u (``_window_starts``), the number of ends at or below
    u, is the running sum of how many ends take each value.  Returns, per sample, a list over the rows of its
    sorted keys and its points in that order as (d, n) coordinate columns,
    and each row's frame: its strides and window starts and ends.
    """
    grids, frames = {key: [] for key in samples}, []
    for rows in zip(*samples.values()):
        keys, strides, end = _strip_keys(eps, *rows)
        for key, k, pts in zip(samples, keys, rows):
            order = np.argsort(k)
            grids[key].append((k[order], np.ascontiguousarray(pts.T[:, order])))
        del keys, k, order  # the unsorted keys, before the starts are counted
        start = np.cumsum(np.bincount(end, minlength=end.size + 1)[: end.size])
        frames.append((strides, start, end))
    return grids, frames


def _strip_offsets(strides: list[int]) -> list[int]:
    """Key offsets of the 3**j strips around a strip (j ``strides``), in lexicographic order.

    The middle one is the strip itself; the ones after it are the
    lexicographically positive offsets, one of each +-pair.
    """
    steps = itertools.product((-1, 0, 1), repeat=len(strides))
    return [sum(o * s for o, s in zip(step, strides)) for step in steps]


def _count_strips(a: list, b: list | None, frames: list, eps2: float, tile: slice) -> np.ndarray:
    """Close pairs of the queries ``tile`` of each row of ``a`` in the windows of neighbouring strips.

    ``a`` and ``b`` hold, per row, the sorted keys and columns of
    ``_sorted_strips``; ``b=None`` counts within ``a``, and the counts have
    shape (R,).  A query of key q and last rank u = q mod U has the
    candidates [q - u + o + start_u, q - u + o + end_u) in the strip at
    offset o, for each of the 3**(k-1) strips of the k - 1 coordinates keyed
    by cells.  A within-count is ``a`` against itself with each pair found
    from one side only: its candidates in the query's own strip start at the
    query's position + 1, and only the lexicographically positive strips,
    which lie wholly after it, are walked.  Only the tile's queries probe, so
    a pass's temporaries are O(tile).
    """
    counts = []
    for r, ((ka, acols), (strides, start, end)) in enumerate(zip(a, frames)):
        offsets = _strip_offsets(strides)
        offsets = offsets[len(offsets) // 2 :] if b is None else offsets
        kb, bcols = (ka, acols) if b is None else b[r]
        keys, cols = ka[tile], acols[:, tile]
        u = keys % end.size
        lo_keys, hi_keys = start.take(u), end.take(u)
        u -= keys  # the query's strip, negated; then each offset's probe keys
        lo_keys -= u
        hi_keys -= u
        count = 0
        for off in offsets:
            hi = kb.searchsorted(np.add(hi_keys, off, out=u))
            if b is None and off == 0:
                lo = np.arange(tile.start + 1, tile.start + keys.size + 1)
            else:
                lo = kb.searchsorted(np.add(lo_keys, off, out=u))
            count += _close_in_ranges(cols, bcols, lo, hi, eps2)
        counts.append(count)
    return np.array(counts, dtype=np.int64)


# ---------------------------------------------------------------------------
# Near-lag counts: a gap count is the full count minus these
# ---------------------------------------------------------------------------


def _shifted_close_count(a: np.ndarray, b: np.ndarray, eps2: float) -> np.ndarray:
    """Close pairs among (a[r, i], b[r, i]) in each row r.

    The stacks are (R, L, d); the counts broadcast to shape (R,).
    """
    close = _close((a[..., k] - b[..., k] for k in range(a.shape[2])), eps2)
    if len(close) == 1:  # the flat count of one row is several times faster
        return np.count_nonzero(close)
    # summing bools is exact, and skips count_nonzero's Python-level wrapper
    return close.sum(axis=1)


def _near_lags(
    a: np.ndarray, b: np.ndarray | None, eps2: float, max_gap: int, tile: slice
) -> np.ndarray:
    """Close pairs at index lag exactly h in each row, shape (R, max_gap + 1).

    Only the pairs (i - h, i) with the time index i in ``tile`` are compared.
    """
    s, e, _ = tile.indices(a.shape[1])
    near = np.zeros((max_gap + 1, len(a)), dtype=np.int64)
    if b is not None:
        near[0] = _shifted_close_count(a[:, s:e], b[:, s:e], eps2)
    for h in range(1, min(max_gap + 1, e)):
        i = max(s, h)
        if b is None:
            near[h] = _shifted_close_count(a[:, i:e], a[:, i - h : e - h], eps2)
        else:
            pairs = _shifted_close_count(a[:, i - h : e - h], b[:, i:e], eps2)
            near[h] = pairs + _shifted_close_count(a[:, i:e], b[:, i - h : e - h], eps2)
    return near.T


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
    values, or one row at a time when a row is longer.  Each sample is sorted
    once per block and shared by every piece that uses it: at d = 1 its
    sorted rows, at d >= 2 its points in the order of their strip keys, on
    cells built once per row for all the samples.  This is the one loop over
    tiles of ``_STACK_BLOCK`` positions of the rows, and each pass counts just
    its tile: one strip-grid pass per piece at d >= 2; at d = 1, one pass of
    window ends per within-piece and two per cross piece; and one near-lag
    pass per piece when ``max_gap`` is given.  Every pass runs in the calling
    thread and allocates only tile-sized temporaries.
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
    # squares of huge differences overflow to inf and compare as not close, as
    # in the brute force
    with np.errstate(over="ignore"):
        for r in range(0, rows, step):
            block = slice(r, r + step)
            samples = {}
            for sample in itertools.chain.from_iterable(pieces):
                if sample is not None:
                    samples.setdefault(id(sample), sample[block])
            if d == 1:
                ordered = {key: np.sort(rows[..., 0], axis=1) for key, rows in samples.items()}
            else:
                ordered, frames = _sorted_strips(eps, samples)
            for s in range(0, n, _STACK_BLOCK):
                tile = slice(s, s + _STACK_BLOCK)
                for (full, near), (a, b) in zip(counts, pieces):
                    xs, ys = ordered[id(a)], None if b is None else ordered[id(b)]
                    if d > 1:
                        full[block] += _count_strips(xs, ys, frames, eps2, tile)
                    elif b is None:
                        full[block] += _window_ends(xs, xs[:, tile], eps, eps2).sum(axis=1)
                    else:
                        full[block] += _window_ends(ys, xs[:, tile], eps, eps2).sum(axis=1)
                        full[block] += _window_ends(xs, ys[:, tile], eps, eps2).sum(axis=1)
                    if near is not None:
                        y = None if b is None else samples[id(b)]
                        near[block] += _near_lags(samples[id(a)], y, eps2, max_gap, tile)
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


# ---------------------------------------------------------------------------
# Public counting operations
# ---------------------------------------------------------------------------


def _count_one(a: np.ndarray, b: np.ndarray | None, eps: float, gap=None) -> int:
    """The full count of one validated sample or pair, less its near lags up to ``gap``."""
    full, near = _record_counts([(a[None], None if b is None else b[None])], eps, gap)[0]
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
