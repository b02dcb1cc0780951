"""Monte Carlo harness: replicate estimation over an n-grid and summarize error.

A plan names a process (or pair), one functional, one or more estimator
variants, a radius schedule, an n-grid, and a replication count.  ``run``
draws independent replications, evaluates every estimator variant on the same
draws, and aggregates squared errors against the oracle truth into per-n rows
of MSE, squared bias, and variance.

Determinism: replication r at grid index g uses the substream
``SeededStream(seed).child(g, r)``, and aggregation sums replications in
fixed order with exact (compensated) summation, so results are bit-identical
for any worker count and any execution order.  Failures of single
replications are recorded; a run aborts if more than 0.1% of them fail.

Replications run in chunks sized by values, not replications: a chunk at
grid point n holds ``max(1, _CHUNK_VALUES // (n * d))`` replications, so its
x and y stacks and its generation buffers each hold about 2^16 values
(512 KiB) when n * d fits the budget, and one replication's values when it
does not.  On the fig1 pair a run's traced peak is about 2.7 MB at
n = 2*10^4 for any replication count, and 3.8 MB at n = 10^5.  The split
depends on n and d only, never on the worker count.  A chunk's stream ids are
derived in one array pass, and its draws are generated as row stacks, one
row per replication: per-row driving draws, then one transform over the
stack.  Each piece is counted once over the whole stack by the same count
step the library uses on a stack of one, into one record of count arrays that
each estimator evaluates in one call, so every value equals the library
estimate on the same draw bit for bit.

Bias is measured against the limit functional, not its radius-smoothed
version: that is the estimand of the convergence statements being verified.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import core
from . import estimators as est
from . import oracle
from .bandwidth import EpsilonSchedule
from .estimators import AsymptoticVariance, EstimationError
from .processes import SeededStream, _child_ids, _generate_stack

# The summary CSV's columns, each with the type ``read_csv_rows`` reads it back
# as.  A row takes ``process``, ``d`` and ``seed`` from its run, the rest from
# its McRow.
_CSV_COLUMNS = (
    ("estimator", str), ("process", str), ("n", int), ("d", int), ("epsilon", float),
    ("gap", int), ("reps", int), ("mse", float), ("bias2", float), ("variance", float),
    ("se_mse", float), ("seed", int),
)
CSV_HEADER = ",".join(name for name, _ in _CSV_COLUMNS)
PLOT_HEADER = "log_n,log_mse,fit_line"

# A chunk at grid point n holds max(1, _CHUNK_VALUES // (n * d)) replications,
# so each of its stacks holds at most this many float64 values (512 KiB) unless
# one replication is larger; the split never depends on the worker count.  A
# smaller budget makes the allocator return and re-fault its heap on every
# chunk: at 2^14 or 2^15 values a fig1 pass ran about 30% slower.
_CHUNK_VALUES = 2**16


class FailureRateError(EstimationError, RuntimeError):
    """More than 0.1% of one estimator's replications at one n failed.

    The message names the first failing replication by its (grid index,
    replication) pair, the indices of its ``SeededStream(seed).child`` stream,
    and gives the 64-bit stream id of each sample drawn for it (the
    ``.child(0)`` and ``.child(1)`` substreams of a paired draw), as
    ``qfest generate --seed S --stream ID`` takes them.
    """


@dataclass(frozen=True)
class GapRule:
    """Per-n rule for the index-separation gap of incomplete estimators."""

    kind: str
    value: int = 0

    @classmethod
    def fixed(cls, value: int) -> "GapRule":
        return cls("fixed", value)

    @classmethod
    def log(cls) -> "GapRule":
        return cls("log")

    @classmethod
    def sqrt(cls) -> "GapRule":
        return cls("sqrt")

    def __post_init__(self):
        if self.kind not in ("fixed", "log", "sqrt"):
            raise ValueError(f"gap rule must be fixed|log|sqrt, got {self.kind!r}")
        if self.kind == "fixed":
            object.__setattr__(self, "value", core._check_integer(self.value, "gap"))
            if self.value < 0:
                raise ValueError(f"fixed gap must be nonnegative, got {self.value}")

    def at(self, n: int) -> int:
        if self.kind == "log":
            return est.log_gap(n)
        if self.kind == "sqrt":
            return est.sqrt_gap(n)
        return self.value

    @property
    def label(self) -> str:
        return self.kind if self.kind != "fixed" else f"fixed{self.value}"


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator variant to evaluate: functional, variant, and gap rule."""

    functional: str
    variant: str = "complete"
    gap_rule: GapRule | None = None

    def __post_init__(self):
        if self.functional not in est._PIECES:
            raise ValueError(f"functional must be one of {tuple(est._PIECES)}, "
                             f"got {self.functional!r}")
        if self.variant not in est._VARIANTS:
            raise ValueError(f"variant must be {'|'.join(est._VARIANTS)}, got {self.variant!r}")
        if self.variant == "incomplete" and self.gap_rule is None:
            object.__setattr__(self, "gap_rule", GapRule.log())
        if self.variant == "complete" and self.gap_rule is not None:
            raise ValueError("complete variant takes no gap rule")

    def gap_at(self, n: int) -> int | None:
        return None if self.variant == "complete" else self.gap_rule.at(n)

    @property
    def two_sample(self) -> bool:
        return "q11" in est._PIECES[self.functional]

    @property
    def label(self) -> str:
        if self.variant == "complete":
            return f"{self.functional}-complete"
        return f"{self.functional}-incomplete-{self.gap_rule.label}"


@dataclass(frozen=True)
class ExperimentPlan:
    """A full experiment: processes, estimators, schedule, grid, replication."""

    process_x: object
    estimators: tuple[EstimatorSpec, ...]
    schedule: EpsilonSchedule
    ns: tuple[int, ...]
    process_y: object = None
    reps: int = 1000
    seed: int = 0
    truth_override: float | None = None
    label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "ns", tuple(core._check_integer(n, "grid n") for n in self.ns))
        object.__setattr__(self, "reps", core._check_integer(self.reps, "reps"))
        object.__setattr__(self, "seed", core._check_integer(self.seed, "seed"))
        if not self.estimators:
            raise ValueError("plan needs at least one estimator spec")
        functionals = {e.functional for e in self.estimators}
        if len(functionals) != 1:
            raise ValueError(f"plan estimators must share one functional, got {functionals}")
        if any(e.two_sample for e in self.estimators) and self.process_y is None:
            raise ValueError("two-sample functionals require process_y")
        # every built-in process emits scalar observations
        if self.schedule.d != 1:
            raise ValueError(f"schedule d={self.schedule.d} differs from the process dimension d=1")
        if len(set(e.label for e in self.estimators)) != len(self.estimators):
            raise ValueError("estimator labels must be distinct")
        if not self.ns or any(b <= a for a, b in zip(self.ns, self.ns[1:])):
            raise ValueError(f"n grid must be strictly increasing, got {self.ns}")
        if self.ns[0] < 10:
            raise ValueError(f"smallest grid n must be >= 10, got {self.ns[0]}")
        if self.reps < 2:
            raise ValueError(f"reps must be >= 2, got {self.reps}")
        # every grid point's gap and radius are checked before any replication runs
        for e in self.estimators:
            for n in self.ns:
                gap = e.gap_at(n)
                if gap is not None and gap >= n - 1:
                    raise ValueError(
                        f"gap rule {e.gap_rule.label} gives gap {gap} >= n-1 at n={n}"
                    )
                for piece in est._PIECES[e.functional]:
                    est._normalizer(piece, n, self.schedule.d, self.schedule.epsilon_at(n), gap)

    @property
    def functional(self) -> str:
        return self.estimators[0].functional

    @property
    def process_label(self) -> str:
        if self.label is not None:
            return self.label
        kinds = [self.process_x.kind]
        if self.process_y is not None:
            kinds.append(self.process_y.kind)
        return "+".join(kinds)


@dataclass(frozen=True)
class McRow:
    """Per-(estimator, n) Monte Carlo summary."""

    estimator: str
    n: int
    epsilon: float
    gap: int
    mse: float
    bias2: float
    variance: float
    se_mse: float
    reps: int
    failures: int


@dataclass(frozen=True)
class McResult:
    """All rows of one run plus the run-level identifiers."""

    rows: tuple[McRow, ...]
    process: str
    d: int
    seed: int
    truth: float

    def rows_for(self, estimator: str) -> tuple[McRow, ...]:
        out = tuple(r for r in self.rows if r.estimator == estimator)
        if not out:
            raise ValueError(f"no rows for estimator {estimator!r}")
        return out

    def estimator_labels(self) -> tuple[str, ...]:
        seen: list[str] = []
        for r in self.rows:
            if r.estimator not in seen:
                seen.append(r.estimator)
        return tuple(seen)


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least squares of log(mse) on log(n)."""

    slope: float
    intercept: float
    residual_rms: float
    n_range: tuple[int, int]


@dataclass(frozen=True)
class NmseCheck:
    """Comparison of n*mse at the largest grid n against 4*sigma2.

    ``ratio`` is n*mse/(4*sigma2) and ``passed`` says whether it is within
    ``band`` of 1; a skipped check holds NaN, so its ratio is NaN and it fails.
    """

    n: int
    mse: float
    sigma2: float
    band: float
    skipped: bool = False
    note: str = ""

    @property
    def ratio(self) -> float:
        return self.n * self.mse / (4.0 * self.sigma2)

    @property
    def passed(self) -> bool:
        return abs(self.ratio - 1.0) <= self.band


def resolve_truth(plan: ExperimentPlan) -> float:
    """Oracle truth for the plan's functional, or the explicit override."""
    if plan.truth_override is not None:
        return float(plan.truth_override)
    report = oracle.true_q(plan.process_x, plan.process_y)
    return report.value_for(plan.functional)


def _eval_chunk(plan: ExperimentPlan, gi: int, n: int, eps: float, r0: int, r1: int):
    """Evaluate replications r0..r1-1 at grid index gi; NaN marks a failure.

    The draws are generated as row stacks, one row per replication, and each
    piece is counted once over the whole stack, to the largest gap any
    estimator asks for, and each estimator is evaluated on all rows at once.
    """
    gaps = [e.gap_at(n) for e in plan.estimators]
    max_gap = max((g for g in gaps if g is not None), default=None)
    ids = _child_ids(SeededStream(plan.seed).stream, gi, np.arange(r0, r1))
    if plan.process_y is not None:
        xs = _generate_stack(plan.process_x, n, plan.seed, _child_ids(ids, 0))
        ys = _generate_stack(plan.process_y, n, plan.seed, _child_ids(ids, 1))
    else:
        xs, ys = _generate_stack(plan.process_x, n, plan.seed, ids), None
    counts = est._count_stack(plan.functional, xs, ys, eps, max_gap)
    return np.array([est.evaluate(counts, plan.functional, gap) for gap in gaps])


def _draw_streams(plan: ExperimentPlan, gi: int, r: int) -> str:
    """The stream ids of the samples of replication r at grid index gi."""
    stream = SeededStream(plan.seed).child(gi, r)
    if plan.process_y is None:
        return f"seed {plan.seed} stream {stream.stream}"
    return (
        f"seed {plan.seed} streams {stream.child(0).stream} (x) "
        f"and {stream.child(1).stream} (y)"
    )


def _aggregate(
    plan: ExperimentPlan, label: str, gi: int, n: int, eps: float, gap: int,
    values: np.ndarray, truth: float,
) -> McRow:
    failed = np.flatnonzero(np.isnan(values))
    if failed.size > 0.001 * values.size:
        raise FailureRateError(
            f"{failed.size} of {values.size} replications failed for {label} at n={n}; "
            f"the first is (grid {gi}, replication {failed[0]}), drawn from "
            f"{_draw_streams(plan, gi, int(failed[0]))}"
        )
    vals = [float(v) for v in np.delete(values, failed)]
    k = len(vals)
    mean = math.fsum(vals) / k
    sq_errs = [(v - truth) ** 2 for v in vals]
    mse = math.fsum(sq_errs) / k
    variance = math.fsum((v - mean) ** 2 for v in vals) / k
    bias2 = (mean - truth) ** 2
    if abs(mse - (bias2 + variance)) > 1e-12 * mse + 1e-30:
        raise RuntimeError(f"mse decomposition violated for {label} at n={n}")
    sd_sq = math.sqrt(math.fsum((s - mse) ** 2 for s in sq_errs) / (k - 1))
    return McRow(
        estimator=label,
        n=n,
        epsilon=eps,
        gap=gap,
        mse=mse,
        bias2=bias2,
        variance=variance,
        se_mse=sd_sq / math.sqrt(k),
        reps=k,
        failures=failed.size,
    )


def run(plan: ExperimentPlan, workers: int = 1) -> McResult:
    """Execute the plan and return per-(estimator, n) summaries.

    ``workers`` > 1 spreads replication chunks over a process pool of at
    most one worker per chunk; the result is byte-identical to the
    single-worker run.
    """
    truth = resolve_truth(plan)
    eps_at = {n: plan.schedule.epsilon_at(n) for n in plan.ns}
    chunks = []
    for gi, n in enumerate(plan.ns):
        step = max(1, _CHUNK_VALUES // (n * plan.schedule.d))
        chunks += [(gi, n, r0, min(r0 + step, plan.reps)) for r0 in range(0, plan.reps, step)]
    # the pool starts all its workers at once, so no more than it can use
    workers = min(workers, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_eval_chunk, plan, gi, n, eps_at[n], r0, r1)
                for gi, n, r0, r1 in chunks
            ]
            parts = [f.result() for f in futures]
    else:
        parts = [_eval_chunk(plan, gi, n, eps_at[n], r0, r1) for gi, n, r0, r1 in chunks]
    # per grid point, every estimator's values in replication order, (E, reps)
    values = [
        np.concatenate([part for (g, *_), part in zip(chunks, parts) if g == gi], axis=1)
        for gi in range(len(plan.ns))
    ]

    rows = []
    for e_i, spec in enumerate(plan.estimators):
        for gi, n in enumerate(plan.ns):
            gap = spec.gap_at(n) or 0  # a complete row is written with gap 0
            rows.append(
                _aggregate(plan, spec.label, gi, n, eps_at[n], gap, values[gi][e_i], truth)
            )
    return McResult(
        rows=tuple(rows), process=plan.process_label, d=plan.schedule.d, seed=plan.seed,
        truth=truth,
    )


# ---------------------------------------------------------------------------
# Rate fitting and the variance-constant check
# ---------------------------------------------------------------------------


def fit_loglog(ns, mses) -> SlopeFit:
    """Least-squares slope of log(mse) against log(n).

    Raises ``ValueError`` unless there is one mse per sample size, at least
    three points, at least two distinct positive integer sample sizes, and every
    mse is finite and positive.
    """
    ns, mses = list(ns), list(mses)
    if len(ns) != len(mses):
        raise ValueError(f"got {len(ns)} sample sizes and {len(mses)} mse values")
    ns = [core._check_integer(n, "sample size") for n in ns]
    mses = [float(m) for m in mses]
    if len(ns) < 3:
        raise ValueError(f"need at least 3 grid points to fit a slope, got {len(ns)}")
    if any(n < 1 for n in ns):
        raise ValueError(f"sample sizes must be positive integers, got {ns}")
    if len(set(ns)) < 2:
        raise ValueError(f"need at least 2 distinct sample sizes to fit a slope, got {ns}")
    if not all(0.0 < m < math.inf for m in mses):
        raise ValueError(f"mse values must be finite and positive for a log-log fit, got {mses}")
    log_n = np.log(np.asarray(ns, dtype=float))
    log_mse = np.log(np.asarray(mses, dtype=float))
    slope, intercept = np.polyfit(log_n, log_mse, 1)
    resid = log_mse - (slope * log_n + intercept)
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        n_range=(min(ns), max(ns)),
    )


def _pick_estimator(result: McResult, estimator: str | None) -> str:
    labels = result.estimator_labels()
    if estimator is None:
        if len(labels) != 1:
            raise ValueError(f"result has several estimators {labels}; name one")
        return labels[0]
    return estimator


def fit_slope(result: McResult, estimator: str | None = None) -> SlopeFit:
    """Fit the convergence slope of one estimator's rows."""
    label = _pick_estimator(result, estimator)
    rows = result.rows_for(label)
    return fit_loglog([r.n for r in rows], [r.mse for r in rows])


def nmse_limit_check(
    result: McResult,
    sigma2: AsymptoticVariance | float | None,
    band: float = 0.25,
    estimator: str | None = None,
) -> NmseCheck:
    """Check n*mse against 4*sigma2 at the largest grid n.

    Meaningful for regular-regime schedules, where the mean squared error is
    4*sigma2/n to first order.  With ``sigma2=None`` the check is skipped and
    reported as such rather than failing.
    """
    if sigma2 is None:
        return NmseCheck(n=0, mse=float("nan"), sigma2=float("nan"), band=band,
                         skipped=True, note="sigma2 unavailable")
    s2 = sigma2.sigma2 if isinstance(sigma2, AsymptoticVariance) else float(sigma2)
    label = _pick_estimator(result, estimator)
    row = max(result.rows_for(label), key=lambda r: r.n)
    if s2 == 0.0:  # the ratio is undefined; raised here, not at its first read
        raise ZeroDivisionError("sigma2 is 0, so n*mse/(4*sigma2) is undefined")
    return NmseCheck(n=row.n, mse=row.mse, sigma2=s2, band=band)


# ---------------------------------------------------------------------------
# CSV output (both files use exact, stable headers)
# ---------------------------------------------------------------------------


def csv_text(result: McResult) -> str:
    """Render the result as CSV with the stable column set."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    run_fields = {"process": result.process, "d": result.d, "seed": result.seed}
    for r in result.rows:
        fields = {**vars(r), **run_fields}
        # the csv module writes every float, numpy's float64 too, as float's repr
        writer.writerow([fields[name] for name, _ in _CSV_COLUMNS])
    return buf.getvalue()


def write_csv(result: McResult, path) -> None:
    Path(path).write_text(csv_text(result), encoding="utf-8")


def plot_data_text(result: McResult, estimator: str | None = None) -> str:
    """Per-n log-log points plus the fitted line, ready for external plotting."""
    label = _pick_estimator(result, estimator)
    fit = fit_slope(result, label)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PLOT_HEADER.split(","))
    for r in result.rows_for(label):
        log_n = math.log(r.n)
        writer.writerow(
            [repr(log_n), repr(math.log(r.mse)), repr(fit.intercept + fit.slope * log_n)]
        )
    return buf.getvalue()


def write_plot_data(result: McResult, path) -> list[Path]:
    """Write one plot-data file per estimator; returns the paths written."""
    base = Path(path)
    labels = result.estimator_labels()
    written = []
    for label in labels:
        if len(labels) == 1:
            target = base
        else:
            target = base.with_name(f"{base.stem}-{label}{base.suffix}")
        target.write_text(plot_data_text(result, label), encoding="utf-8")
        written.append(target)
    return written


def read_csv_rows(path) -> list[dict]:
    """Parse a harness CSV back into typed row dicts (header must match)."""
    text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV file") from None
    if header != CSV_HEADER.split(","):
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        if len(rec) != len(header):
            raise ValueError(f"malformed CSV row {rec!r}")
        rows.append({name: kind(value) for (name, kind), value in zip(_CSV_COLUMNS, rec)})
    return rows
