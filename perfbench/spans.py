"""In-memory span recorder that wraps qfest's public functions from outside.

Each traced function is replaced, for the duration of ``SpanRecorder.installed``,
at every module attribute that refers to it, so the wrapper sits at the name
each caller looks up (``montecarlo.paired_generate``, ``estimators.as_points``,
the ``count_close_within`` that ``count_close_within_gap`` calls, ...).

A span is ``[name, parent, start, end, n, count]``: ``parent`` is the index of
the enclosing span or -1, and ``n`` / ``count`` are filled in for the full
counting calls only (rows of the first sample and the returned pair count).
Spans stay in memory; self time (duration minus the time covered by direct
children) is computed from them afterwards.

Spans inside forked process-pool workers are recorded in the worker's memory
and never collected.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import types
from time import perf_counter

# Layers of the package; bandwidth is a one-line formula and is not traced.
MODULES = ("processes", "core", "estimators", "montecarlo", "oracle", "cli")

# Public functions that get a span, as "<module>.<function>".
TRACED = (
    "processes.generate",
    "processes.paired_generate",
    "core.as_points",
    "core.count_close_within",
    "core.count_close_between",
    "core.count_close_within_gap",
    "core.count_close_between_gap",
    "montecarlo.run",
    "montecarlo.csv_text",
    "oracle.true_q",
    "cli.main",
)
ESTIMATOR_PREFIX = "estimators.estimate_"

# Full within- and between-counts: their results are the close pairs found.
FULL_COUNTS = ("core.count_close_within", "core.count_close_between")


class SpanRecorder:
    """Collects spans of the wrapped functions while installed."""

    def __init__(self, package: types.ModuleType):
        self.modules = [package] + [getattr(package, m) for m in MODULES]
        self.spans: list[list] = []
        self._stack = [-1]

    def _targets(self) -> dict[str, object]:
        targets = {}
        for dotted in TRACED:
            mod, fn = dotted.split(".")
            func = getattr(getattr(self.modules[0], mod), fn, None)
            if func is not None:
                targets[dotted] = func
        estimators = self.modules[0].estimators
        for attr, func in vars(estimators).items():
            if attr.startswith("estimate_") and isinstance(func, types.FunctionType):
                if func.__module__ == estimators.__name__:
                    targets[f"estimators.{attr}"] = func
        return targets

    def _wrap(self, name: str, func):
        spans = self.spans
        stack = self._stack
        counted = name in FULL_COUNTS

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            start = perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                span[2] = start
                stack.pop()
            if counted:
                span[4] = len(args[0])
                span[5] = out
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every lookup site of the traced functions; restore them on exit."""
        saved = []
        try:
            for name, func in self._targets().items():
                wrapper = self._wrap(name, func)
                for module in self.modules:
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name calls and self seconds of the recorded spans."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, _, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
        return out

    def counted(self) -> tuple[int, int, int]:
        """(full counting calls, sum of returned counts, sum of rows counted)."""
        calls = pairs = points = 0
        for name, _, _, _, n, count in self.spans:
            if name in FULL_COUNTS:
                calls += 1
                pairs += count
                points += n
        return calls, pairs, points

    def write(self, path) -> None:
        """Write the spans as gzipped JSON columns."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        t0 = min((s[2] for s in self.spans), default=0.0)
        doc = {
            "names": names,
            "name": [index[s[0]] for s in self.spans],
            "parent": [s[1] for s in self.spans],
            "start_s": [round(s[2] - t0, 9) for s in self.spans],
            "end_s": [round(s[3] - t0, 9) for s in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))

