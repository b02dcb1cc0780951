"""qfest benchmark: run one workload (or all three) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-fig1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 3

The workload's inputs are made from ``--seed``.  With ``--trace 0`` the
end-to-end metrics are measured with nothing wrapped; with ``--trace 1``
traced and untraced iterations alternate and the per-layer metrics are
reported instead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output checked out.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from spans import ESTIMATOR_PREFIX, TRACED, SpanRecorder
from workloads import DEFAULT_SEED, WORKLOADS, Tally

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
PINS = BENCH_DIR / "pins.json"
SETUP_SHARE = 0.05  # set-ups are repeated until they took this share of the measured time
SETUP_MIN = 5  # ... and at least this many ran


def import_qfest():
    """Import the checkout's own ``src/qfest`` afresh; any other copy is refused.

    Every qfest module already loaded is dropped first, so each call runs the
    package's module code again (numpy, a dependency, stays loaded).
    """
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in qfest_modules():
        del sys.modules[name]
    qfest = importlib.import_module("qfest")
    importlib.import_module("qfest.cli")  # not imported by the package itself
    if Path(qfest.__file__).resolve().parent != src / "qfest":
        raise ImportError(f"qfest imported from {qfest.__file__}, not from {src}")
    return qfest


def qfest_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "qfest" or name.startswith("qfest.")}


def run_record(q) -> dict:
    """Where and on what the numbers were taken."""
    import ctypes

    import numpy

    l3 = None
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        value = libc.sysconf(194)  # glibc _SC_LEVEL3_CACHE_SIZE
        l3 = value if value > 0 else None
    except (OSError, AttributeError):
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src" / "qfest").glob("*.py")))
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "l3_bytes": l3,
        "src_qfest_lines": src_lines,
    }


def git_sha() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class SetUps:
    """Timed set-ups of one workload: a fresh import of qfest plus building the inputs.

    The first set-up gives the package ``q`` and the inputs ``state`` the run
    uses.  ``top_up`` sets up again between rotations of the closed loop, so the
    set-up times spread over the window like the iterations do; those set-ups
    are only timed, and the run's own qfest modules are put back afterwards.
    """

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.times: list[float] = []
        self.q, self.state = self._once()

    def _once(self):
        # start from a collected heap, as a fresh process would: otherwise the
        # cycles left by the dropped modules are collected inside a timed set-up
        gc.collect()
        start = perf_counter()
        q = import_qfest()
        state = self.workload.setup(q, self.seed, self.workdir)
        self.times.append(perf_counter() - start)
        return q, state

    def _due(self, measured_s, minimum):
        return sum(self.times) < SETUP_SHARE * measured_s or len(self.times) < minimum

    def top_up(self, measured_s, minimum=0) -> None:
        """Set up while set-ups took under SETUP_SHARE of ``measured_s`` or too few ran."""
        if not self._due(measured_s, minimum):
            return
        own = qfest_modules()
        while self._due(measured_s, minimum):
            self._once()
        for name in qfest_modules():
            del sys.modules[name]
        sys.modules.update(own)
        gc.collect()  # the burst's garbage, before the next timed iteration


def closed_loop(q, workload, state, ref, seconds, tally, kinds, setups=None):
    """Run rotations of iterations while the next one is expected to end in ``seconds``.

    ``kinds`` is the rotation of (label, recorder, workers) iterations, where a
    recorder of None means untraced; at least one rotation runs.  After each
    rotation ``setups`` (if given) is topped up; its time is not measured
    time.  The result maps each label to its list of timing dicts.
    """
    timings = {label: [] for label, _, _ in kinds}
    measured = 0.0
    rotations = 0
    while True:
        start = perf_counter()
        for label, recorder, workers in kinds:
            try:
                if recorder is None:
                    out, timing = workload.iteration(q, state, workers)
                else:
                    with recorder.installed():
                        out, timing = workload.iteration(q, state, workers)
            except Exception:  # noqa: BLE001 - any failure of the program is a result
                tally.error(traceback.format_exc())
                return timings
            workload.check(ref, out, tally)
            timings[label].append(timing)
        measured += perf_counter() - start
        rotations += 1
        if setups is not None:
            setups.top_up(measured)
        if measured + measured / rotations > seconds:
            return timings


def mean_of(timings, key):
    return statistics.fmean(t[key] for t in timings)


def check_pins(workload, ref, seed, tally) -> None:
    if seed != DEFAULT_SEED:
        return
    pins = json.loads(PINS.read_text(encoding="utf-8"))[workload.name]
    got = workload.observed(ref)
    for group, want in pins.items():
        if isinstance(want, dict):
            for key, value in want.items():
                have = got[group].get(key)
                tally.expect(have == value, f"pinned {group}.{key}: {have!r} != {value!r}")
        else:
            tally.expect(got[group] == want, f"pinned {group}: {got[group]!r} != {want!r}")


def end_to_end(workload, seed, seconds, tally, workdir):
    setups = SetUps(workload, seed, workdir)
    q, state = setups.q, setups.state
    ref = workload.verify(q, state, tally)
    timings = closed_loop(q, workload, state, ref, seconds, tally,
                          [("own", None, 1)], setups)["own"]
    info = {}
    if workload.kind == "mc":
        # one 2-worker pass per run: the pool path, checked against the 1-worker CSV
        pool = closed_loop(q, workload, state, ref, 0, tally, [("two", None, 2)])["two"]
        if pool:
            info["two_workers_s"] = (pool[0]["iter_s"], "s")
            info["reps_per_s.2w"] = (workload.reps_per_pass / pool[0]["iter_s"], "1/s")
    setups.top_up(0.0, SETUP_MIN)
    check_pins(workload, ref, seed, tally)
    metrics = {"setup_s": statistics.median(setups.times), "peak_rss_mb": peak_rss_mb()}
    if timings:
        metrics["iter_s"] = mean_of(timings, "iter_s")
        for key in timings[0]:
            if key != "iter_s":
                info[key] = (mean_of(timings, key), "s")
        if workload.kind == "mc":
            info["reps_per_s.1w"] = (workload.reps_per_pass / metrics["iter_s"], "1/s")
    notes = [f"iter_s is the mean over {len(timings)} timed iterations; setup_s is the "
             f"median of {len(setups.times)} set-ups spread over the window"]
    if workload.kind == "mc":
        notes.append("iter_s is the 1-worker pass; the one 2-worker pass is informational")
    return metrics, info, notes


# Per-function self times that every workload exercises.  The others read 0
# on some workload (no CLI on mc-fig1, no harness on estimate-*, no gap counts
# at d >= 2), and a time that reads 0 on every run is no measurement, so they
# are printed as informational lines instead.
SELF_TIMED = ("core.as_points", "core.count_close_within", "core.count_close_between")


def per_layer(workload, seed, seconds, tally, workdir):
    setups = SetUps(workload, seed, workdir)
    q, state = setups.q, setups.state
    ref = workload.verify(q, state, tally)
    recorder = SpanRecorder(q)
    # traced iterations use 1 worker: spans inside pool workers are not collected
    kinds = [("own", None, 1), ("traced", recorder, 1)]
    if workload.kind == "mc":
        kinds.append(("two", None, 2))
    timings = closed_loop(q, workload, state, ref, seconds, tally, kinds)
    check_pins(workload, ref, seed, tally)
    iters = max(len(timings["traced"]), 1)
    reps = workload.reps_per_pass * iters
    span_path = OUT_DIR / f"spans-{workload.name}-s{seed}.json.gz"
    recorder.write(span_path)

    table = recorder.summary()
    metrics, info = {}, {}
    for name in TRACED:
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"] / iters
        if name in SELF_TIMED:
            metrics[f"{name}.self_s"] = row["self_s"] / iters
        else:
            info[f"{name}.self_s"] = (row["self_s"] / iters, "s")
    est_rows = [row for name, row in table.items() if name.startswith(ESTIMATOR_PREFIX)]
    metrics["estimators.calls"] = sum(r["calls"] for r in est_rows) / iters
    metrics["estimators.self_s"] = sum(r["self_s"] for r in est_rows) / iters
    calls, pairs, points = recorder.counted()
    metrics["core.close_pairs"] = pairs / iters
    metrics["core.points_in"] = points / iters
    metrics["core.full_counts_per_rep"] = calls / reps
    metrics["core.as_points_per_rep"] = table.get("core.as_points", {"calls": 0})["calls"] / reps
    metrics["trace.spans_per_iter"] = len(recorder.spans) / iters

    own, traced = timings["own"], timings["traced"]
    if own and traced:
        metrics["trace.overhead_s"] = mean_of(traced, "iter_s") - mean_of(own, "iter_s")
    metrics["montecarlo.pool_speedup"] = 0.0
    if own and timings.get("two"):
        one, two = mean_of(own, "iter_s"), mean_of(timings["two"], "iter_s")
        metrics["montecarlo.pool_speedup"] = one / two
        info["montecarlo.reps_per_s.1w"] = (workload.reps_per_pass / one, "1/s")
        info["montecarlo.reps_per_s.2w"] = (workload.reps_per_pass / two, "1/s")
    notes = [f"{len(traced)} traced 1-worker iterations and {len(own)} untraced ones; "
             f"spans in {span_path.relative_to(ROOT)}"]
    if workload.kind == "mc":
        notes.append("spans inside process-pool workers are not collected, so the traced "
                     "passes use 1 worker; the 2-worker passes are untraced")
    else:
        notes.append("montecarlo.pool_speedup reads 0: no harness on this workload")
    return metrics, info, notes


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        q = import_qfest()
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("record " + json.dumps(run_record(q), sort_keys=True))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    total = Tally()
    result = {}
    for name in names:
        workload = WORKLOADS[name]
        tally = Tally()
        metrics, info, notes = {}, {}, []
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            try:
                if args.trace:
                    metrics, info, notes = per_layer(
                        workload, args.seed, args.seconds, tally, Path(tmp))
                else:
                    metrics, info, notes = end_to_end(
                        workload, args.seed, args.seconds, tally, Path(tmp))
            except Exception:  # noqa: BLE001 - reported as a failed operation
                tally.error(traceback.format_exc())
        print(f"workload {name} seed {args.seed} trace {args.trace}")
        for metric, unit in wanted.items():
            if metric in metrics:
                print(f"  {metric:<38} {metrics[metric]:.6g} {unit}")
            else:
                tally.error(f"metric {metric} was not measured")
        for metric, (value, unit) in info.items():
            print(f"  {metric:<38} {value:.6g} {unit} (informational)")
        rate = tally.failed / tally.attempted if tally.attempted else 1.0
        print(f"  {'error_rate':<38} {rate:.6g} ratio ({tally.failed} of {tally.attempted} "
              f"operations failed)")
        for note in notes:
            print(f"  # {note}")
        for problem in tally.problems[:20]:
            print(f"  ! {problem.rstrip()}")
        total.attempted += tally.attempted
        total.failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in wanted.items():
            value = metrics.get(metric)
            if value is not None and value == value:
                result[prefix + metric] = {"value": value, "unit": unit}

    correct = total.failed == 0 and total.attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(total.attempted, 1),
                      "failed": total.failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
