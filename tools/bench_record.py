"""Record the benchmark of two commits and a fixed anchor side by side in a ``BENCH_*.json`` file.

Usage, from the root of the repository::

    python3 tools/bench_record.py --base 37f143c --head HEAD --out BENCH_13.json

Each commit, and the fixed ``ANCHOR`` commit, is extracted with ``git archive
<rev> | tar -x -C DIR`` into a fresh directory, so every side runs from its
committed files only.  Each workload then runs in its own process, with the
checkout's own ``perfbench/run.py`` at seed 0, in ten rounds of one run per
side; the order of the three sides rotates from round to round (and reverses
every other cycle of three rounds), so a drift of the machine's load falls on
every side alike.  Each ``run.py`` takes its run
length from its own ``BENCHMARK.json``; the recorder refuses sides whose
lengths differ, as their runs would not be comparable.  The file holds, per
workload and side, the median and quartiles of ``iter_s``, ``peak_rss_mb`` and
``setup_s``, and of every informational line a run printed (such as
``two_workers_s``, ``estimate_s`` and ``reps_per_s.1w``), with every run's
value (``null`` for a run that reported none, so the rounds stay aligned),
whether every run checked out, and in how many rounds the head beat the base
on ``iter_s``.  For base and head it also holds ``ratio_to_anchor``, each
metric's median over the anchor's: the anchor is the same tree in every
record, so these ratios compare across records, where raw medians drift with
the machine.  Each run's process is also timed from
outside: ``wall_s`` is its wall time and ``cpu_s`` the user plus system
seconds it and its waited-for children used (the ``RUSAGE_CHILDREN`` delta
around it).  Both are summarized like the metrics, with each one's quartile
distance over its median in ``rel_spread`` and the one that spread less in
``steadier``: when the wall time spreads and the CPU time does not, the
machine's load moved, not the code.  Per side the file holds the git sha,
the hash of its ``src`` tree, the line count of each ``src/qfest/*.py`` as
``wc -l`` gives it, and one run of the tier-1 test command in that side's
checkout (its exit code, the counts of its summary line and its wall time);
and the CPU count and the Python and numpy versions."""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-fig1", "estimate-d1", "estimate-grid")
# the fixed third side of every record; its BENCHMARK.json runs for 36 s
ANCHOR = "412e024"
METRICS = ("iter_s", "peak_rss_mb", "setup_s")
# measured around each run's process, not reported by it
PROCESS_METRICS = ("wall_s", "cpu_s")
SEED = 0
PAIRS = 10
# an informational line of ``perfbench/run.py``: name, value, unit
INFO = re.compile(r"^\s+(\S+)\s+(\S+)\s+\S+ \(informational\)$")
# the tier-1 test command, run with the checkout's ``src`` first on PYTHONPATH
TIER1 = (sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors")
# a count of pytest's summary line, such as "597 passed" or "2 failed"
TIER1_COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed|deselected)\b")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, into: Path) -> dict:
    """Extract the committed files of ``rev`` into ``into``; what identifies them."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    lines = {p.name: p.read_bytes().count(b"\n")
             for p in sorted((into / "src" / "qfest").glob("*.py"))}
    return {"rev": rev, "sha": git("rev-parse", f"{rev}^{{commit}}"),
            "src_tree": git("rev-parse", f"{rev}:src"),
            "src_qfest_lines": {**lines, "total": sum(lines.values())}}


def timed(args, **kwargs):
    """``subprocess.run(args)``, its wall seconds, and the CPU seconds of it and its children."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = perf_counter()
    proc = subprocess.run(args, capture_output=True, text=True, **kwargs)
    wall = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc, wall, cpu


def tier1(checkout: Path) -> dict:
    """One run of the tier-1 tests in ``checkout``: exit code, summary counts and wall time."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    proc, wall, _ = timed(TIER1, cwd=checkout, env={**os.environ, "PYTHONPATH": path})
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
            "exit": proc.returncode,
            "counts": {kind: int(count) for count, kind in TIER1_COUNT.findall(last)},
            "wall_s": wall}


def run_once(checkout: Path, workload: str) -> dict:
    """One ``perfbench/run.py`` process on one workload: its final JSON line and informational
    lines, and the process's wall and CPU seconds."""
    proc, wall, cpu = timed(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED)],
        cwd=checkout,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["exit"] = proc.returncode
    result["info"] = {m[1]: float(m[2]) for m in map(INFO.match, lines) if m}
    result["wall_s"], result["cpu_s"] = wall, cpu
    return result


def summary(runs: list[float | None]) -> dict:
    """Median and quartiles of the runs that reported a value, with every run."""
    values = [v for v in runs if v is not None]
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values) if values else None, "q1": q1, "q3": q3,
            "runs": runs}


def rel_spread(entry: dict) -> float:
    """The quartile distance of a summary over its median."""
    return (entry["q3"] - entry["q1"]) / entry["median"]


def ratio(median: float | None, anchor: float | None) -> float | None:
    """A side's median over the anchor's; None when either is missing."""
    return median / anchor if median is not None and anchor else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the revision to compare against")
    parser.add_argument("--head", default="HEAD", help="the revision under test")
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)
    revs = {"base": args.base, "head": args.head, "anchor": ANCHOR}
    sides = tuple(revs)
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        checkouts = {side: Path(tmp) / side for side in sides}
        meta = {side: extract(revs[side], checkouts[side]) for side in sides}
        seconds = {side: json.loads((checkouts[side] / "BENCHMARK.json").read_text(
            encoding="utf-8"))["run_seconds"] for side in sides}
        if len(set(seconds.values())) != 1:
            parser.error(f"the commits run for different lengths: {seconds}")
        for side in sides:
            meta[side]["tier1"] = tier1(checkouts[side])
            print(f"tier-1 {side:<6} {meta[side]['tier1']}", flush=True)
        runs = {w: {side: [] for side in sides} for w in WORKLOADS}
        for pair in range(PAIRS):
            for w in WORKLOADS:
                # rotated each round, and reversed every other cycle of rounds,
                # so the base runs before the head in half of the rounds
                turn = pair % len(sides)
                order = sides[turn:] + sides[:turn]
                for side in order[::-1] if pair // len(sides) % 2 else order:
                    result = run_once(checkouts[side], w)
                    runs[w][side].append(result)
                    iter_s = result["metrics"].get("iter_s", {}).get("value")
                    print(f"pair {pair} {w:<14} {side:<6} iter_s {iter_s} "
                          f"wall_s {result['wall_s']:.2f} cpu_s {result['cpu_s']:.2f} "
                          f"correct {result['correct']}", flush=True)
    record = {
        "seed": SEED, "pairs": PAIRS, "seconds": seconds["head"],
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, **meta, "workloads": {},
    }
    for w, by_side in runs.items():
        entry = {side: {m: summary([r["metrics"].get(m, {}).get("value")
                                    for r in by_side[side]])
                        for m in METRICS}
                 for side in sides}
        for side in sides:
            names = dict.fromkeys(k for r in by_side[side] for k in r["info"])
            entry[side]["info"] = {k: summary([r["info"].get(k) for r in by_side[side]])
                                   for k in names}
            for m in PROCESS_METRICS:
                entry[side][m] = summary([r[m] for r in by_side[side]])
            spread = {m: rel_spread(entry[side][m]) for m in PROCESS_METRICS}
            entry[side]["rel_spread"] = spread
            entry[side]["steadier"] = min(PROCESS_METRICS, key=spread.get)
        entry["correct"] = all(r["correct"] and r["exit"] == 0
                               for side in sides for r in by_side[side])
        for side in ("base", "head"):
            entry[side]["ratio_to_anchor"] = {
                m: ratio(entry[side][m]["median"], entry["anchor"][m]["median"])
                for m in METRICS}
        base, head = (entry[side]["iter_s"]["runs"] for side in ("base", "head"))
        entry["head_faster_pairs"] = sum(b is not None and h is not None and h < b
                                         for b, h in zip(base, head))
        record["workloads"][w] = entry
    record["correct"] = all(e["correct"] for e in record["workloads"].values())
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: correct {record['correct']}")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
