"""Run the benchmark repeatedly and report each metric's run-to-run spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --runs 10 --first-seed 100
    python3 perfbench/spread.py --runs 5 --workload estimate-d1 --out /tmp/s.json

Each run is a fresh ``run.py`` process with its own seed (``first-seed``,
``first-seed + 1``, ...) and the ``run_seconds`` of BENCHMARK.json; the
workloads take turns for each seed.  For every
metric printed in a workload's table, this reports the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread
``(q3 - q1) / median``; gated end-to-end metrics are shown against their
bound.  ``--out`` writes the values and their summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TABLE_LINE = re.compile(r"^  ([A-Za-z][\w.\-]*)\s+(\S+) (\S+)")


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict, dict]:
    """(final JSON, table metrics as name -> (value, unit), run record) of one run.

    The table also gets ``run_wall_s``, the wall time of the whole process.
    """
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout}{proc.stderr}")
    table, record = {}, {}
    for line in lines[:-1]:
        if line.startswith("record "):
            record = json.loads(line[len("record "):])
        match = TABLE_LINE.match(line)
        if match:
            table[match.group(1)] = (float(match.group(2)), match.group(3))
    result = json.loads(lines[-1])
    for metric, entry in result["metrics"].items():  # all digits for the gated ones
        table[metric] = (entry["value"], entry["unit"])
    table["run_wall_s"] = (perf_counter() - start, "s")
    return result, table, record


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    workloads = args.workload or names
    columns = {name: {} for name in workloads}
    tallies = {name: [0, 0] for name in workloads}
    # seeds outermost, so each workload's runs spread over the whole measurement
    for seed in seeds:
        for name in workloads:
            result, table, record = one_run(name, seed, spec["run_seconds"])
            report["record"] = record
            tallies[name][0] += result["attempted"]
            tallies[name][1] += result["failed"]
            for metric, value_unit in table.items():
                columns[name].setdefault(metric, []).append(value_unit)
    worst = 0.0
    for name in workloads:
        attempted, failed = tallies[name]
        entry = {"attempted": attempted, "failed": failed, "metrics": {}}
        print(f"{name}: {len(seeds)} runs, {failed} of {attempted} operations failed")
        for metric, pairs in columns[name].items():
            row = summarize([value for value, _ in pairs])
            row["unit"] = pairs[0][1]
            entry["metrics"][metric] = row
            gate = ""
            if metric in bounds:
                gate = f"  bound {bounds[metric]}"
                worst = max(worst, row["spread"] / bounds[metric])
            print(f"  {metric:<16} median {row['median']:.6g} {row['unit']}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}{gate}")
        report["workloads"][name] = entry
    print(f"largest gated spread as a share of its bound: {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
