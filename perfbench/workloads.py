"""The benchmark's workloads: inputs made from the seed, timed calls, output checks.

Every workload is a closed loop with one caller: the next call starts when the
last one returns.  The program receives only the generated inputs.

A workload has these steps, called by ``run.py`` (each also gets the imported
package ``q``):

* ``setup(seed, workdir)`` builds the inputs; it is timed as ``setup_s``.
* ``verify(state, tally)`` is untimed.  It spot-checks the fast counting paths
  against ``oracle.naive_*`` and returns the reference the timed outputs must
  match.  At the default seed the reference is computed independently, with
  the raw counts behind it, for the pins; at other seeds the first timed
  iteration becomes the reference, so every later one must repeat it.
* ``iteration(state, workers)`` is one timed iteration of the closed loop.
  ``workers`` is the Monte Carlo harness's worker count (1 unless asked
  otherwise); the other workloads ignore it.
* ``check(ref, out, tally)`` compares one iteration's outputs with the
  reference, bit for bit.
* ``observed(ref)`` gives what ``pins.json`` pins at the default seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from pathlib import Path
from time import perf_counter

import numpy as np

DEFAULT_SEED = 0  # the seed whose outputs are pinned in pins.json
SQRT3 = math.sqrt(3.0)
FIG1_NS = (100, 200, 400, 700, 1000)
FIG1_REPS = 1000
SPOT_REPS_PER_N = 2
BLOCK = 2000
D1_N = 1_000_000
GRID = ((2, 50_000), (3, 20_000))
TRANSLATED_N = 2000
TRANSLATION = 1e15


class Tally:
    """Operations attempted and failed; a failure is an exception or a wrong output."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def error(self, what: str) -> None:
        self.expect(False, what)


def fig1_specs(q):
    """The ``--preset fig1`` process pair: X ~ N(0, 1), Y ~ N(1, 3/4), both 2-dependent."""
    gma = q.processes.GaussianMA
    return gma(taps=(1 / SQRT3,) * 3), gma(taps=(0.5, -0.5, 0.5), shift=1.0)


def thm1iii(q, d: int, n: int) -> float:
    """Radius c log(n) n^(-1/d) with c = 1, the fig1 schedule at dimension d."""
    return q.bandwidth.EpsilonSchedule("thm1iii", d=d, alpha=1.0, c=1.0).epsilon_at(n)


def stacked(q, spec, d: int, n: int, stream):
    """A d-dimensional sample whose coordinates are independent paths of ``spec``."""
    gen = q.processes.generate
    return np.column_stack([gen(spec, n, stream.child(k))[:, 0] for k in range(d)])


def pieces(q, x, y, eps, gap=None) -> dict:
    """q20, q11 and q02 estimates (with raw counts), complete or gap-restricted."""
    est = q.estimators
    if gap is None:
        return {"q20": est.estimate_q20(x, eps), "q11": est.estimate_q11(x, y, eps),
                "q02": est.estimate_q20(y, eps)}
    return {"q20": est.estimate_q20_incomplete(x, eps, gap),
            "q11": est.estimate_q11_incomplete(x, y, eps, gap),
            "q02": est.estimate_q20_incomplete(y, eps, gap)}


def naive_pieces(q, x, y, eps, gap=None) -> dict:
    orc = q.oracle
    if gap is None:
        return {"q20": orc.naive_q20(x, eps), "q11": orc.naive_q11(x, y, eps),
                "q02": orc.naive_q20(y, eps)}
    return {"q20": orc.naive_q20_incomplete(x, eps, gap),
            "q11": orc.naive_q11_incomplete(x, y, eps, gap),
            "q02": orc.naive_q20_incomplete(y, eps, gap)}


def compose(p: dict) -> float:
    """The plug-in divergence, in the estimators' own order of operations."""
    return p["q20"].value - 2.0 * p["q11"].value + p["q02"].value


def spot_check(q, tally, label, x, y, eps, gap=None) -> None:
    """Fast-path estimates on (x, y) against the brute-force oracle, bit for bit."""
    fast = pieces(q, x, y, eps, gap)
    slow = naive_pieces(q, x, y, eps, gap)
    for key in fast:
        same = (fast[key].raw_count == slow[key].raw_count
                and fast[key].value == slow[key].value)
        tally.expect(same, f"{label} {key}: fast count {fast[key].raw_count} "
                           f"!= naive count {slow[key].raw_count}")
    value = q.estimators.estimate_divergence(x, y, eps, "complete" if gap is None
                                             else "incomplete", gap)
    tally.expect(value == compose(slow), f"{label} divergence differs from the naive one")


def counts_of(p: dict, suffix: str = "") -> dict:
    return {f"{key}{suffix}": est.raw_count for key, est in p.items()}


class McFig1:
    """``montecarlo.run`` on the fig1 plan (divergence complete + incomplete:log, c = 1).

    One iteration is one pass, ``montecarlo.run`` followed by
    ``montecarlo.csv_text``, with 1 worker unless ``workers`` says otherwise.
    Every pass, at any worker count, must give the same CSV bytes.
    """

    name = "mc-fig1"
    kind = "mc"
    reps_per_pass = len(FIG1_NS) * FIG1_REPS

    def setup(self, q, seed: int, workdir: Path) -> dict:
        mc = q.montecarlo
        x_spec, y_spec = fig1_specs(q)
        plan = mc.ExperimentPlan(
            process_x=x_spec, process_y=y_spec,
            estimators=(mc.EstimatorSpec("divergence"),
                        mc.EstimatorSpec("divergence", "incomplete", mc.GapRule.log())),
            schedule=q.bandwidth.EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=1.0),
            ns=FIG1_NS, reps=FIG1_REPS, seed=seed,
        )
        return {"plan": plan, "seed": seed}

    def verify(self, q, state, tally) -> dict:
        plan = state["plan"]
        pick = random.Random(state["seed"])
        base = q.processes.SeededStream(plan.seed)
        for gi, n in enumerate(plan.ns):
            eps = plan.schedule.epsilon_at(n)
            gap = q.estimators.log_gap(n)
            for r in pick.sample(range(plan.reps), SPOT_REPS_PER_N):
                x, y = q.processes.paired_generate(
                    plan.process_x, plan.process_y, n, base.child(gi, r))
                spot_check(q, tally, f"n={n} rep={r} complete", x, y, eps)
                spot_check(q, tally, f"n={n} rep={r} incomplete", x, y, eps, gap)
        return {"csv": None}

    def iteration(self, q, state, workers=1):
        start = perf_counter()
        text = q.montecarlo.csv_text(q.montecarlo.run(state["plan"], workers=workers))
        return {"csv": text}, {"iter_s": perf_counter() - start}

    def check(self, ref, out, tally) -> None:
        if ref["csv"] is None:
            ref["csv"] = out["csv"]
        # determinism contract: every pass, at any worker count, gives the same bytes
        tally.expect(out["csv"] == ref["csv"], "harness CSV differs between passes")

    def observed(self, ref) -> dict:
        return {"csv_sha256": hashlib.sha256(ref["csv"].encode()).hexdigest()}


class EstimateD1:
    """One fig1 pair at n = 10^6, eps = log(n)/n: library set plus ``qfest estimate``."""

    name = "estimate-d1"
    kind = "estimate"
    reps_per_pass = 1

    def setup(self, q, seed: int, workdir: Path) -> dict:
        x_spec, y_spec = fig1_specs(q)
        stream = q.processes.SeededStream(seed).child(1)
        x, y = q.processes.paired_generate(x_spec, y_spec, D1_N, stream)
        paths = []
        for label, sample in (("x", x), ("y", y)):
            path = workdir / f"{label}.csv"
            path.write_text("\n".join(map(repr, sample[:, 0].tolist())) + "\n",
                            encoding="utf-8")
            paths.append(str(path))
        eps = thm1iii(q, 1, D1_N)
        return {"x": x, "y": y, "eps": eps, "gap": q.estimators.log_gap(D1_N),
                "paths": paths, "seed": seed}

    def verify(self, q, state, tally) -> dict:
        x, y, eps, gap = state["x"], state["y"], state["eps"], state["gap"]
        lo = random.Random(state["seed"]).randrange(D1_N - BLOCK + 1)
        block = slice(lo, lo + BLOCK)
        # the block's own schedule radius, so that it holds close and near-lag pairs
        r = thm1iii(q, 1, BLOCK)
        spot_check(q, tally, f"rows {lo}.. complete", x[block], y[block], r)
        spot_check(q, tally, f"rows {lo}.. incomplete", x[block], y[block], r, gap)
        ref = {"values": None, "cli": None}
        if state["seed"] == DEFAULT_SEED:
            # the raw counts behind every value, pinned for this seed
            full = pieces(q, x, y, eps)
            near = pieces(q, x, y, eps, gap)
            ref["counts"] = {**counts_of(full), **counts_of(near, "_gap")}
            ref["values"] = {
                "divergence_complete": repr(compose(full)),
                "divergence_incomplete": repr(compose(near)),
                "renyi2": repr(-math.log(full["q20"].value)),
            }
            ref["cli"] = {key: repr(full[key].value) for key in ("q20", "q11", "q02")}
        return ref

    def iteration(self, q, state, workers=1):
        est = q.estimators
        x, y, eps, gap = state["x"], state["y"], state["eps"], state["gap"]
        start = perf_counter()
        values = {
            "divergence_complete": repr(est.estimate_divergence(x, y, eps)),
            "divergence_incomplete": repr(est.estimate_divergence(x, y, eps, "incomplete", gap)),
            "renyi2": repr(est.estimate_renyi2(x, eps)),
        }
        mid = perf_counter()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = q.cli.main(["estimate", *state["paths"], "--functional", "divergence",
                               "--epsilon", repr(eps)])
        end = perf_counter()
        lines = dict(line.split("=", 1) for line in buf.getvalue().splitlines())
        out = {"values": values, "cli_code": code, "cli": lines}
        return out, {"iter_s": end - start, "estimate_s": mid - start, "cli_estimate_s": end - mid}

    def check(self, ref, out, tally) -> None:
        cli = {key: out["cli"].get(key) for key in ("q20", "q11", "q02")}
        if ref["values"] is None:
            ref["values"], ref["cli"] = out["values"], cli
        for key, want in ref["values"].items():
            tally.expect(out["values"][key] == want, f"{key} {out['values'][key]} != {want}")
        tally.expect(out["cli_code"] == 0 and cli == ref["cli"]
                     and out["cli"].get("value") == out["values"]["divergence_complete"],
                     f"qfest estimate exit {out['cli_code']} printed {out['cli']}")

    def observed(self, ref) -> dict:
        return {"counts": ref["counts"], "values": ref["values"]}


class EstimateGrid:
    """d >= 2 hash-grid counting, plus the translated draw that reaches the O(n^2) fallback."""

    name = "estimate-grid"
    kind = "estimate"
    reps_per_pass = 1

    def setup(self, q, seed: int, workdir: Path) -> dict:
        x_spec, y_spec = fig1_specs(q)
        root = q.processes.SeededStream(seed)
        samples = {}
        for d, n in GRID:
            samples[d] = (stacked(q, x_spec, d, n, root.child(d, 0)),
                          stacked(q, y_spec, d, n, root.child(d, 1)), thm1iii(q, d, n))
        shifted = stacked(q, x_spec, 2, TRANSLATED_N, root.child(4)) + TRANSLATION
        return {"grid": samples, "shifted": shifted, "eps_shifted": thm1iii(q, 2, TRANSLATED_N),
                "seed": seed}

    def verify(self, q, state, tally) -> dict:
        pick = random.Random(state["seed"])
        for d, (x, y, _) in state["grid"].items():
            lo = pick.randrange(x.shape[0] - BLOCK + 1)
            spot_check(q, tally, f"d={d} rows {lo}..", x[lo:lo + BLOCK], y[lo:lo + BLOCK],
                       thm1iii(q, d, BLOCK))
        # the translated draw is small enough to check whole, in every iteration
        naive = q.oracle.naive_q20(state["shifted"], state["eps_shifted"])
        ref = {"values": None, "q20_translated": (naive.raw_count, repr(naive.value))}
        if state["seed"] == DEFAULT_SEED:
            counts, values = {"q20_translated": naive.raw_count}, {}
            for d, (x, y, eps) in state["grid"].items():
                full = pieces(q, x, y, eps)
                counts.update(counts_of(full, f"_d{d}"))
                values[f"divergence_d{d}"] = repr(compose(full))
            ref["counts"], ref["values"] = counts, values
        return ref

    def iteration(self, q, state, workers=1):
        est = q.estimators
        start = perf_counter()
        values = {f"divergence_d{d}": repr(est.estimate_divergence(x, y, eps))
                  for d, (x, y, eps) in state["grid"].items()}
        shifted = est.estimate_q20(state["shifted"], state["eps_shifted"])
        elapsed = perf_counter() - start
        out = {"values": values, "q20_translated": (shifted.raw_count, repr(shifted.value))}
        return out, {"iter_s": elapsed, "estimate_s": elapsed}

    def check(self, ref, out, tally) -> None:
        if ref["values"] is None:
            ref["values"] = out["values"]
        for key, want in ref["values"].items():
            tally.expect(out["values"][key] == want, f"{key} {out['values'][key]} != {want}")
        tally.expect(out["q20_translated"] == ref["q20_translated"],
                     f"translated q20 (count, value) {out['q20_translated']} "
                     f"!= naive {ref['q20_translated']}")

    def observed(self, ref) -> dict:
        return {"counts": ref["counts"],
                "values": {**ref["values"], "q20_translated": ref["q20_translated"][1]}}


WORKLOADS = {w.name: w for w in (McFig1(), EstimateD1(), EstimateGrid())}
