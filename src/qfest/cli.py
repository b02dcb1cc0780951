"""Command-line front end.

Subcommands::

    estimate   point estimates from CSV samples (one observation per line)
    generate   draw a process sample and write it as CSV
    truth      print the oracle's functional values for a process pair
    simulate   run a Monte Carlo experiment plan and write the summary CSV
    rates      fit log-log convergence slopes from a summary CSV

Every flag of a subcommand can also be supplied through ``--config FILE``
holding ``key=value`` lines (keys are the flag names with dashes replaced by
underscores); explicit flags override file values, unknown keys are rejected.

Processes are selected by compact spec strings, e.g.
``gaussian-ma:taps=0.5|-0.5|0.5:shift=1``, ``min-exp:rate=0.3333:window=3``,
``product-gauss``, ``max-iid:lo=0:hi=1``, ``bernoulli-shuffle:mean=0:variance=1``,
``iid:base=exponential:rate=1``.

The ``QFEST_THREADS`` environment variable caps ``--threads``.
Exit codes: 0 success, 2 input error, 3 computation error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bandwidth import REGIMES, EpsilonSchedule
from .estimators import EstimationError, _single_value, count_pairs, estimate_piece
from .montecarlo import (
    EstimatorSpec,
    ExperimentPlan,
    GapRule,
    fit_loglog,
    read_csv_rows,
    run,
    write_csv,
    write_plot_data,
)
from .oracle import true_q
from .processes import (
    BernoulliShuffle,
    ExponentialMarginal,
    GaussianMA,
    Iid,
    MaxIid,
    MinExp,
    NormalMarginal,
    ProductGauss,
    SeededStream,
    UniformMarginal,
    generate,
)


class _InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# Option tables (shared by argparse and the key=value config files)
# ---------------------------------------------------------------------------


def _to_bool(text: str) -> bool:
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


def _to_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip() != "")


def _to_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in str(text).split(",") if tok.strip() != "")


def _choice(*allowed):
    def convert(text: str):
        if text not in allowed:
            raise ValueError(f"must be one of {', '.join(allowed)}; got {text!r}")
        return text

    return convert


@dataclass(frozen=True)
class _Opt:
    name: str
    convert: object = str
    default: object = None
    required: bool = False
    flag: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


_ESTIMATE_OPTS = (
    _Opt("functional", _choice("q20", "q02", "q11", "divergence", "renyi2"),
         required=True, help="which functional to estimate"),
    _Opt("epsilon", float, required=True, help="close-pair radius (> 0)"),
    _Opt("variant", _choice("complete", "incomplete"), default="complete"),
    _Opt("gap", int, help="index-separation gap for the incomplete variant "
                          "(default: floor(log n))"),
    _Opt("clamp", _to_bool, default=False, flag=True,
         help="floor a negative divergence estimate at zero"),
)

_GENERATE_OPTS = (
    _Opt("process", str, required=True, help="process spec string"),
    _Opt("n", int, required=True, help="number of observations"),
    _Opt("seed", int, default=0),
    _Opt("stream", int, default=0, help="stream id for independent replications"),
    _Opt("out", str, required=True, help="output CSV path"),
)

_TRUTH_OPTS = (
    _Opt("process-x", str, required=True, help="process spec string"),
    _Opt("process-y", str, help="second process spec (defaults to the first)"),
    _Opt("method", _choice("auto", "closed-form", "quadrature"), default="auto"),
)

_SIMULATE_OPTS = (
    _Opt("preset", _choice("fig1", "fig2-left", "fig2-right", "smoke"),
         help="named reference experiment"),
    _Opt("process-x", str, help="process spec string"),
    _Opt("process-y", str, help="second process spec (two-sample functionals)"),
    _Opt("functional", _choice("q20", "q11", "divergence", "renyi2")),
    _Opt("estimators", str, default="complete",
         help="comma list of complete|incomplete[:log|:sqrt|:fixed=K]"),
    _Opt("schedule", _choice(*REGIMES), default="thm1iii"),
    _Opt("alpha", float, default=1.0, help="smoothness exponent of the schedule"),
    _Opt("c", _to_float_list, default=(1.0,),
         help="comma list of schedule constants; one output file per value"),
    _Opt("d", int, default=1, help="dimension used by the schedule"),
    _Opt("holder-k", float, default=1.0, help="recorded smoothness constant"),
    _Opt("n-grid", _to_int_list, default=(100, 200, 400, 700, 1000)),
    _Opt("reps", int, default=1000),
    _Opt("seed", int, default=0),
    _Opt("truth", float, help="override the oracle truth (reference value)"),
    _Opt("label", str, help="process label for the CSV"),
    _Opt("out", str, required=True, help="output CSV path"),
    _Opt("plot-data", str, help="also write log-log plot data here"),
    _Opt("threads", int, default=1, help="worker processes (capped by QFEST_THREADS)"),
)

_RATES_OPTS = (
    _Opt("expected-slope", float, help="check the fitted slope against this value"),
    _Opt("band", float, default=0.25, help="half-width of the slope acceptance band"),
)


def _add_options(parser: argparse.ArgumentParser, opts: tuple[_Opt, ...]) -> None:
    parser.add_argument("--config", default=argparse.SUPPRESS,
                        help="key=value file mirroring the flags")
    for opt in opts:
        if opt.flag:
            parser.add_argument(f"--{opt.name}", dest=opt.dest, action="store_true",
                                default=argparse.SUPPRESS, help=opt.help)
        else:
            parser.add_argument(f"--{opt.name}", dest=opt.dest, type=str,
                                default=argparse.SUPPRESS, help=opt.help)


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise _InputError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _InputError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _merge(ns: argparse.Namespace, opts: tuple[_Opt, ...]) -> tuple[dict, set[str]]:
    """Defaults, overlaid by config-file values, overlaid by explicit flags.

    Returns the merged values and the set of keys the user actually supplied
    (by flag or config file), so presets can fill in only the rest.
    """
    by_dest = {opt.dest: opt for opt in opts}
    merged = {opt.dest: opt.default for opt in opts}
    provided: set[str] = set()
    given = dict(vars(ns))
    given.pop("command", None)
    for positional in ("inputs", "csv"):
        given.pop(positional, None)
    config_path = given.pop("config", None)
    if config_path is not None:
        for key, raw in _read_config(config_path).items():
            if key not in by_dest:
                raise _InputError(f"unknown config key {key!r}")
            try:
                merged[key] = by_dest[key].convert(raw)
            except ValueError as exc:
                raise _InputError(f"config key {key}: {exc}") from exc
            provided.add(key)
    for dest, raw in given.items():
        opt = by_dest[dest]
        if opt.flag:
            merged[dest] = bool(raw)
        else:
            try:
                merged[dest] = opt.convert(raw)
            except ValueError as exc:
                raise _InputError(f"--{opt.name}: {exc}") from exc
        provided.add(dest)
    for opt in opts:
        if opt.required and merged[opt.dest] is None:
            raise _InputError(f"missing required option --{opt.name}")
    return merged, provided


# ---------------------------------------------------------------------------
# Process spec strings
# ---------------------------------------------------------------------------


def _spec_fields(text: str) -> tuple[str, dict[str, str]]:
    parts = text.split(":")
    fields: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise _InputError(f"process spec field {part!r} is not key=value")
        key, value = part.split("=", 1)
        fields[key] = value
    return parts[0], fields


def _no_extra(kind: str, fields: dict) -> None:
    if fields:
        raise _InputError(f"unknown {kind} parameters: {', '.join(sorted(fields))}")


def _base_marginal(fields: dict[str, str]):
    base = fields.pop("base", "normal")
    if base == "normal":
        return NormalMarginal(float(fields.pop("mean", 0.0)),
                              float(fields.pop("variance", 1.0)))
    if base == "exponential":
        return ExponentialMarginal(float(fields.pop("rate", 1.0)))
    if base == "uniform":
        return UniformMarginal(float(fields.pop("lo", 0.0)), float(fields.pop("hi", 1.0)))
    raise _InputError(f"unknown base distribution {base!r}")


def parse_process(text: str):
    """Build a process from a compact ``kind:key=value:...`` spec string."""
    kind, fields = _spec_fields(text)
    try:
        if kind == "gaussian-ma":
            taps = tuple(float(t) for t in fields.pop("taps", "1").split("|"))
            shift = float(fields.pop("shift", 0.0))
            _no_extra(kind, fields)
            return GaussianMA(taps=taps, shift=shift)
        if kind == "min-exp":
            rate = float(fields.pop("rate", 1.0 / 3.0))
            window = int(fields.pop("window", 3))
            _no_extra(kind, fields)
            return MinExp(rate=rate, window=window)
        if kind == "product-gauss":
            _no_extra(kind, fields)
            return ProductGauss()
        if kind == "max-iid":
            lo = float(fields.pop("lo", 0.0))
            hi = float(fields.pop("hi", 1.0))
            _no_extra(kind, fields)
            return MaxIid(base=UniformMarginal(lo, hi))
        if kind == "bernoulli-shuffle":
            mean = float(fields.pop("mean", 0.0))
            variance = float(fields.pop("variance", 1.0))
            _no_extra(kind, fields)
            return BernoulliShuffle(base=NormalMarginal(mean, variance))
        if kind == "iid":
            base = _base_marginal(fields)
            _no_extra(kind, fields)
            return Iid(base=base)
    except ValueError as exc:
        raise _InputError(f"bad process spec {text!r}: {exc}") from exc
    raise _InputError(f"unknown process kind {kind!r}")


def _parse_estimator_tokens(text: str, functional: str) -> tuple[EstimatorSpec, ...]:
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "complete":
            specs.append(EstimatorSpec(functional, "complete"))
            continue
        head, _, tail = token.partition(":")
        if head != "incomplete":
            raise _InputError(f"unknown estimator token {token!r}")
        if tail in ("", "log"):
            rule = GapRule.log()
        elif tail == "sqrt":
            rule = GapRule.sqrt()
        elif tail.startswith("fixed="):
            rule = GapRule.fixed(int(tail.removeprefix("fixed=")))
        else:
            raise _InputError(f"unknown gap rule {tail!r} in {token!r}")
        specs.append(EstimatorSpec(functional, "incomplete", rule))
    if not specs:
        raise _InputError("estimator list is empty")
    return tuple(specs)


# ---------------------------------------------------------------------------
# Sample CSV I/O
# ---------------------------------------------------------------------------


def _read_sample(path: str) -> np.ndarray:
    # utf-8-sig drops the byte-order mark that spreadsheet programs write
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, as "no observations found"
            warnings.simplefilter("ignore", UserWarning)
            sample = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8-sig")
    except (OSError, ValueError):
        # the line parser reports the error with its line, or accepts what
        # float() takes and loadtxt does not (such as "1_5" or blank lines)
        sample = _read_sample_lines(path)
    if sample.size == 0:
        raise _InputError(f"{path}: no observations found")
    if not np.isfinite(sample).all():
        raise _InputError(f"{path}: sample contains non-finite coordinates")
    return sample


def _read_sample_lines(path: str) -> np.ndarray:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise _InputError(f"cannot read sample file {path}: {exc}") from exc
    rows: list[list[float]] = []
    width = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError:
            raise _InputError(f"{path}:{lineno}: cannot parse coordinates {line!r}") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise _InputError(
                f"{path}:{lineno}: expected {width} coordinates, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise _InputError(f"{path}: no observations found")
    return np.asarray(rows, dtype=float)


def _write_sample(sample: np.ndarray, path: str) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in sample]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _print_kv(key: str, value) -> None:
    if isinstance(value, float):
        print(f"{key}={value!r}")
    else:
        print(f"{key}={value}")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_estimate(ns: argparse.Namespace) -> int:
    merged, _ = _merge(ns, _ESTIMATE_OPTS)
    paths = ns.inputs
    functional = merged["functional"]
    two_sample = functional in ("q11", "divergence")
    if two_sample and len(paths) != 2:
        raise _InputError(f"functional {functional} needs two input files")
    if not two_sample and len(paths) not in (1, 2):
        raise _InputError("expected one or two input files")
    samples = [_read_sample(p) for p in paths]
    variant = merged["variant"]
    kind = "q20" if functional == "q02" else functional  # q02 is q20 of the second sample
    x = samples[-1] if functional == "q02" else samples[0]
    y = samples[1] if two_sample else None
    counts = count_pairs(kind, x, y, merged["epsilon"], variant, merged["gap"])
    gap = counts.max_gap
    _print_kv("value", _single_value(counts, kind, gap, merged["clamp"]))
    if kind == "divergence":
        for piece in ("q20", "q11", "q02"):
            _print_kv(piece, estimate_piece(counts, piece, gap).value)
    else:
        est = estimate_piece(counts, "q11" if kind == "q11" else "q20", gap)
        if kind == "renyi2":
            _print_kv("q20", est.value)
        _print_kv("raw_count", est.raw_count)
        _print_kv("normalizer", est.normalizer)
    _print_kv("functional", functional)
    _print_kv("variant", variant)
    _print_kv("gap", "" if gap is None else gap)
    _print_kv("epsilon", counts.epsilon)
    _print_kv("n", counts.n)
    _print_kv("d", counts.d)
    return 0


def _cmd_generate(ns: argparse.Namespace) -> int:
    merged, _ = _merge(ns, _GENERATE_OPTS)
    process = parse_process(merged["process"])
    stream = SeededStream(merged["seed"], merged["stream"])
    sample = generate(process, merged["n"], stream)
    _write_sample(sample, merged["out"])
    _print_kv("wrote", merged["out"])
    _print_kv("n", merged["n"])
    _print_kv("process", process.kind)
    return 0


def _cmd_truth(ns: argparse.Namespace) -> int:
    merged, _ = _merge(ns, _TRUTH_OPTS)
    spec_x = parse_process(merged["process_x"])
    spec_y = parse_process(merged["process_y"]) if merged["process_y"] else None
    report = true_q(spec_x, spec_y, method=merged["method"])
    for key in ("q20", "q11", "q02", "divergence", "renyi2"):
        _print_kv(key, getattr(report, key))
    _print_kv("method", report.method)
    _print_kv("error_bound", report.error_bound)
    return 0


_SQRT3 = math.sqrt(3.0)

_PRESETS = {
    "fig1": {
        "process_x": GaussianMA(taps=(1 / _SQRT3, 1 / _SQRT3, 1 / _SQRT3)),
        "process_y": GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0),
        "functional": "divergence",
        "estimators": "complete,incomplete:log",
        "c": (0.5, 1.0, 2.0),
    },
    "fig2-left": {
        "process_x": MinExp(rate=1.0 / 3.0, window=3),
        "functional": "q20",
        "estimators": "incomplete:log",
        "c": (0.5, 1.0, 2.0),
    },
    "fig2-right": {
        "process_x": MinExp(rate=1.0 / 3.0, window=3),
        "functional": "q20",
        "estimators": "incomplete:sqrt",
        "c": (0.5, 1.0, 2.0),
    },
    "smoke": {
        "process_x": GaussianMA(taps=(1 / _SQRT3, 1 / _SQRT3, 1 / _SQRT3)),
        "process_y": GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0),
        "functional": "divergence",
        "estimators": "complete,incomplete:log",
        "c": (1.0,),
        "n_grid": (100, 200, 400),
        "reps": 2,
    },
}


def _effective_workers(requested: int) -> int:
    cap = os.environ.get("QFEST_THREADS")
    if cap is None:
        return max(1, requested)
    try:
        cap_value = int(cap)
    except ValueError:
        raise _InputError(f"QFEST_THREADS must be an integer, got {cap!r}") from None
    return max(1, min(requested, cap_value))


def _cmd_simulate(ns: argparse.Namespace) -> int:
    merged, provided = _merge(ns, _SIMULATE_OPTS)
    if merged["preset"] is not None:
        for key, value in _PRESETS[merged["preset"]].items():
            if key not in provided:
                merged[key] = value
    for key in ("process_x", "functional"):
        if merged[key] is None:
            raise _InputError(f"missing --{key.replace('_', '-')} (or a --preset)")
    process_x = merged["process_x"]
    if isinstance(process_x, str):
        process_x = parse_process(process_x)
    process_y = merged["process_y"]
    if isinstance(process_y, str):
        process_y = parse_process(process_y)
    estimators = _parse_estimator_tokens(merged["estimators"], merged["functional"])
    out = Path(merged["out"])
    workers = _effective_workers(merged["threads"])
    c_values = merged["c"]
    for c in c_values:
        schedule = EpsilonSchedule(
            regime=merged["schedule"], d=merged["d"], alpha=merged["alpha"],
            c=c, holder_K=merged["holder_k"],
        )
        plan = ExperimentPlan(
            process_x=process_x,
            process_y=process_y,
            estimators=estimators,
            schedule=schedule,
            ns=merged["n_grid"],
            reps=merged["reps"],
            seed=merged["seed"],
            truth_override=merged["truth"],
            label=merged["label"],
        )
        result = run(plan, workers=workers)
        target = out if len(c_values) == 1 else out.with_name(
            f"{out.stem}-c{c:g}{out.suffix}"
        )
        write_csv(result, target)
        _print_kv("wrote", target)
        if merged["plot_data"]:
            plot_base = Path(merged["plot_data"])
            if len(c_values) > 1:
                plot_base = plot_base.with_name(f"{plot_base.stem}-c{c:g}{plot_base.suffix}")
            for written in write_plot_data(result, plot_base):
                _print_kv("wrote", written)
    return 0


def _cmd_rates(ns: argparse.Namespace) -> int:
    merged, _ = _merge(ns, _RATES_OPTS)
    try:
        rows = read_csv_rows(ns.csv)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot read {ns.csv}: {exc}") from exc
    if not rows:
        raise _InputError(f"{ns.csv}: no data rows")
    labels: list[str] = []
    for row in rows:
        if row["estimator"] not in labels:
            labels.append(row["estimator"])
    expected = merged["expected_slope"]
    for label in labels:
        sub = [r for r in rows if r["estimator"] == label]
        try:
            fit = fit_loglog([r["n"] for r in sub], [r["mse"] for r in sub], label)
        except ValueError as exc:
            raise _InputError(str(exc)) from exc
        _print_kv("estimator", label)
        _print_kv("slope", fit.slope)
        _print_kv("intercept", fit.intercept)
        _print_kv("residual_rms", fit.residual_rms)
        _print_kv("n_range", f"{fit.n_range[0]}..{fit.n_range[1]}")
        if expected is not None:
            within = abs(fit.slope - expected) <= merged["band"]
            _print_kv("expected_slope", float(expected))
            _print_kv("within_band", str(within).lower())
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfest",
        description="Quadratic density functional estimation from close-pair counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate a functional from CSV samples")
    p_est.add_argument("inputs", nargs="+", help="sample CSV path(s)")
    _add_options(p_est, _ESTIMATE_OPTS)

    p_gen = sub.add_parser("generate", help="generate a process sample as CSV")
    _add_options(p_gen, _GENERATE_OPTS)

    p_truth = sub.add_parser("truth", help="print oracle functional values")
    _add_options(p_truth, _TRUTH_OPTS)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment plan")
    _add_options(p_sim, _SIMULATE_OPTS)

    p_rates = sub.add_parser("rates", help="fit log-log slopes from a summary CSV")
    p_rates.add_argument("csv", help="summary CSV produced by simulate")
    _add_options(p_rates, _RATES_OPTS)
    return parser


_HANDLERS = {
    "estimate": _cmd_estimate,
    "generate": _cmd_generate,
    "truth": _cmd_truth,
    "simulate": _cmd_simulate,
    "rates": _cmd_rates,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
        return _HANDLERS[ns.command](ns)
    except (_InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
