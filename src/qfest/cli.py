"""Command-line front end.

Subcommands::

    estimate   point estimates from CSV samples (one observation per line)
    generate   draw a process sample and write it as CSV
    truth      print the oracle's functional values for a process pair
    simulate   run a Monte Carlo experiment plan and write the summary CSV
    rates      fit log-log convergence slopes from a summary CSV

Every flag of a subcommand can also be supplied through ``--config FILE``
holding ``key=value`` lines (keys are the flag names with dashes replaced by
underscores); unknown keys are rejected.  A ``simulate --preset`` is a named
set of flag values, and a config file may name one too (``preset=fig1``).
Each option takes its value from the last of four layers that sets it:
defaults < preset < ``--config`` file < explicit flags.

Processes are selected by compact spec strings, e.g.
``gaussian-ma:taps=0.5|-0.5|0.5:shift=1``, ``min-exp:rate=0.3333:window=3``,
``product-gauss``, ``max-iid:lo=0:hi=1``, ``bernoulli-shuffle:mean=0:variance=1``,
``iid:base=exponential:rate=1``.

Only ``simulate``, ``rates`` and ``truth`` import the Monte Carlo harness and
the oracle, inside their handlers, so ``estimate`` and ``generate`` never load
them or the process pool.  The process classes are imported where a spec is
parsed or a sample generated, so ``estimate`` never loads them either.

Exit codes: 0 success, 2 input error, 3 computation error.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bandwidth import REGIMES, EpsilonSchedule
from .estimators import _PIECES, _VARIANTS, EstimationError, _single_value
from .estimators import count_pairs, estimate_piece


class _InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# Process spec strings
# ---------------------------------------------------------------------------


# Each process kind and marginal law a spec can name: the name of its class in
# ``qfest.processes``, and the converter of each of its fields.  A field the
# spec leaves out takes the class's own default.
_KINDS = {
    "gaussian-ma": ("GaussianMA", {"taps": lambda v: tuple(float(t) for t in v.split("|")),
                                  "shift": float}),
    "min-exp": ("MinExp", {"rate": float, "window": int}),
    "product-gauss": ("ProductGauss", {}),
}
_MARGINALS = {
    "normal": ("NormalMarginal", {"mean": float, "variance": float}),
    "exponential": ("ExponentialMarginal", {"rate": float}),
    "uniform": ("UniformMarginal", {"lo": float, "hi": float}),
}
# The kinds built on a marginal law, each with the law it takes; None means a
# ``base`` field names it, normal by default.
_BASED = {"max-iid": ("MaxIid", "uniform"),
          "bernoulli-shuffle": ("BernoulliShuffle", "normal"),
          "iid": ("Iid", None)}


def parse_process(text: str):
    """Build a process from a compact ``kind:key=value:...`` spec string.

    A field may appear once.  Every field is converted before an unknown field
    is reported, and an unknown field is reported before the process is built.
    """
    from . import processes

    kind, *parts = text.split(":")
    kind = kind.strip()
    fields: dict[str, str] = {}
    for part in parts:
        key, eq, value = (side.strip() for side in part.partition("="))
        if not eq or not key:
            raise _InputError(f"process spec field {part!r} is not key=value")
        if key in fields:
            raise _InputError(f"process spec {text!r} repeats field {key!r}")
        fields[key] = value
    if kind in _BASED:
        process, base = _BASED[kind]
        if base is None:
            base = fields.pop("base", "normal")
            if base not in _MARGINALS:
                raise _InputError(f"unknown base distribution {base!r}")
        law, converters = _MARGINALS[base]
    elif kind in _KINDS:
        law, (process, converters) = None, _KINDS[kind]
    else:
        raise _InputError(f"unknown process kind {kind!r}")
    try:
        args = {key: convert(fields.pop(key)) for key, convert in converters.items()
                if key in fields}
        if fields:
            raise _InputError(f"unknown {kind} parameters: {', '.join(sorted(fields))}")
        build = getattr(processes, process)
        return build(**args) if law is None else build(base=getattr(processes, law)(**args))
    except ValueError as exc:
        raise _InputError(f"bad process spec {text!r}: {exc}") from exc


def _parse_estimator_tokens(text: str, functional: str) -> tuple:
    from . import montecarlo

    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "complete":
            specs.append(montecarlo.EstimatorSpec(functional, "complete"))
            continue
        head, _, tail = (part.strip() for part in token.partition(":"))
        if head != "incomplete":
            raise _InputError(f"unknown estimator token {token!r}")
        if tail in ("", "log"):
            rule = montecarlo.GapRule.log()
        elif tail == "sqrt":
            rule = montecarlo.GapRule.sqrt()
        elif tail.startswith("fixed="):
            try:
                gap = int(tail.removeprefix("fixed="))
            except ValueError:
                raise _InputError(f"bad gap rule {tail!r} in {token!r}") from None
            rule = montecarlo.GapRule.fixed(gap)
        else:
            raise _InputError(f"unknown gap rule {tail!r} in {token!r}")
        specs.append(montecarlo.EstimatorSpec(functional, "incomplete", rule))
    if not specs:
        raise _InputError("estimator list is empty")
    return tuple(specs)


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


def _list_of(convert):
    def convert_list(text: str) -> tuple:
        return tuple(convert(tok) for tok in text.split(",") if tok.strip() != "")

    return convert_list


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
    # q02 is q20 of the second sample, listed right after it
    _Opt("functional", _choice(*dict.fromkeys(("q20", "q02", *_PIECES))),
         required=True, help="which functional to estimate"),
    _Opt("epsilon", float, required=True, help="close-pair radius (> 0)"),
    _Opt("variant", _choice(*_VARIANTS), default="complete"),
    _Opt("gap", int, help="index-separation gap for the incomplete variant "
                          "(default: floor(log n))"),
    _Opt("clamp", _to_bool, default=False, flag=True,
         help="floor a negative divergence estimate at zero"),
)

_GENERATE_OPTS = (
    _Opt("process", parse_process, required=True, help="process spec string"),
    _Opt("n", int, required=True, help="number of observations"),
    _Opt("seed", int, default=0),
    _Opt("stream", int, default=0, help="stream id for independent replications"),
    _Opt("out", str, required=True, help="output CSV path"),
)

_TRUTH_OPTS = (
    _Opt("process-x", parse_process, required=True, help="process spec string"),
    # an empty spec leaves the default, the first process
    _Opt("process-y", lambda text: parse_process(text) if text else None,
         help="second process spec (defaults to the first)"),
    _Opt("method", _choice("auto", "closed-form", "quadrature"), default="auto"),
)

# A preset is a named set of flag values, given as the strings a flag would hold.
_TAP = repr(1 / math.sqrt(3.0))
_FIG1 = {
    "process_x": f"gaussian-ma:taps={_TAP}|{_TAP}|{_TAP}",
    "process_y": "gaussian-ma:taps=0.5|-0.5|0.5:shift=1",
    "functional": "divergence",
    "estimators": "complete,incomplete:log",
    "c": "0.5,1,2",
}
_FIG2 = {"process_x": f"min-exp:rate={1 / 3!r}:window=3", "functional": "q20", "c": "0.5,1,2"}

_PRESETS = {
    "fig1": _FIG1,
    "fig2-left": {**_FIG2, "estimators": "incomplete:log"},
    "fig2-right": {**_FIG2, "estimators": "incomplete:sqrt"},
    "smoke": {**_FIG1, "c": "1", "n_grid": "100,200,400", "reps": "2"},
}

_SIMULATE_OPTS = (
    _Opt("preset", _choice(*_PRESETS), help="named reference experiment"),
    _Opt("process-x", parse_process, required=True, help="process spec string"),
    _Opt("process-y", parse_process, help="second process spec (two-sample functionals)"),
    _Opt("functional", _choice(*_PIECES), required=True),
    _Opt("estimators", str, default="complete",
         help="comma list of complete|incomplete[:log|:sqrt|:fixed=K]"),
    _Opt("schedule", _choice(*REGIMES), default="thm1iii"),
    _Opt("alpha", float, default=1.0, help="smoothness exponent of the schedule"),
    _Opt("c", _list_of(float), default=(1.0,),
         help="comma list of schedule constants; one output file per value"),
    _Opt("n-grid", _list_of(int), default=(100, 200, 400, 700, 1000)),
    _Opt("reps", int, default=1000),
    _Opt("seed", int, default=0),
    _Opt("truth", float, help="override the oracle truth (reference value)"),
    _Opt("label", str, help="process label for the CSV"),
    _Opt("out", str, required=True, help="output CSV path"),
    _Opt("plot-data", str, help="also write log-log plot data here"),
    _Opt("threads", int, default=1, help="worker processes"),
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
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise _InputError(f"{path}:{lineno}: config key {key!r} is repeated")
        values[key] = value
    return values


def _merge(ns: argparse.Namespace, opts: tuple[_Opt, ...]) -> dict:
    """Option values from four layers, each overriding the ones before it: the
    defaults, the ``--preset``, the ``--config`` file and the explicit flags.

    Every string is converted by its option's own converter as its layer is
    read, so a bad value is reported even where a later layer overrides it.
    """
    by_dest = {opt.dest: opt for opt in opts}

    def layer(values: dict, where: str) -> dict:
        converted = {}
        for key, raw in values.items():
            if key not in by_dest:  # only a config file can name one
                raise _InputError(f"unknown config key {key!r}")
            try:
                converted[key] = by_dest[key].convert(raw)
            except ValueError as exc:
                raise _InputError(f"{where.format(by_dest[key])}: {exc}") from exc
        return converted

    config = layer(_read_config(ns.config) if "config" in ns else {}, "config key {0.dest}")
    flags = layer({k: v for k, v in vars(ns).items() if k in by_dest}, "--{0.name}")
    preset = layer(_PRESETS.get(flags.get("preset", config.get("preset")), {}),
                   "preset key {0.dest}")
    merged = {**{opt.dest: opt.default for opt in opts}, **preset, **config, **flags}
    for opt in opts:
        if opt.required and merged[opt.dest] is None:
            raise _InputError(f"missing required option --{opt.name}")
    return merged


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
    merged = _merge(ns, _ESTIMATE_OPTS)
    paths = ns.inputs
    functional = merged["functional"]
    two_sample = "q11" in _PIECES.get(functional, ())
    if (two_sample or functional == "q02") and len(paths) != 2:
        raise _InputError(f"functional {functional} needs two input files")
    if len(paths) not in (1, 2):
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
    from .processes import SeededStream, generate

    merged = _merge(ns, _GENERATE_OPTS)
    stream = SeededStream(merged["seed"], merged["stream"])
    sample = generate(merged["process"], merged["n"], stream)
    _write_sample(sample, merged["out"])
    _print_kv("wrote", merged["out"])
    _print_kv("n", merged["n"])
    _print_kv("process", merged["process"].kind)
    return 0


def _cmd_truth(ns: argparse.Namespace) -> int:
    from . import oracle

    merged = _merge(ns, _TRUTH_OPTS)
    report = oracle.true_q(merged["process_x"], merged["process_y"], method=merged["method"])
    for key in ("q20", "q11", "q02", "divergence", "renyi2"):
        _print_kv(key, getattr(report, key))
    _print_kv("method", report.method)
    _print_kv("error_bound", report.error_bound)
    return 0


def _c_path(path: str, c: float, c_count: int) -> Path:
    """Where the output for schedule constant ``c`` goes, of ``c_count`` constants."""
    path = Path(path)
    return path if c_count == 1 else path.with_name(f"{path.stem}-c{c:g}{path.suffix}")


def _cmd_simulate(ns: argparse.Namespace) -> int:
    from . import montecarlo

    merged = _merge(ns, _SIMULATE_OPTS)
    estimators = _parse_estimator_tokens(merged["estimators"], merged["functional"])
    c_values = merged["c"]
    if not c_values:
        raise _InputError("--c lists no schedule constant")
    plans = {}  # every plan is built, and its outputs named and checked, before any runs
    for c in c_values:
        target = _c_path(merged["out"], c, len(c_values))
        if target in plans:
            raise _InputError(f"--c: two values would both write {target}")
        plot_base = merged["plot_data"] and _c_path(merged["plot_data"], c, len(c_values))
        for path in filter(None, (target, plot_base)):
            if path.is_dir() or not path.parent.is_dir():
                raise _InputError(f"cannot write {path}: it is a directory or its parent is not")
        # every built-in process is scalar, and the plan accepts d = 1 only
        schedule = EpsilonSchedule(regime=merged["schedule"], d=1, alpha=merged["alpha"], c=c)
        plans[target] = plot_base, montecarlo.ExperimentPlan(
            process_x=merged["process_x"],
            process_y=merged["process_y"],
            estimators=estimators,
            schedule=schedule,
            ns=merged["n_grid"],
            reps=merged["reps"],
            seed=merged["seed"],
            truth_override=merged["truth"],
            label=merged["label"],
        )
    for target, (plot_base, plan) in plans.items():
        result = montecarlo.run(plan, workers=merged["threads"])
        montecarlo.write_csv(result, target)
        _print_kv("wrote", target)
        if plot_base:
            for written in montecarlo.write_plot_data(result, plot_base):
                _print_kv("wrote", written)
    return 0


def _cmd_rates(ns: argparse.Namespace) -> int:
    from . import montecarlo

    merged = _merge(ns, _RATES_OPTS)
    try:
        rows = montecarlo.read_csv_rows(ns.csv)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot read {ns.csv}: {exc}") from exc
    if not rows:
        raise _InputError(f"{ns.csv}: no data rows")
    expected = merged["expected_slope"]
    for label in dict.fromkeys(row["estimator"] for row in rows):
        sub = [r for r in rows if r["estimator"] == label]
        try:
            fit = montecarlo.fit_loglog([r["n"] for r in sub], [r["mse"] for r in sub])
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
    p_est.set_defaults(handler=_cmd_estimate)

    p_gen = sub.add_parser("generate", help="generate a process sample as CSV")
    _add_options(p_gen, _GENERATE_OPTS)
    p_gen.set_defaults(handler=_cmd_generate)

    p_truth = sub.add_parser("truth", help="print oracle functional values")
    _add_options(p_truth, _TRUTH_OPTS)
    p_truth.set_defaults(handler=_cmd_truth)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment plan")
    _add_options(p_sim, _SIMULATE_OPTS)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_rates = sub.add_parser("rates", help="fit log-log slopes from a summary CSV")
    p_rates.add_argument("csv", help="summary CSV produced by simulate")
    _add_options(p_rates, _RATES_OPTS)
    p_rates.set_defaults(handler=_cmd_rates)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        try:
            ns = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else 0
        return ns.handler(ns)
    # an unwritable output path is an input error; its message names the path
    except (_InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
