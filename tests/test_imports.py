"""Import tests: what ``import qfest`` and each subcommand load, each in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfest

# The package's re-exports, by the submodule that defines each one.
PUBLIC = {
    "bandwidth": ["REGIMES", "EpsilonSchedule"],
    "core": ["as_points", "ball_volume", "count_close_between", "count_close_between_gap",
             "count_close_within", "count_close_within_gap", "iter_pairs_between_gap",
             "iter_pairs_within_gap", "unit_ball_volume"],
    "estimators": ["AsymptoticVariance", "EstimationError", "FunctionalEstimate",
                   "InsufficientDataError", "UndefinedEntropyError", "estimate_divergence",
                   "estimate_q11", "estimate_q11_incomplete", "estimate_q20",
                   "estimate_q20_incomplete", "estimate_renyi2", "log_gap", "sqrt_gap"],
    "montecarlo": ["CSV_HEADER", "EstimatorSpec", "ExperimentPlan", "GapRule", "McResult",
                   "McRow", "NmseCheck", "SlopeFit", "fit_loglog", "fit_slope",
                   "nmse_limit_check", "resolve_truth", "run", "write_csv", "write_plot_data"],
    "oracle": ["TruthReport", "UnsupportedProcessError", "adaptive_simpson",
               "epsilon_level_target", "naive_lag_counts", "naive_q11", "naive_q11_incomplete",
               "naive_q20", "naive_q20_incomplete", "sigma2_oracle", "true_q"],
    "processes": ["BernoulliShuffle", "ExponentialMarginal", "GaussianMA", "Iid", "MaxIid",
                  "MaxOfPairMarginal", "MinExp", "NormalMarginal", "ProductGauss",
                  "SeededStream", "UniformMarginal", "generate", "paired_generate"],
}
PUBLIC_NAMES = sorted([*PUBLIC, *(name for names in PUBLIC.values() for name in names)])

# The Monte Carlo harness, the oracle and the process pool the harness imports.
HARNESS = ("qfest.montecarlo", "qfest.oracle", "concurrent.futures")


def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter that imports this qfest; its last stdout line as JSON."""
    src = str(Path(qfest.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_submodule():
    loaded = _fresh("import json, sys, qfest\n"
                    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qfest.'))))")
    assert loaded == []


@pytest.mark.parametrize("command, loads_harness", [
    ("estimate", False), ("generate", False), ("simulate", True),
])
def test_only_the_harness_subcommands_load_it(tmp_path, command, loads_harness):
    sample = tmp_path / "x.csv"
    sample.write_text("0.0\n0.5\n0.25\n1.0\n")
    argv = {
        "estimate": ["estimate", str(sample), "--functional", "q20", "--epsilon", "0.3"],
        "generate": ["generate", "--process", "min-exp", "--n", "5",
                     "--out", str(tmp_path / "g.csv")],
        "simulate": ["simulate", "--preset", "smoke", "--out", str(tmp_path / "s.csv")],
    }[command]
    code = ("import json, sys\n"
            "from qfest.cli import main\n"
            "status = main(sys.argv[2:])\n"
            "print(json.dumps([status, [m for m in sys.argv[1].split(',') if m in sys.modules]]))")
    status, loaded = _fresh(code, ",".join([*HARNESS, "qfest.processes"]), *argv)
    assert status == 0
    # estimate reads its samples from files, so it never loads the process classes
    processes = [] if command == "estimate" else ["qfest.processes"]
    assert loaded == (list(HARNESS) if loads_harness else []) + processes


def test_every_export_is_the_submodule_object():
    # each name is read from the package before its submodule is imported
    code = ("import importlib, json, sys, qfest\n"
            "public = json.loads(sys.argv[1])\n"
            "same = {m: [getattr(qfest, n) is getattr(importlib.import_module('qfest.' + m), n)\n"
            "            for n in names] for m, names in public.items()}\n"
            "modules = [getattr(qfest, m) is sys.modules['qfest.' + m] for m in public]\n"
            "print(json.dumps([same, modules]))")
    same, modules = _fresh(code, json.dumps(PUBLIC))
    assert same == {module: [True] * len(names) for module, names in PUBLIC.items()}
    assert modules == [True] * len(PUBLIC)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'count_pairs'"):
        qfest.count_pairs
    with pytest.raises(ImportError):
        from qfest import cli_main  # noqa: F401


def test_dir_and_star_import_give_the_public_names():
    code = ("import json, qfest\n"
            "listed = [n for n in dir(qfest) if not n.startswith('_')]\n"
            "star = {}\n"
            "exec('from qfest import *', star)\n"
            "print(json.dumps([listed, sorted(n for n in star if n != '__builtins__')]))")
    listed, star = _fresh(code)
    assert listed == PUBLIC_NAMES
    assert star == PUBLIC_NAMES
