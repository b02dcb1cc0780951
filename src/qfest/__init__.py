"""Quadratic density functional estimation from close-pair counts.

Estimates the integrals q_kl = integral p_X**k * p_Y**l (k + l = 2) from
samples of stationary sequences with finite dependence range, using complete
and gap-restricted (incomplete) close-pair statistics, and derives plug-in
divergence and quadratic-entropy estimates.  A Monte Carlo harness verifies
the mean-square convergence rates against independent oracles.

Importing the package loads none of its modules: each submodule, and each
name the package re-exports from one, is imported on first use (PEP 562).  So
``qfest.estimate_divergence`` loads the counting modules, but not the Monte
Carlo harness (``montecarlo``) or the oracle (``oracle``).
"""

from importlib import import_module as _import_module

# Each submodule and the names the package re-exports from it.
_EXPORTS = {
    "bandwidth": ("REGIMES", "EpsilonSchedule"),
    "core": (
        "as_points",
        "ball_volume",
        "count_close_between",
        "count_close_between_gap",
        "count_close_within",
        "count_close_within_gap",
        "iter_pairs_between_gap",
        "iter_pairs_within_gap",
        "unit_ball_volume",
    ),
    "estimators": (
        "AsymptoticVariance",
        "EstimationError",
        "FunctionalEstimate",
        "InsufficientDataError",
        "UndefinedEntropyError",
        "estimate_divergence",
        "estimate_q11",
        "estimate_q11_incomplete",
        "estimate_q20",
        "estimate_q20_incomplete",
        "estimate_renyi2",
        "log_gap",
        "sqrt_gap",
    ),
    "montecarlo": (
        "CSV_HEADER",
        "EstimatorSpec",
        "ExperimentPlan",
        "GapRule",
        "McResult",
        "McRow",
        "NmseCheck",
        "SlopeFit",
        "fit_loglog",
        "fit_slope",
        "nmse_limit_check",
        "resolve_truth",
        "run",
        "write_csv",
        "write_plot_data",
    ),
    "oracle": (
        "TruthReport",
        "UnsupportedProcessError",
        "adaptive_simpson",
        "epsilon_level_target",
        "naive_lag_counts",
        "naive_q11",
        "naive_q11_incomplete",
        "naive_q20",
        "naive_q20_incomplete",
        "sigma2_oracle",
        "true_q",
    ),
    "processes": (
        "BernoulliShuffle",
        "ExponentialMarginal",
        "GaussianMA",
        "Iid",
        "MaxIid",
        "MaxOfPairMarginal",
        "MinExp",
        "NormalMarginal",
        "ProductGauss",
        "SeededStream",
        "UniformMarginal",
        "generate",
        "paired_generate",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_ORIGIN]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
