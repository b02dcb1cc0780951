"""Quadratic density functional estimation from close-pair counts.

Estimates the integrals q_kl = integral p_X**k * p_Y**l (k + l = 2) from
samples of stationary sequences with finite dependence range, using complete
and gap-restricted (incomplete) close-pair statistics, and derives plug-in
divergence and quadratic-entropy estimates.  A Monte Carlo harness verifies
the mean-square convergence rates against independent oracles.
"""

from .bandwidth import REGIMES, EpsilonSchedule
from .core import (
    as_points,
    ball_volume,
    count_close_between,
    count_close_between_gap,
    count_close_within,
    count_close_within_gap,
    iter_pairs_between_gap,
    iter_pairs_within_gap,
    unit_ball_volume,
)
from .estimators import (
    AsymptoticVariance,
    EstimationError,
    FunctionalEstimate,
    InsufficientDataError,
    UndefinedEntropyError,
    estimate_divergence,
    estimate_q11,
    estimate_q11_incomplete,
    estimate_q20,
    estimate_q20_incomplete,
    estimate_renyi2,
    log_gap,
    sqrt_gap,
)
from .montecarlo import (
    CSV_HEADER,
    EstimatorSpec,
    ExperimentPlan,
    GapRule,
    McResult,
    McRow,
    NmseCheck,
    SlopeFit,
    fit_loglog,
    fit_slope,
    nmse_limit_check,
    resolve_truth,
    run,
    write_csv,
    write_plot_data,
)
from .oracle import (
    TruthReport,
    UnsupportedProcessError,
    adaptive_simpson,
    epsilon_level_target,
    naive_lag_counts,
    naive_q11,
    naive_q11_incomplete,
    naive_q20,
    naive_q20_incomplete,
    sigma2_oracle,
    true_q,
)
from .processes import (
    BernoulliShuffle,
    ExponentialMarginal,
    GaussianMA,
    Iid,
    MaxIid,
    MaxOfPairMarginal,
    MinExp,
    NormalMarginal,
    ProductGauss,
    SeededStream,
    UniformMarginal,
    generate,
    paired_generate,
)

__version__ = "0.1.0"
