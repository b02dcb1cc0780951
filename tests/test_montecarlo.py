"""Harness tests: determinism, error decomposition, slope fits, CSV schema."""

import inspect
import math
import re
import tracemalloc
import warnings
from concurrent.futures import Future
from dataclasses import fields, replace

import numpy as np
import pytest

from qfest import core
from qfest import montecarlo as mc
from qfest.bandwidth import EpsilonSchedule
from qfest.cli import main as cli_main
from qfest.estimators import (
    AsymptoticVariance,
    EstimationError,
    estimate_divergence,
    estimate_q11,
    estimate_q11_incomplete,
    estimate_q20,
    estimate_q20_incomplete,
    estimate_renyi2,
    log_gap,
)
from qfest.montecarlo import (
    CSV_HEADER,
    EstimatorSpec,
    ExperimentPlan,
    GapRule,
    McResult,
    McRow,
    SlopeFit,
    csv_text,
    fit_loglog,
    fit_slope,
    nmse_limit_check,
    plot_data_text,
    read_csv_rows,
    resolve_truth,
    run,
    write_csv,
)
from qfest.processes import (
    BernoulliShuffle,
    GaussianMA,
    Iid,
    MaxIid,
    MinExp,
    NormalMarginal,
    ProductGauss,
    SeededStream,
    UniformMarginal,
    generate,
    paired_generate,
)

SQ3 = math.sqrt(3.0)
T1REG = EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=1.0)


def _iid_q20_plan(**kw):
    args = dict(
        process_x=Iid(NormalMarginal(0.0, 1.0)),
        estimators=(EstimatorSpec("q20"),),
        schedule=T1REG,
        ns=(50, 100, 200),
        reps=60,
        seed=7,
    )
    args.update(kw)
    return ExperimentPlan(**args)


class TestPlanValidation:
    def test_gap_at_is_none_for_a_complete_spec(self):
        assert EstimatorSpec("q20").gap_at(100) is None
        assert EstimatorSpec("q20", "incomplete").gap_at(100) == log_gap(100) == 4
        assert EstimatorSpec("q11", "incomplete", GapRule.fixed(3)).gap_at(100) == 3

    def test_accepts_reasonable_plan(self):
        plan = _iid_q20_plan()
        assert plan.functional == "q20"
        assert plan.process_label == "iid"

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            _iid_q20_plan(ns=(100, 50))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            _iid_q20_plan(ns=(5, 50))

    def test_rejects_single_rep(self):
        with pytest.raises(ValueError):
            _iid_q20_plan(reps=1)

    @pytest.mark.parametrize(
        "field,value,name",
        [("ns", (20.7, 40), "grid n"), ("seed", 1.5, "seed"), ("reps", 4.5, "reps"),
         ("reps", math.inf, "reps"), ("seed", math.nan, "seed")],
    )
    def test_rejects_a_fractional_count(self, field, value, name):
        # a fractional n or seed once ran truncated, and the CSV named the
        # seed it was given, not the one drawn with
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            _iid_q20_plan(**{field: value})

    def test_integral_counts_are_stored_as_ints(self):
        plan = _iid_q20_plan(ns=(50.0, 100.0, 200.0), reps=4.0, seed=7.0)
        assert (plan.ns, plan.reps, plan.seed) == ((50, 100, 200), 4, 7)
        assert all(type(v) is int for v in (*plan.ns, plan.reps, plan.seed))

    def test_rejects_mixed_functionals(self):
        with pytest.raises(ValueError):
            _iid_q20_plan(
                estimators=(EstimatorSpec("q20"), EstimatorSpec("renyi2")),
            )

    def test_two_sample_needs_process_y(self):
        with pytest.raises(ValueError):
            _iid_q20_plan(estimators=(EstimatorSpec("divergence"),))

    def test_gap_rule_must_fit_grid(self):
        with pytest.raises(ValueError):
            _iid_q20_plan(
                ns=(10, 50),
                estimators=(
                    EstimatorSpec("q20", "incomplete", GapRule.fixed(9)),
                ),
            )

    @pytest.mark.parametrize("make", [GapRule.fixed, lambda gap: GapRule("fixed", gap)],
                             ids=["fixed", "constructor"])
    def test_fractional_fixed_gap_rejected(self, make):
        with pytest.raises(ValueError, match="gap must be an integer, got 2.5"):
            make(2.5)
        assert make(3.0) == GapRule.fixed(3) and make(3.0).label == "fixed3"

    @pytest.mark.parametrize("spec", [EstimatorSpec("q20"), EstimatorSpec("q20", "incomplete")],
                             ids=["complete", "incomplete"])
    def test_radius_beyond_the_float_range_is_rejected_at_any_grid_point(self, spec):
        # the normalizers at n = 100 and 200 are finite; the one at n = 400 is not
        schedule = EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=1e305)
        with pytest.raises(ValueError, match="^normalizer at d=1, epsilon=1.49786"):
            _iid_q20_plan(schedule=schedule, ns=(100, 200, 400), estimators=(spec,))
        _iid_q20_plan(schedule=schedule, ns=(100, 200), estimators=(spec,))

    def test_schedule_dimension_must_match_the_process(self):
        # every built-in process is scalar; a d = 3 schedule would use the
        # d = 3 radius rule on 1-D draws
        schedule = EpsilonSchedule("thm1iii", d=3, alpha=1.0, c=1.0)
        with pytest.raises(ValueError, match="d=3 .*d=1"):
            _iid_q20_plan(schedule=schedule)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            _iid_q20_plan(
                estimators=(EstimatorSpec("q20"), EstimatorSpec("q20")),
            )

    def test_labels(self):
        assert EstimatorSpec("q20").label == "q20-complete"
        assert EstimatorSpec("q20", "incomplete").label == "q20-incomplete-log"
        assert (
            EstimatorSpec("divergence", "incomplete", GapRule.sqrt()).label
            == "divergence-incomplete-sqrt"
        )
        assert (
            EstimatorSpec("q20", "incomplete", GapRule.fixed(4)).label
            == "q20-incomplete-fixed4"
        )


class TestTruth:
    def test_override_wins(self):
        assert resolve_truth(_iid_q20_plan(truth_override=0.125)) == 0.125

    def test_oracle_truth_for_pair(self):
        plan = ExperimentPlan(
            process_x=GaussianMA(taps=(1 / SQ3,) * 3),
            process_y=GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0),
            estimators=(EstimatorSpec("divergence"),),
            schedule=T1REG,
            ns=(100, 200, 400),
            reps=10,
            seed=1,
        )
        assert resolve_truth(plan) == pytest.approx(0.15458075288363582, rel=1e-12)


class TestRun:
    def test_degenerate_constant_estimator(self):
        # radius so large every pair is close: the estimate is 1/ball_volume,
        # constant over replications, so the variance term vanishes exactly
        plan = _iid_q20_plan(
            process_x=Iid(UniformMarginal(0.0, 1.0)),
            schedule=EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=1e6),
            ns=(10, 20, 40),
            reps=25,
        )
        result = run(plan)
        for row in result.rows:
            # the mean of identical values can differ from them by one ulp,
            # so "zero" variance means zero at the rounding floor
            assert row.variance <= 1e-30 * row.mse
            assert row.mse == pytest.approx(row.bias2, rel=1e-12)
            assert row.failures == 0

    def test_rows_decompose_mse(self):
        result = run(_iid_q20_plan())
        for row in result.rows:
            assert row.mse == pytest.approx(row.bias2 + row.variance, rel=1e-12)
            assert row.se_mse > 0.0
            assert row.reps == 60

    def test_bit_identical_across_runs_and_workers(self):
        plan = _iid_q20_plan(reps=40)
        text_a = csv_text(run(plan, workers=1))
        text_b = csv_text(run(plan, workers=1))
        text_c = csv_text(run(plan, workers=2))
        assert text_a == text_b == text_c

    @pytest.mark.parametrize("workers,pool_size", [(2, 2), (500, 3)])
    def test_pool_has_at_most_one_worker_per_chunk(self, monkeypatch, workers, pool_size):
        # a fork pool starts all its workers at once; a pool that runs each
        # chunk in this process records the size it was asked for
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        plan = _iid_q20_plan(reps=40)  # one chunk per n
        single = _iid_q20_plan(ns=(50,), reps=40)
        want = [csv_text(run(p, workers=1)) for p in (plan, single)]
        monkeypatch.setattr(mc, "ProcessPoolExecutor", InlinePool)
        assert csv_text(run(plan, workers=workers)) == want[0]
        assert sizes == [pool_size]
        # a single chunk runs in this process, without a pool
        assert csv_text(run(single, workers=workers)) == want[1]
        assert sizes == [pool_size]

    def test_shared_draws_across_estimators(self):
        # complete and incomplete variants see the same replications, so at a
        # huge radius both are the same constant and their rows agree
        plan = _iid_q20_plan(
            process_x=Iid(UniformMarginal(0.0, 1.0)),
            schedule=EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=1e6),
            ns=(20, 40, 80),
            reps=20,
            estimators=(
                EstimatorSpec("q20"),
                EstimatorSpec("q20", "incomplete", GapRule.fixed(1)),
            ),
        )
        result = run(plan)
        by_label = {label: result.rows_for(label) for label in result.estimator_labels()}
        a = by_label["q20-complete"]
        b = by_label["q20-incomplete-fixed1"]
        assert [r.mse for r in a] == [r.mse for r in b]

    def test_failure_rate_aborts(self):
        # zero close pairs at a tiny radius make every entropy replication fail
        plan = _iid_q20_plan(
            estimators=(EstimatorSpec("renyi2"),),
            schedule=EpsilonSchedule("thm1ii", d=1, alpha=0.25, c=1e-12),
            ns=(10, 20),
            reps=10,
            truth_override=1.0,
        )
        with pytest.raises(RuntimeError, match="replications failed"):
            run(plan)

    def test_incomplete_gap_recorded_per_n(self):
        plan = _iid_q20_plan(
            estimators=(EstimatorSpec("q20", "incomplete", GapRule.log()),),
            ns=(50, 150),
            reps=20,
        )
        rows = run(plan).rows
        assert [r.gap for r in rows] == [3, 5]
        assert all(r.epsilon == T1REG.epsilon_at(r.n) for r in rows)

    def test_consistency_smoke(self):
        result = run(_iid_q20_plan(ns=(100, 200, 400), reps=250))
        mses = [r.mse for r in result.rows]
        assert mses[-1] < mses[0]
        fit = fit_slope(result)
        assert -1.6 < fit.slope < -0.5


class TestSlopeFit:
    def test_exact_power_law(self):
        ns = (100, 200, 400, 700, 1000)
        fit = fit_loglog(ns, [4.0 / n for n in ns])
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(4.0), abs=1e-12)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
        assert fit.n_range == (100, 1000)

    def test_sub_smooth_exponent_arithmetic(self):
        # c * n**(-8a/(4a+d)) with a=1/4, d=1 is an exact 1/n law
        alpha, d = 0.25, 1
        exponent = -8.0 * alpha / (4.0 * alpha + d)
        assert exponent == -1.0
        ns = (100, 300, 1000)
        fit = fit_loglog(ns, [2.5 * float(n) ** exponent for n in ns])
        assert fit.slope == pytest.approx(exponent, abs=1e-12)

    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            fit_loglog((100, 200), (1.0, 0.5))

    def test_requires_one_mse_per_sample_size(self):
        # unequal lengths once reached np.polyfit and raised its TypeError
        with pytest.raises(ValueError, match=r"^got 3 sample sizes and 2 mse values$"):
            fit_loglog([100, 200, 400], [1.0, 2.0])

    @pytest.mark.parametrize("ns,message", [
        ((10.7, 20, 40), "sample size must be an integer, got 10.7"),
        ((0, 20, 40), "sample sizes must be positive integers"),
        ((-10, 20, 40), "sample sizes must be positive integers"),
    ], ids=["fractional", "zero", "negative"])
    def test_requires_positive_integer_sample_sizes(self, ns, message):
        # a fractional n was once fitted truncated, and a zero n failed in the SVD
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                fit_loglog(ns, (1.0, 0.5, 0.25))

    def test_requires_positive_mse(self):
        with pytest.raises(ValueError):
            fit_loglog((100, 200, 300), (1.0, 0.0, 0.25))

    def test_requires_two_distinct_sample_sizes(self):
        # one n leaves the slope undefined; polyfit once returned one with a RankWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^need at least 2 distinct sample sizes"):
                fit_loglog((100, 100, 100), (1.0, 2.0, 3.0))
        assert fit_loglog((100, 100, 200), (1.0, 1.0, 0.5)).slope == pytest.approx(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_requires_finite_mse(self, bad):
        # a NaN or infinite mse once gave slope=nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^mse values must be finite and positive"):
                fit_loglog((100, 200, 400), (1.0, bad, 0.25))

    def test_multi_estimator_requires_label(self):
        rows = tuple(
            McRow(label, n, 0.01, 0, 4.0 / n, 0.0, 4.0 / n, 1e-4, 100, 0)
            for label in ("a", "b")
            for n in (100, 200, 400)
        )
        result = McResult(rows, "iid", 1, 0, 0.5)
        with pytest.raises(ValueError):
            fit_slope(result)
        assert fit_slope(result, "a").slope == pytest.approx(-1.0)

    def test_fit_carries_no_estimator_label(self):
        assert "estimator" not in inspect.signature(fit_loglog).parameters
        assert "estimator" not in {f.name for f in fields(SlopeFit)}


class TestNmseCheck:
    def _result(self, mse_at):
        rows = tuple(
            McRow("q20-complete", n, 0.01, 0, mse_at(n), 0.0, mse_at(n), 1e-5, 100, 0)
            for n in (100, 500, 2000)
        )
        return McResult(rows, "iid", 1, 0, 0.5)

    def test_exact_limit_gives_unit_ratio(self):
        sigma2 = 1.0 / 12.0
        result = self._result(lambda n: 4.0 * sigma2 / n)
        check = nmse_limit_check(result, sigma2)
        assert check.ratio == pytest.approx(1.0, rel=1e-12)
        assert check.passed and check.n == 2000

    def test_band_edges(self):
        sigma2 = 0.25
        result = self._result(lambda n: 4.0 * sigma2 * 1.3 / n)
        assert not nmse_limit_check(result, sigma2).passed
        assert nmse_limit_check(result, sigma2, band=0.35).passed

    def test_skip_without_sigma2(self):
        check = nmse_limit_check(self._result(lambda n: 1.0 / n), None)
        assert check.skipped and not check.passed
        assert "unavailable" in check.note

    def test_skipped_ratio_is_nan(self):
        assert math.isnan(nmse_limit_check(self._result(lambda n: 1.0 / n), None).ratio)

    @pytest.mark.parametrize("sigma2", [0.0, AsymptoticVariance((0.0,))], ids=["float", "record"])
    def test_zero_sigma2_raises_at_the_call(self, sigma2):
        with pytest.raises(ZeroDivisionError, match="sigma2 is 0"):
            nmse_limit_check(self._result(lambda n: 1.0 / n), sigma2)


class TestCsv:
    def test_header_and_roundtrip(self, tmp_path):
        result = run(_iid_q20_plan(reps=20, ns=(50, 100, 200)))
        path = tmp_path / "out.csv"
        write_csv(result, path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        rows = read_csv_rows(path)
        assert len(rows) == len(result.rows)
        for parsed, row in zip(rows, result.rows):
            assert parsed["estimator"] == row.estimator
            assert parsed["n"] == row.n
            assert parsed["mse"] == row.mse  # repr round-trips exactly
            assert parsed["seed"] == 7

    def test_numpy_float_constant_writes_the_same_bytes(self, tmp_path):
        # numpy 2 once wrote the radius as "np.float64(...)", which the
        # reader could not parse back
        schedules = [EpsilonSchedule("thm1iii", d=1, c=c) for c in (1.0, np.float64(1.0))]
        texts = [csv_text(run(_iid_q20_plan(reps=4, schedule=s))) for s in schedules]
        assert texts[1] == texts[0]
        path = tmp_path / "out.csv"
        path.write_text(texts[1])
        assert [r["epsilon"] for r in read_csv_rows(path)] == [
            schedules[0].epsilon_at(n) for n in (50, 100, 200)]

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_csv_rows(path)

    def test_plot_data(self):
        result = run(_iid_q20_plan(reps=20, ns=(50, 100, 200)))
        text = plot_data_text(result)
        lines = text.splitlines()
        assert lines[0] == "log_n,log_mse,fit_line"
        assert len(lines) == 4
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == pytest.approx(math.log(50.0), rel=1e-12)


def _fig1_plan(reps=3):
    return ExperimentPlan(
        process_x=GaussianMA(taps=(1 / SQ3,) * 3),
        process_y=GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0),
        estimators=(
            EstimatorSpec("divergence"),
            EstimatorSpec("divergence", "incomplete", GapRule.log()),
        ),
        schedule=T1REG,
        ns=(100, 400),
        reps=reps,
        seed=0,
    )


def _library_value(functional, x, y, eps, gap):
    """The library estimate of one functional; gap None is the complete variant."""
    if functional == "q20":
        return (estimate_q20(x, eps) if gap is None else estimate_q20_incomplete(x, eps, gap)).value
    if functional == "q11":
        if gap is None:
            return estimate_q11(x, y, eps).value
        return estimate_q11_incomplete(x, y, eps, gap).value
    variant = "complete" if gap is None else "incomplete"
    if functional == "divergence":
        return estimate_divergence(x, y, eps, variant, gap)
    return estimate_renyi2(x, eps, variant, gap)


def _specs(functional, *gap_rules):
    return (EstimatorSpec(functional),) + tuple(
        EstimatorSpec(functional, "incomplete", rule) for rule in gap_rules
    )


# Small plans over every process kind, functional and gap rule.  In the
# divergence plan, 7 rows of n = 5000 hold more values than one block of the
# stacked kernel (2**14), and the renyi2 plan's tiny radius leaves some
# replications without a close pair.
HARNESS_PLANS = {
    "iid-q20": dict(
        process_x=Iid(UniformMarginal(0.0, 1.0)),
        estimators=_specs("q20", GapRule.log(), GapRule.fixed(0)),
        ns=(10, 60),
    ),
    "max-iid-q20": dict(
        process_x=MaxIid(),
        estimators=_specs("q20", GapRule.sqrt(), GapRule.fixed(2)),
        ns=(12, 80),
    ),
    "min-exp+bernoulli-shuffle-q11": dict(
        process_x=MinExp(),
        process_y=BernoulliShuffle(),
        estimators=_specs("q11", GapRule.log(), GapRule.fixed(3)),
        ns=(10, 70),
    ),
    "gaussian-ma+max-iid-divergence": dict(
        process_x=GaussianMA(taps=(1 / SQ3,) * 3),
        process_y=MaxIid(),
        estimators=_specs("divergence", GapRule.sqrt(), GapRule.fixed(1)),
        ns=(12, 5000),
    ),
    "product-gauss-renyi2": dict(
        process_x=ProductGauss(),
        estimators=_specs("renyi2", GapRule.log(), GapRule.sqrt()),
        ns=(10, 30),
        schedule=EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=0.01),
    ),
    "bernoulli-shuffle-renyi2": dict(
        process_x=BernoulliShuffle(),
        estimators=_specs("renyi2", GapRule.fixed(1)),
        ns=(10, 40),
    ),
}


class TestCountOnce:
    def test_harness_values_equal_library_estimates(self):
        plan = _fig1_plan()
        base = SeededStream(plan.seed)
        for gi, n in enumerate(plan.ns):
            eps = plan.schedule.epsilon_at(n)
            values = mc._eval_chunk(plan, gi, n, eps, 0, plan.reps)
            for r in range(plan.reps):
                x, y = paired_generate(plan.process_x, plan.process_y, n, base.child(gi, r))
                assert values[0, r] == estimate_divergence(x, y, eps)
                assert values[1, r] == estimate_divergence(x, y, eps, "incomplete", log_gap(n))

    @pytest.mark.parametrize("name", list(HARNESS_PLANS))
    def test_every_replication_equals_the_library(self, name):
        plan = ExperimentPlan(**{"schedule": T1REG, "reps": 7, "seed": 3, **HARNESS_PLANS[name]})
        base = SeededStream(plan.seed)
        failed = []
        for gi, n in enumerate(plan.ns):
            eps = plan.schedule.epsilon_at(n)
            # two chunks, so the stream of a row depends on the chunk's start
            values = np.concatenate(
                [mc._eval_chunk(plan, gi, n, eps, 0, 3), mc._eval_chunk(plan, gi, n, eps, 3, 7)],
                axis=1,
            )
            for r in range(plan.reps):
                stream = base.child(gi, r)
                if plan.process_y is None:
                    x, y = generate(plan.process_x, n, stream), None
                else:
                    x, y = paired_generate(plan.process_x, plan.process_y, n, stream)
                for e_i, spec in enumerate(plan.estimators):
                    gap = spec.gap_rule.at(n) if spec.variant == "incomplete" else None
                    try:
                        want = _library_value(plan.functional, x, y, eps, gap)
                    except EstimationError:
                        failed.append(True)
                        assert np.isnan(values[e_i, r])
                    else:
                        failed.append(False)
                        assert values[e_i, r] == want
        assert any(failed) == (name == "product-gauss-renyi2")
        assert not all(failed)

    def test_each_draw_is_counted_once(self, monkeypatch):
        # the chunk is counted as one record of its pieces over all its rows,
        # and neither a per-piece nor a public count is made per replication
        calls = []

        def recorded(name, func):
            def wrapper(*args, **kwargs):
                calls.append((name, args))
                return func(*args, **kwargs)

            return wrapper

        for name in ("_record_counts", "count_close_within", "count_close_between",
                     "count_close_within_gap", "count_close_between_gap"):
            monkeypatch.setattr(core, name, recorded(name, getattr(core, name)))
        plan = _fig1_plan(reps=4)
        mc._eval_chunk(plan, 0, 100, plan.schedule.epsilon_at(100), 0, plan.reps)
        assert [name for name, _ in calls] == ["_record_counts"]
        pieces, _, max_gap = calls[0][1]
        (x, y), q20, q02 = pieces
        assert x.shape == y.shape == (plan.reps, 100, 1)
        assert q20[0] is x and q20[1] is None
        assert q02[0] is y and q02[1] is None
        # each piece is counted to the largest gap any estimator asks for
        assert max_gap == log_gap(100)

    def test_chunk_builds_no_config_or_estimate(self, monkeypatch):
        # validation stays at the public boundary: a chunk's values are
        # arithmetic on its count record, with no per-replication record
        built = []
        cls = mc.est.FunctionalEstimate

        def build(*args, **kwargs):
            built.append(cls.__name__)
            return cls(*args, **kwargs)

        monkeypatch.setattr(mc.est, cls.__name__, build)
        plan = _fig1_plan(reps=4)
        values = mc._eval_chunk(plan, 0, 100, plan.schedule.epsilon_at(100), 0, plan.reps)
        assert values.shape == (len(plan.estimators), plan.reps)
        assert built == []
        mc.est.estimate_q20([0.0, 0.5], 1.0)  # the library boundary still builds one
        assert built == ["FunctionalEstimate"]

    def test_failure_rate_error_names_first_stream(self):
        plan = _iid_q20_plan(
            estimators=(EstimatorSpec("renyi2"),),
            schedule=EpsilonSchedule("thm1ii", d=1, alpha=0.25, c=1e-12),
            ns=(10, 20),
            reps=10,
            truth_override=1.0,
        )
        with pytest.raises(EstimationError, match=r"\(grid 0, replication 0\)"):
            run(plan)

    @pytest.mark.parametrize("paired", [False, True], ids=["one-sample", "paired"])
    def test_failure_rate_error_streams_regenerate_the_draw(
        self, tmp_path, capsys, monkeypatch, paired
    ):
        def failing(counts, *args):
            return np.full(len(counts.full["q20"]), np.nan)

        monkeypatch.setattr(mc.est, "evaluate", failing)
        if paired:
            plan = _fig1_plan(reps=2)
            taps = "|".join(repr(t) for t in plan.process_x.taps)
            specs = (f"gaussian-ma:taps={taps}", "gaussian-ma:taps=0.5|-0.5|0.5:shift=1")
            pattern = r"seed (\d+) streams (\d+) \(x\) and (\d+) \(y\)"
        else:
            plan, specs = _iid_q20_plan(ns=(50, 100), reps=2), ("iid:base=normal",)
            pattern = r"seed (\d+) stream (\d+)$"
        with pytest.raises(mc.FailureRateError) as info:
            run(plan)
        message = str(info.value)
        assert "(grid 0, replication 0)" in message
        found = re.search(pattern, message)
        seed, streams = found[1], found.groups()[1:]
        n = plan.ns[0]
        stream = SeededStream(plan.seed).child(0, 0)
        if paired:
            drawn = paired_generate(plan.process_x, plan.process_y, n, stream)
        else:
            drawn = (generate(plan.process_x, n, stream),)
        for spec, stream_id, want in zip(specs, streams, drawn, strict=True):
            out = tmp_path / f"{stream_id}.csv"
            code = cli_main(["generate", "--process", spec, "--n", str(n), "--seed", seed,
                             "--stream", stream_id, "--out", str(out)])
            assert code == 0
            assert np.array_equal(np.loadtxt(out, delimiter=",", ndmin=2), want)


def _traced_peak(func, *args):
    """Bytes allocated at the peak of ``func(*args)`` above what was allocated before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        func(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestChunkValues:
    """A chunk holds about ``_CHUNK_VALUES`` values, however many replications that is."""

    N = 20_000

    def test_values_over_several_chunks_equal_the_library(self, monkeypatch):
        plan = replace(_fig1_plan(reps=8), ns=(self.N,))
        spans, values = [], []
        eval_chunk, aggregate = mc._eval_chunk, mc._aggregate

        def recorded_chunk(plan, gi, n, eps, r0, r1):
            spans.append((r0, r1))
            return eval_chunk(plan, gi, n, eps, r0, r1)

        def recorded_aggregate(*args):
            values.append(args[6])
            return aggregate(*args)

        monkeypatch.setattr(mc, "_eval_chunk", recorded_chunk)
        monkeypatch.setattr(mc, "_aggregate", recorded_aggregate)
        text = csv_text(run(plan))
        step = mc._CHUNK_VALUES // self.N
        assert spans == [(r0, min(r0 + step, plan.reps)) for r0 in range(0, plan.reps, step)]
        assert len(spans) > 1
        eps = plan.schedule.epsilon_at(self.N)
        base = SeededStream(plan.seed)
        for r in range(plan.reps):
            x, y = paired_generate(plan.process_x, plan.process_y, self.N, base.child(0, r))
            assert values[0][r] == estimate_divergence(x, y, eps)
            assert values[1][r] == estimate_divergence(x, y, eps, "incomplete", log_gap(self.N))
        monkeypatch.undo()  # the pool pickles the module's own functions
        assert csv_text(run(plan, workers=2)) == text

    def test_one_replication_per_chunk_when_n_exceeds_the_budget(self, monkeypatch):
        monkeypatch.setattr(mc, "_CHUNK_VALUES", 60)
        spans = []
        eval_chunk = mc._eval_chunk

        def recorded_chunk(plan, gi, n, eps, r0, r1):
            spans.append((gi, r0, r1))
            return eval_chunk(plan, gi, n, eps, r0, r1)

        plan = _iid_q20_plan(ns=(20, 50, 100), reps=5)
        want = csv_text(run(plan))
        monkeypatch.setattr(mc, "_eval_chunk", recorded_chunk)
        assert csv_text(run(plan)) == want
        assert spans == (
            [(0, 0, 3), (0, 3, 5)] + [(gi, r, r + 1) for gi in (1, 2) for r in range(5)]
        )

    def test_traced_peak_does_not_grow_with_reps(self):
        # with a fixed number of replications per chunk, 40 replications at
        # this n traced about ten times the peak of 4
        few, many = (
            _traced_peak(run, replace(_fig1_plan(reps=reps), ns=(self.N,))) for reps in (4, 40)
        )
        assert many < 1.25 * few


class TestArgumentErrors:
    @pytest.mark.parametrize("call, message", [
        (lambda: GapRule("cube"), "gap rule must be fixed|log|sqrt, got 'cube'"),
        (lambda: GapRule.fixed(-1), "fixed gap must be nonnegative, got -1"),
        (lambda: EstimatorSpec("q99"),
         "functional must be one of ('q20', 'q11', 'divergence', 'renyi2'), got 'q99'"),
        (lambda: EstimatorSpec("q20", "x"), "variant must be complete|incomplete, got 'x'"),
        (lambda: EstimatorSpec("q20", "complete", GapRule.log()),
         "complete variant takes no gap rule"),
        (lambda: _iid_q20_plan(estimators=()), "plan needs at least one estimator spec"),
        (lambda: McResult((), "iid", 1, 0, 0.5).rows_for("nope"), "no rows for estimator 'nope'"),
    ], ids=["gap-rule-kind", "negative-fixed-gap", "spec-functional", "spec-variant",
            "complete-with-gap-rule", "plan-without-estimators", "rows_for-unknown"])
    def test_message_names_the_argument(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
