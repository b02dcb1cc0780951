"""Harness tests: determinism, error decomposition, slope fits, CSV schema."""

import math
import re
from concurrent.futures import Future

import numpy as np
import pytest

from qfest import core
from qfest import montecarlo as mc
from qfest.bandwidth import EpsilonSchedule
from qfest.cli import main as cli_main
from qfest.estimators import (
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

    def test_requires_positive_mse(self):
        with pytest.raises(ValueError):
            fit_loglog((100, 200, 300), (1.0, 0.0, 0.25))

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

        for name in ("_record_counts", "_close_counts", "count_close_within",
                     "count_close_between", "count_close_within_gap", "count_close_between_gap"):
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

    def test_chunk_opens_no_thread_pool(self, monkeypatch):
        # fig1 rows are short, so a chunk's passes run in the calling thread
        # even where many CPUs are at hand; the fake starts no thread
        opened = []

        class NoPool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr(core, "ThreadPoolExecutor", NoPool)
        monkeypatch.setattr(core, "_cpus", lambda: 8)
        plan = _fig1_plan(reps=4)
        for gi, n in enumerate(plan.ns):
            mc._eval_chunk(plan, gi, n, plan.schedule.epsilon_at(n), 0, plan.reps)
        assert opened == []
        # the fake does stand in for the pool of a long row's passes
        long_row = np.zeros((1, core._STACK_BLOCK + 1, 1))
        assert core._close_counts(long_row, None, 1.0, 1)[1].tolist() == [[0, core._STACK_BLOCK]]
        assert opened == [2]

    def test_chunk_builds_no_config_or_estimate(self, monkeypatch):
        # validation stays at the public boundary: a chunk's values are
        # arithmetic on its count record, with no per-replication record
        built = []

        def recorded(cls):
            def build(*args, **kwargs):
                built.append(cls.__name__)
                return cls(*args, **kwargs)

            return build

        for cls in (mc.est.EstimateConfig, mc.est.FunctionalEstimate):
            monkeypatch.setattr(mc.est, cls.__name__, recorded(cls))
        plan = _fig1_plan(reps=4)
        values = mc._eval_chunk(plan, 0, 100, plan.schedule.epsilon_at(100), 0, plan.reps)
        assert values.shape == (len(plan.estimators), plan.reps)
        assert built == []
        mc.est.estimate_q20([0.0, 0.5], 1.0)  # the library boundary still builds both
        assert set(built) == {"EstimateConfig", "FunctionalEstimate"}

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
