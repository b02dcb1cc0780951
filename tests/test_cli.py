"""CLI tests: subcommands, exit codes, config files, round trips."""

import math

import numpy as np
import pytest

from qfest import cli, montecarlo
from qfest.bandwidth import EpsilonSchedule
from qfest.cli import main, parse_process
from qfest.estimators import estimate_q20, estimate_q20_incomplete
from qfest.montecarlo import (
    CSV_HEADER,
    EstimatorSpec,
    ExperimentPlan,
    GapRule,
    csv_text,
    read_csv_rows,
    run,
)
from qfest.processes import (
    BernoulliShuffle,
    ExponentialMarginal,
    GaussianMA,
    Iid,
    MaxIid,
    MinExp,
    NormalMarginal,
    SeededStream,
    UniformMarginal,
    generate,
)


def _kv(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def _write_sample(tmp_path, name, values):
    path = tmp_path / name
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


class TestParseProcess:
    def test_gaussian_ma(self):
        spec = parse_process("gaussian-ma:taps=0.5|-0.5|0.5:shift=1")
        assert spec == GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0)

    def test_min_exp_defaults(self):
        spec = parse_process("min-exp")
        assert spec == MinExp(rate=1.0 / 3.0, window=3)

    def test_iid_exponential(self):
        spec = parse_process("iid:base=exponential:rate=2")
        assert spec.base.rate == 2.0

    def test_unknown_kind(self):
        from qfest.cli import _InputError

        with pytest.raises(_InputError):
            parse_process("weird-process")

    def test_unknown_parameter(self):
        from qfest.cli import _InputError

        with pytest.raises(_InputError):
            parse_process("min-exp:cadence=2")

    @pytest.mark.parametrize("text, want", [
        ("max-iid:lo=-1:hi=2", MaxIid(base=UniformMarginal(-1.0, 2.0))),
        ("bernoulli-shuffle:mean=1:variance=4", BernoulliShuffle(base=NormalMarginal(1.0, 4.0))),
        ("iid:base=uniform:lo=2:hi=5", Iid(base=UniformMarginal(2.0, 5.0))),
    ], ids=["max-iid", "bernoulli-shuffle", "iid-uniform"])
    def test_base_law_kinds_parse_and_generate(self, tmp_path, capsys, text, want):
        assert parse_process(text) == want
        out = tmp_path / "sample.csv"
        assert main(["generate", "--process", text, "--n", "30", "--seed", "2",
                     "--out", str(out)]) == 0
        assert _kv(capsys)["process"] == want.kind
        sample = np.loadtxt(out, delimiter=",", ndmin=2)
        assert np.array_equal(sample, generate(want, 30, SeededStream(2)))

    @pytest.mark.parametrize("text, want", [
        ("iid: base=normal", Iid(NormalMarginal())),
        ("iid:base= normal", Iid(NormalMarginal())),
        (" iid : base = exponential : rate = 2 ", Iid(ExponentialMarginal(2.0))),
        ("gaussian-ma: taps = 0.5|-0.5|0.5 :shift=1 ", GaussianMA((0.5, -0.5, 0.5), shift=1.0)),
    ], ids=["key", "value", "every-field", "taps"])
    def test_spaces_around_kind_keys_and_values_are_stripped(self, text, want):
        assert parse_process(text) == want

    @pytest.mark.parametrize("text, message", [
        ("gaussian-ma:noeq", "process spec field 'noeq' is not key=value"),
        ("iid:base=cauchy", "unknown base distribution 'cauchy'"),
        ("min-exp:rate=-1",
         "bad process spec 'min-exp:rate=-1': rate must be finite and > 0, got -1.0"),
        ("gaussian-ma:zz=1:aa=2", "unknown gaussian-ma parameters: aa, zz"),
        ("min-exp:zz=1", "unknown min-exp parameters: zz"),
        ("product-gauss:zz=1", "unknown product-gauss parameters: zz"),
        ("max-iid:base=uniform", "unknown max-iid parameters: base"),
        ("bernoulli-shuffle:rate=1", "unknown bernoulli-shuffle parameters: rate"),
        ("iid:base=exponential:mean=0", "unknown iid parameters: mean"),
        ("product-gauss:=", "process spec field '=' is not key=value"),
        ("iid: =normal", "process spec field ' =normal' is not key=value"),
    ], ids=["no-equals", "unknown-base", "bad-value", "gaussian-ma-field", "min-exp-field",
            "product-gauss-field", "max-iid-field", "bernoulli-shuffle-field", "iid-field",
            "empty-key", "blank-key"])
    def test_spec_error_exits_two_with_its_message(self, tmp_path, capsys, text, message):
        out = tmp_path / "sample.csv"
        assert main(["generate", "--process", text, "--n", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("text, field", [
        ("min-exp:rate=1:rate=2", "rate"),
        ("iid:base=uniform:base=exponential:rate=2", "base"),
        ("gaussian-ma:taps=1:taps=2|3", "taps"),
        ("min-exp:rate=1: rate =2", "rate"),
    ], ids=["min-exp", "iid-base", "gaussian-ma", "spaced"])
    def test_repeated_field_is_an_input_error(self, tmp_path, capsys, text, field):
        out = tmp_path / "sample.csv"
        assert main(["generate", "--process", text, "--n", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: process spec {text!r} repeats field {field!r}\n"
        assert not out.exists()


class TestEstimate:
    def test_q20_fixture(self, tmp_path, capsys):
        path = _write_sample(tmp_path, "x.csv", [0.0, 0.5, 2.0])
        assert main(["estimate", path, "--functional", "q20", "--epsilon", "1"]) == 0
        pairs = _kv(capsys)
        assert float(pairs["value"]) == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert pairs["raw_count"] == "1"
        assert pairs["functional"] == "q20"
        assert pairs["n"] == "3"

    def test_q11_identical_single_rows(self, tmp_path, capsys):
        a = _write_sample(tmp_path, "a.csv", [0.25])
        b = _write_sample(tmp_path, "b.csv", [0.25])
        assert main(["estimate", a, b, "--functional", "q11", "--epsilon", "0.5"]) == 0
        assert float(_kv(capsys)["value"]) == pytest.approx(1.0, rel=1e-12)

    def test_divergence_components(self, tmp_path, capsys):
        a = _write_sample(tmp_path, "a.csv", [0.0, 0.0])
        b = _write_sample(tmp_path, "b.csv", [10.0, 10.0])
        assert main(["estimate", a, b, "--functional", "divergence", "--epsilon", "0.5"]) == 0
        pairs = _kv(capsys)
        assert float(pairs["value"]) == pytest.approx(2.0, rel=1e-12)
        assert float(pairs["q11"]) == 0.0

    def test_empty_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code = main(["estimate", str(path), "--functional", "q20", "--epsilon", "1"])
        assert code == 2

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0\nnot-a-number\n")
        code = main(["estimate", str(path), "--functional", "q20", "--epsilon", "1"])
        assert code == 2
        assert "bad.csv:2" in capsys.readouterr().err

    def test_renyi_zero_count_is_computation_error(self, tmp_path, capsys):
        path = _write_sample(tmp_path, "x.csv", [0.0, 5.0, 10.0])
        code = main(["estimate", path, "--functional", "renyi2", "--epsilon", "0.01"])
        assert code == 3

    # the last case has a finite ball volume, and a normalizer beyond the float range;
    # no case counts a pair
    @pytest.mark.parametrize(("d", "eps"), [(2, "1e200"), (3, "1e-110"), (1, "1e307")],
                             ids=["overflow", "underflow", "normalizer"])
    def test_volume_beyond_the_float_range_is_input_error(self, tmp_path, capsys, no_count,
                                                          d, eps):
        path = tmp_path / "x.csv"
        rows = np.random.default_rng(114).random((20, d))
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        code = main(["estimate", str(path), "--functional", "q20", "--epsilon", eps])
        assert code == 2
        assert f"d={d}, epsilon={float(eps)!r}" in capsys.readouterr().err

    def test_overflowing_divergence_is_input_error(self, tmp_path, capsys):
        rows = np.random.default_rng(116).random((2, 20, 2)) * 1e-160
        paths = []
        for name, sample in zip(("x.csv", "y.csv"), rows):
            path = tmp_path / name
            path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in sample))
            paths.append(str(path))
        code = main(["estimate", *paths, "--functional", "divergence", "--epsilon", "1e-158"])
        assert code == 2
        assert "epsilon=1e-158" in capsys.readouterr().err

    def test_insufficient_data_is_computation_error(self, tmp_path, capsys):
        path = _write_sample(tmp_path, "x.csv", [0.0])
        code = main(["estimate", path, "--functional", "q20", "--epsilon", "1"])
        assert code == 3

    def test_q02_uses_second_file(self, tmp_path, capsys):
        a = _write_sample(tmp_path, "a.csv", [0.0, 9.0])
        b = _write_sample(tmp_path, "b.csv", [0.0, 0.0])
        assert main(["estimate", a, b, "--functional", "q02", "--epsilon", "0.5"]) == 0
        assert float(_kv(capsys)["value"]) == pytest.approx(1.0, rel=1e-12)

    def test_incomplete_variant_with_gap(self, tmp_path, capsys):
        path = _write_sample(tmp_path, "x.csv", [0.0, 0.0, 0.0, 0.0, 0.0])
        code = main(
            ["estimate", path, "--functional", "q20", "--epsilon", "0.5",
             "--variant", "incomplete", "--gap", "2"]
        )
        assert code == 0
        pairs = _kv(capsys)
        assert float(pairs["value"]) == pytest.approx(1.0, rel=1e-12)
        assert pairs["gap"] == "2"

    def test_gap_with_complete_variant_is_input_error(self, tmp_path, capsys):
        path = _write_sample(tmp_path, "x.csv", [0.0, 0.0, 0.0, 0.0, 0.0])
        code = main(
            ["estimate", path, "--functional", "q20", "--epsilon", "0.5",
             "--variant", "complete", "--gap", "2"]
        )
        assert code == 2
        assert "complete variant takes no gap" in capsys.readouterr().err


class TestGenerateRoundTrip:
    def test_cli_estimate_matches_library_exactly(self, tmp_path, capsys):
        out = tmp_path / "sample.csv"
        assert main(
            ["generate", "--process", "gaussian-ma:taps=0.5|-0.5|0.5:shift=1",
             "--n", "300", "--seed", "9", "--stream", "4", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        spec = GaussianMA(taps=(0.5, -0.5, 0.5), shift=1.0)
        sample = generate(spec, 300, SeededStream(9, 4))
        want = estimate_q20(sample, 0.25)
        assert main(["estimate", str(out), "--functional", "q20", "--epsilon", "0.25"]) == 0
        pairs = _kv(capsys)
        assert pairs["value"] == repr(want.value)
        assert int(pairs["raw_count"]) == want.raw_count


class TestTruth:
    def test_normal_pair(self, capsys):
        code = main(
            ["truth",
             "--process-x", "gaussian-ma:taps=0.5773502691896258|0.5773502691896258|0.5773502691896258",
             "--process-y", "gaussian-ma:taps=0.5|-0.5|0.5:shift=1"]
        )
        assert code == 0
        pairs = _kv(capsys)
        assert float(pairs["divergence"]) == pytest.approx(0.15458075288363582, rel=1e-9)
        assert pairs["method"] == "closed-form"

    def test_unsupported_is_computation_error(self, capsys):
        assert main(["truth", "--process-x", "product-gauss"]) == 3


class TestSimulate:
    def test_smoke_preset(self, tmp_path, capsys):
        out = tmp_path / "smoke.csv"
        assert main(["simulate", "--preset", "smoke", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        # two estimators, three grid points
        assert len(text.splitlines()) == 7

    def test_explicit_plan_with_plot_data(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        plot = tmp_path / "plot.csv"
        code = main(
            ["simulate", "--process-x", "min-exp", "--functional", "q20",
             "--estimators", "incomplete:fixed=3", "--n-grid", "50,100,200",
             "--reps", "8", "--seed", "3", "--out", str(out),
             "--plot-data", str(plot)]
        )
        assert code == 0
        assert out.exists() and plot.exists()
        assert plot.read_text().splitlines()[0] == "log_n,log_mse,fit_line"

    def test_multiple_c_values_write_suffixed_files(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["simulate", "--process-x", "iid:base=normal", "--functional", "q20",
             "--n-grid", "20,40", "--reps", "4", "--c", "0.5,1", "--out", str(out)]
        )
        assert code == 0
        assert (tmp_path / "sweep-c0.5.csv").exists()
        assert (tmp_path / "sweep-c1.csv").exists()

    def test_schedule_dimension_of_a_scalar_process_is_input_error(self, tmp_path, capsys):
        # the schedule's dimension is the processes' d = 1; neither layer can set it
        out = tmp_path / "smoke.csv"
        assert main(["simulate", "--preset", "smoke", "--d", "3", "--out", str(out)]) == 2
        assert "unrecognized arguments: --d 3" in capsys.readouterr().err
        config = tmp_path / "run.conf"
        config.write_text("d=3\n")
        argv = ["simulate", "--preset", "smoke", "--config", str(config), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: unknown config key 'd'\n"
        assert sorted(tmp_path.iterdir()) == [config]

    def test_missing_plan_is_input_error(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("given, missing", [
        ((), "process-x"),
        (("--functional", "q20"), "process-x"),
        (("--process-x", "min-exp"), "functional"),
    ], ids=["neither", "no-process", "no-functional"])
    def test_missing_required_option_is_named(self, tmp_path, capsys, given, missing):
        out = tmp_path / "x.csv"
        assert main(["simulate", *given, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: missing required option --{missing}\n"
        assert not out.exists()

    def test_threads_below_two_run_serially(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", refuse)
        texts = set()
        for threads in ("1", "0", "-3"):
            out = tmp_path / f"t{threads}.csv"
            argv = ["simulate", "--preset", "smoke", "--threads", threads, "--out", str(out)]
            assert main(argv) == 0
            texts.add(out.read_text())
        assert len(texts) == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(
            "process_x=iid:base=normal\nfunctional=q20\nn_grid=20,40\nreps=4\nseed=5\n"
        )
        out = tmp_path / "cfg.csv"
        code = main(
            ["simulate", "--config", str(config), "--reps", "6", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert all(",6," in row for row in rows)  # reps column uses the flag value

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("replications=4\n")
        code = main(
            ["simulate", "--config", str(config), "--out", str(tmp_path / "y.csv")]
        )
        assert code == 2


class TestRates:
    def _write_csv(self, tmp_path, rows):
        path = tmp_path / "rates.csv"
        lines = [CSV_HEADER]
        for n, mse in rows:
            lines.append(
                f"q20-complete,iid,{n},1,0.01,0,100,{mse!r},0.0,{mse!r},1e-06,0"
            )
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_exact_law_slope(self, tmp_path, capsys):
        path = self._write_csv(tmp_path, [(n, 4.0 / n) for n in (100, 200, 400, 1000)])
        assert main(["rates", path]) == 0
        pairs = _kv(capsys)
        assert float(pairs["slope"]) == pytest.approx(-1.0, abs=1e-12)

    def test_band_check(self, tmp_path, capsys):
        path = self._write_csv(tmp_path, [(n, 4.0 / n) for n in (100, 200, 400)])
        assert main(["rates", path, "--expected-slope", "-1", "--band", "0.25"]) == 0
        assert _kv(capsys)["within_band"] == "true"

    def test_single_row_is_input_error(self, tmp_path, capsys):
        path = self._write_csv(tmp_path, [(100, 0.01)])
        assert main(["rates", path]) == 2

    def test_zero_sample_size_is_one_clean_input_error(self, tmp_path, capfd):
        # a zero n once reached the SVD: RuntimeWarnings, LAPACK lines, then an error
        path = self._write_csv(tmp_path, [(0, 0.04), (200, 0.02), (400, 0.01)])
        assert main(["rates", path]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: sample sizes must be positive integers, got [0, 200, 400]"]

    @pytest.mark.parametrize("rows,message", [
        ([(100, 0.01), (100, 0.02), (100, 0.03)], "need at least 2 distinct sample sizes"),
        ([(100, 0.04), (200, math.nan), (400, 0.01)], "mse values must be finite and positive"),
        ([(100, 0.04), (200, math.inf), (400, 0.01)], "mse values must be finite and positive"),
    ], ids=["one-n", "nan-mse", "inf-mse"])
    def test_unfittable_rows_are_one_clean_input_error(self, tmp_path, capfd, rows, message):
        # these once printed a slope (or slope=nan) and exited 0
        path = self._write_csv(tmp_path, rows)
        assert main(["rates", path]) == 2
        out, err = capfd.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {message}")

    def test_malformed_csv_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "junk.csv"
        path.write_text("not,a,harness,file\n1,2,3,4\n")
        assert main(["rates", str(path)]) == 2


class TestArgparseBehavior:
    def test_unknown_subcommand_exit_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestGapEcho:
    def test_default_incomplete_gap_is_resolved_in_echo(self, tmp_path, capsys):
        values = [float(v) for v in range(150)]
        path = tmp_path / "x.csv"
        path.write_text("\n".join(repr(v) for v in values) + "\n")
        code = main(
            ["estimate", str(path), "--functional", "q20", "--epsilon", "1.5",
             "--variant", "incomplete"]
        )
        assert code == 0
        assert _kv(capsys)["gap"] == "5"  # floor(log 150)


class TestEstimateInput:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_is_input_error(self, tmp_path, capsys, token):
        path = tmp_path / "x.csv"
        path.write_text(f"0.0\n{token}\n1.0\n")
        code = main(["estimate", str(path), "--functional", "q20", "--epsilon", "1"])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "1e400"])
    @pytest.mark.parametrize("bad", [0, 1])
    def test_non_finite_coordinate_names_its_file(self, tmp_path, capsys, token, bad):
        paths = [_write_sample(tmp_path, name, [0.0, 0.5, 1.0]) for name in ("x.csv", "y.csv")]
        (tmp_path / ("x.csv", "y.csv")[bad]).write_text(f"0.0\n{token}\n1.0\n")
        code = main(["estimate", *paths, "--functional", "divergence", "--epsilon", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {paths[bad]}: sample contains non-finite coordinates\n"
        )

    @pytest.mark.parametrize(
        "text", ["0.5,1.0\n0.0,1.5\n0.25,1.0\n", "0.5,1.0\n\n1_5,1.5\n0.25,1.0\n"],
        ids=["loadtxt", "line-parser"],
    )
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, text):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        config = tmp_path / "run.cfg"
        config.write_text("epsilon=0.75\nvariant=incomplete\ngap=0\n", encoding="utf-8-sig")
        outputs = []
        for path in (plain, marked):
            code = main(["estimate", str(path), "--functional", "q20", "--config", str(config)])
            assert code == 0
            outputs.append(capsys.readouterr())
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert outputs[0] == outputs[1]
        # the config's first key is read despite the mark
        assert "epsilon=0.75\n" in outputs[0].out

    def test_ragged_row_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("0.0,1.0\n2.0,3.0\n4.0\n")
        code = main(["estimate", str(path), "--functional", "q20", "--epsilon", "1"])
        assert code == 2
        assert "ragged.csv:3" in capsys.readouterr().err

    def test_comment_line_is_a_parse_error_naming_its_line(self, tmp_path, capsys):
        path = tmp_path / "hash.csv"
        path.write_text("0.0,1.0\n# a note\n2.0,3.0\n")
        code = main(["estimate", str(path), "--functional", "q20", "--epsilon", "1"])
        assert code == 2
        assert "hash.csv:2" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text("\n0.0,1.0\n\n   \n0.5,1.0\n\n")
        assert main(["estimate", str(path), "--functional", "q20", "--epsilon", "1"]) == 0
        pairs = _kv(capsys)
        assert (pairs["n"], pairs["d"], pairs["raw_count"]) == ("2", "2", "1")

    @pytest.mark.parametrize("text", ["", "\n\n  \n"], ids=["empty", "blank-lines"])
    def test_file_without_rows_has_no_observations(self, tmp_path, capsys, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        code = main(["estimate", str(path), "--functional", "q20", "--epsilon", "1"])
        assert code == 2
        assert "empty.csv: no observations found" in capsys.readouterr().err

    def test_underscore_digits_parse_as_python_floats(self, tmp_path, capsys):
        path = tmp_path / "digits.csv"
        path.write_text("1_5,0\n15,0.5\n")
        assert main(["estimate", str(path), "--functional", "q20", "--epsilon", "0.5"]) == 0
        assert _kv(capsys)["raw_count"] == "1"

    def test_divergence_unequal_lengths_is_input_error(self, tmp_path, capsys):
        a = _write_sample(tmp_path, "a.csv", [0.0, 1.0, 2.0])
        b = _write_sample(tmp_path, "b.csv", [0.0, 1.0])
        code = main(["estimate", a, b, "--functional", "divergence", "--epsilon", "1"])
        assert code == 2
        assert "equal lengths" in capsys.readouterr().err

    def test_q11_needs_two_files(self, tmp_path, capsys):
        a = _write_sample(tmp_path, "a.csv", [0.0, 1.0, 2.0])
        code = main(["estimate", a, "--functional", "q11", "--epsilon", "1"])
        assert code == 2
        assert "needs two input files" in capsys.readouterr().err

    def test_q02_default_gap_comes_from_second_file(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        a = _write_sample(tmp_path, "a.csv", rng.normal(size=50))
        b_values = rng.normal(size=3000)
        b = _write_sample(tmp_path, "b.csv", b_values)
        code = main(["estimate", a, b, "--functional", "q02", "--epsilon", "0.05",
                     "--variant", "incomplete"])
        assert code == 0
        pairs = _kv(capsys)
        want = estimate_q20_incomplete(b_values, 0.05)
        assert pairs["gap"] == str(want.gap) == "8"  # floor(log 3000)
        assert pairs["value"] == repr(want.value)
        assert pairs["n"] == "3000"


class TestSimulateAbort:
    def test_failure_rate_abort_is_computation_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--process-x", "iid:base=normal", "--functional", "renyi2",
             "--c", "1e-12", "--n-grid", "20,40,80", "--reps", "4",
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "replications failed" in err
        assert "(grid 0, replication 0)" in err


class TestPresets:
    """A preset is a named set of flag values, layered under --config and the flags."""

    @pytest.mark.parametrize("preset, process_x, process_y, estimators", [
        ("fig1", GaussianMA(taps=(1 / math.sqrt(3.0),) * 3),
         GaussianMA((0.5, -0.5, 0.5), shift=1.0),
         (EstimatorSpec("divergence"),
          EstimatorSpec("divergence", "incomplete", GapRule.log()))),
        ("fig2-left", MinExp(1 / 3, 3), None, (EstimatorSpec("q20", "incomplete", GapRule.log()),)),
        ("fig2-right", MinExp(1 / 3, 3), None,
         (EstimatorSpec("q20", "incomplete", GapRule.sqrt()),)),
    ])
    def test_figure_preset_runs_its_library_plan(self, tmp_path, capsys, preset, process_x,
                                                 process_y, estimators):
        out = tmp_path / "fig.csv"
        argv = ["simulate", "--preset", preset, "--n-grid", "20,40", "--reps", "3",
                "--out", str(out)]
        assert main(argv) == 0
        for c in (0.5, 1.0, 2.0):
            plan = ExperimentPlan(
                process_x=process_x, process_y=process_y, estimators=estimators,
                schedule=EpsilonSchedule("thm1iii", d=1, alpha=1.0, c=c), ns=(20, 40), reps=3,
            )
            assert (tmp_path / f"fig-c{c:g}.csv").read_text() == csv_text(run(plan))

    def test_each_layer_overrides_the_one_before(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("preset=smoke\nreps=3\nseed=4\n")
        out = tmp_path / "layers.csv"
        assert main(["simulate", "--config", str(config), "--seed", "5", "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        assert sorted({r["n"] for r in rows}) == [100, 200, 400]  # preset over default
        assert {r["reps"] for r in rows} == {3}  # config over preset
        assert {r["seed"] for r in rows} == {5}  # flag over config

    def test_bad_preset_names_its_layer(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        assert main(["simulate", "--preset", "fig3", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: --preset: must be one of")
        config = tmp_path / "run.conf"
        config.write_text("preset=fig3\n")
        assert main(["simulate", "--config", str(config), "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: config key preset: must be one of")


class TestScheduleConstants:
    """A --c list must name one output file per value, checked before any plan runs."""

    @pytest.fixture(autouse=True)
    def no_run(self, monkeypatch):
        def refuse(plan, workers=1):
            raise AssertionError("a plan ran")

        monkeypatch.setattr(montecarlo, "run", refuse)

    @pytest.mark.parametrize("c", ["", ",", " , "])
    def test_empty_list_is_input_error(self, tmp_path, capsys, c):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--preset", "smoke", "--c", c, "--out", str(out)]) == 2
        assert "--c lists no schedule constant" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("c, name", [("1,1.0", "x-c1.csv"), ("1,1.0000001", "x-c1.csv"),
                                         ("0.5,2,0.5", "x-c0.5.csv")])
    def test_values_sharing_a_file_name_are_input_error(self, tmp_path, capsys, c, name):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--preset", "smoke", "--c", c, "--out", str(out)]) == 2
        assert f"two values would both write {tmp_path / name}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRadiusCheckedBeforeRuns:
    def test_simulate_rejects_a_radius_beyond_the_float_range_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # the normalizer overflows only at n = 400, after the replications at
        # n = 100 and 200 would have run
        def refuse(*args, **kwargs):
            raise AssertionError("a plan ran before every radius was checked")

        monkeypatch.setattr(montecarlo, "run", refuse)
        out = tmp_path / "o.csv"
        argv = ["simulate", "--process-x", "iid", "--functional", "q20", "--c", "1e305",
                "--reps", "200000", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: normalizer at d=1, epsilon=1.4978661367769954e+303 "
            "is not a positive finite float\n"
        )
        assert not out.exists()


class TestUnwritableOutput:
    def test_generate(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        argv = ["generate", "--process", "min-exp", "--n", "5", "--out", str(target)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    def test_simulate(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        assert main(["simulate", "--preset", "smoke", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(target) in err

    @pytest.mark.parametrize(
        "out,plot,bad",
        [
            ("missing/x.csv", None, "missing/x-c1.csv"),
            ("x.csv", None, "x-c2.csv"),
            ("y.csv", "file/p.csv", "file/p-c1.csv"),
            ("y.csv", "p.csv", "p-c2.csv"),
        ],
        ids=["missing-parent", "csv-is-a-directory", "parent-is-a-file", "plot-is-a-directory"],
    )
    def test_simulate_checks_every_output_before_any_run(
        self, tmp_path, capsys, monkeypatch, out, plot, bad
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a plan ran before every output was checked")

        monkeypatch.setattr(montecarlo, "run", refuse)
        (tmp_path / "file").write_text("")
        for name in ("x-c2.csv", "p-c2.csv"):
            (tmp_path / name).mkdir()
        before = sorted(tmp_path.rglob("*"))
        argv = ["simulate", "--preset", "smoke", "--c", "1,2", "--out", str(tmp_path / out)]
        if plot is not None:
            argv += ["--plot-data", str(tmp_path / plot)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path / bad) in err
        assert sorted(tmp_path.rglob("*")) == before


class TestEstimatorTokens:
    @pytest.mark.parametrize("tokens, message", [
        ("bogus", "unknown estimator token 'bogus'"),
        ("incomplete:cube", "unknown gap rule 'cube' in 'incomplete:cube'"),
        (",", "estimator list is empty"),
        ("incomplete:fixed=1.5", "bad gap rule 'fixed=1.5' in 'incomplete:fixed=1.5'"),
        ("incomplete:fixed=", "bad gap rule 'fixed=' in 'incomplete:fixed='"),
        ("incomplete: fixed=x ", "bad gap rule 'fixed=x' in 'incomplete: fixed=x'"),
    ], ids=["unknown-token", "unknown-gap-rule", "empty-list", "fractional-gap", "empty-gap",
            "spaced-gap"])
    def test_bad_list_is_input_error(self, tmp_path, capsys, tokens, message):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--preset", "smoke", "--estimators", tokens, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_blank_token_is_skipped(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--preset", "smoke", "--estimators", "complete,,incomplete",
                "--out", str(out)]
        assert main(argv) == 0
        labels = [r["estimator"] for r in read_csv_rows(out)]
        assert list(dict.fromkeys(labels)) == ["divergence-complete",
                                               "divergence-incomplete-log"]

    @pytest.mark.parametrize("token", ["incomplete: log", "incomplete :log", "incomplete : log"])
    def test_spaces_around_the_gap_rule_are_stripped(self, tmp_path, capsys, token):
        out = tmp_path / "x.csv"
        argv = ["simulate", "--preset", "smoke", "--estimators", token, "--out", str(out)]
        assert main(argv) == 0
        assert {r["estimator"] for r in read_csv_rows(out)} == {"divergence-incomplete-log"}


class TestClamp:
    """x = y with four points 0.3 apart: the divergence estimate at 0.2 is -1.25."""

    @pytest.fixture
    def argv(self, tmp_path):
        path = _write_sample(tmp_path, "x.csv", [0.0, 0.3, 0.6, 0.9])
        return ["estimate", path, path, "--functional", "divergence", "--epsilon", "0.2"]

    def test_flag_floors_a_negative_divergence(self, capsys, argv):
        assert main(argv) == 0
        assert _kv(capsys)["value"] == "-1.25"
        assert main(argv + ["--clamp"]) == 0
        assert _kv(capsys)["value"] == "0.0"

    @pytest.mark.parametrize("text, value", [("yes", "0.0"), ("no", "-1.25")])
    def test_config_value(self, tmp_path, capsys, argv, text, value):
        config = tmp_path / "run.conf"
        config.write_text(f"clamp={text}\n")
        assert main(argv + ["--config", str(config)]) == 0
        assert _kv(capsys)["value"] == value

    def test_config_value_that_is_not_a_boolean(self, tmp_path, capsys, argv):
        config = tmp_path / "run.conf"
        config.write_text("clamp=maybe\n")
        assert main(argv + ["--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: config key clamp: cannot parse boolean 'maybe'\n"


class TestConfigFile:
    def test_unreadable_file_is_input_error(self, tmp_path, capsys):
        config = tmp_path / "missing.conf"
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {config}: ")

    def test_line_without_equals_names_its_line(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("reps=3\nnoequals\n")
        argv = ["simulate", "--config", str(config), "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {config}:2: expected key=value, got 'noequals'\n"

    def test_comment_and_blank_lines_are_skipped(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("# the smoke run, at two replications\n\npreset=smoke\n   \nreps=3\n")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert {r["reps"] for r in read_csv_rows(out)} == {3}


class TestEstimateArguments:
    @pytest.fixture
    def path(self, tmp_path):
        return _write_sample(tmp_path, "x.csv", [0.1, 0.2, 0.25, 0.9])

    def test_missing_functional(self, capsys, path):
        assert main(["estimate", path, "--epsilon", "0.1"]) == 2
        assert capsys.readouterr().err == "error: missing required option --functional\n"

    def test_missing_sample_file(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        assert main(["estimate", str(path), "--functional", "q20", "--epsilon", "0.1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read sample file {path}: ")

    def test_three_input_files(self, capsys, path):
        argv = ["estimate", path, path, path, "--functional", "q20", "--epsilon", "0.1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: expected one or two input files\n"

    def test_renyi2_prints_its_q20(self, capsys, path):
        assert main(["estimate", path, "--functional", "renyi2", "--epsilon", "0.2"]) == 0
        pairs = _kv(capsys)
        want = estimate_q20([0.1, 0.2, 0.25, 0.9], 0.2)
        assert pairs["q20"] == repr(want.value)
        assert pairs["value"] == repr(-math.log(want.value))
        assert pairs["functional"] == "renyi2"


class TestSimulateOutputs:
    def test_label_names_the_process_column(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--preset", "smoke", "--label", "fig1-pair",
                     "--out", str(out)]) == 0
        assert {r["process"] for r in read_csv_rows(out)} == {"fig1-pair"}

    def test_plot_data_writes_one_file_per_estimator(self, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        argv = ["simulate", "--preset", "smoke", "--out", str(tmp_path / "x.csv"),
                "--plot-data", str(plot)]
        assert main(argv) == 0
        names = ["plot-divergence-complete.csv", "plot-divergence-incomplete-log.csv"]
        assert sorted(p.name for p in tmp_path.glob("plot*")) == names
        for name in names:
            assert (tmp_path / name).read_text().splitlines()[0] == "log_n,log_mse,fit_line"
        assert not plot.exists()


class TestRatesInput:
    @pytest.mark.parametrize("text, message", [
        ("", "cannot read {path}: empty CSV file"),
        (CSV_HEADER + "\n", "{path}: no data rows"),
        (CSV_HEADER + "\nq20-complete,iid,100,1\n",
         "cannot read {path}: malformed CSV row ['q20-complete', 'iid', '100', '1']"),
    ], ids=["empty", "header-only", "short-row"])
    def test_unreadable_summary_is_input_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "rates.csv"
        path.write_text(text)
        assert main(["rates", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
