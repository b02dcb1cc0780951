"""CLI tests: subcommands, exit codes, config files, round trips."""

import numpy as np
import pytest

from qfest.cli import main, parse_process
from qfest.estimators import estimate_q20, estimate_q20_incomplete
from qfest.montecarlo import CSV_HEADER
from qfest.processes import GaussianMA, MinExp, SeededStream, generate


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

    @pytest.mark.parametrize(("d", "eps"), [(2, "1e200"), (3, "1e-110")],
                             ids=["overflow", "underflow"])
    def test_volume_beyond_the_float_range_is_input_error(self, tmp_path, capsys, d, eps):
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

    def test_missing_plan_is_input_error(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "x.csv")]) == 2

    def test_threads_env_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QFEST_THREADS", "1")
        out = tmp_path / "t.csv"
        code = main(
            ["simulate", "--process-x", "iid:base=normal", "--functional", "q20",
             "--n-grid", "20,40", "--reps", "4", "--threads", "8", "--out", str(out)]
        )
        assert code == 0

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
        assert pairs["gap"] == str(want.config.gap) == "8"  # floor(log 3000)
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
