"""Command-line interface: formats, exit codes, determinism, round-trips."""

import dataclasses
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest

import ptcs.cli
from ptcs.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_WARN, RunConfig, _parse_tolerance, build_parser, main

BASE = ["--kappa", "2", "--kappap", "2"]
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# ")
    meta = dict(kv.split("=", 1) for kv in lines[0][2:].split(" "))
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return meta, columns, rows


class TestSpectrum:
    def test_rows_exact(self, capsys):
        code, out, _ = run(capsys, "spectrum", *BASE, "--dim", "4")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        assert columns == ["n", "e_n", "g_n"]
        values = [[float(v) for v in row] for row in rows]
        assert values == [[0, 0, 5], [1, 5, 7], [2, 12, 9], [3, 21, 11]]

    def test_invalid_strength_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--kappa", "1.0", "--kappap", "2")
        assert code == EXIT_USAGE
        assert "kappa" in err and "> 1" in err

    @pytest.mark.parametrize("command", ["spectrum", "state", "wavefunction", "uncertainty"])
    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_nonpositive_dim_is_usage_error(self, capsys, command, dim):
        # spectrum takes no label flag
        label = ["--z-re", "1"] if command in ("state", "wavefunction", "uncertainty") else []
        code, out, err = run(capsys, command, *BASE, *label, f"--dim={dim}")
        assert code == EXIT_USAGE
        assert out == "" and "--dim" in err

    def test_json_matches_csv_numerically(self, capsys):
        _, out_csv, _ = run(capsys, "spectrum", *BASE, "--dim", "6")
        _, out_json, _ = run(capsys, "spectrum", *BASE, "--dim", "6", "--format", "json")
        _, _, rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        for row_csv, row_json in zip(rows, payload["rows"]):
            assert [float(v) for v in row_csv] == pytest.approx(
                [float(v) for v in row_json], rel=1e-16
            )


class TestState:
    def test_kp_origin_single_coefficient(self, capsys):
        code, out, _ = run(capsys, "state", *BASE, "--zeta-re", "0", "--dim", "5")
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        assert float(rows[0][1]) == 1.0
        assert all(float(r[3]) == 0.0 for r in rows[1:])

    def test_gk_column_sum_matches_normalization(self, capsys):
        code, out, _ = run(capsys, "state", *BASE, "--z-re", "1.5", "--dim", "100")
        assert code == EXIT_OK
        meta, _, rows = parse_csv(out)
        total = sum(float(r[3]) for r in rows)
        assert abs(total - 1.0) <= max(1e-12, float(meta["tail_bound"]))

    def test_is_lambda_one_equals_gk(self, capsys):
        _, out_gk, _ = run(capsys, "state", *BASE, "--z-re", "1.5", "--dim", "90")
        _, out_is, _ = run(
            capsys, "state", *BASE, "--z-re", "1.5", "--lambda-re", "1", "--dim", "90"
        )
        _, _, rows_gk = parse_csv(out_gk)
        _, _, rows_is = parse_csv(out_is)
        worst = max(
            abs(complex(float(g[1]), float(g[2])) - complex(float(i[1]), float(i[2])))
            for g, i in zip(rows_gk, rows_is)
        )
        assert worst <= 1e-10  # both conventions pin c_0 real positive

    def test_under_truncation_warns(self, capsys):
        code, out, _ = run(capsys, "state", *BASE, "--zeta-re", "0.5", "--dim", "6")
        assert code == EXIT_WARN

    def test_unnormalizable_squeezing_yields_valid_json_and_warning(self, capsys):
        # purely imaginary lambda has an infinite tail bound; the JSON must
        # still parse (non-finite floats are stringified) and the exit code
        # flags the under-truncation
        code, out, _ = run(
            capsys, "state", *BASE, "--z-re", "0.8", "--lambda-im", "1",
            "--dim", "60", "--format", "json",
        )
        assert code == EXIT_WARN
        payload = json.loads(out)
        assert payload["meta"]["tail_bound"] == "inf"

    def test_negative_real_lambda_is_numeric_failure(self, capsys):
        code, out, err = run(
            capsys, "state", *BASE, "--z-re", "1", "--lambda-re=-0.5", "--lambda-im", "0.2"
        )
        assert code == EXIT_NUMERIC
        assert out == "" and "Re(lambda) < 0" in err

    def test_huge_kappa_is_numeric_failure_without_warning(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "state", "--kappa", "1e300", "--kappap", "2", "--zeta-re", "0.3", "--dim", "4"
            )
        assert code == EXIT_NUMERIC
        assert out == "" and "kappa = 1e+300" in err and "KPLabel" in err

    @pytest.mark.parametrize("kappa", ["1e200", "1e300"])
    def test_underflowing_gk_norm_is_numeric_failure_without_warning(self, capsys, kappa):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "state", "--kappa", kappa, "--kappap", "2", "--z-re", "0.3", "--dim", "4"
            )
        assert code == EXIT_NUMERIC
        assert out == "" and "GKLabel" in err

    def test_overflowing_gk_is_numeric_failure(self, capsys):
        code, out, err = run(capsys, "state", *BASE, "--z-re", "400", "--dim", "4000")
        assert code == EXIT_NUMERIC
        assert out == "" and "no mass" in err and "GKLabel" in err

    @pytest.mark.parametrize("command", ["state", "uncertainty"])
    def test_gk_norm_past_float_range_is_numeric_failure(self, capsys, command):
        code, out, err = run(capsys, command, *BASE, "--z-re", "1e300", "--dim", "10")
        assert code == EXIT_NUMERIC
        assert out == "" and "no mass" in err and "kappa = 2.0" in err and "GKLabel" in err

    @pytest.mark.parametrize("label", [["--zeta-re", "0.3"], ["--z-re", "0.3"]])
    def test_alpha_past_phase_precision_is_numeric_failure(self, capsys, label):
        code, out, err = run(capsys, "state", *BASE, *label, "--alpha", "1e300", "--dim", "4")
        assert code == EXIT_NUMERIC
        assert out == "" and "t = 1e+300" in err and "level n = 3" in err

    def test_conflicting_labels_rejected(self, capsys):
        code, _, err = run(
            capsys, "state", *BASE, "--zeta-re", "0.3", "--z-re", "0.5"
        )
        assert code == EXIT_USAGE
        assert "not both" in err

    def test_missing_label_rejected(self, capsys):
        code, _, err = run(capsys, "state", *BASE)
        assert code == EXIT_USAGE
        assert "label" in err


class TestWavefunction:
    def test_ground_profile_at_origin_label(self, capsys):
        code, out, _ = run(
            capsys, "wavefunction", *BASE, "--zeta-re", "0", "--dim", "10",
            "--grid", "120",
        )
        assert code == EXIT_OK
        meta, columns, rows = parse_csv(out)
        assert float(meta["density_integral"]) == pytest.approx(1.0, abs=1e-8)
        assert all(float(r[2]) == 0.0 for r in rows)  # real wavefunction at t=0

    def test_density_normalized_at_any_time(self, capsys):
        for t in ("0", "0.9"):
            code, out, _ = run(
                capsys, "wavefunction", *BASE, "--z-re", "1.5", "--dim", "100",
                "--grid", "400", "--t", t,
            )
            meta, _, _ = parse_csv(out)
            assert code == EXIT_OK
            assert float(meta["density_integral"]) == pytest.approx(1.0, abs=1e-8)

    def test_autocorrelation_column_is_one_at_t0(self, capsys):
        code, out, _ = run(
            capsys, "wavefunction", *BASE, "--z-re", "1.0", "--dim", "80",
            "--grid", "200", "--autocorr",
        )
        meta, columns, rows = parse_csv(out)
        assert columns[-1] == "autocorr_abs"
        assert float(meta["autocorr_abs"]) == pytest.approx(1.0, abs=1e-10)
        assert float(rows[0][-1]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("flags,calls", [((), 1), (("--autocorr",), 2)])
    def test_initial_wavefunction_only_under_autocorr(self, capsys, monkeypatch, flags, calls):
        seen, original = [], ptcs.cli.wavefunction

        def counting(*args):
            seen.append(args)
            return original(*args)

        monkeypatch.setattr(ptcs.cli, "wavefunction", counting)
        code, out, _ = run(capsys, "wavefunction", *BASE, "--z-re", "1.0", "--dim", "80",
                           "--grid", "200", "--t", "0.9", *flags)
        assert code == EXIT_OK and out
        assert len(seen) == calls

    @pytest.mark.parametrize("grid", ["0", "1", "-5"])
    def test_grid_below_two_is_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "wavefunction", *BASE, "--z-re", "1", f"--grid={grid}")
        assert code == EXIT_USAGE
        assert out == "" and "--grid" in err

    def test_autocorrelation_bounded_and_revives(self, capsys):
        _, out, _ = run(
            capsys, "wavefunction", *BASE, "--z-re", "1.0", "--dim", "80",
            "--grid", "200", "--autocorr", "--t", "0.9",
        )
        meta, _, _ = parse_csv(out)
        assert float(meta["autocorr_abs"]) <= 1.0 + 1e-10
        # integer strength sum: exact revival after one period
        _, out, _ = run(
            capsys, "wavefunction", *BASE, "--z-re", "1.0", "--dim", "80",
            "--grid", "200", "--autocorr", "--t", str(2.0 * 3.141592653589793),
        )
        meta, _, _ = parse_csv(out)
        assert float(meta["autocorr_abs"]) == pytest.approx(1.0, abs=1e-8)

    def test_time_past_phase_precision_is_numeric_failure(self, capsys):
        code, out, err = run(capsys, "wavefunction", *BASE, "--z-re", "0.3", "--t", "1e300")
        assert code == EXIT_NUMERIC
        assert out == "" and "t = 1e+300" in err and "level n = 119" in err

    def test_largest_benchmark_time_and_dim_still_run(self, capsys):
        code, out, _ = run(capsys, "wavefunction", *BASE, "--z-re", "1.3", "--t", "2", "--dim", "4000")
        assert code == EXIT_OK
        assert parse_csv(out)[0]["t"] == "2"


class TestUncertainty:
    def test_gk_origin_values(self, capsys):
        code, out, _ = run(capsys, "uncertainty", *BASE, "--z-re", "0", "--dim", "40")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        row = dict(zip(columns, map(float, rows[0])))
        assert row["dW2"] == pytest.approx(2.5, rel=1e-12)
        assert row["dP2"] == pytest.approx(2.5, rel=1e-12)

    def test_gk_closed_form_column(self, capsys):
        code, out, _ = run(capsys, "uncertainty", *BASE, "--z-re", "2", "--dim", "120")
        _, columns, rows = parse_csv(out)
        row = dict(zip(columns, map(float, rows[0])))
        assert row["meanG_closed_dev"] <= 1e-8
        assert row["meanG"] >= 5.0

    def test_is_label_row(self, capsys):
        code, out, _ = run(
            capsys, "uncertainty", *BASE, "--z-re", "0.8", "--lambda-re", "2",
            "--dim", "120",
        )
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        row = dict(zip(columns, map(float, rows[0])))
        assert row["dW2"] / row["dP2"] == pytest.approx(4.0, abs=1e-8)
        assert abs(row["rs_residual"]) <= 1e-8


class TestVerifyCommand:
    def test_meta_echoes_no_dim(self, capsys):
        code, out, _ = run(capsys, "verify", *BASE, "--suite", "kp-identity")
        assert code == EXIT_OK
        meta, _, _ = parse_csv(out)
        assert "dim" not in meta and meta["checks"] == "1"

    @pytest.mark.parametrize("dim", [["--dim=0"], ["--dim=-3"], ["--dim", "8"]], ids=["0", "-3", "8"])
    def test_dim_flag_is_usage_error(self, capsys, dim):
        # the checks run at fixed budgets, so verify takes no --dim at all
        with pytest.raises(SystemExit) as exc:
            main(["verify", *BASE, "--suite", "kp-identity", *dim])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--dim" in captured.err

    def test_radial_grid_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(["spectrum", *BASE, "--radial-grid", "50"])

    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "verify", *BASE, "--suite", "kp-identity")
        assert code == EXIT_OK
        _, columns, rows = parse_csv(out)
        assert rows[0][0] == "kp-identity"
        assert rows[0][3] == "true"
        assert float(rows[0][1]) <= 1e-6

    def test_measure_adjudication_details(self, capsys):
        code, out, _ = run(capsys, "verify", *BASE, "--suite", "gk-measure-index")
        assert code == EXIT_OK
        _, _, rows = parse_csv(out)
        details = dict(kv.split("=", 1) for kv in rows[0][4].split(";"))
        assert float(details["index_full_worst"]) <= 1e-6
        assert float(details["index_halved_deviation_n0"]) > 0.10

    def test_all_runs_ten_reports_deterministically(self, capsys):
        code, out1, _ = run(capsys, "verify", *BASE, "--suite", "all")
        assert code == EXIT_OK
        _, _, rows = parse_csv(out1)
        assert len(rows) == 10
        code, out2, _ = run(capsys, "verify", *BASE, "--suite", "all")
        assert out1 == out2  # byte-identical

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kappa", "3.8", "--kappap", "3.8"],
            ["--kappa", "6.1", "--kappap", "6.1"],
            ["--kappa", "30", "--kappap", "30", "--suite", "cn-triple-agreement,cn-ode,pi-recursion"],
        ],
    )
    def test_series_checks_pass_at_non_integer_and_large_strengths(self, capsys, argv):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == EXIT_OK
        assert all(row[3] == "true" for row in parse_csv(out)[2])

    @pytest.mark.parametrize("kappa", ["1e6", "1e300"])
    def test_series_checks_at_huge_strength_fail_promptly(self, capsys, kappa):
        # the series budget is capped, so these end in a numeric failure
        suite = "cn-triple-agreement,cn-ode"
        code, out, err = run(capsys, "verify", "--kappa", kappa, "--kappap", "2", "--suite", suite)
        assert code == EXIT_NUMERIC
        assert out == "" and "numeric failure" in err

    def test_full_suite_at_huge_strength_is_numeric_failure(self, capsys):
        # the dense Taylor exponential leaves the float range while squaring;
        # that is one named ArithmeticError, not a numpy warning
        code, out, err = run(capsys, "verify", "--kappa", "1e300", "--kappap", "2")
        assert code == EXIT_NUMERIC
        assert out == "" and "numeric failure" in err and "squarings" in err

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", *BASE, "--suite", "bogus")
        assert code == EXIT_USAGE
        assert "valid names" in err

    def test_unknown_check_next_to_all_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", *BASE, "--suite", "all,bogus-check")
        assert code == EXIT_USAGE
        assert out == "" and "bogus-check" in err

    def test_tolerance_override_tightening_fails_check(self, capsys):
        code, out, _ = run(
            capsys, "verify", *BASE, "--suite", "kp-identity",
            "--tol", "kp-identity=1e-20",
        )
        assert code == 1  # numeric failure under the absurdly tight gate
        _, _, rows = parse_csv(out)
        assert rows[0][3] == "false"

    def test_tolerance_override_validation(self, capsys):
        code, _, err = run(
            capsys, "verify", *BASE, "--suite", "kp-identity", "--tol", "bogus=1"
        )
        assert code == EXIT_USAGE and "not in this run" in err
        code, _, err = run(
            capsys, "verify", *BASE, "--suite", "kp-identity", "--tol", "kp-identity"
        )
        assert code == EXIT_USAGE and "NAME=VALUE" in err


class TestOutputHandling:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "levels.csv"
        code, out, _ = run(capsys, "spectrum", *BASE, "--dim", "3", "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text().startswith("# ")

    def test_env_dir_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PT_CS_OUT_DIR", str(tmp_path / "redirected"))
        code, _, _ = run(capsys, "spectrum", *BASE, "--dim", "3", "--out", "levels.csv")
        assert code == EXIT_OK
        assert (tmp_path / "redirected" / "levels.csv").exists()

    def test_repeated_runs_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "state", *BASE, "--z-re", "1.1", "--dim", "60")
        _, out2, _ = run(capsys, "state", *BASE, "--z-re", "1.1", "--dim", "60")
        assert out1 == out2


class TestRunConfig:
    def test_round_trip(self):
        config = RunConfig(
            command="state",
            kappa=2.0,
            kappap=2.5,
            a=1.2,
            alpha=0.3,
            dim=90,
            z_re=1.5,
            z_im=-0.2,
            lambda_re=1.0,
            suite=("kp-identity",),
            tolerances=(("kp-identity", 1e-7),),
            output_format="json",
        )
        assert RunConfig.from_dict(config.as_dict()) == config


COMMON = ("--kappa", "--kappap", "--a", "--alpha", "--format", "--out")
STATE = ("--dim", "--zeta-re", "--zeta-im", "--z-re", "--z-im", "--lambda-re", "--lambda-im")
READS = {
    "spectrum": COMMON + ("--dim",),
    "state": COMMON + STATE,
    "wavefunction": COMMON + STATE + ("--grid", "--t", "--autocorr"),
    "uncertainty": COMMON + STATE,
    "verify": COMMON + ("--suite", "--tol"),
}
SAMPLE = {
    "--kappa": "3", "--kappap": "3", "--a": "1.5", "--alpha": "0.2", "--format": "json",
    "--out": "levels.csv", "--dim": "5", "--grid": "50", "--zeta-re": "0.1", "--zeta-im": "0.1",
    "--z-re": "0.5", "--z-im": "0.5", "--lambda-re": "1", "--lambda-im": "0.5", "--t": "1",
    "--autocorr": None, "--suite": "kp-identity", "--tol": "kp-identity=1",
}


def flag_argv(flag):
    return [flag] if SAMPLE[flag] is None else [flag, SAMPLE[flag]]


class TestFlagTable:
    def test_table_size(self):
        assert sum(len(flags) for flags in READS.values()) == 57
        assert set().union(*READS.values()) == set(SAMPLE)

    @pytest.mark.parametrize("flag", list(SAMPLE))
    @pytest.mark.parametrize("command", list(READS))
    def test_each_subcommand_parses_only_the_flags_it_reads(self, capsys, command, flag):
        argv = [command, *BASE, *flag_argv(flag)]
        if flag in READS[command]:
            fields = vars(build_parser().parse_args(argv))
            assert set(fields) <= {f.name for f in dataclasses.fields(RunConfig)}
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_USAGE
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_flag_keeps_run_config_default(self):
        fields = vars(build_parser().parse_args(["wavefunction", *BASE]))
        config = RunConfig(**fields)
        assert config == RunConfig(command="wavefunction", kappa=2.0, kappap=2.0)

    def test_no_abbreviation_reaches_another_flag(self):
        # --t is a prefix of --tol, which verify does read
        with pytest.raises(SystemExit) as exc:
            main(["verify", *BASE, "--suite", "kp-identity", "--t", "3"])
        assert exc.value.code == EXIT_USAGE

    def test_ignored_flags_are_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", *BASE, "--dim", "3", "--z-re", "5", "--suite", "foo",
                  "--tol", "x=1", "--t", "3", "--grid", "7"])
        assert exc.value.code == EXIT_USAGE

    def test_spectrum_help_lists_only_its_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--help"])
        assert exc.value.code == EXIT_OK
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == set(READS["spectrum"]) | {"--help"}


def _readme_flag_table():
    """Subcommand -> the flags its row of the README table lists besides the common ones."""
    section = README.read_text().split("## Command line", 1)[1]
    rows = {}
    for line in section.split("\n"):
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`"):
            continue
        flags = set(re.findall(r"--[a-z][a-z-]*", cells[1]))
        for command in re.findall(r"`([a-z]+)`", cells[1]):  # "what `state` takes"
            flags |= rows[command]
        rows.update({command: flags for command in re.findall(r"`([a-z]+)`", cells[0])})
    return rows


def test_readme_flag_table_matches_commands():
    table = _readme_flag_table()
    header = next(line for line in README.read_text().split("\n") if line.startswith("| subcommand |"))
    assert set(re.findall(r"--[a-z][a-z-]*", header)) == set(ptcs.cli._COMMON)
    assert set(table) == set(ptcs.cli._COMMANDS)
    for command, (_, flags) in ptcs.cli._COMMANDS.items():
        assert table[command] == set(flags) - set(ptcs.cli._COMMON), command


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, name",
        [
            (["spectrum", *BASE, "--a", "inf"], "a"),
            (["state", "--kappa", "inf", "--kappap", "2", "--z-re", "1"], "kappa"),
            (["state", *BASE, "--zeta-re", "nan"], "zeta"),
            (["state", *BASE, "--z-re", "1", "--lambda-re", "nan"], "lambda"),
            (["wavefunction", *BASE, "--z-re", "1", "--dim", "20", "--grid", "40", "--t", "inf"], "t"),
            (["verify", *BASE, "--suite", "pi-recursion", "--tol", "pi-recursion=nan"], "pi-recursion"),
        ],
    )
    def test_is_usage_error_without_warning(self, capsys, argv, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and re.search(rf"usage error: .*\b{name}\b", err)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
    def test_tolerance_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="tolerance for kp-identity"):
            _parse_tolerance(f"kp-identity={value}")

    def test_zero_tolerance_parses(self):
        assert _parse_tolerance("kp-identity=0") == ("kp-identity", 0.0)


def _examples(text):
    return [line.split(None, 1)[1] for line in text.splitlines() if line.strip().startswith("pt-cs ")]


def _readme_examples():
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return _examples(block)


def _docstring_examples():
    usage = ptcs.cli.__doc__.split("Usage:", 1)[1].split("\n\n", 1)[0]
    return _examples(usage)


class TestDocumentedExamples:
    def test_both_sources_have_examples(self):
        assert _readme_examples() and _docstring_examples()

    @pytest.mark.parametrize("line", _readme_examples() + _docstring_examples())
    def test_example_exits_zero(self, capsys, line):
        code, out, _ = run(capsys, *shlex.split(line))
        assert code == EXIT_OK and out


class TestLadderPhasePrecision:
    """The minimum-uncertainty family takes its phases from the ladder amplitudes only."""

    @pytest.mark.parametrize("command", ["state", "uncertainty"])
    def test_alpha_past_ladder_phase_precision_is_numeric_failure(self, capsys, command):
        code, out, err = run(
            capsys, command, *BASE, "--z-re", "0.3", "--lambda-re", "1", "--alpha", "1e300", "--dim", "4"
        )
        assert code == EXIT_NUMERIC
        assert out == "" and "alpha = 1e+300" in err and "level n = 3" in err
