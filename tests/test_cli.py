"""Command-line interface: formats, exit codes, determinism, round-trips."""

import json

import pytest

from ptcs.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_WARN, RunConfig, main

BASE = ["--kappa", "2", "--kappap", "2"]


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

    @pytest.mark.parametrize("command", ["spectrum", "state", "wavefunction", "uncertainty", "verify"])
    @pytest.mark.parametrize("dim", ["0", "-3"])
    def test_nonpositive_dim_is_usage_error(self, capsys, command, dim):
        code, out, err = run(capsys, command, *BASE, "--z-re", "1", f"--dim={dim}")
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
        code, out, _ = run(capsys, "verify", *BASE, "--suite", "kp-identity", "--dim", "8")
        assert code == EXIT_OK
        meta, _, _ = parse_csv(out)
        assert "dim" not in meta and meta["checks"] == "1"

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

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", *BASE, "--suite", "bogus")
        assert code == EXIT_USAGE
        assert "valid names" in err

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
