import json
import math

import numpy as np
import pytest

from entloc.cli import (
    emit_distribution,
    parse_distribution,
    run,
)
from entloc.correlate import fit_surface
from entloc.distribution import Distribution2D


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_capture(capsys, ["frobnicate"])
        assert code == 1
        assert json.loads(err)["error"] == "UnknownSubcommand"

    def test_no_arguments(self, capsys):
        code, _, err = run_capture(capsys, [])
        assert code == 1

    def test_bad_flag(self, capsys):
        code, _, err = run_capture(capsys, ["gauss-constants", "--alpha", "x"])
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    def test_numerical_failure(self, capsys):
        code, _, err = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "6",
            "--qbar", "50", "--width", "0.5"])
        assert code == 2
        assert json.loads(err)["error"] == "EmptyRegionMass"

    def test_success(self, capsys):
        code, out, _ = run_capture(capsys, ["gauss-constants", "--alpha", "6"])
        assert code == 0

    def test_help_lists_subcommands(self, capsys):
        code, out, _ = run_capture(capsys, ["--help"])
        assert code == 0
        assert out == (
            "subcommands: spin-scan, spin-negativity-scan, spin-vanish-point, "
            "gauss-constants, gauss-one-restricted, gauss-both-restricted, "
            "gauss-limits, gauss-classical-map, gauss-fit, gauss-sigma-scan, "
            "gauss-inequality, gauss-converge\n")

    @pytest.mark.parametrize("argv", [
        ["gauss-one-restricted", "--alpha", "nan", "--qbar", "0", "--width", "1"],
        ["gauss-one-restricted", "--alpha", "6", "--qbar", "inf", "--width", "1"],
        ["gauss-constants", "--alpha", "inf"],
    ])
    def test_non_finite_input(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("text", [
        "q_bar_A,q_bar_B,value,prob,flag\n0,0,abc,0.1,ok\n",  # non-numeric value
        "q_bar_A,q_bar_B,value,prob,flag\n0,0\n",             # short row
        None,                                                   # no such file
    ])
    def test_fit_bad_input_csv(self, capsys, tmp_path, text):
        path = tmp_path / "surface.csv"
        if text is not None:
            path.write_text(text)
        code, out, err = run_capture(capsys, ["gauss-fit", "--input", str(path)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "ConfigParse"


class TestScalarCommands:
    def test_constants_values(self, capsys):
        code, out, _ = run_capture(capsys, ["gauss-constants", "--alpha", "6"])
        payload = json.loads(out)
        assert payload["C1"] == pytest.approx(0.583333, abs=1e-6)
        assert payload["C2"] == pytest.approx(0.166667, abs=1e-6)
        assert payload["sigma"] == pytest.approx(0.774597, abs=1e-6)
        assert payload["eof"] == pytest.approx(0.70187, abs=1e-4)

    def test_vanish_point(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-vanish-point",
            "--theta1", "0.7853981634", "--theta2", "0.7853981634"])
        assert code == 0
        assert json.loads(out)["F_star"] == pytest.approx(0.25, abs=1e-4)

    def test_limits(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-limits", "--alpha", "6", "--a", "0.1", "--b", "0.1"])
        payload = json.loads(out)
        assert payload["epsilon_one"] == pytest.approx(1.1111e-3, rel=1e-4)
        assert payload["epsilon_both"] == pytest.approx(1.1111e-5, rel=1e-4)
        assert payload["concurrence_density"] == pytest.approx(0.66667,
                                                               abs=1e-5)

    def test_point_evaluations(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "6",
            "--qbar", "0", "--width", "10"])
        assert json.loads(out)["entanglement"] == pytest.approx(0.702,
                                                                abs=5e-3)
        code, out, _ = run_capture(capsys, [
            "gauss-both-restricted", "--alpha", "6", "--mode", "point",
            "--qbar-a", "0", "--qbar-b", "0", "--width", "1",
            "--n-bins", "60"])
        assert code == 0
        assert json.loads(out)["entanglement"] > 0.0

    def test_metadata_echoes_config(self, capsys):
        code, out, _ = run_capture(capsys, ["gauss-constants", "--alpha", "6"])
        config = json.loads(out)["metadata"]["config"]
        assert config["alpha"] == 6.0
        assert config["subcommand"] == "gauss-constants"

    def test_metadata_config_key_order(self, capsys):
        # common flags, then the subcommand's flags in declaration order,
        # then values no flag sets; unset flags are left out
        code, out, _ = run_capture(capsys, [
            "spin-scan", "--steps", "2", "--format", "json"])
        assert code == 0
        assert list(json.loads(out)["metadata"]["config"]) == [
            "format", "seed", "steps", "theta_min", "theta_max", "surface",
            "f_value", "measure", "subcommand"]


class TestDistributionIo:
    def make_distribution(self):
        axis = np.array([0.0, 0.5, 1.0])
        values = np.array([[0.1, 0.2, 0.3],
                           [0.4, np.nan, 0.6],
                           [0.7, 0.8, 0.9]])
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        return Distribution2D(axis_a=axis, axis_b=axis, values=values,
                              mask=mask)

    def test_csv_round_trip(self, tmp_path):
        dist = self.make_distribution()
        path = tmp_path / "surface.csv"
        emit_distribution(dist, str(path), "csv")
        text_first = path.read_text()
        parsed = parse_distribution(str(path))
        emit_distribution(parsed, str(path), "csv")
        assert path.read_text() == text_first
        assert parsed.mask[1, 1]
        assert np.isnan(parsed.values[1, 1])

    def test_masked_cells_serialized_as_nan(self, tmp_path):
        path = tmp_path / "surface.csv"
        emit_distribution(self.make_distribution(), str(path), "csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "q_bar_A,q_bar_B,value,prob,flag"
        masked = [line for line in lines if line.endswith("masked")]
        assert len(masked) == 1
        assert masked[0].split(",")[2] == "nan"

    def test_twelve_significant_digits(self, tmp_path):
        axis = np.array([0.0, 1.0])
        value = 0.123456789012345
        dist = Distribution2D(axis_a=axis, axis_b=axis,
                              values=np.full((2, 2), value))
        path = tmp_path / "digits.csv"
        emit_distribution(dist, str(path), "csv")
        row = path.read_text().strip().split("\n")[1]
        assert row.split(",")[2] == "0.123456789012"

    def test_json_format(self, tmp_path):
        path = tmp_path / "surface.json"
        emit_distribution(self.make_distribution(), str(path), "json",
                          metadata={"config": {"alpha": 6}})
        payload = json.loads(path.read_text())
        assert payload["metadata"]["config"]["alpha"] == 6
        assert len(payload["values"]) == 9
        assert payload["values"][4] is None  # masked cell
        assert payload["flag"][4] == "masked"


class TestScanCommands:
    def test_spin_scan_csv(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-scan", "--steps", "8", "--theta-max", "3.14159"])
        lines = out.strip().split("\n")
        assert lines[0] == "theta1,theta2,value,prob,flag"
        assert len(lines) == 65
        assert code == 0

    def test_spin_scan_restricted_has_masked_singularity(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-scan", "--steps", "8", "--theta-min", "0",
            "--theta-max", "3.14159265", "--restricted"])
        rows = out.strip().split("\n")[1:]
        first = rows[0].split(",")
        assert first[4] == "masked" and first[2] == "nan"

    def test_spin_delta_surface(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-scan", "--steps", "8", "--surface", "delta"])
        assert code == 0
        values = [float(row.split(",")[2])
                  for row in out.strip().split("\n")[1:]
                  if row.split(",")[4] == "ok"]
        assert max(values) > 0.0

    def test_spin_negativity_scan(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-negativity-scan", "--steps", "6", "--f-value", "0.65"])
        assert code == 0
        values = [float(row.split(",")[2])
                  for row in out.strip().split("\n")[1:]]
        assert max(values) > 0.0

    def test_spin_negativity_purity_sweep(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-negativity-scan", "--f-range", "0.0625", "1", "16"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "F,theta1,value,prob,flag"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values[0] <= 1e-9 and values[-1] > 0.4

    def test_one_restricted_map(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "6",
            "--centers", "-2", "2", "9", "--widths", "1,2",
            "--n-bins", "60"])
        lines = out.strip().split("\n")
        assert lines[0] == "q_bar_A,width,value,prob,flag"
        assert len(lines) == 19

    def test_both_restricted_grid_and_profiles(self, capsys):
        base = ["gauss-both-restricted", "--alpha", "6", "--width", "1",
                "--centers", "-1", "1", "5", "--n-bins", "40"]
        code, out, _ = run_capture(capsys, base + ["--mode", "grid"])
        assert code == 0
        assert len(out.strip().split("\n")) == 26
        code, out, _ = run_capture(capsys, base + ["--mode", "profile-equal"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(row[0] == row[1] for row in rows)
        code, out, _ = run_capture(capsys, base + ["--mode", "profile-fixed",
                                                   "--bob-center", "0"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(float(row[1]) == 0.0 for row in rows)

    def test_classical_map_and_fit_round_trip(self, capsys, tmp_path):
        path = tmp_path / "joint.csv"
        code, _, _ = run_capture(capsys, [
            "gauss-classical-map", "--alpha", "6",
            "--centers", "-1.5", "1.5", "21", "--width", "0.02",
            "--output", str(path)])
        assert code == 0
        code, out, _ = run_capture(capsys, [
            "gauss-fit", "--input", str(path), "--form", "symmetric"])
        fit = json.loads(out)["fit"]
        assert fit["sigma_plus"] == pytest.approx(math.sqrt(2.0), rel=0.02)
        assert fit["sigma_minus"] == pytest.approx(0.632456, rel=0.02)
        # re-ingesting reproduces the direct fit of the same surface
        direct = fit_surface(parse_distribution(str(path)), "symmetric_pm")
        assert fit["sigma_plus"] == pytest.approx(direct.sigma_plus, rel=1e-12)

    def test_fit_jitter_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "joint.csv"
        run_capture(capsys, [
            "gauss-classical-map", "--alpha", "6",
            "--centers", "-1.5", "1.5", "15", "--width", "0.02",
            "--output", str(path)])
        code, out, _ = run_capture(capsys, [
            "gauss-fit", "--input", str(path), "--jitter", "1e-4",
            "--seed", "3"])
        payload = json.loads(out)
        assert "jitter_fit" in payload
        assert payload["jitter_fit"]["sigma_plus"] == pytest.approx(
            payload["fit"]["sigma_plus"], rel=1e-2)

    def test_sigma_scan_analytic(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-sigma-scan", "--alphas", "0.5,2,6",
            "--which", "small-a-analytic"])
        lines = out.strip().split("\n")
        assert lines[0].startswith("alpha,sigma_plus")
        assert len(lines) == 4

    def test_profile_json_rows(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-both-restricted", "--alpha", "6", "--width", "1",
            "--centers", "-1", "1", "3", "--n-bins", "20",
            "--mode", "profile-fixed", "--bob-center", "0.5", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row[0] for row in rows] == [-1.0, 0.0, 1.0]
        assert all(row[1] == 0.5 and row[4] == "ok" for row in rows)
        assert all(0.0 < row[2] and 0.0 < row[3] < 1.0 for row in rows)

    def test_converge_csv(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-converge", "--alpha", "6", "--widths", "2,3",
            "--n-bins", "40", "--n-basis", "10"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("width,grid_coarse,grid_fine,basis_coarse,"
                            "basis_fine,grid_limit,basis_limit,gap")
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]

    def test_empty_tables_keep_their_header(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-sigma-scan", "--alphas", ",", "--which", "small-a-analytic"])
        assert (code, out) == (0, "alpha,sigma_plus,sigma_minus,sigma_1,sigma_2,sigma_12\n")
        code, out, _ = run_capture(capsys, ["gauss-converge", "--alpha", "6", "--widths", ","])
        assert (code, out) == (0, "width,grid_coarse,grid_fine,basis_coarse,"
                                  "basis_fine,grid_limit,basis_limit,gap\n")

    def test_converge_table(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-converge", "--alpha", "6", "--widths", "2",
            "--n-bins", "100", "--n-basis", "20", "--format", "json"])
        rows = json.loads(out)["rows"]
        assert rows[0]["gap"] <= 5e-3

    def test_inequality_report(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-inequality", "--alpha", "6", "--grid-a", "2",
            "--grid-b", "2", "--extent", "4", "--n-bins", "40",
            "--nd-center", "0", "--nd-half-width", "1"])
        payload = json.loads(out)
        assert payload["slack"] >= -1e-6
        assert len(payload["cells"]) == 4
        assert payload["non_discarding"]["two_path_gap"] <= 1e-6


class TestWorkersResolution:
    def test_env_override_honored(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("ENTLOC_THREADS", "2")
        path = tmp_path / "env.csv"
        args = ["gauss-both-restricted", "--alpha", "6", "--mode", "grid",
                "--centers", "-1", "1", "4", "--width", "1",
                "--n-bins", "40", "--output", str(path)]
        assert run(args) == 0
        env_bytes = path.read_bytes()
        monkeypatch.delenv("ENTLOC_THREADS")
        assert run(args) == 0
        assert path.read_bytes() == env_bytes

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("ENTLOC_THREADS", "many")
        code, _, err = run_capture(capsys, [
            "gauss-both-restricted", "--alpha", "6", "--mode", "grid",
            "--centers", "-1", "1", "4", "--width", "1", "--n-bins", "40"])
        assert code == 1
        assert json.loads(err)["error"] == "ConfigParse"


class TestBasisMethodFlag:
    def test_point_evaluation_via_basis(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "6", "--qbar", "0",
            "--width", "2", "--method", "basis", "--n-basis", "20"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "basis"
        assert payload["spectrum_size"] == 20
        assert payload["entanglement"] == pytest.approx(0.408, abs=5e-3)


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"alpha": 6.0, "a": 0.1, "b": 0.1}))
        code, out, _ = run_capture(capsys, [
            "gauss-limits", "--config", str(config)])
        assert code == 0
        assert json.loads(out)["epsilon_one"] == pytest.approx(1.1111e-3,
                                                               rel=1e-4)
        code, out, _ = run_capture(capsys, [
            "gauss-limits", "--config", str(config), "--a", "0.2"])
        assert json.loads(out)["epsilon_one"] == pytest.approx(4 * 1.1111e-3,
                                                               rel=1e-4)

    def test_bad_config(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("not json")
        code, _, err = run_capture(capsys, [
            "gauss-limits", "--config", str(config), "--alpha", "6",
            "--a", "0.1"])
        assert code == 1
        assert json.loads(err)["error"] == "ConfigParse"


class TestDeterminism:
    def test_worker_count_does_not_change_csv(self, tmp_path):
        args = ["gauss-both-restricted", "--alpha", "6", "--mode", "grid",
                "--centers", "-1", "1", "5", "--width", "1",
                "--n-bins", "40"]
        path_serial = tmp_path / "serial.csv"
        path_parallel = tmp_path / "parallel.csv"
        assert run(args + ["--workers", "1", "--output", str(path_serial)]) == 0
        assert run(args + ["--workers", "2",
                           "--output", str(path_parallel)]) == 0
        assert path_serial.read_bytes() == path_parallel.read_bytes()

    def test_repeat_runs_identical(self, tmp_path):
        args = ["spin-scan", "--steps", "10", "--restricted"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(args + ["--output", str(first)]) == 0
        assert run(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
