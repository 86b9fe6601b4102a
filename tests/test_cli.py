import json
import os

import numpy as np
import pytest

from shrinker_lab.cli import main
from shrinker_lab.reports import write_csv


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestExitCodes:
    def test_verify_default_passes(self, tmp_path):
        assert run(tmp_path, "verify-quadratic", "--trials", "10", "--points", "5") == 0

    def test_malformed_tau_is_usage_error(self, tmp_path):
        assert run(tmp_path, "verify-quadratic", "--tau", "2.0") == 64

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "verify-quadratic", "--nonsense", "1")
        assert exc.value.code == 64

    def test_trivial_slope_is_parameter_error(self, tmp_path):
        assert run(tmp_path, "build-counterexample", "--a1", "0") == 65

    def test_wrong_branch_for_construction(self, tmp_path):
        assert run(tmp_path, "build-counterexample", "--a", "0.5") == 65

    def test_shoot_requires_u0(self, tmp_path):
        assert run(tmp_path, "shoot", "--branch", "SLAG") == 64

    def test_shoot_event_is_success(self, tmp_path):
        code = run(tmp_path, "shoot", "--branch", "SLAG", "--n", "2",
                   "--u0", "-1.4707963267948966")
        assert code == 0
        report = json.loads((tmp_path / "shoot.json").read_text())
        assert report["results"]["event"]["kind"] != "completed"
        assert report["results"]["event"]["r"] < 50.0

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-quadratic", "--trials", "0"),
            ("verify-quadratic", "--points", "0"),
            ("verify-quadratic", "--n", "0"),
            ("flow-check", "--trials", "0"),
            ("flow-check", "--n", "0"),
            ("defect", "--trials", "0"),
            ("defect", "--n", "0"),
        ],
    )
    def test_empty_sweep_is_parameter_error(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 65
        assert not (tmp_path / f"{argv[0]}.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("shoot", "--u0", "-1", "--rmax", "-1"),
            ("shoot", "--u0", "-1", "--rmax", "0"),
            ("shoot", "--u0", "-1", "--rmax", "nan"),
            ("shoot", "--u0", "-1", "--rmax", "inf"),
            ("build-counterexample", "--rmax", "0"),
            ("legendre-check", "--grid-step", "0"),
            ("legendre-check", "--grid-step", "-0.01"),
            ("legendre-check", "--grid-step", "nan"),
            ("build-counterexample", "--mss", "--grid-step", "0"),
            ("build-counterexample", "--mss", "--grid-step", "nan"),
            ("legendre-check", "--span", "nan"),
            ("build-counterexample", "--span", "-1"),
            ("build-counterexample", "--mss", "--span", "inf"),
            ("verify-quadratic", "--tol", "nan"),
            ("verify-quadratic", "--tol", "0"),
            ("flow-check", "--tol", "-1"),
            ("shoot", "--u0", "-1", "--tol", "inf"),
            ("shoot", "--u0", "-1", "--dps", "-3"),
            ("shoot", "--u0", "-1", "--dps", "0"),
            ("shoot", "--u0", "-1", "--dps", "10"),
        ],
    )
    def test_bad_size_is_parameter_error(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 65
        assert not (tmp_path / f"{argv[0]}.json").exists()

    @pytest.mark.parametrize("flag, value", [("--a0", "nan"), ("--a1", "inf"), ("--a1", "nan")])
    def test_non_finite_phase_data_is_parameter_error(self, tmp_path, flag, value):
        assert run(tmp_path, "build-counterexample", flag, value) == 65
        assert not (tmp_path / "build-counterexample.json").exists()

    def test_spacelike_violation_is_construction_failure(self, tmp_path, capsys):
        code = run(tmp_path, "build-counterexample", "--mss", "--phi0", "1.9", "--s0", "0.2",
                   "--tol", "1e-8")
        assert code == 3
        assert "construction failed" in capsys.readouterr().err

    def test_unattainable_u0_is_parameter_error(self, tmp_path):
        assert run(tmp_path, "shoot", "--branch", "SLAG", "--u0", "-4") == 65

    def test_shoot_bad_dimension_is_parameter_error(self, tmp_path):
        assert run(tmp_path, "shoot", "--branch", "SLAG", "--n", "0", "--u0", "-1") == 65

    def test_construction_bad_dimension_is_parameter_error(self, tmp_path):
        assert run(tmp_path, "build-counterexample", "--n", "0") == 65

    def test_shoot_high_precision_path(self, tmp_path):
        code = run(tmp_path, "shoot", "--branch", "MA", "--n", "2", "--u0", "0",
                   "--rmax", "2", "--dps", "30")
        assert code == 0
        report = json.loads((tmp_path / "shoot.json").read_text())
        assert report["results"]["event"]["kind"] == "completed"
        # u0 = 0 forces unit initial curvature on the log-determinant branch
        rows = (tmp_path / "radial-profile.csv").read_text().splitlines()
        last = rows[-1].split(",")
        assert abs(float(last[1]) - 0.5 * float(last[0]) ** 2) < 1e-6


class TestReports:
    def test_schema(self, tmp_path):
        run(tmp_path, "verify-quadratic", "--trials", "5", "--points", "3")
        report = json.loads((tmp_path / "verify-quadratic.json").read_text())
        assert set(report) == {"command", "config", "results", "pass", "version"}
        assert report["pass"] is True
        assert set(report["results"]["per_branch"]) == {"MA", "LOG", "HARM", "ATAN", "SLAG", "NEG"}

    def test_byte_identical_reports(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            main(["verify-quadratic", "--trials", "5", "--points", "3", "--seed", "11",
                  "--out", str(out)])
        assert (a / "verify-quadratic.json").read_bytes() == (b / "verify-quadratic.json").read_bytes()

    def test_counterexample_files(self, tmp_path):
        code = run(tmp_path, "build-counterexample", "--a", "-2", "--a0", "0", "--a1", "1",
                   "--n", "2")
        assert code == 0
        report = json.loads((tmp_path / "build-counterexample.json").read_text())
        assert report["results"]["residual_sup"] <= 1e-6
        header = (tmp_path / "counterexample-trajectory.csv").read_text().splitlines()[0]
        assert header == "t,phi,phi_prime,w1,w1_prime,w1_second"

    def test_mss_flag(self, tmp_path):
        code = run(tmp_path, "build-counterexample", "--mss", "--phi0", "1")
        assert code == 0
        report = json.loads((tmp_path / "build-counterexample.json").read_text())
        assert report["results"]["bounds"]["sup_abs_slope"] < 1.0
        assert (tmp_path / "mss-profile.csv").exists()

    def test_legendre_check(self, tmp_path):
        assert run(tmp_path, "legendre-check") == 0
        report = json.loads((tmp_path / "legendre-check.json").read_text())
        assert report["results"]["self_dual_involution"] <= 1e-9

    def test_flow_and_defect(self, tmp_path):
        assert run(tmp_path, "flow-check", "--trials", "10") == 0
        assert run(tmp_path, "defect", "--trials", "3") == 0

    def test_csv_is_crlf(self, tmp_path):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[1.0, 2.0]])
        assert b"\r\n" in (tmp_path / "x.csv").read_bytes()

