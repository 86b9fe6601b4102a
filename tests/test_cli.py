import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinker_lab.cli import BRANCH_DEFAULTS, build_parser, main
from shrinker_lab import cli, constructor, reports, shooting
from shrinker_lab.numerics import RhsEvaluationError
from shrinker_lab.reports import write_csv


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


DOCUMENTED_EXIT_CODES = {0, 2, 3, 64, 65}


def _literals(*values):
    return st.sampled_from([repr(v) for v in values])


FUZZ_FLOATS = _literals(0.0, 1.0, -1.0, 1e-3, -1e-3, 40.0, -40.0, 1e10, -1e10, 1e300, -1e300, 5e-324,
                        math.inf, -math.inf, math.nan)
FUZZ_INTS = _literals(-1, 0, 1, 2, 3)
# the flags that set how much work a command does draw only from small values
SMALL_FLOATS = _literals(-1.0, 0.0, 5e-324, 1e-3, 1.0, math.inf, math.nan)
SMALL_INTS = _literals(-1, 0, 1, 2)
BRANCH_FLAGS = {"--branch": st.sampled_from(sorted(BRANCH_DEFAULTS)), "--tau": FUZZ_FLOATS,
                "--a": FUZZ_FLOATS, "--n": FUZZ_INTS}
SWEEP_FLAGS = {**BRANCH_FLAGS, "--tol": FUZZ_FLOATS, "--seed": FUZZ_INTS}
# per subcommand: (flags an example may give, flags every example gives)
FUZZ_COMMANDS = {
    "verify-quadratic": ({**SWEEP_FLAGS, "--points": FUZZ_INTS}, {"--trials": SMALL_INTS}),
    "flow-check": (SWEEP_FLAGS, {"--trials": SMALL_INTS}),
    "defect": (SWEEP_FLAGS, {"--trials": SMALL_INTS}),
    "build-counterexample": (
        {**SWEEP_FLAGS, "--a0": FUZZ_FLOATS, "--a1": FUZZ_FLOATS, "--phi0": FUZZ_FLOATS, "--s0": FUZZ_FLOATS,
         "--grid-step": FUZZ_FLOATS, "--mss": st.none()},
        {"--span": SMALL_FLOATS, "--rmax": SMALL_FLOATS},
    ),
    "shoot": ({**BRANCH_FLAGS, "--u0": FUZZ_FLOATS, "--tol": FUZZ_FLOATS, "--dps": _literals(-1, 0, 1, 11, 20)},
              {"--rmax": SMALL_FLOATS}),
    "legendre-check": ({"--grid-step": FUZZ_FLOATS}, {"--span": SMALL_FLOATS}),
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    optional, sized = FUZZ_COMMANDS[command]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(sorted(optional)), max_size=5, unique=True)):
        value = draw(optional[flag])
        argv += [flag] if value is None else [flag, value]
    for flag, values in sized.items():
        argv += [flag, draw(values)]
    return argv


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

    @pytest.mark.parametrize(
        "argv",
        # legendre-check checks one fixed quadratic; shoot draws nothing, and
        # its Taylor path (--dps) sets its own step tolerance
        [
            ("legendre-check", "--branch", "LOG"),
            ("legendre-check", "--tau", "5"),
            ("legendre-check", "--a", "-2"),
            ("legendre-check", "--n", "3"),
            ("legendre-check", "--tol", "1e-3"),
            ("legendre-check", "--seed", "1"),
            ("shoot", "--u0", "-1", "--seed", "1"),
            ("shoot", "--u0", "-1", "--dps", "15", "--tol", "1e-3"),
            # build-counterexample's two constructions read different flags
            ("build-counterexample", "--mss", "--branch", "NEG"),
            ("build-counterexample", "--mss", "--tau", "2"),
            ("build-counterexample", "--mss", "--a", "-2"),
            ("build-counterexample", "--mss", "--a0", "0"),
            ("build-counterexample", "--mss", "--a1", "1"),
            ("build-counterexample", "--mss", "--n", "2"),
            ("build-counterexample", "--mss", "--seed", "0"),
            ("build-counterexample", "--phi0", "1"),
            ("build-counterexample", "--s0", "0"),
        ],
    )
    def test_flag_the_command_does_not_read_is_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 64
        assert not (tmp_path / f"{argv[0]}.json").exists()

    @pytest.mark.parametrize("flags", [("--branch", "LOG", "--a", "-2"), ("--branch", "LOG", "--tau", "0.5"),
                                       ("--tau", "0.5", "--a", "-2")])
    def test_two_branch_flags_are_usage_error(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "shoot", "--u0", "0.2", "--rmax", "1", *flags)
        assert exc.value.code == 64
        assert not (tmp_path / "shoot.json").exists()

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
            ("shoot", "--u0", "-1", "--tol", "1e-323"),  # positive, but tol/100 underflows to 0
            ("build-counterexample", "--tol", "1e-323"),
            ("shoot", "--u0", "-1", "--dps", "-3"),
            ("shoot", "--u0", "-1", "--dps", "0"),
            ("shoot", "--u0", "-1", "--dps", "10"),
            ("shoot", "--tau", "0.78", "--n", "1", "--u0", "5e-324"),
            ("flow-check", "--seed", "-1"),
            ("verify-quadratic", "--seed", "-1"),
            ("defect", "--seed", "-1"),
            ("build-counterexample", "--seed", "-1"),
            ("legendre-check", "--grid-step", "1e-20"),
            ("legendre-check", "--grid-step", "5e-324", "--span", "1e-3"),
            ("legendre-check", "--span", "1e10"),
            ("build-counterexample", "--mss", "--grid-step", "1e-20"),
            ("build-counterexample", "--grid-step", "1e-20"),
        ],
    )
    def test_bad_size_is_parameter_error(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 65
        assert not (tmp_path / f"{argv[0]}.json").exists()

    # 0.8 leaves the drift check no sample, 3 the involution check too; on a
    # span of 1e-3 the drift check's 4e-3 margin leaves none at any step
    @pytest.mark.parametrize("argv", [("--grid-step", "0.8"), ("--grid-step", "3"),
                                      ("--span", "1e-3", "--grid-step", "1e-4")])
    def test_empty_legendre_sweep_is_parameter_error(self, tmp_path, capsys, argv):
        assert run(tmp_path, "legendre-check", *argv) == 65
        err = capsys.readouterr().err
        assert "--grid-step" in err and "--span" in err and "check no" in err
        assert not (tmp_path / "legendre-check.json").exists()

    @pytest.mark.parametrize("flag, value", [("--a0", "nan"), ("--a1", "inf"), ("--a1", "nan")])
    def test_non_finite_phase_data_is_parameter_error(self, tmp_path, flag, value):
        assert run(tmp_path, "build-counterexample", flag, value) == 65
        assert not (tmp_path / "build-counterexample.json").exists()

    @pytest.mark.parametrize("argv", [("--a1", "0.03"), ("--a0", "-40")])
    def test_overflowing_ceiling_is_parameter_error(self, tmp_path, capsys, argv):
        assert run(tmp_path, "build-counterexample", *argv) == 65
        assert "ceiling" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-quadratic", "--a", "1e300"),
            ("verify-quadratic", "--a", "-1e300"),
            ("verify-quadratic", "--tau", "1e-300"),
            ("verify-quadratic", "--tau", "5e-324"),
            ("verify-quadratic", "--a", "nan"),
            ("shoot", "--u0", "1e-3", "--a", "-1e10"),
            ("shoot", "--u0", "1", "--a", "1e10"),
        ],
    )
    def test_degenerate_branch_constants_are_usage_errors(self, tmp_path, argv):
        assert run(tmp_path, *argv) == 64
        assert not (tmp_path / f"{argv[0]}.json").exists()

    @pytest.mark.parametrize("argv", [("--a0", "40")])
    def test_domain_error_is_construction_failure(self, tmp_path, capsys, argv):
        assert run(tmp_path, "build-counterexample", *argv) == 3
        assert "construction failed" in capsys.readouterr().err

    def test_construction_error_is_construction_failure(self, tmp_path, capsys, monkeypatch):
        phase_rhs = constructor._phase_rhs

        def walled(t, phi, dphi):  # the phase ODE leaves its domain past |t| = 1
            if abs(t) > 1.0:
                raise RhsEvaluationError("wall", f"t = {t}")
            return phase_rhs(t, phi, dphi)

        monkeypatch.setattr(constructor, "_phase_rhs", walled)
        assert run(tmp_path, "build-counterexample", "--tol", "1e-6") == 3
        err = capsys.readouterr().err
        assert re.search(r"construction failed: \[phase_ode\] divergence event wall at t = 0\.9999999999999", err)
        assert not (tmp_path / "build-counterexample.json").exists()

    @pytest.mark.parametrize(
        "argv",
        # --tol 1e-6 keeps the span of 650 that --tau -1e-3 needs to a second
        [("--a1", "40"), ("--tau", "-1e-3", "--tol", "1e-6"), ("--tol", "100", "--a1", "10"),
         ("--a1", "5", "--n", "1")],
    )
    def test_cone_edge_in_cross_check_leaves_the_certificate_to_decide(self, tmp_path, capsys, argv):
        # an inner spectrum rounds onto the cone edge: the generic route goes
        # unread, and the certificate's own checks set the exit code
        code = run(tmp_path, "build-counterexample", *argv)
        assert capsys.readouterr().err == ""
        results = json.loads((tmp_path / "build-counterexample.json").read_text())["results"]
        assert code == (0 if results["passed"] else 3)
        assert results["cross_checks"]["generic_route_inner_sup"] is None
        assert results["cross_checks"]["route_agreement_inner_sup"] is None

    @pytest.mark.parametrize(
        "argv",
        # the last three by their CSV grid, --grid-step over the half-span of the table
        [("--span", "1e10"), ("--mss", "--span", "1e10"), ("--rmax", "1e7"), ("--mss", "--rmax", "1e7"),
         ("--tau", "-1e-3"), ("--mss", "--span", "8000", "--tol", "1e-3"),
         ("--rmax", "200", "--grid-step", "1e-4"), ("--mss", "--grid-step", "1e-6")],
    )
    def test_oversized_construction_is_parameter_error(self, tmp_path, capsys, monkeypatch, argv):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated before the sizes were checked")

        monkeypatch.setattr(constructor, "integrate_ode", no_integration)
        start = time.perf_counter()
        assert run(tmp_path, "build-counterexample", *argv) == 65
        assert time.perf_counter() - start < 1.0
        # the integrator's span (_check_size) or the CSV grid (profile_grid)
        assert re.search(r"exceeds the integrator's span|more than 1000000 points", capsys.readouterr().err)
        assert not (tmp_path / "build-counterexample.json").exists()

    def test_overflowing_half_span_is_refused_by_its_radius(self, tmp_path, capsys):
        # --rmax / c2 * 1.02 + 1 on the bounded cone is inf at --rmax 1e308
        assert run(tmp_path, "build-counterexample", "--rmax", "1e308") == 65
        assert "half-span at radius 1e+308 must be finite and positive, got inf" in capsys.readouterr().err
        assert not (tmp_path / "build-counterexample.json").exists()

    @pytest.mark.parametrize(
        "argv",
        # each is refused before any work, so none of them allocates its size
        [
            ("verify-quadratic", "--n", "11"),
            ("build-counterexample", "--n", "1000000000"),
            ("shoot", "--u0", "-1", "--n", "11"),
            ("shoot", "--u0", "-1", "--dps", "101"),
            ("shoot", "--u0", "-1", "--dps", "1000000000"),
            ("flow-check", "--trials", "1000001"),
            ("defect", "--trials", "1000000000"),
            ("verify-quadratic", "--trials", "1000001", "--points", "1"),
            ("verify-quadratic", "--trials", "50001"),  # at the default 20 points
            ("verify-quadratic", "--trials", "1001", "--points", "1000"),
        ],
    )
    def test_oversized_run_is_usage_error(self, tmp_path, capsys, argv):
        start = time.perf_counter()
        assert run(tmp_path, *argv) == 64
        assert time.perf_counter() - start < 1.0
        assert "is above" in capsys.readouterr().err
        assert not (tmp_path / f"{argv[0]}.json").exists()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(argv=cli_argv())
    def test_every_input_exits_with_a_documented_code(self, argv):
        with tempfile.TemporaryDirectory() as out:
            try:
                code = main([*argv, "--out", out])
            except SystemExit as exc:
                code = exc.code
        assert code in DOCUMENTED_EXIT_CODES, argv

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify-quadratic", "--trials", "1"),
            ("build-counterexample",),
            ("shoot", "--u0", "-1.5"),
            ("flow-check", "--trials", "1"),
            ("legendre-check",),
            ("defect", "--trials", "1"),
        ],
    )
    def test_out_that_cannot_be_a_directory_is_parameter_error(self, tmp_path, capsys, monkeypatch, argv, under):
        # refused before the command runs: the parser's args carry a command that fails the test
        parser = build_parser()
        parse = parser.parse_args

        def parse_without_command(argv):
            args = parse(argv)
            args.func = lambda args: pytest.fail("the command ran")
            return args

        monkeypatch.setattr(parser, "parse_args", parse_without_command)
        blocker = tmp_path / "report"
        blocker.write_bytes(b"kept\n")
        out = blocker / "sub" if under else blocker
        assert main([*argv, "--out", str(out)]) == 65
        err = capsys.readouterr().err
        assert err.startswith("shrinker-lab: parameter error: --out ") and err.count("\n") == 1
        assert blocker.read_bytes() == b"kept\n" and os.listdir(tmp_path) == ["report"]

    @pytest.mark.parametrize(
        "argv, code",
        [
            (("build-counterexample", "--a0", "-1e-3", "--tol", "1e-6"), 0),
            (("build-counterexample", "--a1", "-inf"), 65),
            (("build-counterexample", "--a0", "-inf"), 65),
            (("build-counterexample", "--a1", "-nan"), 65),
            (("build-counterexample", "--a1", "-2.5E-1"), 65),
            (("shoot", "--u0", "-inf"), 65),
        ],
    )
    def test_negative_literal_is_a_value(self, tmp_path, argv, code):
        assert run(tmp_path, *argv) == code

    @pytest.mark.parametrize("a", ["-1.0000000001", "-1.000000001"])
    def test_near_degenerate_bounded_cone_defect_passes(self, tmp_path, a):
        # the metric is nearly singular this close to a = -1, but a quadratic
        # graph's position vector is tangent and splits off exactly
        assert run(tmp_path, "defect", "--a", a) == 0
        assert json.loads((tmp_path / "defect.json").read_text())["results"]["max_defect"] == 0.0

    def test_singular_metric_in_a_stack_is_construction_failure(self, tmp_path, capsys):
        # at a = -1 - 2^-52 an admissible spectrum's induced metric rounds to
        # singular; the stacked solve reports it as the one-trial solve did
        assert run(tmp_path, "defect", "--a", "-1.0000000000000002", "--n", "1", "--trials", "7", "--seed", "3") == 3
        assert "construction failed: induced metric degenerate" in capsys.readouterr().err
        assert not (tmp_path / "defect.json").exists()

    def test_spacelike_violation_is_construction_failure(self, tmp_path, capsys):
        code = run(tmp_path, "build-counterexample", "--mss", "--phi0", "100")
        assert code == 3
        assert "construction failed" in capsys.readouterr().err

    def test_slope_parameter_past_cosh_range_is_construction_failure(self, tmp_path, capsys):
        # cosh(800) overflows; sech^2 is 0 there, so the profile is not spacelike
        assert run(tmp_path, "build-counterexample", "--mss", "--s0", "800", "--tol", "1e-6") == 3
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


    @pytest.mark.parametrize("rmax", ["1e-9", "5e-324"])
    def test_shoot_short_of_the_series_start_is_the_series(self, tmp_path, rmax):
        # r_max below shooting._R_START: the Taylor path still checks its start,
        # and the profile is the series u0 + u''(0) r^2/2 up to r_max
        code = run(tmp_path, "shoot", "--branch", "MA", "--n", "2", "--u0", "-1", "--rmax", rmax, "--dps", "30")
        assert code == 0
        report = json.loads((tmp_path / "shoot.json").read_text())
        assert report["results"]["event"] == {"kind": "completed", "r": float(rmax)}
        (u0, upp0), _, _ = shooting._taylor_start(BRANCH_DEFAULTS["MA"](), 2, -1.0, 30)
        rows = np.loadtxt(tmp_path / "radial-profile.csv", delimiter=",", skiprows=1)
        rs = np.linspace(0.0, float(rmax), 401)
        assert np.array_equal(rows[:, 0], rs)
        assert np.array_equal(rows[:, 1:3].T, shooting._series_state(u0, upp0, rs))

    @pytest.mark.parametrize("rmax", ["1e-9", "5e-324"])
    def test_shoot_short_of_the_series_start_checks_the_start(self, tmp_path, rmax):
        code = run(tmp_path, "shoot", "--branch", "NEG", "--n", "2", "--u0", "2e10", "--rmax", rmax, "--dps", "30")
        assert code == 0
        report = json.loads((tmp_path / "shoot.json").read_text())
        assert report["results"]["event"] == {"kind": "cone_exit", "r": float(rmax)}


def _written(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


class TestParserReuse:
    # each reads flags the one before it refuses or takes with other defaults
    RUNS = [
        ("build-counterexample", "--mss", "--phi0", "1.2", "--tol", "1e-6"),
        ("build-counterexample", "--a1", "0.7", "--tol", "1e-6"),
        ("flow-check", "--n", "3", "--trials", "9"),
        ("build-counterexample", "--mss", "--tol", "1e-6"),
    ]

    def test_one_parser_serves_every_call(self):
        assert build_parser() is build_parser()

    def test_runs_back_to_back_write_what_each_writes_alone(self, tmp_path):
        src = Path(cli.__file__).resolve().parents[1]
        for k, argv in enumerate(self.RUNS):
            alone, shared = tmp_path / f"alone{k}", tmp_path / f"shared{k}"
            proc = subprocess.run([sys.executable, "-m", "shrinker_lab.cli", *argv, "--out", str(alone)],
                                  env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True)
            assert main([*argv, "--out", str(shared)]) == proc.returncode == 0
            assert _written(shared) == _written(alone), argv


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

    @pytest.mark.parametrize("mss", [False, True])
    def test_csv_rows_on_grid_step_over_the_table(self, tmp_path, mss):
        # the table's half-span S: --rmax / c2 * 1.02 + 1 on the bounded cone
        # (24.63 at the defaults: the last point below S + step/2 is past S),
        # max(--span, --rmax + 1) = 20 with --mss
        c2 = BRANCH_DEFAULTS["NEG"]().neg_scaling[1]
        span, name = (20.0, "mss-profile.csv") if mss else (10 / c2 * 1.02 + 1, "counterexample-trajectory.csv")
        argv = ("--mss",) if mss else ()
        assert run(tmp_path, "build-counterexample", *argv, "--tol", "1e-6", "--grid-step", "0.5") == 0
        with open(tmp_path / name, newline="") as fh:
            ts = [float(row[0]) for row in list(csv.reader(fh))[1:]]
        assert ts == [-span + 0.5 * k for k in range(int(2 * span / 0.5) + 1)]

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

    def test_csv_bytes_equal_csv_module(self, tmp_path, rng):
        # more rows than one block, and the cells whose repr is special
        block = reports._CSV_BLOCK_ROWS
        shape = (2 * block + 7, 5)
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        table[:6, 0] = [math.nan, math.inf, -math.inf, -0.0, 1e-300, 0.0]
        table[block, :] = [-math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308]
        header = ["t", "u", "u_prime", "u_second", "w"]
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in table:
                writer.writerow([repr(float(v)) for v in row])
        for given in (table, table.tolist()):
            write_csv(tmp_path / "x.csv", header, given)
            assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        write_csv(tmp_path / "x.csv", header, np.empty((0, 5)))
        assert (tmp_path / "x.csv").read_bytes() == b"t,u,u_prime,u_second,w\r\n"

    def test_csv_keeps_label_and_int_cells(self, tmp_path):
        # rows that are not a float table: labels, ints and a cell that needs quoting
        rows = [["MA", 0.8, -0.2, "cone_exit", 1], ["a,b", np.float64(0.1), -0.0, None, math.inf]]
        write_csv(tmp_path / "x.csv", ["branch", "c", "du0", "event", "r"], rows)
        assert (tmp_path / "x.csv").read_bytes() == (
            b"branch,c,du0,event,r\r\nMA,0.8,-0.2,cone_exit,1\r\n\"a,b\",0.1,-0.0,,inf\r\n"
        )

    def test_rigidity_events_script_writes_its_csv(self, tmp_path):
        path = Path(__file__).resolve().parents[1] / "scripts" / "rigidity_events.py"
        spec = importlib.util.spec_from_file_location("rigidity_events", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = tmp_path / "events.csv"
        assert script.main(["--rmax", "1", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["branch", "curvature", "du0", "event", "r"]
        assert len(table) == 1 + 4 * len(script.BRANCHES)
        assert table[1][:3] == ["MA", "0.8", "-0.2"]

