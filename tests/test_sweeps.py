"""The CLI sweeps draw every trial first and certify stacks of them; these
tests hold them to the per-trial loop they replaced, bit for bit."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from shrinker_lab import cli, reports
from shrinker_lab.fields import QuadraticField
from shrinker_lab.geometry import shrinker_defect
from shrinker_lab.numerics import InputError
from shrinker_lab.quadratics import (
    _eigenvalue_window, admissible_draw, admissible_matrix, build_quadratic, random_admissible_matrix,
    verify_quadratic,
)
from shrinker_lab.tau import TauParams, shrinker_residual
from shrinker_lab.transforms import self_similar_extension
from conftest import branch_params, same_bits, with_lower_cones

DEFAULT_TOL = {"verify-quadratic": 1e-10, "flow-check": 1e-10, "defect": 1e-7}


def frozen_admissible_matrix(tp, n, rng):
    """The per-matrix builder the stacked one replaced, kept as written."""
    lo, hi = _eigenvalue_window(tp)
    lams = rng.uniform(lo, hi, size=n)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    Q = q * np.sign(np.diag(r))
    A = (Q * lams) @ Q.T
    return 0.5 * (A + A.T)


def reference_report(command, tps, n, trials, seed, points=None):
    """The report text of the per-trial loop the sweeps replaced: each trial
    draws and builds one matrix and certifies it before the next is drawn."""
    rng = np.random.default_rng(seed)
    defect_every = max(1, trials // 5)
    per_branch = {}
    for name, tp in sorted(tps.items()):
        residuals, defects, worst = [], [], 0.0
        for k in range(trials):
            A = random_admissible_matrix(tp, int(rng.integers(1, n + 1)), rng)
            if command == "verify-quadratic":
                pts = rng.uniform(-3.0, 3.0, size=(points, len(A)))
                sol = build_quadratic(tp, A)
                residuals.append(verify_quadratic(sol, pts))
                if k % defect_every == 0:
                    defects.append(shrinker_defect(tp, sol.field, rng.uniform(-2.0, 2.0, size=len(A))))
            elif command == "flow-check":
                x = rng.uniform(-3.0, 3.0, size=len(A))
                t = -float(rng.uniform(0.1, 10.0))
                worst = max(worst, abs(self_similar_extension(tp, build_quadratic(tp, A).field, x, t).defect))
            else:
                sol = build_quadratic(tp, A)
                worst = max(worst, shrinker_defect(tp, sol.field, rng.uniform(-2.0, 2.0, size=len(A))))
        if command == "verify-quadratic":
            per_branch[name] = {"max_residual": max(residuals), "defect_max": max(defects),
                                "defect_mean": float(np.mean(defects))}
        else:
            per_branch[name] = {"max_defect": worst}
    key = "max_residual" if command == "verify-quadratic" else "max_defect"
    worst = 0.0
    for results in per_branch.values():
        worst = max(worst, results[key])
    sizes = {"n": n, "trials": trials, **({"points": points} if points else {})}
    tol = DEFAULT_TOL[command]
    config = {"branches": sorted(tps), **sizes, "tol": tol, "seed": seed}
    passed = worst <= tol
    return reports.json_report(command, config, {"per_branch": per_branch, key: worst}, passed), 0 if passed else 2


SELECTIONS = {
    "all": ([], branch_params()),
    "tau": (["--tau", "0.5"], {"LOG": TauParams.from_tau(0.5)}),
    "a": (["--a", "-3"], {"NEG": TauParams.from_cot(-3.0)}),
}


class TestAgainstPerTrialLoop:
    @pytest.mark.parametrize("block", [5, None])  # None: the module's own block
    @pytest.mark.parametrize("selection", sorted(SELECTIONS))
    @pytest.mark.parametrize("command", sorted(DEFAULT_TOL))
    def test_report_bytes_equal_the_loop(self, tmp_path, monkeypatch, command, selection, block):
        if block is not None:
            monkeypatch.setattr(cli, "_SWEEP_BLOCK", block)
        trials = cli._SWEEP_BLOCK + 7 if selection == "all" else 2 * cli._SWEEP_BLOCK + 3
        flags, tps = SELECTIONS[selection]
        points = 3 if command == "verify-quadratic" else None
        argv = [command, *flags, "--n", "4", "--trials", str(trials), "--seed", "17"]
        code = cli.main([*argv, *(["--points", "3"] if points else []), "--out", str(tmp_path)])
        text, expected_code = reference_report(command, tps, 4, trials, 17, points)
        assert (tmp_path / f"{command}.json").read_text(encoding="utf-8") == text
        assert code == expected_code

    @pytest.mark.parametrize("name", sorted(branch_params()))
    def test_stacked_builder_equals_one_matrix_at_a_time(self, name):
        tp = branch_params()[name]
        for n in range(1, 5):
            rng = np.random.default_rng([n, 200])
            spectra, gaussians = map(np.array, zip(*(admissible_draw(tp, n, rng) for _ in range(200))))
            stack = admissible_matrix(spectra, gaussians)
            rng = np.random.default_rng([n, 200])
            assert same_bits(stack, [random_admissible_matrix(tp, n, rng) for _ in range(200)])
            rng = np.random.default_rng([n, 200])
            assert same_bits(stack, [frozen_admissible_matrix(tp, n, rng) for _ in range(200)])


class TestStacks:
    @pytest.mark.parametrize("name", sorted(with_lower_cones()))
    def test_each_solution_of_a_stack_is_its_own(self, name, rng):
        tp = with_lower_cones()[name]
        for n in (1, 3, 4):
            mats = [random_admissible_matrix(tp, n, rng) for _ in range(9)]
            sol = build_quadratic(tp, np.array(mats))
            singles = [build_quadratic(tp, A) for A in mats]
            assert same_bits(sol.c, [s.c for s in singles])
            clouds = rng.uniform(-3.0, 3.0, size=(9, 6, n))
            assert same_bits(verify_quadratic(sol, clouds), [verify_quadratic(s, c) for s, c in zip(singles, clouds)])
            residuals = [shrinker_residual(tp, s.field, c) for s, c in zip(singles, clouds)]
            assert same_bits(shrinker_residual(tp, sol.field, clouds), residuals)
            xs, ts = rng.uniform(-3.0, 3.0, size=(9, n)), -rng.uniform(0.1, 10.0, size=9)
            stacked = self_similar_extension(tp, sol.field, xs, ts)
            for field in ("v", "v_t", "defect"):
                one = [getattr(self_similar_extension(tp, s.field, x, t), field) for s, x, t in zip(singles, xs, ts)]
                assert same_bits(getattr(stacked, field), one)

    def test_stacked_field_reads_each_cloud_with_its_own_matrix(self, rng):
        mats = np.array([random_admissible_matrix(TauParams.special_lagrangian(), 3, rng) for _ in range(4)])
        cs = rng.standard_normal(4)
        stack = QuadraticField(mats, cs)
        clouds = rng.uniform(-2.0, 2.0, size=(4, 5, 3))
        for read in ("value", "gradient", "hessian"):
            one = [getattr(QuadraticField(A, c), read)(cloud) for A, c, cloud in zip(mats, cs, clouds)]
            assert same_bits(getattr(stack, read)(clouds), one)
        for shape in ((4, 3), (3, 5, 3), (4, 5, 2), (5, 3)):
            with pytest.raises(InputError, match="stack"):
                stack.value(np.zeros(shape))

    def test_extension_needs_every_time_negative(self):
        stack = QuadraticField(np.array([np.eye(2)] * 3), np.zeros(3))
        with pytest.raises(InputError, match="t < 0"):
            self_similar_extension(TauParams.monge_ampere(), stack, np.ones((3, 2)), [-1.0, 0.0, -2.0])


def traced_peak(tmp_path, trials):
    tracemalloc.start()
    try:
        assert cli.main(["flow-check", "--branch", "SLAG", "--n", "10", "--trials", str(trials),
                         "--out", str(tmp_path)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_stays_flat_in_trials(tmp_path):
    trials = 2 * cli._SWEEP_BLOCK
    traced_peak(tmp_path, 1)  # the parser and first-call caches, before either measured run
    small, large = traced_peak(tmp_path, trials), traced_peak(tmp_path, 10 * trials)
    assert large <= 1.5 * small, (small, large)
    assert math.isfinite(json.loads((tmp_path / "flow-check.json").read_text())["results"]["max_defect"])
