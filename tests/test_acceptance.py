"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest -s`` to see the lines live).

The sweeps here are property-based: every expected quantity is certified by
construction or cross-checked against an independent route (closed forms,
eigen-route vs stable-route residuals, high-precision Taylor integration vs
exact profiles, byte comparison for determinism).
"""

import contextlib
import io
import json
import math
import time

import mpmath as mp
import numpy as np
import pytest

import shrinker_lab as sl
from shrinker_lab import TauParams
from shrinker_lab.cli import main
from shrinker_lab.constructor import build_counterexample, build_mss_counterexample
from shrinker_lab.shooting import radial_quadratic_reference, shoot_radial
from shrinker_lab.tau import f_derivative, f_value_mp
from shrinker_lab.transforms import convexify_shift, legendre_1d, legendre_dual_residual

from conftest import CallableField, branch_params


def report(num, name, value, bound, elapsed, limit, extra=""):
    ok = value <= bound and elapsed < limit
    tag = "PASS" if ok else "FAIL"
    print(
        f"[criterion {num:02d}] {name}: {value:.3e} <= {bound:.1e}"
        f"{'  ' + extra if extra else ''}  ({elapsed:.2f}s < {limit:.0f}s)  {tag}"
    )
    return ok


def test_criterion_01_quadratic_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for name, tp in branch_params().items():
        for k in range(100):
            n = 1 + k % 4
            A = sl.random_admissible_matrix(tp, n, rng)
            sol = sl.build_quadratic(tp, A)
            residuals = sl.shrinker_residual(tp, sol, rng.uniform(-3.0, 3.0, (100, n)))
            worst = max(worst, float(np.max(np.abs(residuals))))
    elapsed = time.perf_counter() - t0
    assert report(1, "quadratic exactness (6 branches, 100 A x 100 pts)", worst, 1e-10, elapsed, 10.0)


def test_criterion_02_metric_hessian_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for name, tp in branch_params().items():
        for k in range(1000):
            n = 1 + k % 4
            H = sl.random_admissible_matrix(tp, n, rng)
            worst = max(worst, sl.metric_duality_defect(tp, H))
    elapsed = time.perf_counter() - t0
    assert report(2, "metric-Hessian duality (10^3 Hessians/branch)", worst, 1e-9, elapsed, 5.0)


def test_criterion_03_shrinker_defect():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    shift_exact = True
    for name, tp in branch_params().items():
        for _ in range(15):
            n = int(rng.integers(1, 4))
            A = sl.random_admissible_matrix(tp, n, rng)
            sol = sl.build_quadratic(tp, A)
            x = rng.uniform(-2.0, 2.0, n)
            d = sl.shrinker_defect(tp, sol, x)
            worst = max(worst, d)
            shifted = sl.AffineScaledField(sol, offset=1.0)
            shift_exact &= sl.shrinker_defect(tp, shifted, x) == d
    elapsed = time.perf_counter() - t0
    assert shift_exact, "constant-shift invariance must be exact"
    assert report(3, "vector shrinker defect on quadratics (FD step 1e-3)", worst, 1e-7,
                  elapsed, 10.0, extra="shift-invariance exact")


def test_criterion_04_arctangent_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(10):
        tau = float(rng.uniform(math.pi / 4 + 1e-3, math.pi / 2 - 1e-3))
        a = 1.0 / math.tan(tau)
        b = math.sqrt(1.0 - a * a)
        lams = -(a + b) + rng.uniform(1e-6, 60.0, 10_000)  # lam + a + b > 0
        raw = np.arctan((lams + a - b) / (lams + a + b))
        smooth = np.arctan((lams + a) / b) - math.pi / 4.0
        worst = max(worst, float(np.max(np.abs(raw - smooth))))
    elapsed = time.perf_counter() - t0
    assert report(4, "branch identity (10^4 lam x 10 tau)", worst, 1e-12, elapsed, 1.0)


def test_criterion_05_counterexample_construction():
    t0 = time.perf_counter()
    tp = TauParams.neg_branch(a=-2.0)
    u, prof, cert = build_counterexample(tp, a0=0.0, a1=1.0, n=2, T=20.0, seed=105)

    lo, hi = 2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)
    checks = {
        "residual": cert.residual_sup <= 1e-6,
        "cone": cert.cone_ok and cert.cone_margin > 0.0,
        "witness": abs(cert.witness["value"] - 0.25) <= 1e-8,
        "phi_bound": cert.bounds["phi_prime_at_T"] <= math.e + 1e-6,
    }
    # spot-check strict interval membership through the generic eigen route
    rng = np.random.default_rng(1055)
    for _ in range(200):
        z = rng.uniform(-10 / math.sqrt(2), 10 / math.sqrt(2), 2)
        w = sl.eig_sym(u.hessian(z))
        checks["cone"] &= bool(np.all(w > lo) and np.all(w < hi))
    # tolerance scaling: one decade of tolerance buys a factor >= 5
    sups = []
    for rel in (1e-6, 1e-7):
        _, _, c = build_counterexample(tp, 0.0, 1.0, 2, T=20.0, seed=105, rel_tol=rel)
        sups.append(c.residual_sup)
    checks["scaling"] = sups[0] >= 5.0 * sups[1]
    elapsed = time.perf_counter() - t0
    ok = report(5, "entire non-quadratic construction", cert.residual_sup, 1e-6, elapsed, 30.0,
                extra=f"margin={cert.cone_margin:.1e} w1'''(0)={cert.witness['value']:.9f} "
                      f"phi'(T)={cert.bounds['phi_prime_at_T']:.6f} "
                      f"scaling x{sups[0] / sups[1]:.1f}")
    assert ok and all(checks.values()), checks


def test_criterion_06_minkowski_construction():
    t0 = time.perf_counter()
    fld, cert = build_mss_counterexample(phi0=1.0, s0=0.0, T=20.0)
    checks = {
        "residual": cert.residual_sup <= 1e-6,
        "spacelike": cert.bounds["sup_abs_slope"] < 1.0,
        "witness": abs(cert.witness["value"] - 1.0) <= 1e-8,
    }
    elapsed = time.perf_counter() - t0
    ok = report(6, "spacelike graph construction", cert.residual_sup, 1e-6, elapsed, 10.0,
                extra=f"sup|f'|={cert.bounds['sup_abs_slope']:.12f} f''(0)={cert.witness['value']:.9f}")
    assert ok and all(checks.values()), checks


def test_criterion_07_legendre_pipeline():
    t0 = time.perf_counter()
    worst_inv = 0.0
    convex_tests = [
        CallableField(1, lambda p: 0.5 * p[0] ** 2,
                      grad=lambda p: np.array([p[0]]), hess=lambda p: np.array([[1.0]])),
        CallableField(1, lambda p: 1.25 * p[0] ** 2,
                      grad=lambda p: np.array([2.5 * p[0]]), hess=lambda p: np.array([[2.5]])),
        CallableField(1, lambda p: 0.5 * p[0] ** 2 + 0.1 * math.cosh(p[0]),
                      grad=lambda p: np.array([p[0] + 0.1 * math.sinh(p[0])]),
                      hess=lambda p: np.array([[1.0 + 0.1 * math.cosh(p[0])]])),
    ]
    for w in convex_tests:
        worst_inv = max(worst_inv, legendre_1d(w, -2.0, 2.0, num=401).involution_defect)

    tp = TauParams.harmonic()
    worst_dual = worst_hess = worst_drift = 0.0
    for lam in (0.3, 0.8, 1.7):
        sol = sl.build_quadratic(tp, np.array([[lam]]))
        w = convexify_shift(tp, sol)
        chk = legendre_dual_residual(w, -2.0, 2.0, grid_step=1e-2)
        worst_dual = max(worst_dual, chk.dual_equation_sup)
        worst_hess = max(worst_hess, chk.hessian_inverse_defect)
        worst_drift = max(worst_drift, chk.phase_drift_sup)
    elapsed = time.perf_counter() - t0
    ok = (
        report(7, "dual pipeline: involution", worst_inv, 1e-9, elapsed, 10.0,
               extra=f"hess-inverse={worst_hess:.1e} dual-eq={worst_dual:.1e} drift={worst_drift:.1e}")
        and worst_hess <= 1e-8
        and worst_dual <= 1e-5
        and worst_drift <= 1e-5
    )
    assert ok


def test_criterion_08_self_similar_extension():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    worst = 0.0
    exact = True
    branches = branch_params()
    for name, tp in branches.items():
        for _ in range(167):
            n = int(rng.integers(1, 4))
            A = sl.random_admissible_matrix(tp, n, rng)
            sol = sl.build_quadratic(tp, A)
            x = rng.uniform(-3.0, 3.0, n)
            t = -float(rng.uniform(0.1, 10.0))
            worst = max(worst, abs(sl.self_similar_extension(tp, sol, x, t).defect))
            exact &= sl.self_similar_extension(tp, sol, x, -1.0).v == sol.value(x)
    elapsed = time.perf_counter() - t0
    assert exact, "v(x, -1) must equal u(x) exactly"
    assert report(8, "self-similar time extension (10^3 samples)", worst, 1e-10, elapsed, 2.0,
                  extra="t=-1 identity exact")


CURVATURE_SAMPLES = {
    "MA": [0.3, 0.45, 0.6, 0.8, 1.0],
    "LOG": [-0.25, -0.1, 0.1, 0.4, 0.8],
    "HARM": [-0.5, -0.2, 0.0, 0.3, 0.7],
    "ATAN": [-1.2, -0.6, 0.0, 0.4, 0.8],
    "SLAG": [-0.6, -0.3, 0.0, 0.5, 1.0],
    "NEG": [0.6, 1.2, 2.0, 2.8, 3.3],
}


def _shot_digits(tp, c):
    # deviations amplify like exp(r^2 / (4 f'(c))); size the working precision
    # to hold the reference through r = 10 with margin
    q = f_derivative(tp, c)
    return max(30, int(math.ceil(25.0 / (q * math.log(10.0)))) + 12)


def test_criterion_09_radial_shooting():
    t0 = time.perf_counter()
    branches = branch_params()
    worst_dev = 0.0
    worst_growth = 0.0
    for name, tp in branches.items():
        for c in CURVATURE_SAMPLES[name]:
            dps = _shot_digits(tp, c)
            with mp.workdps(dps):
                u0 = -2 * f_value_mp(tp, mp.mpf(repr(float(c))))
            prof = shoot_radial(tp, 2, u0, r_max=10.0, dps=dps, n_samples=201)
            ref = radial_quadratic_reference(tp, 2, c, r_max=10.0, n_samples=201)
            assert prof.event.completed, (name, c, prof.event)
            worst_dev = max(worst_dev, float(np.max(np.abs(prof.us - ref.us))))
            g = sl.growth_ratio(tp, prof.field, np.array([1.0, 0.0]), 5.0)
            worst_growth = max(worst_growth, abs(g.defect))
    # exact quadratic data (lambda = tan(pi/4 - 0.05)): the float path ends
    # where its precision runs out, well before r_max
    perturbed = shoot_radial(TauParams.special_lagrangian(), 2, -math.pi / 2 + 0.1, r_max=50.0)
    event_ok = (not perturbed.event.completed) and perturbed.event.r < 50.0
    elapsed = time.perf_counter() - t0
    ok = report(9, "radial shooting oracle equivalence (5 c/branch)", worst_dev, 1e-6,
                elapsed, 20.0,
                extra=f"growth-defect={worst_growth:.1e} precision-end="
                      f"{perturbed.event.kind}@r={perturbed.event.r:.2f}")
    assert ok and worst_growth <= 1e-6 and event_ok


def test_criterion_10_report_determinism(tmp_path):
    t0 = time.perf_counter()
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["verify-quadratic", "--trials", "25", "--points", "10",
                         "--seed", "42", "--out", str(out)])
        assert code == 0
        outs.append((out / "verify-quadratic.json").read_bytes())
    identical = outs[0] == outs[1]
    elapsed = time.perf_counter() - t0
    print(f"[criterion 10] report determinism: byte-identical={identical}  "
          f"({elapsed:.2f}s)  {'PASS' if identical else 'FAIL'}")
    assert identical
    report_obj = json.loads(outs[0])
    assert set(report_obj) == {"command", "config", "results", "pass", "version"}
