import dataclasses
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinker_lab.numerics import (
    READ_SLACK,
    DivergenceEvent,
    InputError,
    RhsEvaluationError,
    Trajectory,
    as_sym_matrix,
    cumulative_simpson,
    eig_sym,
    eig_sym_full,
    fd_gradient,
    fd_hessian,
    integrate_ode,
    invert_monotone,
)
from shrinker_lab.quadratics import admissible_matrix
from shrinker_lab.tau import admissible, cone_spec

from conftest import branch_params, same_bits


class TestEigSym:
    def test_identity(self):
        assert np.allclose(eig_sym(np.eye(3)), [1.0, 1.0, 1.0], atol=0)

    def test_two_by_two(self):
        # roots of lam^2 - 4 lam + 3
        w = eig_sym([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(w, [1.0, 3.0], atol=1e-13)

    def test_diagonal_sorted(self):
        w = eig_sym(np.diag([-5.0, 0.5, 7.0]))
        assert np.allclose(w, [-5.0, 0.5, 7.0], atol=0)

    def test_orthogonal_conjugation_invariance(self, rng):
        for n in (2, 3, 4, 6):
            for _ in range(20):
                A = rng.standard_normal((n, n))
                A = 0.5 * (A + A.T)
                q, r = np.linalg.qr(rng.standard_normal((n, n)))
                q = q * np.sign(np.diag(r))
                B = q.T @ A @ q
                B = 0.5 * (B + B.T)
                assert np.max(np.abs(eig_sym(A) - eig_sym(B))) < 1e-10

    def test_trace_det_reconstruction(self, rng):
        for n in range(1, 7):
            A = rng.standard_normal((n, n))
            A = 0.5 * (A + A.T)
            w = eig_sym(A)
            assert abs(np.sum(w) - np.trace(A)) < 1e-9
            assert abs(np.prod(w) - np.linalg.det(A)) < 1e-9 * max(1.0, abs(np.linalg.det(A)))

    def test_near_cone_edge_against_high_precision(self, rng):
        # one eigenvalue 1e-14 to 1e-12 inside each finite edge of each
        # branch's cone components; oracle: mpmath's eigsy at 40 digits on
        # the same float matrix
        edges = {}
        for tp in branch_params().values():
            for side in ("upper", "lower"):
                tp_side = dataclasses.replace(tp, cone_side=side)
                spec = cone_spec(tp_side)
                for edge, inward in ((spec.lo, 1.0), (spec.hi, -1.0)):
                    if math.isfinite(edge):
                        edges.setdefault((tp.branch, edge, inward), (tp_side, spec))
        assert len(edges) == 7
        for (_, edge, inward), (tp, spec) in edges.items():
            for n in (2, 3, 4) * 3:
                depth = 10.0 ** rng.uniform(-14.0, -12.0)
                far = rng.uniform(0.1, min(3.0, 0.9 * (spec.hi - spec.lo)), size=n - 1)
                lams = edge + inward * np.concatenate([[depth], far])
                A = admissible_matrix(lams, rng.standard_normal((n, n)))
                with mp.workdps(40):
                    exact = sorted(float(e) for e in mp.eigsy(mp.matrix(A.tolist()), eigvals_only=True))
                w = eig_sym(A)
                assert np.max(np.abs(w - exact)) < 1e-13
                tag = admissible(tp, exact)
                assert tag is not None and admissible(tp, w) == tag

    def test_vectors_diagonalize(self, rng):
        A = rng.standard_normal((5, 5))
        A = 0.5 * (A + A.T)
        w, Q = eig_sym_full(A)
        assert np.max(np.abs(Q.T @ A @ Q - np.diag(w))) < 1e-12
        assert np.max(np.abs(Q.T @ Q - np.eye(5))) < 1e-13

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            eig_sym([[np.nan, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_equals_single_solves_bit_for_bit(self, n, rng):
        A = rng.standard_normal((2, 15, n, n))
        A = A + np.swapaxes(A, -1, -2)
        w = eig_sym(A)
        assert w.shape == (2, 15, n)
        assert same_bits(w, [[eig_sym(M) for M in row] for row in A])

    def test_stack_averages_noise_in_its_own_matrix(self, rng):
        A = rng.standard_normal((5, 3, 3))
        A = A + np.swapaxes(A, -1, -2)
        noisy = A.copy()
        noisy[2, 0, 1] += 1e-14
        S = as_sym_matrix(noisy)
        assert same_bits(S[2], as_sym_matrix(noisy[2]))
        assert same_bits(np.delete(S, 2, axis=0), np.delete(A, 2, axis=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e-3])
    def test_stack_with_one_bad_matrix_rejected(self, bad, rng):
        # 1e-3 breaks one matrix's symmetry past its noise allowance
        A = rng.standard_normal((6, 3, 3))
        A = A + np.swapaxes(A, -1, -2)
        A[4, 0, 2] += bad
        with pytest.raises(InputError):
            eig_sym(A)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            eig_sym([[1.0, 2.0], [0.5, 1.0]])


class TestFiniteDifferences:
    def test_quadratic_exact(self, rng):
        A = rng.standard_normal((3, 3))
        A = 0.5 * (A + A.T)

        def f(x):
            return 0.5 * float(x @ A @ x)

        x = rng.uniform(-2, 2, 3)
        for h in (1e-2, 1e-3, 1e-4):
            assert np.max(np.abs(fd_gradient(f, x, h) - A @ x)) < 1e-9
        for h in (1e-1, 3e-2, 1e-2):
            # no truncation term on quadratics; rounding ~ 4 eps |f| / h^2
            assert np.max(np.abs(fd_hessian(f, x, h) - A)) < 1e-9

    def test_bilinear(self):
        H = fd_hessian(lambda x: x[0] * x[1], np.array([3.0, -1.0]), 0.1)
        assert np.allclose(H, [[0.0, 1.0], [1.0, 0.0]], atol=1e-10)

    def test_exp_second_derivative(self):
        # Taylor remainder bound h^2/12 * max|f''''| ~ 8e-8 at h = 1e-3
        H = fd_hessian(lambda x: math.exp(x[0]), np.array([0.0]), 1e-3)
        assert abs(H[0, 0] - 1.0) < 1e-6

    def test_hessian_exactly_symmetric(self, rng):
        def f(x):
            return math.sin(x[0]) * math.cos(x[1]) + x[2] ** 3

        H = fd_hessian(f, rng.uniform(-1, 1, 3), 1e-4)
        assert np.array_equal(H, H.T)

    def test_bad_step(self):
        with pytest.raises(InputError):
            fd_gradient(lambda x: x[0], [1.0], h=0.0)


class TestCumulativeSimpson:
    def test_matches_scipy_bit_for_bit(self, rng):
        ref = pytest.importorskip("scipy.integrate").cumulative_simpson
        lengths = list(range(3, 61)) + [801, 2001, 20_001, 53_335]
        for length in lengths:
            y = rng.standard_normal(length) * 10.0 ** rng.uniform(-6, 6)
            dx = float(rng.uniform(1e-4, 0.1))
            assert same_bits(cumulative_simpson(y, dx), ref(y, dx=dx, initial=0.0)), length
        # sub-integrals that are all -0.0 sum to +0.0, as a 0.0 initial value makes them
        y = -np.zeros(7)
        assert same_bits(cumulative_simpson(y, 0.1), ref(y, dx=0.1, initial=0.0))

    @pytest.mark.parametrize("length", [3, 4, 5, 10, 101, 1000])
    def test_exact_on_cubics(self, length):
        # each pair of intervals is a composite Simpson panel, exact on cubics;
        # a node inside a panel is exact on quadratics only
        xs = np.linspace(-1.5, 2.5, length)
        dx = xs[1] - xs[0]
        for c in ([0.7, -1.3, 2.1, 0.0], [0.7, -1.3, 2.1, -0.4]):
            y = c[0] + c[1] * xs + c[2] * xs**2 + c[3] * xs**3
            F = c[0] * xs + c[1] * xs**2 / 2 + c[2] * xs**3 / 3 + c[3] * xs**4 / 4
            err = np.abs(cumulative_simpson(y, dx) - (F - F[0]))
            assert err[0] == 0.0
            assert np.max(err if c[3] == 0.0 else err[::2]) < 1e-13 * length

    def test_too_few_samples(self):
        with pytest.raises(InputError):
            cumulative_simpson([1.0, 2.0], 0.1)

    def test_package_import_leaves_scipy_out(self):
        import shrinker_lab

        src = os.path.dirname(os.path.dirname(shrinker_lab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = "import sys, shrinker_lab.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestInvertMonotone:
    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_cubic_roundtrip(self, y):
        x = invert_monotone(lambda t: t**3 + t, y, -3.0, 3.0)
        assert abs(x**3 + x - y) <= 1e-12 * (1 + abs(y))

    def test_with_derivative(self):
        x = invert_monotone(math.atan, 1.2, -10.0, 10.0, dfn=lambda t: 1 / (1 + t * t))
        assert abs(math.atan(x) - 1.2) < 1e-12 * 2.2

    def test_not_bracketed(self):
        with pytest.raises(InputError):
            invert_monotone(math.tanh, 2.0, -5.0, 5.0)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_bracket_rejected(self, lo, hi):
        with pytest.raises(InputError, match="must be finite"):
            invert_monotone(math.atan, 0.5, lo, hi)


class TestIntegrateOde:
    def test_exponential(self):
        traj = integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0), 1e-10)
        assert traj.completed
        assert abs(traj(1.0)[0] - math.e) < 1e-8

    def test_zero_rhs_exact(self):
        c = 0.7315
        traj = integrate_ode(lambda t, y: [0.0 * v for v in y], [c], (0.0, 5.0), 1e-8)
        assert traj(3.1)[0] == c

    def test_sine(self):
        traj = integrate_ode(
            lambda t, y: [y[1], -y[0]], [0.0, 1.0], (0.0, math.pi), 1e-10
        )
        end = traj(math.pi)
        assert abs(end[0] - 0.0) < 1e-7
        assert abs(end[1] + 1.0) < 1e-7

    def test_tolerance_halving_improves_sine(self):
        errs = []
        for k in range(4):
            rt = 1e-6 / 2**k
            traj = integrate_ode(
                lambda t, y: [y[1], -y[0]], [0.0, 1.0], (0.0, math.pi), rt
            )
            errs.append(abs(traj(math.pi)[0]))
        assert all(errs[i + 1] < errs[i] for i in range(3))

    def test_backwards(self):
        traj = integrate_ode(lambda t, y: y, [1.0], (0.0, -1.0), 1e-10)
        assert abs(traj(-1.0)[0] - math.exp(-1.0)) < 1e-8

    def test_blow_up_event(self):
        # y' = y^2 from y(0)=1 blows up at t=1
        traj = integrate_ode(lambda t, y: [y[0] * y[0]], [1.0], (0.0, 2.0), 1e-8)
        assert not traj.completed
        assert isinstance(traj.event, DivergenceEvent)
        assert 0.9 < traj.event.t <= 1.01

    def test_rhs_domain_event(self):
        def rhs(t, y):
            if t > 0.5:
                raise RhsEvaluationError("left_domain")
            return [1.0] * len(y)

        traj = integrate_ode(rhs, [0.0], (0.0, 1.0), 1e-8)
        assert not traj.completed
        assert traj.event.label == "left_domain"
        assert abs(traj.event.t - 0.5) < 1e-6

    def test_non_finite_stage_is_retried_shorter(self):
        # y' = y^3 from 1e100: the first stage's derivative overflows to inf,
        # so each try stops at the second stage point and retries a quarter as
        # long, until the step falls below the floor
        calls = []

        def rhs(t, y):
            calls.append(t)
            return [y[0] * y[0] * y[0]]

        traj = integrate_ode(rhs, [1e100], (0.0, 1.0), 1e-10)
        assert traj.event.label == "step_underflow" and traj.event.t == 0.0
        assert (traj.n_steps, traj.n_rejected, len(calls)) == (0, 20, 21)

    def test_dense_output_between_knots(self):
        # uncapped steps: the read between knots is the quintic, from the
        # right-hand side's time derivative -sin t at each knot
        traj = integrate_ode(lambda t, y: [math.cos(t)], [0.0], (0.0, 6.0), 1e-10)
        traj = dataclasses.replace(traj, dfs=-np.sin(traj.ts)[:, None])
        for t in np.linspace(0.1, 5.9, 37):
            assert abs(traj(t)[0] - math.sin(t)) < 1e-7

    def test_steps_summed_a_few_ulp_short_reach_the_end(self):
        # zero rhs: the steps grow five-fold from T/100 and the last is the
        # remainder, yet at T = 0.93 their sum rounds one ulp short of T; a
        # remainder below the step floor ends the span, not step_underflow
        traj = integrate_ode(lambda t, y: [0.0], [1.0], (0.0, 0.93), 1e-8)
        assert traj.completed and traj.t_end == traj.ts[-1] < 0.93
        assert 0.93 - traj.ts[-1] < 1e-14

    def test_zero_span_returns_initial_state(self):
        traj = integrate_ode(lambda t, y: [-v for v in y], [2.0, -1.0], (0.5, 0.5))
        assert traj.completed and len(traj.ts) == 1
        assert np.array_equal(traj(0.5), [2.0, -1.0])

    def test_outside_span_rejected(self):
        traj = integrate_ode(lambda t, y: y, [1.0], (0.0, 1.0), 1e-8)
        with pytest.raises(InputError):
            traj(2.0)

    def test_state_must_be_one_dimensional(self):
        with pytest.raises(InputError):
            integrate_ode(lambda t, y: y, [[1.0, 0.0]], (0.0, 1.0))

    @pytest.mark.parametrize("bad_from", [-1.0, 0.3])
    def test_every_rhs_result_checked(self, bad_from):
        # a short list or an ndarray is an error on any call, not only the first
        def short(t, y):
            return [y[1], -y[0]][: 1 if t > bad_from else 2]

        def arrayed(t, y):
            return np.array([y[1], -y[0]]) if t > bad_from else [y[1], -y[0]]

        for rhs in (short, arrayed):
            with pytest.raises(InputError):
                integrate_ode(rhs, [0.0, 1.0], (0.0, 1.0), 1e-8)


# The numpy-array Dormand-Prince loop that the float kernel replaced: the same
# tableau and step control, each stage sum a BLAS product over the stages.  It
# calls an ndarray right-hand side; ``_listed`` adapts one to integrate_ode.
_REF_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_REF_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_REF_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_REF_E = _REF_B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _reference_integrate_ode(rhs, y0, t_span, rel_tol, abs_tol):
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)
    f = np.asarray(rhs(t0, y), dtype=float)
    ts, ys, event, n_steps, n_rejected = [t0], [y.copy()], None, 0, 0
    h = max(min(span / 100.0, 1.0), 1e-12 * span)
    t = t0
    while (t1 - t) * direction > 0:
        h = min(h, abs(t1 - t))
        floor = 1e-14 * max(1.0, abs(t))
        if h < floor:
            if abs(t1 - t) >= floor:
                event = DivergenceEvent("step_underflow", t, y.copy())
            break
        hd = h * direction
        try:
            k = np.empty((7, len(y)))
            k[0] = f
            failed = False
            for i in range(1, 7):
                yi = y + hd * (_REF_A[i] @ k[:i])
                if not np.isfinite(yi).all():
                    failed = True
                    break
                k[i] = rhs(t + _REF_C[i] * hd, yi)
            if failed:
                n_rejected += 1
                h *= 0.25
                continue
        except RhsEvaluationError as exc:
            if h < 4.0 * 1e-14 * max(1.0, abs(t)):
                event = DivergenceEvent(exc.label, t, y.copy())
                break
            n_rejected += 1
            h *= 0.25
            continue
        y_new = y + hd * (_REF_B5 @ k)
        q = hd * (_REF_E @ k) / (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new)))
        err = math.sqrt(float((q * q).sum()) / len(q))
        if err <= 1.0 or h <= 2.0 * 1e-14 * max(1.0, abs(t)):
            t, y, f = t + hd, y_new, k[6].copy()
            ts.append(t)
            ys.append(y)
            n_steps += 1
            h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        else:
            n_rejected += 1
            h *= min(1.0, max(0.1, 0.9 * err ** -0.2))
    return np.array(ts), np.array(ys), event, n_steps, n_rejected


def _listed(rhs):
    """An ndarray right-hand side as integrate_ode calls one: on float lists."""
    return lambda t, y: rhs(t, np.array(y)).tolist()


def _coupled_system(n, domain_end=math.inf):
    """A nonlinear, forced n-component system; it leaves its domain past
    |t| = domain_end."""
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n))
    w = rng.uniform(0.5, 3.0, n)

    def rhs(t, y):
        if abs(t) > domain_end:
            raise RhsEvaluationError("left_domain")
        return M @ np.sin(y) - 0.3 * y + np.cos(w * t)

    return rhs, rng.standard_normal(n)


class TestFloatKernelAgainstNumpyReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("t_span", [(0.0, 8.0), (1.0, -6.0)])
    def test_adaptive_steps_reach_the_same_event(self, n, t_span):
        # the domain end at |t| = 5 stops both after a run of rejections; the
        # step sizes there follow the rounding, so the step counts may differ
        # by a few, but not the event or the state it was met in
        rhs, y0 = _coupled_system(n, domain_end=5.0)
        traj = integrate_ode(_listed(rhs), y0, t_span, 1e-6)
        _, _, event, _, n_rejected = _reference_integrate_ode(rhs, y0, t_span, 1e-6, 1e-8)
        assert traj.n_rejected > 0 and n_rejected > 0
        assert traj.event.label == event.label == "left_domain"
        assert abs(traj.event.t - event.t) <= 1e-12 * 5.0
        assert np.max(np.abs(traj.event.y - event.y)) <= 1e-9 * np.max(np.abs(event.y))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-5])
    def test_adaptive_steps_agree(self, n, rel_tol):
        # uncapped, the controller takes err^(-1/5) of an estimate formed by
        # cancellation, so the stage sums' rounding moves the step sizes and
        # with them the knots; the accept/reject decisions stay the same
        rhs, y0 = _coupled_system(n)
        traj = integrate_ode(_listed(rhs), y0, (0.0, 8.0), rel_tol)
        ts, ys, event, n_steps, n_rejected = _reference_integrate_ode(
            rhs, y0, (0.0, 8.0), rel_tol, rel_tol * 1e-2
        )
        assert traj.completed and event is None
        assert (traj.n_steps, traj.n_rejected) == (n_steps, n_rejected)
        assert n_rejected > 0
        assert np.max(np.abs(traj.ts - ts)) <= 1e-9 * 8.0
        assert np.max(np.abs(traj.ys - ys)) <= 1e-9 * np.max(np.abs(ys))


def _oscillator(t, y):
    return [y[1], -y[0] + 0.1 * t]


def _merged_trajectory():
    """Both legs of a two-sided integration joined into one ascending trajectory."""
    pos = integrate_ode(_oscillator, [1.0, 0.2], (0.0, 4.0), 1e-7)
    neg = integrate_ode(_oscillator, [1.0, 0.2], (0.0, -4.0), 1e-7)
    return Trajectory(
        np.concatenate([neg.ts[:0:-1], pos.ts]),
        np.concatenate([neg.ys[:0:-1], pos.ys]),
        np.concatenate([neg.fs[:0:-1], pos.fs]),
    )


def _quintic(traj):
    """``traj`` with the oscillator's f' = (f1, -f0 + 0.1) at each knot."""
    return dataclasses.replace(traj, dfs=np.column_stack([traj.fs[:, 1], 0.1 - traj.fs[:, 0]]))


class TestTrajectoryEvaluate:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: integrate_ode(_oscillator, [1.0, 0.2], (0.0, 7.3), 1e-7),
            lambda: integrate_ode(_oscillator, [1.0, 0.2], (0.0, -7.3), 1e-7),
            _merged_trajectory,
            lambda: integrate_ode(_oscillator, [1.0, 0.2], (0.5, 0.5)),
            lambda: _quintic(integrate_ode(_oscillator, [1.0, 0.2], (0.0, -7.3), 1e-7)),
            lambda: _quintic(_merged_trajectory()),
        ],
        ids=["forward", "backward", "merged", "one-knot", "quintic-backward", "quintic-merged"],
    )
    def test_equals_scalar_call_bit_for_bit(self, make):
        traj = make()
        lo, hi = sorted((traj.ts[0], traj.ts[-1]))
        tq = np.concatenate([np.linspace(lo, hi, 997), traj.ts, [lo - 1e-13, hi + 1e-13]])
        batch = traj.evaluate(tq)
        scalar = np.array([traj(t) for t in tq])
        assert batch.shape == (len(tq), 2)
        assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))

    def test_clamps_to_covered_span(self):
        # within the slack past an end a read is the read at the end; past
        # the slack, at an infinity or at NaN it is refused
        for traj in (_merged_trajectory(), integrate_ode(_oscillator, [1.0, 0.2], (0.0, -3.0), 1e-7)):
            lo, hi = sorted((traj.ts[0], traj.ts[-1]))
            slack_lo, slack_hi = (READ_SLACK * (1 + abs(end)) for end in (lo, hi))
            got = traj.evaluate([lo - 0.5 * slack_lo, hi + 0.5 * slack_hi])
            assert np.array_equal(got, [traj(lo), traj(hi)])
            for t in (lo - 2 * slack_lo, hi + 2 * slack_hi, -np.inf, np.inf, np.nan):
                with pytest.raises(InputError, match="outside the span"):
                    traj.evaluate([0.5 * (lo + hi), t])
