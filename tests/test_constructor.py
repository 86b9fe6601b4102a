import math

import mpmath as mp
import numpy as np
import pytest

import shrinker_lab as sl
from shrinker_lab import TauParams, constructor, jets
from shrinker_lab.constructor import (
    Certificate,
    _mss_rhs,
    _neg_cone_margin,
    _phase_rhs,
    _spacelike_margin,
    assemble_w1,
    build_counterexample,
    build_mss_counterexample,
    profile_grid,
    sigmoid,
    solve_phase_ode,
)
from shrinker_lab.fields import SeparableExtensionField
from shrinker_lab.numerics import DomainError, InputError
from shrinker_lab.tau import minkowski_residual, phase, shrinker_residual

from conftest import logit_equation_residual, same_bits


def rk4_fixed(rhs, y0, t_end, h):
    """Independent fixed-step integrator for cross-checks."""
    t = 0.0
    y = np.asarray(y0, dtype=float)
    n = int(round(abs(t_end) / h))
    hh = math.copysign(h, t_end)
    for _ in range(n):
        k1 = rhs(t, y)
        k2 = rhs(t + hh / 2, y + hh / 2 * k1)
        k3 = rhs(t + hh / 2, y + hh / 2 * k2)
        k4 = rhs(t + hh, y + hh * k3)
        y = y + hh / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += hh
    return y


def phase_rhs(t, y):
    sig = sigmoid(y[0])
    return np.array([y[1], 0.5 * sig * (1.0 - sig) * t * y[1]])


class TestPhaseRhs:
    def test_float_rhs_equals_array_formula_bit_for_bit(self, rng):
        # the integrator's float right-hand side, phi'', against the same
        # formula on arrays, through the array branch of sigmoid
        phis = np.concatenate([[0.0, -0.0, 745.5, -745.5, 800.0, -800.0, 1e4, -1e4],
                               rng.normal(0.0, 3.0, 200), rng.uniform(-40.0, 40.0, 200)])
        dphis = rng.uniform(0.0, 5.0, len(phis))
        ts = rng.uniform(-25.0, 25.0, len(phis))
        ts[:4] = [0.0, -0.0, -1.5, -20.0]
        sig = sigmoid(phis)
        expected = 0.5 * sig * (1.0 - sig) * ts * dphis
        got = list(map(_phase_rhs, ts.tolist(), phis.tolist(), dphis.tolist()))
        assert all(type(k) is float for k in got)
        assert same_bits(got, expected)


class TestSolvePhaseOde:
    def test_second_derivative_vanishes_at_origin(self):
        traj = solve_phase_ode(0.0, 1.0, 5.0)
        assert phase_rhs(0.0, np.array(traj.phi_pair(0.0)))[1] == 0.0
        assert traj.phi_pair(0.0)[0] == 0.0
        assert traj.phi_pair(0.0)[1] == 1.0

    def test_slope_bracket_at_one(self):
        # monotone slope from 1, capped by the a-priori ceiling e
        traj = solve_phase_ode(0.0, 1.0, 5.0)
        assert 1.0 < traj.phi_pair(1.0)[1] < math.e

    def test_cross_integrator_oracle(self):
        traj = solve_phase_ode(0.0, 1.0, 2.0, rel_tol=1e-10)
        ref = rk4_fixed(phase_rhs, [0.0, 1.0], 1.0, 1e-5)
        assert abs(traj.phi_pair(1.0)[0] - ref[0]) < 1e-7

    def test_trivial_slope_rejected(self):
        with pytest.raises(InputError, match="trivial"):
            solve_phase_ode(0.5, 0.0, 5.0)

    def test_negative_slope_rejected(self):
        with pytest.raises(InputError):
            solve_phase_ode(0.0, -1.0, 5.0)

    @pytest.mark.parametrize("a0, a1", [(0.0, 0.03), (-40.0, 1.0), (0.0, 1e-300)])
    def test_overflowing_ceiling_rejected(self, a0, a1):
        # a1 exp(exp(-a0)/a1^2) is past the doubles: no certificate can hold it
        with pytest.raises(InputError, match="ceiling"):
            solve_phase_ode(a0, a1, 5.0)

    def test_monotone_and_positive_flags(self):
        traj = solve_phase_ode(0.3, 0.7, 15.0)
        assert traj.monotone_on_right
        assert traj.positive_slope

    def test_slope_ceiling(self):
        for a0, a1 in ((0.0, 1.0), (0.5, 0.5), (-1.0, 2.0)):
            traj = solve_phase_ode(a0, a1, 20.0)
            B = a1 * math.exp(math.exp(-a0) / a1**2)
            assert traj.phi_pair(20.0)[1] <= B * (1 + 1e-9) + 1e-6
            assert traj.bound == pytest.approx(B)

    def test_read_within_the_slack_past_the_end_reads_the_end(self):
        traj = solve_phase_ode(0.0, 1.0, 10.0)
        eps = 1e-9
        assert traj.phi_pair(10.0 + eps)[0] == pytest.approx(traj.phi_pair(10.0 - eps)[0], abs=1e-6)
        assert traj.tail_bound(+1) < 1e-3

    def test_step_counts(self):
        # the integrator's steps and rejections on both legs of the phase ODE
        traj = solve_phase_ode(0.3, 0.7, 24.63, rel_tol=1e-8)
        dense = traj.dense
        assert dense.n_steps == 354
        assert dense.n_rejected == 5
        assert np.sum(dense.ts > 0.0) == 163
        assert np.sum(dense.ts < 0.0) == 191

    def test_every_span_reaches_its_end(self):
        # every leg ends at +-T, none as step_underflow; no leg here has steps
        # that sum a few ulp short of +-T (test_numerics has such a span)
        for k in range(10, 301):
            T = k / 10
            ts = solve_phase_ode(0.3, 0.7, T, rel_tol=1e-8).dense.ts
            assert abs(ts[0] + T) < 1e-14 * T and abs(ts[-1] - T) < 1e-14 * T

    def test_integrator_tolerance_has_a_floor(self):
        # 1e-16 and 1e-14 both ask the integrator for less than ODE_TOL_FLOOR
        ts = [solve_phase_ode(0.3, 0.7, 10.0, rel_tol=tol).dense.ts for tol in (1e-16, 1e-14)]
        assert same_bits(*ts)

    def test_phi_array_equals_phi_pair_bit_for_bit(self):
        traj = solve_phase_ode(0.3, 0.7, 24.63, rel_tol=1e-8)
        ts = np.concatenate([np.linspace(-24.63, 24.63, 1201), traj.dense.ts])
        batch = traj.phi_array(ts)
        scalar = np.array([traj.phi_pair(t) for t in ts])
        assert np.array_equal(batch.view(np.int64), scalar.view(np.int64))

    def test_phase_lower_bound_on_right_half(self):
        # phi' nondecreasing from a1 pins phi(t) >= a1 t + a0 for t >= 0
        a0, a1 = -0.3, 0.8
        traj = solve_phase_ode(a0, a1, 15.0)
        for t in np.linspace(0.0, 15.0, 61):
            assert traj.phi_pair(t)[0] >= a1 * t + a0 - 1e-9


def _phase_reference(a0, a1, times, dps=30, degree=24, step=0.25):
    """(phi, phi') of the phase ODE at the ascending times >= 0, from Taylor
    jets of degree ``degree`` at ``dps`` digits, expanded every ``step``."""
    out = []
    with mp.workdps(dps):
        t, phi, dphi = mp.mpf(0), mp.mpf(a0), mp.mpf(a1)
        times = iter(times)
        want = next(times, None)
        while want is not None:
            tape = jets.Tape()
            p, dp = tape.input([phi]), tape.input([dphi])
            e = jets.exp(p)
            g = e / ((1 + e) * (1 + e)) * tape.input([t, 1] + [0] * degree) * dp / 2
            for k in range(degree):
                tape.advance(k)
                p.c.append(jets._pair(jets.mpf(dp.c[k]) / (k + 1)))
                dp.c.append(jets._pair(jets.mpf(g.c[k]) / (k + 1)))
            pc, dc = ([jets.mpf(c) for c in cs[::-1]] for cs in (p.c, dp.c))
            while want is not None and want <= t + step:
                x = mp.mpf(want) - t
                out.append((mp.polyval(pc, x), mp.polyval(dc, x)))
                want = next(times, None)
            t, phi, dphi = t + step, mp.polyval(pc, mp.mpf(step)), mp.polyval(dc, mp.mpf(step))
    return out


class TestQuinticDenseOutput:
    @pytest.mark.parametrize("ode", ["phase", "mss"])
    def test_rhs_dot_is_the_time_derivative_of_rhs(self, ode):
        # each knot's f' against a central difference of f = (y', rhs) along
        # the read
        if ode == "phase":
            dense, rhs = solve_phase_ode(0.3, 0.7, 10.0, rel_tol=1e-8).dense, _phase_rhs
        else:
            fld, _ = build_mss_counterexample(1.2, s0=0.1, T=8.0, rel_tol=1e-8, radius=5.0)
            dense, rhs = fld._integral.dense, _mss_rhs

        def f(t):
            y, dy = dense(t).tolist()
            return np.array([dy, rhs(t, y, dy)])

        h = 1e-4
        inner = (dense.ts > dense.ts[0] + h) & (dense.ts < dense.ts[-1] - h)
        fd = np.array([(f(t + h) - f(t - h)) / (2 * h) for t in dense.ts[inner]])
        dfs = dense.dfs[inner]
        assert len(dfs) > 100
        assert np.all(np.abs(fd - dfs) <= 1e-7 * (1.0 + np.abs(dfs)))

    def test_step_midpoints_against_30_digits(self):
        # criterion 05's phase data (a0 = 0, a1 = 1, T = 20, tolerance 1e-10)
        # at every step midpoint, against 30-digit Taylor jets; phi(-t) solves
        # the ODE from (a0, -a1), so the left leg is the reference run forwards
        dense = solve_phase_ode(0.0, 1.0, 20.0).dense
        mids = 0.5 * (dense.ts[:-1] + dense.ts[1:])
        worst = 0.0
        for sign in (1.0, -1.0):
            ts = np.sort(sign * mids[sign * mids > 0.0])
            ref = _phase_reference(0.0, sign, ts.tolist())
            for t, (phi, dphi) in zip(ts, ref):
                got = dense(sign * t)
                for want, have in ((phi, got[0]), (sign * dphi, got[1])):
                    worst = max(worst, float(abs(want - mp.mpf(float(have))) / (1 + abs(want))))
        assert worst <= 5e-14


class TestAssembleW1:
    def test_curvature_at_origin(self):
        prof = assemble_w1(solve_phase_ode(0.0, 1.0, 10.0))
        assert prof.field.hessian(np.zeros(1))[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_initial_values(self):
        a0, a1 = 0.4, 0.9
        prof = assemble_w1(solve_phase_ode(a0, a1, 10.0))
        assert prof.field.value(np.zeros(1)) == pytest.approx(-a0, abs=1e-12)
        assert prof.field.gradient(np.zeros(1))[0] == pytest.approx(-2 * a1, abs=1e-12)

    def test_curvature_in_unit_window(self):
        traj = solve_phase_ode(0.0, 1.0, 20.0)
        curvs = assemble_w1(traj).field.hessian(traj.dense.ts[:, None])[:, 0, 0]
        assert np.all(curvs > 0.0)
        assert np.all(curvs < 1.0)

    def test_span_past_the_trajectory_rejected(self):
        with pytest.raises(InputError, match="exceeds the integrated"):
            assemble_w1(solve_phase_ode(0.0, 1.0, 20.0), span=23.0)

    def test_read_outside_the_span_rejected(self):
        fld = assemble_w1(solve_phase_ode(0.0, 1.0, 10.0), span=8.0).field
        for x in ([8.1], [[0.0], [-8.1]]):
            with pytest.raises(InputError, match="outside the span"):
                fld.value(x)

    def test_identity_defect(self):
        prof = assemble_w1(solve_phase_ode(0.0, 1.0, 20.0))
        assert prof.identity_defect <= 1e-7

    def test_rows_equal_scalar_reads_bit_for_bit(self):
        prof = assemble_w1(solve_phase_ode(0.3, 0.7, 10.0, rel_tol=1e-8), span=8.33)
        xs = np.append(profile_grid(prof.span, 0.05), prof.span)  # from -S, and S itself
        assert xs[0] == -8.33 and xs[-1] == 8.33
        scalar = []
        for t in xs:
            phi, dphi = prof.traj.phi_pair(t)
            fld = prof.field
            scalar.append([t, phi, dphi, fld.value([t]), fld.gradient([t])[0], fld.hessian([t])[0, 0]])
        assert same_bits(prof.rows(xs), scalar)

    def test_rows_search_their_grid_once(self, monkeypatch):
        # phi, phi', w1, w1' and w1'' of a grid longer than one read block
        # come from one search of the trajectory
        prof = assemble_w1(solve_phase_ode(0.3, 0.7, 10.0, rel_tol=1e-8), span=8.33)
        xs = profile_grid(prof.span, 0.002)
        assert len(xs) > 4096
        searches = _count_searches(monkeypatch)
        prof.rows(xs)
        assert searches == [len(xs)]

    def test_third_derivative_witness(self):
        # d/dt [e^phi/(1+e^phi)] at 0 equals a1 e^{a0}/(1+e^{a0})^2
        prof = assemble_w1(solve_phase_ode(0.0, 1.0, 5.0))
        assert prof.third_derivative(0.0) == pytest.approx(0.25, abs=1e-8)
        a0, a1 = 0.7, 1.3
        prof2 = assemble_w1(solve_phase_ode(a0, a1, 5.0))
        want = a1 * math.exp(a0) / (1.0 + math.exp(a0)) ** 2
        assert prof2.third_derivative(0.0) == pytest.approx(want, abs=1e-8)


def _count_searches(monkeypatch):
    """The lengths of the time arrays ``Trajectory.bracket`` searches, as it
    is called from now on."""
    searches = []
    bracket = sl.Trajectory.bracket

    def counted(self, t):
        searches.append(len(t))
        return bracket(self, t)

    monkeypatch.setattr(sl.Trajectory, "bracket", counted)
    return searches


class TestStepIntegrals:
    """The profiles' step rule against 40-digit quadrature of the same quintic
    interpolant, on the first and last step of each leg and the two steps at
    the origin."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("ode", ["sigma", "tanh"])
    def test_against_40_digit_quadrature(self, ode, tol):
        if ode == "sigma":
            prof = assemble_w1(solve_phase_ode(0.0, 1.0, 20.0, rel_tol=tol))
            fld, dense, g = prof.field, prof.traj.dense, lambda y: 1 / (1 + mp.exp(-y))
        else:
            mss = build_mss_counterexample(1.0, 0.0, T=20.0, rel_tol=tol)[0]
            fld, dense, g = mss._integral, mss._integral.dense, mp.tanh
        ts, ys, fs, dfs = dense.ts, dense.ys[:, 0], dense.fs[:, 0], dense.dfs[:, 0]
        origin = int(np.searchsorted(ts, 0.0))
        assert ts[origin] == 0.0
        steps = np.array([0, origin - 1, origin, len(ts) - 2])
        inner = steps + (ts[steps] < 0.0)
        outer = 2 * steps + 1 - inner
        i1, i2 = fld._rule(steps, inner, ts[outer] - ts[inner])
        with mp.workdps(40):
            for k, a, b, got1, got2 in zip(steps, inner, outer, i1, i2):
                args = [mp.mpf(float(v)) for v in (ts[k], ts[k + 1], ys[k], ys[k + 1], fs[k], fs[k + 1],
                                                    dfs[k], dfs[k + 1])]

                def gk(s, args=args):
                    return g(sl.numerics.hermite_quintic_value(s, *args))

                t_in, t_out = mp.mpf(float(ts[a])), mp.mpf(float(ts[b]))
                ref1 = mp.quad(gk, [t_in, t_out])
                ref2 = mp.quad(lambda s: (t_out - s) * gk(s), [t_in, t_out])
                assert abs(got1 - ref1) <= 1e-13 and abs(got2 - ref2) <= 1e-13

    def test_reads_at_the_knots_are_the_knot_sums(self):
        prof = assemble_w1(solve_phase_ode(0.3, 0.7, 10.0, rel_tol=1e-8))
        fld, knots = prof.field, prof.traj.dense.ts[:, None]
        assert same_bits(fld.value(knots), fld.vals)
        assert same_bits(fld.gradient(knots)[:, 0], fld.slopes)


class TestReadBlocks:
    """A long read is taken in blocks of ``_READ_BLOCK`` times, and each time
    rounds as it would alone: a 2,500-point cloud reads the same bits at any
    block size.  ``fields`` imports the size by value, so it is patched in
    both modules."""

    BLOCKS = (1, 7, 1024, 4096)

    @staticmethod
    def _cloud(lo, hi):
        rng = np.random.default_rng(49)
        return np.concatenate([[lo, hi, 0.0], rng.uniform(lo, hi, 2497)])

    def _assert_same_at_every_block(self, monkeypatch, read):
        reads = []
        for block in self.BLOCKS:
            monkeypatch.setattr(sl.numerics, "_READ_BLOCK", block)
            monkeypatch.setattr(sl.fields, "_READ_BLOCK", block)
            reads.append(read())
        assert all(same_bits(other, reads[0]) for other in reads[1:])

    @pytest.mark.parametrize("quintic", [True, False])
    def test_trajectory_evaluate(self, monkeypatch, quintic):
        dense = solve_phase_ode(0.3, 0.7, 10.0, rel_tol=1e-8).dense
        traj = dense if quintic else sl.Trajectory(dense.ts, dense.ys, dense.fs)
        ts = self._cloud(dense.ts[0], dense.ts[-1])
        self._assert_same_at_every_block(monkeypatch, lambda: traj.evaluate(ts))

    def test_step_integral_read(self, monkeypatch):
        fld = assemble_w1(solve_phase_ode(0.3, 0.7, 10.0, rel_tol=1e-8)).field
        x = self._cloud(-fld.span, fld.span)[:, None]

        def read():
            fld._last_cloud = (None, None)    # a read of the same cloud is cached
            return fld.read(x)

        self._assert_same_at_every_block(monkeypatch, read)

    @pytest.mark.parametrize("mss", [False, True])
    def test_construction_rows(self, monkeypatch, mss):
        if mss:
            prof = build_mss_counterexample(1.2, 0.1, T=10.0, rel_tol=1e-8, radius=5.0, samples=11)[0]
            integral = prof._integral
        else:
            prof = assemble_w1(solve_phase_ode(0.3, 0.7, 10.0, rel_tol=1e-8))
            integral = prof.field
        xs = self._cloud(-integral.span, integral.span)

        def rows():
            integral._last_cloud = (None, None)
            if mss:
                prof._last_sech2 = (None, None)
            return prof.rows(xs)

        self._assert_same_at_every_block(monkeypatch, rows)


class TestAssembleNd:
    def test_identity_wrapper_in_1d(self):
        prof = assemble_w1(solve_phase_ode(0.0, 1.0, 8.0))
        field = SeparableExtensionField(prof.field, 1)
        t = np.array([1.3])
        assert field.value(t) == prof.field.value(t)
        assert field.hessian(t)[0, 0] == prof.field.hessian(t)[0, 0]

    def test_residual_additivity(self):
        prof = assemble_w1(solve_phase_ode(0.0, 1.0, 10.0))
        field3 = SeparableExtensionField(prof.field, 3)
        field1 = SeparableExtensionField(prof.field, 1)
        for t in (-2.0, 0.4, 1.7):
            r3 = logit_equation_residual(field3, np.array([t, 5.0, -2.0]))
            r1 = logit_equation_residual(field1, np.array([t]))
            assert abs(r3 - r1) < 1e-12

    def test_spectrum_structure(self):
        prof = assemble_w1(solve_phase_ode(0.0, 1.0, 8.0))
        field = SeparableExtensionField(prof.field, 4)
        x = np.array([0.9, 1.0, -2.0, 0.3])
        w = sl.eig_sym(field.hessian(x))
        assert np.sum(np.abs(w - 0.5) < 1e-14) >= 3
        assert np.all((w > 0.0) & (w < 1.0))


class TestBuildCounterexample:
    def test_certified_run(self):
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = build_counterexample(tp, 0.0, 1.0, 2, T=20.0, seed=3)
        assert cert.passed
        assert cert.residual_sup <= 1e-6
        assert cert.cone_ok and cert.cone_margin > 0.0
        assert cert.witness["value"] == pytest.approx(0.25, abs=1e-8)
        assert cert.bounds["phi_prime_within_ceiling"]
        assert cert.cross_checks["route_agreement_inner_sup"] <= 1e-6

    def test_eigenvalues_strictly_inside(self):
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = build_counterexample(tp, 0.0, 1.0, 2, T=20.0, seed=3)
        lo, hi = 2.0 - math.sqrt(3.0), 2.0 + math.sqrt(3.0)
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.uniform(-7, 7, 2)
            w = sl.eig_sym(u.hessian(z))
            assert np.all(w > lo) and np.all(w < hi)

    def test_generic_route_agrees_on_inner_ball(self):
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = build_counterexample(tp, 0.0, 1.0, 2, T=20.0, seed=3)
        assert cert.cross_checks["generic_route_inner_sup"] <= 1e-6

    def test_residual_scales_with_tolerance(self):
        tp = TauParams.neg_branch(a=-2.0)
        sups = []
        for rel in (1e-6, 1e-7):
            _, _, cert = build_counterexample(tp, 0.0, 1.0, 2, T=20.0, seed=3, rel_tol=rel)
            sups.append(cert.residual_sup)
        assert sups[0] >= 5.0 * sups[1]

    def test_tighter_tolerance_keeps_the_certificate(self):
        # criterion 05's build: past 1e-10 the integrator's floor fixes the
        # steps, and the certificate stays where it was (a second quadrature
        # grid that kept refining read 6.5 times worse at 1e-11)
        tp = TauParams.neg_branch(a=-2.0)
        sups = [build_counterexample(tp, 0.0, 1.0, 2, T=20.0, seed=105, rel_tol=rel)[2].residual_sup
                for rel in (1e-10, 1e-11, 1e-12)]
        assert max(sups[1:]) <= 1.5 * sups[0]

    def test_trivial_slope_rejected(self):
        tp = TauParams.neg_branch(a=-2.0)
        with pytest.raises(InputError, match="trivial"):
            build_counterexample(tp, 0.0, 0.0, 2)

    def test_wrong_branch_rejected(self):
        with pytest.raises(InputError, match="bounded-cone"):
            build_counterexample(TauParams.harmonic(), 0.0, 1.0, 2)

    def test_small_slope_still_certifies(self):
        # a small phase slope keeps the forcing alive past any fixed window;
        # the construction must integrate the span it certifies
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = build_counterexample(tp, 0.0, 0.25, 2, T=20.0, seed=7, samples=200)
        assert cert.passed
        assert cert.residual_sup <= 1e-6

    @pytest.mark.parametrize("a1", [1.8, 2.0])
    def test_steep_phase_keeps_a_positive_margin(self, a1):
        # phi_max passes 37 on the cloud, where 1 - sigmoid(phi_max) rounds to 0
        tp = TauParams.neg_branch(a=-2.0)
        _, _, cert = build_counterexample(tp, 0.0, a1, 2, T=20.0, rel_tol=1e-8)
        assert cert.passed and cert.cone_ok
        assert 0.0 < cert.cone_margin < 1e-19

    def test_underflowing_margin_still_certifies(self):
        # phi reaches +-927 on the cloud: the margin 2b e^-927 underflows to
        # 0.0, yet every curvature sigmoid(phi) of a finite phi is inside
        tp = TauParams.neg_branch(a=-2.0)
        _, _, cert = build_counterexample(tp, 0.0, 40.0, 2, T=20.0)
        assert cert.cone_margin == 0.0
        assert cert.cone_ok and cert.passed
        assert cert.residual_sup <= cert.residual_target

    def test_margin_matches_high_precision(self):
        b = TauParams.neg_branch(a=-2.0).b
        phis = np.concatenate([-np.geomspace(700.0, 1e-3, 25), [0.0], np.geomspace(1e-3, 700.0, 25)])
        for phi_min in phis:
            for phi_max in phis[phis >= phi_min]:
                for n in (1, 2):
                    with mp.workdps(40):
                        exact = 2 * mp.mpf(b) * min(
                            1 / (1 + mp.exp(-phi_min)), 1 / (1 + mp.exp(phi_max)), 0.5 if n > 1 else 1
                        )
                        got = _neg_cone_margin(b, float(phi_min), float(phi_max), n)
                        assert abs(got - exact) <= 1e-12 * exact

    def test_certificate_reproducible(self):
        tp = TauParams.neg_branch(a=-2.0)
        _, _, c1 = build_counterexample(tp, 0.0, 1.0, 2, T=12.0, radius=4.0, samples=100, seed=5)
        _, _, c2 = build_counterexample(tp, 0.0, 1.0, 2, T=12.0, radius=4.0, samples=100, seed=5)
        assert c1.to_dict() == c2.to_dict()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cloud_phase_equals_point_loop_bit_for_bit(self, n, rng):
        # the certificate reads the phase of its whole cloud in one call
        ufield, _, _ = build_counterexample(TauParams.neg_branch(a=-2.0), 0.3, 0.7, n, rel_tol=1e-6, seed=n)
        pts = rng.uniform(-10.0, 10.0, (300, n))
        pts[0] = 0.0
        assert same_bits(phase(ufield, pts), [phase(ufield, z) for z in pts])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cloud_residual_equals_point_loop_bit_for_bit(self, n, rng):
        # the generic-route cross-check reads its inner cloud in one call
        tp = TauParams.neg_branch(a=-2.0)
        ufield, _, cert = build_counterexample(tp, 0.3, 0.7, n, rel_tol=1e-6, seed=n)
        pts = rng.uniform(-5.0, 5.0, (200, n))
        pts[0] = 0.0
        assert same_bits(ufield.hessian(pts), [ufield.hessian(z) for z in pts])
        assert same_bits(shrinker_residual(tp, ufield, pts), [shrinker_residual(tp, ufield, z) for z in pts])
        assert cert.cross_checks["generic_route_inner_sup"] <= 1e-6

    def test_nan_residual_fails_the_certificate(self, monkeypatch):
        # a NaN at one sample is the sup, and the worst sample is where it is
        def phase_with_nan(field, x):
            out = phase(field, x)
            if np.ndim(out):
                out[37] = math.nan
            return out

        monkeypatch.setattr(constructor, "phase", phase_with_nan)
        tp = TauParams.neg_branch(a=-2.0)
        _, _, cert = build_counterexample(tp, 0.0, 1.0, 2, rel_tol=1e-6, seed=3)
        pts = constructor._ball_samples(np.random.default_rng(3), 2, 10.0, 800)
        assert math.isnan(cert.residual_sup)
        assert not cert.passed
        assert cert.cross_checks["worst_sample"] == pts[37].tolist()


@pytest.mark.parametrize("radius", [-3.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("build", [
    lambda radius: build_counterexample(TauParams.from_cot(-2.0), 0.0, 1.0, 2, radius=radius),
    lambda radius: build_mss_counterexample(1.0, 0.0, 20.0, 1e-8, radius),
], ids=["bounded", "mss"])
def test_radius_not_finite_and_positive(build, radius):
    # refused as the CLI's --rmax is, before any work
    with pytest.raises(InputError, match="radius must be finite and positive"):
        build(radius)


def _certificate(samples, residuals, value=1.0, cone_ok=True, checks=()):
    return Certificate.of(
        np.array(samples), np.array(residuals), equation="synthetic", radius=2, cone_ok=cone_ok,
        cone_margin=1, witness={"value": value}, bounds={}, cross_checks={"kept": 1}, config={}, checks=checks,
    )


class TestCertificateRules:
    @pytest.mark.parametrize("samples, residuals, sup, worst, passed", [
        ([-1.0, 0.0, 1.0], [0.0, -0.0, 0.0], 0.0, None, True),           # no residual: no worst sample
        ([-1.0, 0.0, 1.0], [1e-9, math.nan, 2.0], math.nan, 0.0, False),  # a NaN is the sup
        ([-1.0, 0.0, 1.0], [math.nan, 1e-9, math.nan], math.nan, -1.0, False),  # the first NaN
        ([-1.0, 0.0, 1.0], [1e-7, -3e-7, 3e-7], 3e-7, 0.0, True),         # a tie: the first
        ([-1.0, 0.0, 1.0], [0.0, 2e-6, 0.0], 2e-6, 0.0, False),           # above RESIDUAL_TARGET
        ([[0.0, 1.0], [2.0, 3.0]], [1e-8, -2e-8], 2e-8, [2.0, 3.0], True),  # a row of an n-D cloud
    ], ids=["zeros", "nan", "first-nan", "tie", "above-target", "n-d"])
    def test_sup_worst_sample_and_verdict(self, samples, residuals, sup, worst, passed):
        cert = _certificate(samples, residuals)
        assert same_bits(cert.residual_sup, sup)
        assert cert.cross_checks == {"kept": 1, "worst_sample": worst}
        assert type(cert.cross_checks["worst_sample"]) is type(worst)  # a list on a cloud, a float on a line
        assert cert.passed is passed
        assert (cert.sample_count, cert.sample_radius, cert.cone_margin) == (len(samples), 2.0, 1.0)
        assert type(cert.sample_radius) is float and type(cert.cone_margin) is float
        assert cert.residual_target == constructor.RESIDUAL_TARGET

    @pytest.mark.parametrize("kwargs, nonzero", [
        ({}, True),
        ({"value": 0.0}, False),
        ({"value": -1e-12}, False),
        ({"value": math.nan}, False),
        ({"cone_ok": False}, True),
        ({"checks": [True, False]}, True),
    ], ids=["passes", "zero-witness", "witness-at-threshold", "nan-witness", "outside-cone", "extra-check"])
    def test_each_condition_decides(self, kwargs, nonzero):
        cert = _certificate([-1.0, 1.0], [1e-9, 0.0], **kwargs)
        assert cert.witness["nonzero"] is nonzero
        assert cert.passed is (not kwargs)

    def test_mss_zero_residuals_have_no_worst_sample(self, monkeypatch):
        monkeypatch.setattr(constructor, "minkowski_residual", lambda fld, x: np.zeros(len(x)))
        _, cert = build_mss_counterexample(1.2, 0.1, T=10.0, rel_tol=1e-8, radius=5.0, samples=11)
        assert cert.residual_sup == 0.0 and cert.passed
        assert cert.cross_checks["worst_sample"] is None

    def test_mss_nan_residual_is_the_worst_sample(self, monkeypatch):
        def nan_at_minus_2(fld, x):
            return np.where(x[:, 0] == -2.0, math.nan, 0.0)

        monkeypatch.setattr(constructor, "minkowski_residual", nan_at_minus_2)
        _, cert = build_mss_counterexample(1.2, 0.1, T=10.0, rel_tol=1e-8, radius=5.0, samples=11)
        assert math.isnan(cert.residual_sup) and not cert.passed
        assert cert.cross_checks["worst_sample"] == -2.0


class TestMssCounterexample:
    def test_certified_run(self):
        fld, cert = build_mss_counterexample(1.0, 0.0, T=20.0)
        assert cert.passed
        assert cert.residual_sup <= 1e-6
        assert cert.bounds["sup_abs_slope"] < 1.0
        assert cert.bounds["f_at_0"] == pytest.approx(-2.0, abs=1e-12)
        assert cert.bounds["slope_at_0"] == 0.0
        assert cert.witness["value"] == pytest.approx(1.0, abs=1e-8)

    def test_consistency_relations(self):
        # phi(0) = (0 f'(0) - f(0))/2 pins f(0) = -2 phi0; f' = tanh(s)
        s0, phi0 = 0.3, -0.8
        fld, cert = build_mss_counterexample(phi0, s0, T=10.0, radius=5.0)
        assert fld.value([0.0]) == pytest.approx(-2.0 * phi0, abs=1e-12)
        assert float(fld.gradient([0.0])[0]) == pytest.approx(math.tanh(s0), abs=1e-12)
        assert float(fld.hessian([0.0])[0, 0]) == pytest.approx(
            (1.0 / math.cosh(s0)) ** 2 * phi0, abs=1e-12
        )

    def test_generic_weight_agrees_where_well_conditioned(self):
        fld, cert = build_mss_counterexample(1.0, 0.0, T=10.0, radius=5.0)

        class Stripped:
            dim = 1

            def value(self, x):
                return fld.value(x)

            def gradient(self, x):
                return fld.gradient(x)

            def hessian(self, x):
                return fld.hessian(x)

        bare = Stripped()
        for x in np.linspace(-3.0, 3.0, 31):
            stable = minkowski_residual(fld, [x])
            generic = minkowski_residual(bare, [x])
            assert abs(stable - generic) < 1e-8

    def test_trivial_phase_rejected(self):
        with pytest.raises(InputError, match="trivial"):
            build_mss_counterexample(0.0)

    def test_reads_past_the_span_are_refused(self):
        # x = 25 on a span of 20: value, gradient, hessian and the complement
        # all refuse it, as they read the same clamp-free trajectory
        fld, _ = build_mss_counterexample(1.2, 0.1, rel_tol=1e-8)
        assert fld.span == 20.0
        for read in (fld.value, fld.gradient, fld.hessian, fld.gradient_complement):
            with pytest.raises(InputError, match="outside the span"):
                read(np.array([[25.0]]))

    def test_rows_equal_scalar_reads_bit_for_bit(self):
        fld, _ = build_mss_counterexample(1.2, 0.1, T=10.0, rel_tol=1e-8, radius=5.0, samples=11)
        xs = np.arange(-10.0, 10.0 + 0.0125, 0.025)
        scalar = []
        for x in xs:
            s, p = fld._integral.dense(x)  # the trajectory's own read of (s, phi)
            scalar.append([x, s, p, fld.value([x]), float(fld.gradient([x])[0]), float(fld.hessian([x])[0, 0])])
        assert np.array_equal(np.array(fld.rows(xs)).view(np.int64), np.array(scalar).view(np.int64))

    @pytest.mark.parametrize("phi0, s0, tol", [(1.9, 0.2, 1e-8), (2.0, 0.5, 1e-10)])
    def test_steep_profile_is_spacelike(self, phi0, s0, tol):
        # |f'| = tanh|s| rounds to 1 on the cloud; sech^2(s) and the margin
        # taken from s stay positive
        fld, cert = build_mss_counterexample(phi0, s0, T=20.0, rel_tol=tol)
        assert cert.passed and cert.bounds["spacelike"]
        assert cert.bounds["sup_abs_slope"] == 1.0
        assert 0.0 < cert.cone_margin < 1e-17

    def test_complement_underflow_is_not_spacelike(self):
        with pytest.raises(DomainError, match=r"not spacelike: .* at x = \[-10\.\]"):
            build_mss_counterexample(100.0, 0.0, T=20.0, rel_tol=1e-8)

    def test_margin_matches_high_precision(self):
        for s in np.concatenate([[0.0], np.geomspace(1e-6, 350.0, 60)]):
            with mp.workdps(40):
                exact = 2 / (1 + mp.exp(2 * mp.mpf(s)))
                assert abs(_spacelike_margin(float(s)) - exact) <= 1e-12 * exact

    def test_cloud_reads_equal_point_reads_bit_for_bit(self):
        fld, _ = build_mss_counterexample(1.2, 0.1, T=10.0, rel_tol=1e-8, radius=5.0, samples=11)
        dense = fld._integral.dense
        xs = np.concatenate([np.linspace(-10.0, 10.0, 801), [-10.0 - 1e-10, 10.0 + 1e-10], dense.ts])
        cloud = xs[:, None]
        # the point reads as written before clouds: one scalar trajectory read
        # each, math.tanh and math.cosh
        lo, hi = dense.ts[0], dense.ts[-1]
        s, p = np.array([dense(min(max(x, lo), hi)) for x in xs]).T
        sech2 = [(1.0 / math.cosh(v)) ** 2 for v in s]
        assert same_bits(fld.gradient(cloud), [[math.tanh(v)] for v in s])
        assert same_bits(fld.hessian(cloud), [[[c * w]] for c, w in zip(sech2, p)])
        assert same_bits(fld.gradient_complement(cloud), sech2)
        assert same_bits(fld.value(cloud), [fld.value([x]) for x in xs])
        assert same_bits(minkowski_residual(fld, cloud), [minkowski_residual(fld, [x]) for x in xs])

    def test_sech2_kept_for_the_last_cloud_only(self):
        # clouds A, B, A in turn: each read is that cloud's own sech^2(s),
        # never the other cloud's kept one
        fld, _ = build_mss_counterexample(1.2, 0.1, T=10.0, rel_tol=1e-8, radius=5.0, samples=11)
        a, b = np.linspace(-5.0, 5.0, 41)[:, None], np.linspace(-9.0, 9.0, 37)[:, None]
        for cloud in (a, b, a):
            _, _, s, p = fld._integral.read(cloud)
            sech2 = [constructor._sech2(v) for v in s]
            assert same_bits(fld.gradient_complement(cloud), sech2)
            assert same_bits(fld.hessian(cloud), [[[c * w]] for c, w in zip(sech2, p)])
            assert same_bits(fld.gradient_complement(cloud), sech2)

    def test_residual_maps_sech2_once_a_point(self, monkeypatch):
        fld, _ = build_mss_counterexample(1.2, 0.1, T=10.0, rel_tol=1e-8, radius=5.0, samples=11)
        cloud = np.linspace(-5.0, 5.0, 201)[:, None]
        calls = []
        sech2 = constructor._sech2
        monkeypatch.setattr(constructor, "_sech2", lambda s: calls.append(s) or sech2(s))
        minkowski_residual(fld, cloud)
        assert len(calls) == len(cloud)

    def test_certificate_equals_point_residuals(self):
        fld, cert = build_mss_counterexample(-0.7, 0.2, T=10.0, rel_tol=1e-8, radius=5.0, samples=201)
        xs = np.linspace(-5.0, 5.0, 201)
        point = [abs(minkowski_residual(fld, [x])) for x in xs]
        assert cert.residual_sup == max(point)
        assert cert.cross_checks["worst_sample"] == xs[int(np.argmax(point))]
        assert cert.bounds["sup_abs_slope"] == max(abs(float(fld.gradient([x])[0])) for x in xs)

    def test_certificate_reads_its_cloud_once(self, monkeypatch):
        # gradient, weight and Hessian of the residual and the slope bound
        # share one search of the trajectory on the 2001-point cloud
        searches = _count_searches(monkeypatch)
        build_mss_counterexample(1.2, 0.1, rel_tol=1e-8, samples=2001)
        assert searches.count(2001) == 1

    def test_negative_phase_profile(self):
        fld, cert = build_mss_counterexample(-1.0, 0.0, T=10.0, radius=5.0)
        assert cert.residual_sup <= 1e-6
        assert cert.bounds["sup_abs_slope"] < 1.0


_NEG = TauParams.neg_branch(a=-2.0)


@pytest.mark.parametrize("call, reason", [
    (lambda: sl.build_mss_counterexample(1.2, 0.1, rel_tol=1e-8, samples=0), "samples must be an integer of at least 1"),
    (lambda: sl.build_mss_counterexample(1.2, 0.1, rel_tol=1e-8, samples=2.5), "samples must be an integer of at least 1"),
    (lambda: sl.build_mss_counterexample(1.2, 0.1, rel_tol=1e-8, samples=-5), "samples must be an integer of at least 1"),
    (lambda: sl.build_counterexample(_NEG, 0.3, 0.7, 2, samples=0), "samples must be an integer of at least 1"),
    (lambda: sl.build_counterexample(_NEG, 0.3, 0.7, 2, samples=-1), "samples must be an integer of at least 1"),
    (lambda: sl.build_counterexample(_NEG, 0.3, 0.7, 2, samples=800.0), "samples must be an integer of at least 1"),
    (lambda: constructor.profile_grid(-1.0, 0.01), "half-span must be finite and positive"),
    (lambda: constructor.profile_grid(0.0, 0.01), "half-span must be finite and positive"),
    (lambda: constructor.profile_grid(math.inf, 0.01), "half-span must be finite and positive"),
    (lambda: constructor.profile_grid(math.nan, 0.01), "half-span must be finite and positive"),
], ids=["mss-samples-0", "mss-samples-fractional", "mss-samples-negative", "build-samples-0",
        "build-samples-negative", "build-samples-float", "grid-span-negative", "grid-span-0", "grid-span-inf",
        "grid-span-nan"])
def test_constructions_refuse_degenerate_samples_and_spans(call, reason):
    # a construction on no samples certified without reading a residual, a
    # fractional count was rounded down, a negative one met numpy's ValueError,
    # and a half-span below 0 gave an empty grid
    with pytest.raises(InputError, match=reason):
        call()
