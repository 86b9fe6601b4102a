import dataclasses
import math

import numpy as np
import pytest

import shrinker_lab as sl
from shrinker_lab import TauParams, transforms
from shrinker_lab.fields import AffineScaledField, QuadraticField, Table1DField
from shrinker_lab.numerics import DomainError, InputError, fd_gradient, fd_hessian
from shrinker_lab.transforms import (
    convexify_shift,
    legendre_1d,
    legendre_dual_residual,
    normalize_counterexample_branch,
    self_similar_extension,
)

from conftest import CallableField, logit_equation_residual, same_bits

SQRT2 = math.sqrt(2.0)


def quad_1d(alpha=1.0, c=0.0):
    return CallableField(
        1,
        lambda p: 0.5 * alpha * p[0] ** 2 + c,
        grad=lambda p: np.array([alpha * p[0]]),
        hess=lambda p: np.array([[alpha]]),
    )


_TS = np.linspace(-3.0, 3.0, 121)


def _legendre_reference(field, t0, t1, num):
    """legendre_1d's arrays (x, y, w*, 1/w'') from point reads, one node at a time."""
    xs = np.linspace(t0, t1, num)
    vals = np.array([field.value([x]) for x in xs])
    ys = np.array([field.gradient([x])[0] for x in xs])
    curv = np.array([field.hessian([x])[0, 0] for x in xs])
    return xs, ys, xs * ys - vals, 1.0 / curv


class TestLegendre:
    @pytest.mark.parametrize("field", [
        convexify_shift(TauParams.harmonic(), QuadraticField(np.array([[0.8]]))),  # legendre-check's
        AffineScaledField(Table1DField(_TS, np.cosh(_TS), np.sinh(_TS), np.cosh(_TS)), outer=0.7, quad=0.2),
    ])
    def test_arrays_equal_point_reads_bit_for_bit(self, field):
        res = legendre_1d(field, -2.0, 2.0, num=161)
        xs, ys, dual, dual_hess = _legendre_reference(field, -2.0, 2.0, 161)
        for got, want in ((res.field.slopes, xs), (res.field.ts, ys), (res.field.vals, dual),
                          (res.field.curvs, dual_hess)):
            assert same_bits(got, want)
        # the involution: the dual table transformed back, read between the primal nodes
        back = _legendre_reference(Table1DField(ys, dual, xs, dual_hess), ys[0], ys[-1], 161)
        again = Table1DField(back[1], back[2], back[0], back[3])
        mids = 0.5 * (xs[2:158] + xs[3:159])
        defect = max(abs(again.value([m]) - field.value([m])) for m in mids)
        assert res.involution_defect == defect
    def test_self_dual(self):
        res = legendre_1d(quad_1d(), -2.0, 2.0, num=401)
        assert res.involution_defect <= 1e-9
        for y in (-1.5, 0.0, 0.8):
            assert res.field.value([y]) == pytest.approx(0.5 * y * y, abs=1e-12)

    def test_scaling(self):
        alpha = 2.5
        res = legendre_1d(quad_1d(alpha), -2.0, 2.0, num=401)
        for y in np.linspace(-4.5, 4.5, 11):
            assert res.field.value([y]) == pytest.approx(y * y / (2 * alpha), abs=1e-11)

    def test_quartic_dual_closed_form(self):
        # w = x^4/4 on [-2, 2]; even interval count keeps the degenerate point
        # off the grid.  Sample-level tolerance: the dual is only C^1 at 0.
        quart = CallableField(
            1,
            lambda p: 0.25 * p[0] ** 4,
            grad=lambda p: np.array([p[0] ** 3]),
            hess=lambda p: np.array([[3.0 * p[0] ** 2]]),
        )
        res = legendre_1d(quart, -2.0, 2.0, num=800)
        want = 0.75 * np.abs(res.field.ts) ** (4.0 / 3.0)
        assert np.max(np.abs(res.field.vals - want)) <= 1e-6

    def test_involution_smooth_strictly_convex(self):
        w = CallableField(
            1,
            lambda p: 0.5 * p[0] ** 2 + 0.1 * math.cosh(p[0]),
            grad=lambda p: np.array([p[0] + 0.1 * math.sinh(p[0])]),
            hess=lambda p: np.array([[1.0 + 0.1 * math.cosh(p[0])]]),
        )
        res = legendre_1d(w, -2.0, 2.0, num=801)
        assert res.involution_defect <= 1e-9

    def test_involution_read_between_nodes(self):
        # value x^2/2 and slope x agree at every node, but a curvature of 1.1
        # bends the Hermite interpolants between them: h^2 (1.1 - 1)/32 at a
        # midpoint, 1.25e-6 on this grid, and 0 at the nodes themselves
        w = CallableField(
            1,
            lambda p: 0.5 * p[0] ** 2,
            grad=lambda p: np.array([p[0]]),
            hess=lambda p: np.array([[1.1]]),
        )
        assert legendre_1d(w, -2.0, 2.0, num=201).involution_defect > 1e-9

    def test_involution_needs_an_interior_cell(self):
        with pytest.raises(InputError, match="involution"):
            legendre_1d(quad_1d(), -1.0, 1.0, num=5)
        assert legendre_1d(quad_1d(), -1.0, 1.0, num=6).involution_defect <= 1e-15

    def test_one_dimensional_only(self):
        with pytest.raises(InputError):
            legendre_1d(QuadraticField(np.eye(2)), -1.0, 1.0)

    def test_convexity_violation_located(self):
        w = CallableField(
            1,
            lambda p: math.cos(p[0]),
            grad=lambda p: np.array([-math.sin(p[0])]),
            hess=lambda p: np.array([[-math.cos(p[0])]]),
        )
        with pytest.raises(DomainError, match="not strictly convex") as exc:
            legendre_1d(w, -1.0, 1.0, num=101)
        assert -1.0 <= exc.value.location <= 1.0
        assert exc.value.value <= 0.0

    def test_decreasing_slope_located(self):
        # a positive w'' with a w' that falls from node to node
        w = CallableField(
            1,
            lambda p: -0.5 * p[0] ** 2,
            grad=lambda p: np.array([-p[0]]),
            hess=lambda p: np.array([[1.0]]),
        )
        with pytest.raises(DomainError, match="not strictly convex") as exc:
            legendre_1d(w, -1.0, 1.0, num=11)
        assert exc.value.location == pytest.approx(-0.8)
        assert exc.value.value < 0.0


class TestDualResidual:
    def test_harm_quadratic_dual(self):
        tp = TauParams.harmonic()
        sol = sl.build_quadratic(tp, np.array([[0.8]]))
        w = convexify_shift(tp, sol)
        chk = legendre_dual_residual(w, -2.0, 2.0, grid_step=1e-2)
        assert chk.dual_equation_sup <= 1e-8
        assert chk.hessian_inverse_defect <= 1e-8
        assert chk.phase_drift_sup <= 1e-5

    @pytest.mark.parametrize("lam", [0.3, 0.8, 1.7])
    def test_drift_is_the_per_sample_central_difference(self, lam, monkeypatch):
        # criterion 07's quadratics: the drift residuals, taken here one dual
        # sample at a time from fd_hessian and fd_gradient of the phase, at
        # the check's own step and margin, give its sup bit for bit; the
        # check reads the phase at exactly those samples, shifted by -h, 0, h
        clouds = []

        def spy(field, x):
            clouds.append(tuple(x[:, 0]))
            return sl.phase(field, x)

        monkeypatch.setattr(transforms, "phase", spy)
        tp = TauParams.harmonic()
        w = convexify_shift(tp, sl.build_quadratic(tp, np.array([[lam]])))
        chk = legendre_dual_residual(w, -2.0, 2.0, grid_step=1e-2)
        ys = chk.transform.field.ts
        dy = float(np.min(np.diff(ys)))
        h = min(1e-3, dy)
        margin = max(4, int(math.ceil(4 * 1e-3 / dy)) + 2)
        inner = ys[margin:-margin]
        assert sorted(clouds) == sorted(tuple(inner + s) for s in (-h, 0.0, h))

        def phi(p):
            return sl.phase(chk.transform.field, p)

        want = 0.0
        for y in ys[margin:-margin]:
            x = np.array([y])
            r = float(fd_hessian(phi, x, h)[0, 0]) - SQRT2 / 4.0 * float(x @ fd_gradient(phi, x, h))
            want = max(want, abs(r))
        assert chk.phase_drift_sup == want
        assert 0.0 < want <= 5e-9

    @pytest.mark.parametrize("step", [0.0, -0.01, math.nan])
    def test_grid_step_must_be_finite_and_positive(self, step):
        tp = TauParams.harmonic()
        w = convexify_shift(tp, sl.build_quadratic(tp, np.array([[0.8]])))
        with pytest.raises(InputError, match="grid_step must be finite and positive"):
            legendre_dual_residual(w, -2.0, 2.0, grid_step=step)

    def test_dual_hessian_is_reciprocal(self):
        tp = TauParams.harmonic()
        sol = sl.build_quadratic(tp, np.array([[1.7]]))
        w = convexify_shift(tp, sol)
        res = legendre_1d(w, -2.0, 2.0, num=201)
        assert np.allclose(res.field.curvs, 1.0 / 2.7, atol=1e-10)


class TestConvexifyShift:
    def test_harm_constant_solution(self):
        tp = TauParams.harmonic()
        n = 2
        sol = sl.build_quadratic(tp, np.zeros((n, n)))
        w = convexify_shift(tp, sol)
        assert np.allclose(w.hessian(np.zeros(n)), np.eye(n), atol=1e-15)
        assert w.value(np.zeros(n)) == pytest.approx(SQRT2 * n, abs=1e-14)

    def test_phase_invariance_exact(self, rng):
        for tp in (TauParams.harmonic(), TauParams.log_branch(math.pi / 6)):
            A = sl.random_admissible_matrix(tp, 3, rng)
            sol = sl.build_quadratic(tp, A)
            w = convexify_shift(tp, sol)
            for _ in range(10):
                x = rng.uniform(-3, 3, 3)
                assert sl.phase(w, x) == pytest.approx(sl.phase(sol, x), abs=1e-12)

    def test_eigenvalue_shift_exact(self, rng):
        tp = TauParams.log_branch(math.pi / 6)
        A = sl.random_admissible_matrix(tp, 3, rng)
        sol = sl.build_quadratic(tp, A)
        w = convexify_shift(tp, sol)
        k = tp.a - tp.b
        x = rng.uniform(-1, 1, 3)
        assert np.allclose(
            sl.eig_sym(w.hessian(x)), sl.eig_sym(sol.hessian(x)) + k, atol=1e-13
        )

    def test_solves_the_shifted_equation(self, rng):
        # w = u + k|x|^2/2 solves the equation in the shifted eigenvalues mu:
        # HARM  -sqrt(2) sum 1/mu = phase;  LOG  sqrt(a^2+1)/(2b) sum ln(mu/(mu+2b)) = phase
        def shifted_lhs(tp, mus):
            if tp.branch is sl.Branch.HARM:
                return -SQRT2 * float(np.sum(1.0 / mus))
            b = tp.b
            return tp.sqrt_a2p1 / (2.0 * b) * float(np.sum(np.log(mus / (mus + 2.0 * b))))

        for tp in (TauParams.harmonic(), TauParams.log_branch(math.pi / 6)):
            A = sl.random_admissible_matrix(tp, 2, rng)
            sol = sl.build_quadratic(tp, A)
            w = convexify_shift(tp, sol)
            for _ in range(5):
                x = rng.uniform(-2, 2, 2)
                mus = sl.eig_sym(w.hessian(x))
                assert np.all(mus > 0.0)
                assert abs(shifted_lhs(tp, mus) - sl.phase(w, x)) <= 1e-11

    def test_lower_cone_instructs_negation(self):
        tp = TauParams.harmonic("lower")
        with pytest.raises(DomainError, match="negate first"):
            convexify_shift(tp, QuadraticField(np.diag([-3.0])))


class TestSymmetryNegate:
    def test_maps_solutions_to_solutions(self, rng):
        # the negation u -> -k|x|^2 - u (k = 1 on HARM, a on LOG) that the
        # lower-cone error of convexify_shift asks for maps lower-cone
        # solutions to upper-cone ones, which the shift then accepts
        for tp in (TauParams.harmonic("lower"), TauParams.log_branch(math.pi / 6, "lower")):
            k = 1.0 if tp.branch is sl.Branch.HARM else tp.a
            A = sl.random_admissible_matrix(tp, 2, rng)
            sol = sl.build_quadratic(tp, A)
            neg = sl.AffineScaledField(sol, outer=-1.0, inner=1.0, quad=-2.0 * k, offset=0.0)
            up = dataclasses.replace(tp, cone_side="upper")
            w = convexify_shift(up, neg)
            for _ in range(5):
                x = rng.uniform(-2, 2, 2)
                assert abs(sl.shrinker_residual(up, neg, x)) <= 1e-10
                assert np.all(sl.eig_sym(w.hessian(x)) > 0.0)


class TestNormalizeCounterexampleBranch:
    def test_round_trip_exact(self, rng):
        # w(x) = k u(c2 x) + (s/2)|x|^2 is the forward map the normalization inverts
        tp = TauParams.neg_branch(a=-2.0)
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        a, b, (k, c2) = tp.a, tp.b, tp.neg_scaling
        w = sl.AffineScaledField(sol, outer=k, inner=c2, quad=(a + b) / (2.0 * b), offset=0.0)
        u = normalize_counterexample_branch(tp, w)
        for _ in range(10):
            x = rng.uniform(-3, 3, 2)
            assert u.value(x) == pytest.approx(sol.value(x), abs=1e-12)

    def test_quadratic_maps_into_unit_window(self, rng):
        # the forward map w(x) = k u(c2 x) + (s/2)|x|^2 takes a bounded-cone
        # solution to a logit-equation solution with 0 < D^2 w < I
        tp = TauParams.neg_branch(a=-2.0)
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        a, b, (k, c2) = tp.a, tp.b, tp.neg_scaling
        w = sl.AffineScaledField(sol, outer=k, inner=c2, quad=(a + b) / (2.0 * b), offset=0.0)
        mus = sl.eig_sym(w.hessian(np.zeros(2)))
        assert np.all(mus > 0.0) and np.all(mus < 1.0)
        for _ in range(5):
            assert abs(logit_equation_residual(w, rng.uniform(-2, 2, 2))) <= 1e-10

    def test_logit_quadratic_maps_to_solution(self, rng):
        # w = <x, M x>/2 + c with 0 < M < I has phase -c, so it solves the
        # logit equation iff c = -sum logit(mu_i)
        tp = TauParams.neg_branch(a=-2.0)
        mus = rng.uniform(0.05, 0.95, 2)
        w = QuadraticField(np.diag(mus), -float(np.sum(np.log(mus / (1.0 - mus)))))
        u = normalize_counterexample_branch(tp, w)
        for _ in range(5):
            x = rng.uniform(-2, 2, 2)
            assert abs(logit_equation_residual(w, x)) <= 1e-12
            assert abs(sl.shrinker_residual(tp, u, x)) <= 1e-10

    def test_out_of_window_rejected(self):
        tp = TauParams.neg_branch(a=-2.0)
        with pytest.raises(DomainError, match="not inside"):
            normalize_counterexample_branch(tp, QuadraticField(np.diag([1.5])))

    def test_wrong_branch_rejected(self):
        with pytest.raises(InputError, match="defined on the NEG branch"):
            normalize_counterexample_branch(TauParams.harmonic(), QuadraticField(np.diag([0.5])))


class TestSelfSimilarExtension:
    def test_time_minus_one_identity(self, rng):
        tp = TauParams.harmonic()
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        x = rng.uniform(-3, 3, 2)
        s = self_similar_extension(tp, sol, x, -1.0)
        assert s.v == sol.value(x)

    def test_quadratic_defect(self, all_branches, rng):
        for name, tp in all_branches.items():
            A = sl.random_admissible_matrix(tp, 2, rng)
            sol = sl.build_quadratic(tp, A)
            for _ in range(20):
                x = rng.uniform(-3, 3, 2)
                t = -float(rng.uniform(0.1, 10.0))
                assert abs(self_similar_extension(tp, sol, x, t).defect) <= 1e-10

    def test_hessian_spectrum_invariance(self, rng):
        tp = TauParams.special_lagrangian()
        A = sl.random_admissible_matrix(tp, 3, rng)
        sol = sl.build_quadratic(tp, A)
        x = rng.uniform(-2, 2, 3)
        t = -3.7
        xi = x / math.sqrt(-t)
        assert np.max(np.abs(sl.eig_sym(sol.hessian(xi)) - sl.eig_sym(A))) < 1e-12

    def test_future_time_rejected(self):
        tp = TauParams.harmonic()
        field = QuadraticField(np.zeros((1, 1)), SQRT2)
        with pytest.raises(InputError):
            self_similar_extension(tp, field, np.array([1.0]), 0.5)
