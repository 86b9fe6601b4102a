import dataclasses
import math

import numpy as np
import pytest

import shrinker_lab as sl
from shrinker_lab import TauParams
from shrinker_lab.fields import CallableField, QuadraticField
from shrinker_lab.numerics import DomainError, InputError
from shrinker_lab.transforms import (
    convexify_shift,
    legendre_1d,
    legendre_dual_residual,
    logit_equation_residual,
    normalize_counterexample_branch,
    reduce_to_special_lagrangian,
    self_similar_extension,
    shifted_equation_residual,
    symmetry_negate,
)

SQRT2 = math.sqrt(2.0)


def quad_1d(alpha=1.0, c=0.0):
    return CallableField(
        1,
        lambda p: 0.5 * alpha * p[0] ** 2 + c,
        grad=lambda p: np.array([alpha * p[0]]),
        hess=lambda p: np.array([[alpha]]),
    )


class TestLegendre:
    def test_self_dual(self):
        res = legendre_1d(quad_1d(), -2.0, 2.0, num=401)
        assert res.involution_defect <= 1e-9
        for y in (-1.5, 0.0, 0.8):
            assert res.field.value([y]) == pytest.approx(0.5 * y * y, abs=1e-12)

    def test_scaling(self):
        alpha = 2.5
        res = legendre_1d(quad_1d(alpha), -2.0, 2.0, num=401, check_involution=False)
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
        res = legendre_1d(quart, -2.0, 2.0, num=800, check_involution=False)
        want = 0.75 * np.abs(res.y_grid) ** (4.0 / 3.0)
        assert np.max(np.abs(res.dual_values - want)) <= 1e-6

    def test_involution_smooth_strictly_convex(self):
        w = CallableField(
            1,
            lambda p: 0.5 * p[0] ** 2 + 0.1 * math.cosh(p[0]),
            grad=lambda p: np.array([p[0] + 0.1 * math.sinh(p[0])]),
            hess=lambda p: np.array([[1.0 + 0.1 * math.cosh(p[0])]]),
        )
        res = legendre_1d(w, -2.0, 2.0, num=801)
        assert res.involution_defect <= 1e-9

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


class TestDualResidual:
    def test_harm_quadratic_dual(self):
        tp = TauParams.harmonic()
        sol = sl.build_quadratic(tp, np.array([[0.8]]))
        w = convexify_shift(tp, sol.field)
        chk = legendre_dual_residual(w, -2.0, 2.0, grid_step=1e-2)
        assert chk.dual_equation_sup <= 1e-8
        assert chk.hessian_inverse_defect <= 1e-8
        assert chk.phase_drift_sup <= 1e-5

    def test_dual_hessian_is_reciprocal(self):
        tp = TauParams.harmonic()
        sol = sl.build_quadratic(tp, np.array([[1.7]]))
        w = convexify_shift(tp, sol.field)
        res = legendre_1d(w, -2.0, 2.0, num=201, check_involution=False)
        assert np.allclose(res.dual_hessian, 1.0 / 2.7, atol=1e-10)


class TestSymmetryNegate:
    def test_harm_cone_swap(self):
        tp = TauParams.harmonic("lower")
        field = QuadraticField(np.diag([-3.0]), 0.0)
        neg = symmetry_negate(tp, field)
        assert neg.hessian(np.zeros(1))[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_maps_solutions_to_solutions(self, rng):
        for tp in (TauParams.harmonic("lower"), TauParams.log_branch(math.pi / 6, "lower")):
            A = sl.random_admissible_matrix(tp, 2, rng)
            sol = sl.build_quadratic(tp, A)
            neg = symmetry_negate(tp, sol.field)
            up = dataclasses.replace(tp, cone_side="upper")
            for _ in range(5):
                x = rng.uniform(-2, 2, 2)
                assert abs(sl.shrinker_residual(up, neg, x)) <= 1e-10

    def test_involution_exact(self, rng):
        tp = TauParams.harmonic()
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        twice = symmetry_negate(tp, symmetry_negate(tp, sol.field))
        x = rng.uniform(-2, 2, 2)
        assert twice.value(x) == sol.field.value(x)
        assert np.array_equal(twice.gradient(x), sol.field.gradient(x))

    def test_unsupported_branch(self):
        with pytest.raises(InputError, match="defined for HARM and LOG only"):
            symmetry_negate(TauParams.special_lagrangian(), QuadraticField(np.zeros((1, 1))))


class TestConvexifyShift:
    def test_harm_constant_solution(self):
        tp = TauParams.harmonic()
        n = 2
        sol = sl.build_quadratic(tp, np.zeros((n, n)))
        w = convexify_shift(tp, sol.field)
        assert np.allclose(w.hessian(np.zeros(n)), np.eye(n), atol=1e-15)
        assert w.value(np.zeros(n)) == pytest.approx(SQRT2 * n, abs=1e-14)

    def test_phase_invariance_exact(self, rng):
        for tp in (TauParams.harmonic(), TauParams.log_branch(math.pi / 6)):
            A = sl.random_admissible_matrix(tp, 3, rng)
            sol = sl.build_quadratic(tp, A)
            w = convexify_shift(tp, sol.field)
            for _ in range(10):
                x = rng.uniform(-3, 3, 3)
                assert sl.phase(w, x) == pytest.approx(sl.phase(sol.field, x), abs=1e-12)

    def test_eigenvalue_shift_exact(self, rng):
        tp = TauParams.log_branch(math.pi / 6)
        A = sl.random_admissible_matrix(tp, 3, rng)
        sol = sl.build_quadratic(tp, A)
        w = convexify_shift(tp, sol.field)
        k = tp.a - tp.b
        x = rng.uniform(-1, 1, 3)
        assert np.allclose(
            sl.eig_sym(w.hessian(x)), sl.eig_sym(sol.field.hessian(x)) + k, atol=1e-13
        )

    def test_shifted_equation_residual(self, rng):
        for tp in (TauParams.harmonic(), TauParams.log_branch(math.pi / 6)):
            A = sl.random_admissible_matrix(tp, 2, rng)
            sol = sl.build_quadratic(tp, A)
            w = convexify_shift(tp, sol.field)
            for _ in range(5):
                assert abs(shifted_equation_residual(tp, w, rng.uniform(-2, 2, 2))) <= 1e-11

    def test_lower_cone_instructs_negation(self):
        tp = TauParams.harmonic("lower")
        with pytest.raises(DomainError, match="symmetry_negate"):
            convexify_shift(tp, QuadraticField(np.diag([-3.0])))


class TestReduceToSpecialLagrangian:
    def test_quadratic_maps_to_solution(self, rng):
        tp = TauParams.atan_branch(math.pi / 3)
        slag = TauParams.special_lagrangian()
        A = sl.random_admissible_matrix(tp, 3, rng)
        sol = sl.build_quadratic(tp, A)
        w = reduce_to_special_lagrangian(tp, sol.field)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            assert abs(sl.shrinker_residual(slag, w, x)) <= 1e-10

    def test_constant_solution_chase(self):
        # n = 1, A = 0: the image must be the pure-arctangent quadratic with
        # curvature a/b, whose residual vanishes identically
        tp = TauParams.atan_branch(math.pi / 3)
        slag = TauParams.special_lagrangian()
        sol = sl.build_quadratic(tp, np.zeros((1, 1)))
        w = reduce_to_special_lagrangian(tp, sol.field)
        ref_c = -math.atan(tp.a / tp.b)
        assert w.hessian(np.zeros(1))[0, 0] == pytest.approx(tp.a / tp.b, abs=1e-14)
        assert w.value(np.zeros(1)) == pytest.approx(ref_c, abs=1e-13)
        for x in np.linspace(-2, 2, 7):
            assert abs(sl.shrinker_residual(slag, w, np.array([x]))) <= 1e-12

    def test_spectrum_straddling_the_quotient_jump(self, rng):
        # the raw quotient form jumps by pi across lam = -(a + b); the smooth
        # form keeps spectra straddling that line exact (no Hessian constraint
        # on this branch at all)
        tp = TauParams.atan_branch(math.pi / 3)
        slag = TauParams.special_lagrangian()
        jump = -(tp.a + tp.b)
        A = np.diag([jump - 1.5, jump + 2.0, 0.4])
        sol = sl.build_quadratic(tp, A)
        w = reduce_to_special_lagrangian(tp, sol.field)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            assert abs(sl.shrinker_residual(tp, sol.field, x)) <= 1e-12
            assert abs(sl.shrinker_residual(slag, w, x)) <= 1e-10

    def test_spectrum_map(self, rng):
        tp = TauParams.atan_branch(math.pi / 3)
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        w = reduce_to_special_lagrangian(tp, sol.field)
        x = rng.uniform(-1, 1, 2)
        lam = sl.eig_sym(sol.field.hessian(tp.sqrt_a2p1**0.5 / tp.b * x))
        mu = sl.eig_sym(w.hessian(x))
        assert np.max(np.abs(mu - (lam + tp.a) / tp.b)) < 1e-10

    def test_wrong_branch(self):
        with pytest.raises(InputError, match="defined on the ATAN branch"):
            reduce_to_special_lagrangian(TauParams.harmonic(), QuadraticField(np.zeros((1, 1))))


class TestNormalizeCounterexampleBranch:
    def test_round_trip_exact(self, rng):
        tp = TauParams.neg_branch(a=-2.0)
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        w = normalize_counterexample_branch(tp, "to_w", sol.field)
        u = normalize_counterexample_branch(tp, "to_u", w)
        for _ in range(10):
            x = rng.uniform(-3, 3, 2)
            assert u.value(x) == pytest.approx(sol.field.value(x), abs=1e-12)

    def test_quadratic_maps_into_unit_window(self, rng):
        tp = TauParams.neg_branch(a=-2.0)
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        w = normalize_counterexample_branch(tp, "to_w", sol.field)
        mus = sl.eig_sym(w.hessian(np.zeros(2)))
        assert np.all(mus > 0.0) and np.all(mus < 1.0)
        for _ in range(5):
            assert abs(logit_equation_residual(w, rng.uniform(-2, 2, 2))) <= 1e-10

    def test_out_of_window_rejected(self):
        tp = TauParams.neg_branch(a=-2.0)
        with pytest.raises(DomainError, match="not inside"):
            normalize_counterexample_branch(tp, "to_u", QuadraticField(np.diag([1.5])))

    def test_unknown_direction_rejected(self):
        tp = TauParams.neg_branch(a=-2.0)
        with pytest.raises(InputError, match="direction"):
            normalize_counterexample_branch(tp, "sideways", QuadraticField(np.diag([0.5])))

    def test_wrong_branch_rejected(self):
        with pytest.raises(InputError, match="defined on the NEG branch"):
            normalize_counterexample_branch(
                TauParams.harmonic(), "to_w", QuadraticField(np.diag([0.5]))
            )


class TestSelfSimilarExtension:
    def test_time_minus_one_identity(self, rng):
        tp = TauParams.harmonic()
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        x = rng.uniform(-3, 3, 2)
        s = self_similar_extension(tp, sol.field, x, -1.0)
        assert s.v == sol.field.value(x)

    def test_quadratic_defect(self, all_branches, rng):
        for name, tp in all_branches.items():
            A = sl.random_admissible_matrix(tp, 2, rng)
            sol = sl.build_quadratic(tp, A)
            for _ in range(20):
                x = rng.uniform(-3, 3, 2)
                t = -float(rng.uniform(0.1, 10.0))
                assert abs(self_similar_extension(tp, sol.field, x, t).defect) <= 1e-10

    def test_hessian_spectrum_invariance(self, rng):
        tp = TauParams.special_lagrangian()
        A = sl.random_admissible_matrix(tp, 3, rng)
        sol = sl.build_quadratic(tp, A)
        x = rng.uniform(-2, 2, 3)
        t = -3.7
        xi = x / math.sqrt(-t)
        assert np.max(np.abs(sl.eig_sym(sol.field.hessian(xi)) - sl.eig_sym(A))) < 1e-12

    def test_future_time_rejected(self):
        tp = TauParams.harmonic()
        field = QuadraticField(np.zeros((1, 1)), SQRT2)
        with pytest.raises(InputError):
            self_similar_extension(tp, field, np.array([1.0]), 0.5)
