import math

import numpy as np
import pytest

import shrinker_lab as sl
from shrinker_lab import TauParams
from shrinker_lab.fields import AffineScaledField, QuadraticField
from shrinker_lab.geometry import (
    FD_STEP,
    induced_metric,
    mean_curvature,
    metric_duality_defect,
    normal_project,
    shrinker_defect,
)
from shrinker_lab.numerics import eig_sym, fd_gradient
from shrinker_lab.tau import operator_value

from conftest import CallableField, with_lower_cones

SQRT2 = math.sqrt(2.0)


# the 2n x 2n reference: the ambient form as a block matrix, the tangent
# frame E = (I, H) as columns, and the projection V - E (E^T G E)^-1 E^T G V
def ambient_metric(tp, n):
    s, c = tp.sin_cos
    eye = np.eye(n)
    return np.block([[s * eye, c * eye], [c * eye, s * eye]])


def tangent_frame(H):
    return np.vstack([np.eye(len(H)), H])


def reference_normal_project(tp, H, V):
    E, G = tangent_frame(H), ambient_metric(tp, len(H))
    return V - E @ np.linalg.solve(E.T @ G @ E, E.T @ (G @ V))


class TestInducedMetric:
    def test_slag_diagonal(self):
        tp = TauParams.special_lagrangian()
        lams = np.array([0.5, -1.2, 3.0])
        g = induced_metric(tp, np.diag(lams))
        assert np.allclose(g, np.diag(1.0 + lams**2), atol=1e-15)

    def test_ma_diagonal(self):
        tp = TauParams.monge_ampere()
        lams = np.array([0.7, 2.0])
        g = induced_metric(tp, np.diag(lams))
        assert np.allclose(g, np.diag(2.0 * lams), atol=1e-15)

    def test_harm_diagonal(self):
        tp = TauParams.harmonic()
        lams = np.array([0.2, 1.5])
        g = induced_metric(tp, np.diag(lams))
        assert np.allclose(g, np.diag(SQRT2 / 2.0 * (1.0 + lams) ** 2), atol=1e-14)

    def test_positive_definite_on_admissible(self, all_branches, rng):
        for name, tp in all_branches.items():
            for _ in range(30):
                n = int(rng.integers(1, 5))
                H = sl.random_admissible_matrix(tp, n, rng)
                np.linalg.cholesky(induced_metric(tp, H))  # raises if not SPD


class TestDualityDefect:
    def test_slag_frozen(self):
        tp = TauParams.special_lagrangian()
        assert metric_duality_defect(tp, np.diag([0.5, -1.2])) < 1e-14

    def test_harm_at_zero(self):
        # g = sqrt2/2, inverse sqrt2; dF/dlam(0) = sqrt2
        tp = TauParams.harmonic()
        assert metric_duality_defect(tp, np.zeros((2, 2))) < 1e-14

    def test_random_sweep(self, all_branches, rng):
        for name, tp in all_branches.items():
            worst = 0.0
            for _ in range(100):
                n = int(rng.integers(1, 5))
                H = sl.random_admissible_matrix(tp, n, rng)
                worst = max(worst, metric_duality_defect(tp, H))
            assert worst <= 1e-9, f"{name}: {worst}"


class TestNormalProject:
    def test_tangent_vector_killed(self, all_branches, rng):
        for name, tp in all_branches.items():
            H = sl.random_admissible_matrix(tp, 3, rng)
            E = tangent_frame(H)
            out = normal_project(tp, H, E[:, 1])
            assert np.max(np.abs(out)) < 1e-12

    def test_normal_vector_fixed(self):
        # tau = pi/2, n = 1, H = 0: E1 = (1, 0); V = (0, 1) is already normal
        tp = TauParams.special_lagrangian()
        H = np.zeros((1, 1))
        out = normal_project(tp, H, np.array([0.0, 1.0]))
        assert np.allclose(out, [0.0, 1.0], atol=1e-15)

    def test_idempotent(self, all_branches, rng):
        for name, tp in all_branches.items():
            H = sl.random_admissible_matrix(tp, 2, rng)
            V = rng.standard_normal(4)
            once = normal_project(tp, H, V)
            twice = normal_project(tp, H, once)
            assert np.max(np.abs(twice - once)) < 1e-12

    def test_result_is_orthogonal_to_frame(self, all_branches, rng):
        for name, tp in all_branches.items():
            H = sl.random_admissible_matrix(tp, 3, rng)
            V = rng.standard_normal(6)
            out = normal_project(tp, H, V)
            E = tangent_frame(H)
            G = ambient_metric(tp, 3)
            assert np.max(np.abs(E.T @ G @ out)) < 1e-10

    def test_agrees_with_block_reference(self):
        rng = np.random.default_rng(14)
        for name, tp in with_lower_cones().items():
            worst = 0.0
            for _ in range(2000):
                n = int(rng.integers(1, 5))
                H = sl.random_admissible_matrix(tp, n, rng)
                V = rng.standard_normal(2 * n)
                gap = normal_project(tp, H, V) - reference_normal_project(tp, H, V)
                worst = max(worst, np.max(np.abs(gap)))
            assert worst <= 1e-11, f"{name}: {worst}"

    def test_tangent_vector_maps_to_exact_zero(self, rng):
        for name, tp in with_lower_cones().items():
            for n in range(1, 5):
                H = sl.random_admissible_matrix(tp, n, rng)
                v = rng.standard_normal(n)
                assert not np.any(normal_project(tp, H, np.concatenate([v, H @ v]))), name


class TestDegenerateMetric:
    def test_singular_projection_reported(self):
        # log-determinant branch: a zero Hessian eigenvalue degenerates the
        # induced metric exactly
        tp = TauParams.monge_ampere()
        with pytest.raises(sl.DomainError, match="induced metric degenerate"):
            normal_project(tp, np.diag([0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0]))
        # the duality defect checks the spectrum before it inverts the metric
        with pytest.raises(sl.DomainError, match="inadmissible"):
            metric_duality_defect(tp, np.diag([0.0, 1.0]))


class TestMeanCurvature:
    def test_quadratic_graph_is_minimal_in_the_flow_sense(self, all_branches, rng):
        for name, tp in all_branches.items():
            A = sl.random_admissible_matrix(tp, 2, rng)
            sol = sl.build_quadratic(tp, A)
            H = mean_curvature(tp, sol.field, rng.uniform(-2, 2, 2))
            assert np.max(np.abs(H)) < 1e-10

    def test_output_is_normal(self, rng):
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = sl.build_counterexample(tp, 0.0, 1.0, 2, T=10.0, radius=2.0, samples=50)
        x = np.array([0.4, -0.3])
        Hv = mean_curvature(tp, u, x)
        E = tangent_frame(u.hessian(x))
        G = ambient_metric(tp, 2)
        assert np.max(np.abs(E.T @ G @ Hv)) < 1e-10

    def test_nonzero_for_counterexample(self):
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = sl.build_counterexample(tp, 0.0, 1.0, 1, T=10.0, radius=2.0, samples=50)
        Hv = mean_curvature(tp, u, np.array([0.0]))
        assert np.linalg.norm(Hv) > 1e-3  # third derivative does not vanish


class TestShrinkerDefect:
    def test_quadratics_all_branches(self, all_branches, rng):
        for name, tp in all_branches.items():
            A = sl.random_admissible_matrix(tp, 3, rng)
            sol = sl.build_quadratic(tp, A)
            for _ in range(5):
                d = shrinker_defect(tp, sol.field, rng.uniform(-2, 2, 3))
                assert d <= 1e-7, f"{name}: {d}"

    def test_slag_explicit(self, rng):
        tp = TauParams.special_lagrangian()
        n = 2
        field = QuadraticField(np.eye(n), -n * math.pi / 4)
        for _ in range(5):
            assert shrinker_defect(tp, field, rng.uniform(-2, 2, n)) <= 1e-8

    def test_quadratics_exactly_zero(self, rng):
        # X = (x, Ax) is tangent and F(lambda(A)) is constant: both terms are
        # exactly 0, for the shifted view too
        for name, tp in with_lower_cones().items():
            for n in range(1, 5):
                sol = sl.build_quadratic(tp, sl.random_admissible_matrix(tp, n, rng))
                for field in (sol.field, AffineScaledField(sol.field, offset=1.0)):
                    for _ in range(5):
                        assert shrinker_defect(tp, field, rng.uniform(-2, 2, n)) == 0.0, name

    def test_counterexample_matches_block_reference(self):
        # the 2n x 2n formula on the same central difference of F(lambda(D^2 u))
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = sl.build_counterexample(tp, 0.0, 1.0, 1, T=10.0, radius=2.0, samples=50)
        for x in ([0.0], [0.7], [-1.3]):
            x = np.array(x)
            H = u.hessian(x)
            dF = fd_gradient(lambda p: operator_value(tp, eig_sym(u.hessian(p))), x, FD_STEP)
            Hv = reference_normal_project(tp, H, np.concatenate([np.zeros(1), dF]))
            W = Hv + 0.5 * reference_normal_project(tp, H, np.concatenate([x, u.gradient(x)]))
            assert np.max(np.abs(mean_curvature(tp, u, x) - Hv)) <= 1e-12
            assert abs(shrinker_defect(tp, u, x) - np.linalg.norm(W)) <= 1e-12

    def test_ambient_norm_matches_block_form(self, rng):
        # ATAN and SLAG report sqrt(W^T G W); a cubic term makes W nonzero
        for tp in (TauParams.atan_branch(math.pi / 3), TauParams.special_lagrangian()):
            A = sl.random_admissible_matrix(tp, 2, rng)
            field = CallableField(
                2,
                lambda p: 0.5 * p @ A @ p + 0.01 * p[0] ** 3,
                grad=lambda p: A @ p + np.array([0.03 * p[0] ** 2, 0.0]),
                hess=lambda p: A + np.diag([0.06 * p[0], 0.0]),
            )
            x = rng.uniform(-1, 1, 2)
            H = field.hessian(x)
            W = mean_curvature(tp, field, x) + 0.5 * reference_normal_project(
                tp, H, np.concatenate([x, field.gradient(x)])
            )
            want = math.sqrt(W @ ambient_metric(tp, 2) @ W)
            assert want > 1e-3
            assert shrinker_defect(tp, field, x) == pytest.approx(want, rel=1e-12)

    def test_constant_shift_invariance_exact(self, rng):
        tp = TauParams.harmonic()
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        shifted = AffineScaledField(sol.field, offset=1.0)
        x = rng.uniform(-2, 2, 2)
        assert shrinker_defect(tp, sol.field, x) == shrinker_defect(tp, shifted, x)
