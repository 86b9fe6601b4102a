import math
import warnings

import numpy as np
import pytest

import shrinker_lab as sl
from shrinker_lab import TauParams, geometry
from shrinker_lab.fields import AffineScaledField, QuadraticField, ScalarField
from shrinker_lab.geometry import (
    FD_STEP,
    _mean_curvature,
    _metric,
    _normal,
    metric_duality_defect,
    normal_project,
    shrinker_defect,
)
from shrinker_lab.numerics import as_sym_matrix, eig_sym, fd_gradient
from shrinker_lab.tau import cone_spec, operator_gradient_matrix, operator_value
from shrinker_lab.transforms import self_similar_extension

from conftest import CallableField, branch_params, same_bits, with_lower_cones

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
        g = _metric(tp, as_sym_matrix(np.diag(lams)))
        assert np.allclose(g, np.diag(1.0 + lams**2), atol=1e-15)

    def test_ma_diagonal(self):
        tp = TauParams.monge_ampere()
        lams = np.array([0.7, 2.0])
        g = _metric(tp, as_sym_matrix(np.diag(lams)))
        assert np.allclose(g, np.diag(2.0 * lams), atol=1e-15)

    def test_harm_diagonal(self):
        tp = TauParams.harmonic()
        lams = np.array([0.2, 1.5])
        g = _metric(tp, as_sym_matrix(np.diag(lams)))
        assert np.allclose(g, np.diag(SQRT2 / 2.0 * (1.0 + lams) ** 2), atol=1e-14)

    def test_positive_definite_on_admissible(self, all_branches, rng):
        for name, tp in all_branches.items():
            for _ in range(30):
                n = int(rng.integers(1, 5))
                H = sl.random_admissible_matrix(tp, n, rng)
                np.linalg.cholesky(_metric(tp, as_sym_matrix(H)))  # raises if not SPD


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

    def test_monge_ampere_metric_has_no_square_to_overflow(self):
        # sin = 0 on MA: the metric is 2 cos H alone, and H^2 (1e310) is never
        # formed, where 0 * inf made the defect NaN with an overflow warning
        tp = TauParams.monge_ampere()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_bits(metric_duality_defect(tp, np.array([[1e155]])), 0.0)
            assert same_bits(metric_duality_defect(tp, np.array([[[1e155]], [[2.0]]])), [0.0, 0.0])

    @pytest.mark.parametrize("name", ["HARM", "ATAN"])
    def test_overflowing_derivative_is_an_input_error(self, name, all_branches):
        # f' squares 1 + lam (HARM) or lam + a (ATAN) with a float **, which
        # raises OverflowError past |lam| ~ 1.3e154: dF/dH is read first
        with pytest.raises(sl.InputError, match=r"f' overflows at eigenvalue 1e\+200"):
            metric_duality_defect(all_branches[name], np.array([[1e200]]))


class TestMeanCurvature:
    """The ambient vector V = (0, D_x F(lambda(D^2 u))) whose normal part is
    the mean curvature vector: ``_mean_curvature`` on a cloud or stack."""

    def test_quadratic_graph_is_minimal_in_the_flow_sense(self, all_branches, rng):
        for name, tp in all_branches.items():
            A = sl.random_admissible_matrix(tp, 2, rng)
            sol = sl.build_quadratic(tp, A)
            V = _mean_curvature(tp, sol, rng.uniform(-2, 2, (3, 2)))
            assert V.shape == (3, 4) and not np.any(V), name

    def test_output_is_normal(self, rng):
        # the projected ambient vector, H itself, is orthogonal to the graph
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = sl.build_counterexample(tp, 0.0, 1.0, 2, T=10.0, radius=2.0, samples=50)
        x = np.array([0.4, -0.3])
        Hv = normal_project(tp, u.hessian(x), _mean_curvature(tp, u, x[None])[0])
        E = tangent_frame(u.hessian(x))
        G = ambient_metric(tp, 2)
        assert np.max(np.abs(E.T @ G @ Hv)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stencil_cloud_equals_fd_gradient_bit_for_bit(self, n, all_branches, rng):
        # the 2n stencil points read as one cloud: fd_gradient's points and
        # arithmetic, on a Hessian that varies (u = <x, A x>/2 - 0.01 sum cos x_i)
        for name, tp in all_branches.items():
            A = sl.random_admissible_matrix(tp, n, rng)
            field = CallableField(
                n,
                lambda p: 0.5 * p @ A @ p - 0.01 * np.sum(np.cos(p)),
                grad=lambda p: A @ p + 0.01 * np.sin(p),
                hess=lambda p: A + np.diag(0.01 * np.cos(p)),
            )
            x = rng.uniform(-1, 1, n)
            dF = fd_gradient(lambda p: operator_value(tp, eig_sym(field.hessian(p))), x, FD_STEP)
            assert np.any(dF != 0.0), name
            assert same_bits(_mean_curvature(tp, field, x[None])[0], np.concatenate([np.zeros(n), dF])), name

    @pytest.mark.parametrize("name", sorted(with_lower_cones()))
    def test_stencil_meets_the_chain_rule(self, name, rng):
        # on u = <x, A x>/2 - 0.01 sum cos x_k, d_k D^2 u is -0.01 sin(x_k) at
        # (k, k) alone, so D_k F = tr(F'(D^2 u) d_k D^2 u) = -0.01 sin(x_k) F'_kk;
        # with every |sin x_k| >= 0.1 the central differences at FD_STEP = 1e-3
        # meet 5e-7 of the largest component, and those at 2e-3 do not
        tp = with_lower_cones()[name]
        for n in (1, 2, 3):
            for _ in range(20):
                field = CosineQuadratics(sl.random_admissible_matrix(tp, n, rng))
                x = rng.uniform(-3.0, 3.0, n)
                while np.any(np.abs(np.sin(x)) < 0.1):
                    x = rng.uniform(-3.0, 3.0, n)
                want = -0.01 * np.sin(x) * np.diag(operator_gradient_matrix(tp, field.hessian(x)))
                got = _mean_curvature(tp, field, x[None])[0]
                assert not np.any(got[:n]), (n, x)
                assert np.max(np.abs(got[n:] - want)) <= 5e-7 * np.max(np.abs(want)), (n, x)

    def test_nonzero_for_counterexample(self):
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = sl.build_counterexample(tp, 0.0, 1.0, 1, T=10.0, radius=2.0, samples=50)
        Hv = normal_project(tp, u.hessian(np.array([0.0])), _mean_curvature(tp, u, np.zeros((1, 1)))[0])
        assert np.linalg.norm(Hv) > 1e-3  # third derivative does not vanish


class TestShrinkerDefect:
    def test_quadratics_all_branches(self, all_branches, rng):
        for name, tp in all_branches.items():
            A = sl.random_admissible_matrix(tp, 3, rng)
            sol = sl.build_quadratic(tp, A)
            for _ in range(5):
                d = shrinker_defect(tp, sol, rng.uniform(-2, 2, 3))
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
                for field in (sol, AffineScaledField(sol, offset=1.0)):
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
            V = np.concatenate([np.zeros(1), dF])
            X = np.concatenate([x, u.gradient(x)])
            W = reference_normal_project(tp, H, V) + 0.5 * reference_normal_project(tp, H, X)
            assert np.max(np.abs(_mean_curvature(tp, u, x[None])[0] - V)) <= 1e-12
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
            V, X = _mean_curvature(tp, field, x[None])[0], np.concatenate([x, field.gradient(x)])
            W = reference_normal_project(tp, H, V) + 0.5 * reference_normal_project(tp, H, X)
            want = math.sqrt(W @ ambient_metric(tp, 2) @ W)
            assert want > 1e-3
            assert shrinker_defect(tp, field, x) == pytest.approx(want, rel=1e-12)

    def test_constant_shift_invariance_exact(self, rng):
        tp = TauParams.harmonic()
        A = sl.random_admissible_matrix(tp, 2, rng)
        sol = sl.build_quadratic(tp, A)
        shifted = AffineScaledField(sol, offset=1.0)
        x = rng.uniform(-2, 2, 2)
        assert shrinker_defect(tp, sol, x) == shrinker_defect(tp, shifted, x)


# the one-point kernels the stacked ones replaced, kept as written: every row
# of a stacked read must give their bits
def frozen_normal_project(tp, H, V):
    s, c = tp.sin_cos
    n = len(H)
    w = V[n:] - H @ V[:n]
    beta = np.linalg.solve(s * (np.eye(n) + H @ H) + 2.0 * c * H, c * w + s * (H @ w))
    return np.concatenate([-beta, w - H @ beta])


def frozen_shrinker_defect(tp, field, x):
    n = len(x)
    steps = FD_STEP * np.eye(n)
    F = operator_value(tp, eig_sym(field.hessian(np.vstack([x + steps, x - steps]))))
    V = np.concatenate([np.zeros(n), (F[:n] - F[n:]) / (2.0 * FD_STEP)])
    W = frozen_normal_project(tp, field.hessian(x), V + 0.5 * np.concatenate([x, field.gradient(x)]))
    if tp.branch.value in ("ATAN", "SLAG"):
        s, c = tp.sin_cos
        w1, w2 = W[:n], W[n:]
        return float(math.sqrt(max(0.0, s * float(w1 @ w1 + w2 @ w2) + 2.0 * c * float(w1 @ w2))))
    return float(np.linalg.norm(W))


class CosineQuadratics(ScalarField):
    """u = <x, A x>/2 - 0.01 sum cos x_i, a field whose F(lambda(D^2 u)) is
    not constant; with a (k, n, n) stack A, the stack of k such fields, which
    reads a (k, m, n) stack of clouds."""

    def __init__(self, A):
        self.A = A
        self.dim = A.shape[-1]
        self.stack = A.shape[:-2]

    def _value(self, x):
        quad = (x[..., None, :] @ self.A[..., None, :, :]) @ x[..., :, None]
        return 0.5 * quad[..., 0, 0] - 0.01 * np.cos(x).sum(axis=-1)

    def _gradient(self, x):
        return (self.A[..., None, :, :] @ x[..., :, None])[..., 0] + 0.01 * np.sin(x)

    def _hessian(self, x):
        return self.A[..., None, :, :] + np.eye(self.dim) * (0.01 * np.cos(x))[..., None, :]


def stack_of(tp, k, n, rng):
    return np.array([sl.random_admissible_matrix(tp, n, rng) for _ in range(k)])


class TestStacks:
    """One point, an (m, n) cloud on one field, or a (k, m, n) stack of clouds
    on k fields: each row of a stacked read is the one-point kernel's bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_normal_project_rows_are_point_calls(self, n, rng):
        for name, tp in with_lower_cones().items():
            H, V = stack_of(tp, 150, n, rng).reshape(5, 30, n, n), rng.standard_normal((5, 30, 2 * n))
            want = [[frozen_normal_project(tp, h, v) for h, v in zip(hs, vs)] for hs, vs in zip(H, V)]
            assert same_bits(normal_project(tp, H, V), want), name
            assert same_bits(normal_project(tp, H[0], V[0]), want[0]), name
            assert same_bits([normal_project(tp, h, v) for h, v in zip(H[1], V[1])], want[1]), name
            metrics = [[_metric(tp, as_sym_matrix(h)) for h in hs] for hs in H]
            assert same_bits(_metric(tp, as_sym_matrix(H)), metrics), name

    def test_projection_shape_mismatch_rejected(self):
        tp = TauParams.special_lagrangian()
        with pytest.raises(sl.InputError, match="ambient vectors"):
            normal_project(tp, np.zeros((3, 2, 2)), np.zeros((3, 2)))
        with pytest.raises(sl.InputError, match="ambient vectors"):
            normal_project(tp, np.zeros((2, 2)), np.zeros(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_defect_on_clouds_and_stacks_is_the_point_defect(self, n, rng):
        for name, tp in branch_params().items():
            A = stack_of(tp, 4, n, rng)
            xs = rng.uniform(-1.0, 1.0, size=(4, 6, n))
            want = [[frozen_shrinker_defect(tp, CosineQuadratics(a), x) for x in cloud] for a, cloud in zip(A, xs)]
            assert np.all(np.array(want) > 0.0), name
            assert same_bits(shrinker_defect(tp, CosineQuadratics(A), xs), want), name
            assert same_bits(shrinker_defect(tp, CosineQuadratics(A[0]), xs[0]), want[0]), name
            assert shrinker_defect(tp, CosineQuadratics(A[1]), xs[1, 2]) == want[1][2], name
            V = _mean_curvature(tp, CosineQuadratics(A), xs)
            assert same_bits(V[2], [_mean_curvature(tp, CosineQuadratics(A[2]), x[None])[0] for x in xs[2]]), name
            # quadratics: the exact zeros of the point calls, stacked
            sol = sl.build_quadratic(tp, A)
            zeros = shrinker_defect(tp, sol, xs)
            assert same_bits(zeros, [[frozen_shrinker_defect(tp, QuadraticField(a, c), x) for x in cloud]
                                     for a, c, cloud in zip(A, sol.c, xs)]), name
            assert not zeros.any(), name

    def test_counterexample_cloud_is_the_point_defect(self):
        tp = TauParams.neg_branch(a=-2.0)
        u, prof, cert = sl.build_counterexample(tp, 0.0, 1.0, 1, T=10.0, radius=2.0, samples=50)
        xs = np.linspace(-2.0, 2.0, 200)[:, None]
        want = [frozen_shrinker_defect(tp, u, x) for x in xs]
        assert np.all(np.array(want) != 0.0)
        assert same_bits(shrinker_defect(tp, u, xs), want)
        assert same_bits(_mean_curvature(tp, u, xs), [_mean_curvature(tp, u, x[None])[0] for x in xs])

    @pytest.mark.parametrize("tp", [TauParams.atan_branch(math.pi / 3), TauParams.special_lagrangian()])
    def test_ambient_norm_on_a_cloud_of_a_cubic(self, tp, rng):
        # the ambient-norm path on a non-quadratic field read row by row
        for n in range(1, 5):
            A = sl.random_admissible_matrix(tp, n, rng)
            field = CallableField(
                n,
                lambda p: 0.5 * p @ A @ p + 0.01 * p[0] ** 3,
                grad=lambda p: A @ p + 0.03 * p[0] ** 2 * np.eye(n)[0],
                hess=lambda p: A + 0.06 * p[0] * np.diag(np.eye(n)[0]),
            )
            xs = rng.uniform(-1.0, 1.0, size=(25, n))
            want = [frozen_shrinker_defect(tp, field, x) for x in xs]
            assert np.all(np.array(want) > 0.0)
            assert same_bits(shrinker_defect(tp, field, xs), want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_duality_rows_are_matrix_calls(self, n, rng):
        # dF/dH and the duality defect of a stack are its matrices' calls, bit for bit
        for name, tp in with_lower_cones().items():
            H = stack_of(tp, 40, n, rng)
            assert same_bits(operator_gradient_matrix(tp, H), [operator_gradient_matrix(tp, h) for h in H]), name
            defects = metric_duality_defect(tp, H)
            assert defects.shape == (40,) and np.all(defects <= 1e-9), name
            assert same_bits(defects, [metric_duality_defect(tp, h) for h in H]), name
            assert isinstance(metric_duality_defect(tp, H[0]), float), name

    def test_inadmissible_spectrum_inside_a_stack_is_a_domain_error(self, rng):
        tp = TauParams.monge_ampere()
        H = stack_of(tp, 5, 2, rng)
        H[2] = np.diag([-0.5, 1.0])
        for read in (operator_gradient_matrix, metric_duality_defect):
            with pytest.raises(sl.DomainError, match="Hessian spectrum .* inadmissible for MA"):
                read(tp, H)

    def test_degenerate_metric_inside_a_duality_stack_is_a_domain_error(self):
        # next to tau = -pi/4 the NEG cone is 4e-8 wide, and the induced
        # metric of some admissible Hessians in it rounds to singular
        tp = TauParams.from_cot(-1.0000000000000002)
        rng = np.random.default_rng(3)
        H = np.array([sl.random_admissible_matrix(tp, 1, rng) for _ in range(20)])
        singular = []
        for i, h in enumerate(H):
            try:
                metric_duality_defect(tp, h)
            except sl.DomainError:
                singular.append(i)
        assert singular == [14]
        with pytest.raises(sl.DomainError, match="induced metric degenerate"):
            metric_duality_defect(tp, H)
        assert metric_duality_defect(tp, np.delete(H, 14, axis=0)).shape == (19,)

    def test_singular_metric_anywhere_in_a_stack_is_a_domain_error(self, rng):
        tp = TauParams.monge_ampere()
        H = stack_of(tp, 6, 2, rng)
        H[4] = np.diag([0.0, 1.0])  # a zero eigenvalue degenerates the MA metric exactly
        with pytest.raises(sl.DomainError, match="induced metric degenerate: Singular matrix"):
            normal_project(tp, H, rng.standard_normal((6, 4)))


def stencil_ambient_vector(tp, field, x):
    """(0, D_x F(lambda(D^2 u))) on a cloud or stack of clouds by the 2n-point
    central differences of F(lambda(D^2 u)), read as one cloud: the path every
    field but a QuadraticField takes, kept as the reference for quadratics."""
    n = x.shape[-1]
    steps = FD_STEP * np.eye(n)
    stencil = np.concatenate([x[..., None, :] + steps, x[..., None, :] - steps], axis=-2)
    spectra = eig_sym(field.hessian(stencil.reshape(*x.shape[:-2], -1, n)))
    F = operator_value(tp, spectra).reshape(*x.shape[:-1], 2 * n)
    return np.concatenate([np.zeros(x.shape), (F[..., :n] - F[..., n:]) / (2.0 * FD_STEP)], axis=-1)


@pytest.fixture
def solved_matrices(monkeypatch):
    """The number of matrices each call of geometry's eig_sym solves."""
    counts = []

    def counted(M):
        counts.append(np.asarray(M)[..., 0, 0].size)
        return eig_sym(M)

    monkeypatch.setattr(geometry, "eig_sym", counted)
    return counts


class TestConstantHessian:
    """A QuadraticField's F(lambda(D^2 u)) is constant: its ambient vector
    checks the k spectra once and reads no stencil, with the stencil's bits."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_quadratics_read_no_stencil(self, n, rng, solved_matrices):
        for name, tp in with_lower_cones().items():
            sol = sl.build_quadratic(tp, stack_of(tp, 5, n, rng))
            xs = rng.uniform(-2.0, 2.0, size=(5, 7, n))
            for field, x, k in ((sol, xs, 5), (QuadraticField(sol.A[0], sol.c[0]), xs[0], 1)):
                want = stencil_ambient_vector(tp, field, x)
                assert not np.any(want), name
                solved_matrices.clear()
                assert same_bits(_mean_curvature(tp, field, x), want), name
                assert solved_matrices == [k], name
                solved_matrices.clear()
                defects = shrinker_defect(tp, field, x)
                assert solved_matrices == [k], name
                points = [[frozen_shrinker_defect(tp, QuadraticField(a, c), p) for p in cloud]
                          for a, c, cloud in zip(sol.A, sol.c, xs)]
                assert same_bits(defects, points if k > 1 else points[0]), name

    @pytest.mark.parametrize("n", [1, 3])
    def test_other_fields_keep_the_stencil(self, n, rng, solved_matrices):
        for name, tp in branch_params().items():
            field = CosineQuadratics(stack_of(tp, 5, n, rng))
            xs = rng.uniform(-1.0, 1.0, size=(5, 7, n))
            want = stencil_ambient_vector(tp, field, xs)
            solved_matrices.clear()
            assert same_bits(_mean_curvature(tp, field, xs), want), name
            assert solved_matrices == [5 * 7 * 2 * n], name

    def test_inadmissible_quadratic_raises_the_stencils_error(self, rng):
        tp = TauParams.monge_ampere()
        A = stack_of(tp, 4, 2, rng)
        A[2] = np.diag([0.5, -0.25])
        xs = rng.uniform(-1.0, 1.0, size=(4, 3, 2))
        for field, x in ((QuadraticField(A, np.zeros(4)), xs), (QuadraticField(A[2]), xs[2])):
            with pytest.raises(sl.DomainError) as want:
                stencil_ambient_vector(tp, field, x)
            for read in (_mean_curvature, shrinker_defect):
                with pytest.raises(sl.DomainError) as got:
                    read(tp, field, x)
                assert str(got.value) == str(want.value)
                assert got.value.value == want.value.value == -0.25


def defect_norm(tp, W):
    """The defect's norm of each (..., 2n) defect vector, as shrinker_defect
    takes it: ambient on ATAN and SLAG, Euclidean elsewhere."""
    if tp.branch.value not in ("ATAN", "SLAG"):
        return np.sqrt(np.sum(W * W, axis=-1))
    s, c = tp.sin_cos
    w1, w2 = np.split(W, 2, axis=-1)
    return np.sqrt(np.maximum(s * np.sum(w1 * w1 + w2 * w2, axis=-1) + 2.0 * c * np.sum(w1 * w2, axis=-1), 0.0))


class TestOneProjection:
    """The normal projection is linear, so shrinker_defect projects V + X/2 as
    one sum: one induced metric and one stacked solve a call."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(branch_params()))
    def test_two_projection_reference(self, name, n, rng):
        # |P(V) + P(X)/2|, the two projections the defect made before, on
        # the same Hessians and ambient vectors: equal up to rounding
        tp = branch_params()[name]
        field = CosineQuadratics(stack_of(tp, 6, n, rng))
        xs = rng.uniform(-1.0, 1.0, size=(6, 20, n))
        H = as_sym_matrix(field.hessian(xs))
        X = np.concatenate([xs, field.gradient(xs)], axis=-1)
        want = defect_norm(tp, _normal(tp, H, _mean_curvature(tp, field, xs)) + 0.5 * _normal(tp, H, X))
        assert np.all(want > 0.0)
        assert np.max(np.abs(shrinker_defect(tp, field, xs) - want)) <= 1e-13 * np.max(want)

    @pytest.mark.parametrize("kind", ["quadratic", "off a quadratic"])
    def test_one_metric_and_one_solve_a_call(self, kind, rng, monkeypatch):
        solves, metrics = [], []
        solve, metric = np.linalg.solve, geometry._metric
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(a.shape) or solve(a, b))
        monkeypatch.setattr(geometry, "_metric", lambda tp, H: metrics.append(H.shape) or metric(tp, H))
        for name, tp in branch_params().items():
            A = stack_of(tp, 5, 3, rng)
            field = sl.build_quadratic(tp, A) if kind == "quadratic" else CosineQuadratics(A)
            xs = rng.uniform(-1.0, 1.0, size=(5, 7, 3))
            solves.clear()
            metrics.clear()
            shrinker_defect(tp, field, xs)
            assert solves == metrics == [(5, 7, 3, 3)], name


# reads that refuse a NaN or infinite coordinate; each gets the branch, one
# field and a stack of three in dimension 2, and bad(shape), uniform draws of
# that shape with one entry NaN or infinite.  The curvature reads are defects
# off a quadratic, whose mean curvature term reads the stencil
NON_FINITE_READS = {
    "defect at a point": lambda tp, one, three, bad: shrinker_defect(tp, one, bad((2,))),
    "defect on a cloud": lambda tp, one, three, bad: shrinker_defect(tp, one, bad((4, 2))),
    "defect on a stack": lambda tp, one, three, bad: shrinker_defect(tp, three, bad((3, 4, 2))),
    "curvature at a point": lambda tp, one, three, bad: shrinker_defect(tp, CosineQuadratics(one.A), bad((2,))),
    "curvature on a stack": lambda tp, one, three, bad: shrinker_defect(tp, CosineQuadratics(three.A), bad((3, 4, 2))),
    "curvature off a quadratic": lambda tp, one, three, bad: shrinker_defect(tp, CosineQuadratics(one.A), bad((4, 2))),
    "projected vector": lambda tp, one, three, bad: normal_project(tp, one.A, bad((4,))),
    "extension at a point": lambda tp, one, three, bad: self_similar_extension(tp, one, bad((2,)), -1.0),
    "extension on a stack": lambda tp, one, three, bad: self_similar_extension(tp, three, bad((3, 2)), -np.ones(3)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("read", sorted(NON_FINITE_READS))
@pytest.mark.parametrize("name", sorted(branch_params()))
def test_non_finite_coordinate_is_refused(name, read, value, rng):
    # a NaN point used to read as an exact zero defect on ATAN and SLAG, whose
    # ambient-norm clamp maps NaN to 0
    tp = branch_params()[name]
    one = sl.build_quadratic(tp, sl.random_admissible_matrix(tp, 2, rng))
    three = sl.build_quadratic(tp, stack_of(tp, 3, 2, rng))

    def bad(shape):
        x = rng.uniform(-1.0, 1.0, size=shape)
        x.flat[x.size // 2] = value
        return x

    with pytest.raises(sl.InputError, match="finite"):
        NON_FINITE_READS[read](tp, one, three, bad)


@pytest.mark.parametrize("name", sorted(with_lower_cones()))
def test_overflowed_gradient_is_refused_and_a_true_zero_stays(name):
    # at x = [1e308, 0] the gradient of diag(lam, lam) overflows once |lam| >= 2:
    # it used to read as 0.0 on ATAN and SLAG and as NaN elsewhere, with
    # RuntimeWarnings; at |lam| = 1.68 nothing overflows and the defect is 0
    tp = with_lower_cones()[name]
    spec = cone_spec(tp)
    x = np.array([[0.5, 0.1], [1e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sl.InputError, match=r"not finite at x = \[1e\+308, 0\.0\]"):
            shrinker_defect(tp, QuadraticField((2.0 if spec.contains(2.0) else -4.0) * np.eye(2)), x)
        for lam in (1.68, -1.68):
            if spec.contains(lam):
                assert same_bits(shrinker_defect(tp, QuadraticField(lam * np.eye(2)), x[1]), 0.0)
