import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinker_lab.fields import (
    AffineScaledField,
    QuadraticField,
    RadialProfileField,
    SeparableExtensionField,
    Table1DField,
)
from shrinker_lab.constructor import assemble_w1, solve_phase_ode
from shrinker_lab.numerics import InputError
from shrinker_lab.quadratics import random_admissible_matrix

from conftest import CallableField, branch_params, same_bits


class TestQuadraticField:
    def test_exact_derivatives(self, rng):
        A = rng.standard_normal((3, 3))
        A = 0.5 * (A + A.T)
        f = QuadraticField(A, 1.5)
        x = rng.uniform(-2, 2, 3)
        assert f.value(x) == 0.5 * float(x @ A @ x) + 1.5
        assert np.array_equal(f.gradient(x), A @ x)
        assert np.array_equal(f.hessian(x), A)

    def test_requires_symmetry(self):
        with pytest.raises(InputError):
            QuadraticField(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_dimension_check(self):
        f = QuadraticField(np.eye(2))
        with pytest.raises(InputError):
            f.value(np.zeros(3))
        with pytest.raises(InputError):
            f.value(np.zeros((4, 3)))

    @given(
        branch=st.sampled_from(sorted(branch_params())),
        n=st.integers(1, 4),
        m=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_cloud_equals_points_bit_for_bit(self, branch, n, m, seed):
        rng = np.random.default_rng(seed)
        f = QuadraticField(random_admissible_matrix(branch_params()[branch], n, rng), rng.standard_normal())
        X = rng.uniform(-3.0, 3.0, (m, n))
        # a column-major cloud too: its strided rows would take another kernel
        for cloud in (X, np.asfortranarray(X)):
            assert same_bits(f.value(cloud), [f.value(x) for x in X])
            assert same_bits(f.gradient(cloud), [f.gradient(x) for x in X])


class TestCallableField:
    def test_fd_fallback_orders(self):
        f = CallableField(2, lambda p: math.sin(p[0]) * math.exp(p[1]))
        x = np.array([0.4, -0.2])
        g = f.gradient(x)
        want = np.array([math.cos(0.4) * math.exp(-0.2), math.sin(0.4) * math.exp(-0.2)])
        assert np.max(np.abs(g - want)) < 1e-7
        H = f.hessian(x)
        assert np.array_equal(H, H.T)


class TestAffineScaledField:
    def test_chain_rule_exact(self, rng):
        A = rng.standard_normal((2, 2))
        A = 0.5 * (A + A.T)
        base = QuadraticField(A, 0.3)
        k, c, s, d = -1.7, 0.6, 0.9, -2.0
        view = AffineScaledField(base, outer=k, inner=c, quad=s, offset=d)
        x = rng.uniform(-2, 2, 2)
        assert view.value(x) == pytest.approx(
            k * base.value(c * x) + 0.5 * s * float(x @ x) + d, abs=1e-14
        )
        want_grad = k * c * base.gradient(c * x) + s * x
        assert np.max(np.abs(view.gradient(x) - want_grad)) < 1e-14
        want_hess = k * c * c * A + s * np.eye(2)
        assert np.max(np.abs(view.hessian(x) - want_hess)) < 1e-14

    def test_composition_stays_analytic(self):
        base = QuadraticField(np.eye(2))
        v1 = AffineScaledField(base, outer=2.0, inner=0.5)
        v2 = AffineScaledField(v1, quad=1.0, offset=3.0)
        # one layer over the analytic base: derivatives stay closed-form
        assert v2.base is base
        assert (v2.outer, v2.inner, v2.quad, v2.offset) == (2.0, 0.5, 1.0, 3.0)


class TestTable1DField:
    def test_reproduces_smooth_function(self):
        ts = np.linspace(-2, 2, 401)
        f = Table1DField(ts, np.sin(ts), np.cos(ts), -np.sin(ts))
        for x in (-1.7, -0.03, 0.9):
            assert abs(f.value([x]) - math.sin(x)) < 1e-12
            assert abs(f.gradient([x])[0] - math.cos(x)) < 1e-9
            assert abs(f.hessian([x])[0, 0] + math.sin(x)) < 1e-6

    def test_span_enforced(self):
        ts = np.linspace(0, 1, 11)
        f = Table1DField(ts, ts, np.ones_like(ts), np.zeros_like(ts))
        with pytest.raises(InputError):
            f.value([2.0])


class TestSeparableExtensionField:
    def test_structure(self):
        ts = np.linspace(-2, 2, 201)
        base = Table1DField(ts, ts**2 / 2, ts, np.ones_like(ts))
        f = SeparableExtensionField(base, 3)
        x = np.array([0.5, 1.0, -2.0])
        assert f.value(x) == pytest.approx(0.125 + (1.0 + 4.0) / 4.0, abs=1e-12)
        assert np.allclose(f.gradient(x), [0.5, 0.5, -1.0], atol=1e-12)
        H = f.hessian(x)
        assert np.allclose(np.diag(H), [1.0, 0.5, 0.5], atol=1e-12)


class TestCloudViews:
    @given(n=st.integers(1, 4), m=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_cloud_equals_points_bit_for_bit(self, n, m, seed):
        # the profile, its extension and an affine view of that, as a build
        # chains them; inner <= 1 keeps inner * x inside the table
        rng = np.random.default_rng(seed)
        ts = np.linspace(-4.0, 4.0, 161)
        base = Table1DField(ts, np.sin(ts), np.cos(ts), -np.sin(ts))
        ext = SeparableExtensionField(base, n)
        view = AffineScaledField(ext, outer=rng.uniform(0.5, 2.0), inner=rng.uniform(0.5, 1.0),
                                 quad=rng.standard_normal(), offset=rng.standard_normal())
        X = rng.uniform(-4.0, 4.0, (m, n))
        for f in (ext, view):
            for cloud in (X, np.asfortranarray(X)):
                assert same_bits(f.value(cloud), [f.value(x) for x in X])
                assert same_bits(f.gradient(cloud), [f.gradient(x) for x in X])
        column = X[:, :1]
        assert same_bits(base.value(column), [base.value(x) for x in column])
        assert same_bits(base.gradient(column), [base.gradient(x) for x in column])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cloud_hessian_equals_points_bit_for_bit(self, n, rng):
        # the step-rule profile of a build, read as a cloud of one per point;
        # the affine view flattens onto the extension
        base = assemble_w1(solve_phase_ode(0.3, 0.7, 4.0, rel_tol=1e-8)).field
        ext = SeparableExtensionField(base, n)
        view = AffineScaledField(ext, outer=rng.uniform(0.5, 2.0), inner=rng.uniform(0.5, 1.0),
                                 quad=rng.standard_normal(), offset=rng.standard_normal())
        X = rng.uniform(-4.0, 4.0, (40, n))
        for f, cloud in ((base, X[:, :1]), (ext, X), (view, X), (view, np.asfortranarray(X))):
            H = f.hessian(cloud)
            assert H.shape == (40, f.dim, f.dim)
            assert same_bits(H, [f.hessian(x) for x in cloud])

    def test_interpolated_curvature_refuses_a_cloud(self):
        ts = np.linspace(-4.0, 4.0, 161)
        base = Table1DField(ts, np.sin(ts), np.cos(ts), -np.sin(ts))
        with pytest.raises(InputError):
            base.hessian(np.zeros((3, 1)))

    def test_view_of_a_point_field_refuses_a_cloud(self):
        f = AffineScaledField(CallableField(2, lambda x: float(x @ x)), outer=2.0)
        with pytest.raises(InputError):
            f.value(np.zeros((3, 2)))


class TestRadialProfileField:
    def test_matches_quadratic(self, rng):
        c = 0.7
        f = RadialProfileField(3, lambda r: 0.5 * c * r * r, lambda r: c * r, lambda r: c)
        q = QuadraticField(c * np.eye(3))
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            assert f.value(x) == pytest.approx(q.value(x), abs=1e-13)
            assert np.max(np.abs(f.gradient(x) - q.gradient(x))) < 1e-12
            assert np.max(np.abs(f.hessian(x) - q.hessian(x))) < 1e-12

    def test_origin_limit(self):
        f = RadialProfileField(2, lambda r: r**2, lambda r: 2 * r, lambda r: 2.0)
        assert np.allclose(f.hessian(np.zeros(2)), 2.0 * np.eye(2))
        assert np.allclose(f.gradient(np.zeros(2)), 0.0)
