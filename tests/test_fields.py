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
from shrinker_lab.numerics import InputError, hermite_quintic_value, hermite_value
from shrinker_lab.quadratics import random_admissible_matrix
from shrinker_lab.tau import shrinker_residual

from conftest import CallableField, branch_params, same_bits


def _cubic_reference(ts, vals, t):
    """The cubic through the 4 samples nearest one t, the window clamped at
    the table's ends: Newton divided differences in nested form."""
    k = min(max(int(np.searchsorted(ts, t, side="right")) - 1, 0), len(ts) - 2)
    i0 = min(max(k - 1, 0), len(ts) - 4)
    tw, c = ts[i0 : i0 + 4], vals[i0 : i0 + 4].copy()
    for j in range(1, 4):
        c[j:] = (c[j:] - c[j - 1 : -1]) / (tw[j:] - tw[: 4 - j])
    return c[0] + (t - tw[0]) * (c[1] + (t - tw[1]) * (c[2] + (t - tw[2]) * c[3]))


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

    @given(
        branch=st.sampled_from(sorted(branch_params())),
        n=st.integers(1, 4),
        m=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_cloud_hessian_and_residual_equal_points_bit_for_bit(self, branch, n, m, seed):
        # a cloud repeats A and solves one stack; a point is a cloud of one
        tp = branch_params()[branch]
        rng = np.random.default_rng(seed)
        f = QuadraticField(random_admissible_matrix(tp, n, rng), rng.standard_normal())
        X = rng.uniform(-3.0, 3.0, (m, n))
        H = f.hessian(X)
        assert H.shape == (m, n, n)
        assert same_bits(H, [f.hessian(x) for x in X])
        assert same_bits(shrinker_residual(tp, f, X), [shrinker_residual(tp, f, x) for x in X])


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

    @staticmethod
    def _uneven(rng):
        """A table on uneven nodes and times that read it: at and next to both
        ends, past either end by rounding, at random and at the inner nodes."""
        ts = np.cumsum(rng.uniform(0.05, 0.15, 60)) - 4.0
        f = Table1DField(ts, np.sin(ts), np.cos(ts), -np.sin(ts))
        ends = [ts[0], ts[0] - 1e-12, 0.5 * (ts[0] + ts[1]), ts[1], ts[-2], 0.5 * (ts[-2] + ts[-1]), ts[-1],
                ts[-1] + 1e-12]
        return ts, f, np.concatenate([ends, rng.uniform(ts[0], ts[-1], 40), ts[2:-2]])

    def test_value_and_slope_are_the_hermite_kernels_bit_for_bit(self, rng):
        # the quintic of (value, slope, curvature) and the cubic of (slope,
        # curvature) on the bracketing cell; a time past either end reads the end
        ts, f, t = self._uneven(rng)
        tc = np.clip(t, ts[0], ts[-1])
        k = np.clip(np.searchsorted(ts, tc, side="right") - 1, 0, len(ts) - 2)
        v, s, c = f.vals, f.slopes, f.curvs
        cell = (tc, ts[k], ts[k + 1])
        assert same_bits(f.value(t[:, None]), hermite_quintic_value(*cell, v[k], v[k + 1], s[k], s[k + 1],
                                                                    c[k], c[k + 1]))
        assert same_bits(f.gradient(t[:, None]), hermite_value(*cell, s[k], s[k + 1], c[k], c[k + 1])[:, None])

    def test_cloud_hessian_equals_points_and_reference_bit_for_bit(self, rng):
        # uneven nodes; the first and last cells clamp their 4-sample windows,
        # and a time past either end by rounding reads the end
        ts, f, t = self._uneven(rng)
        H = f.hessian(t[:, None])
        assert H.shape == (len(t), 1, 1)
        assert same_bits(H, [f.hessian([v]) for v in t])
        assert same_bits(H[:, 0, 0], [_cubic_reference(ts, f.curvs, v) for v in np.clip(t, ts[0], ts[-1])])

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
