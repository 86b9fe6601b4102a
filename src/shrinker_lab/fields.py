"""Potential fields with value / gradient / Hessian evaluation: closed-form
derivatives (quadratics, callables with supplied gradient/Hessian, affine-scaled
views), central differences (callables without them), and one-dimensional
profiles backed by an ODE trajectory plus quadrature tables.

Views compose lazily (chain rule on exact derivatives), so transform pipelines
do not accumulate interpolation error.
"""

from __future__ import annotations

import numpy as np

from .numerics import (
    InputError,
    default_fd_step,
    fd_gradient,
    fd_hessian,
    hermite_value,
    hermite_quintic_value,
)

__all__ = [
    "ScalarField",
    "QuadraticField",
    "CallableField",
    "AffineScaledField",
    "Table1DField",
    "SeparableExtensionField",
    "RadialProfileField",
]


class ScalarField:
    """Base interface: a potential u with u(x), Du(x), D^2u(x)."""

    dim: int

    def value(self, x):
        raise NotImplementedError

    def gradient(self, x):
        raise NotImplementedError

    def hessian(self, x):
        raise NotImplementedError

    def _point(self, x):
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if p.shape != (self.dim,):
            raise InputError(f"expected point of dimension {self.dim}, got shape {p.shape}")
        return p

    def _points(self, x):
        """One point (dim,), or a row-major (m, dim) cloud."""
        p = np.asarray(x, dtype=float)
        if p.ndim == 2 and p.shape[1] == self.dim:
            return np.ascontiguousarray(p)  # strided rows take another kernel
        return self._point(p)


def _dot_self(x):
    """<x, x> of one point as a float, or row by row of a cloud as (m,): the
    stacked product ``x[:, None, :] @ x[:, :, None]`` runs the kernel of the
    single-point ``x @ x`` on each row, so each row rounds as its point does."""
    if x.ndim == 2:
        return (x[:, None, :] @ x[:, :, None])[:, 0, 0]
    return float(x @ x)


class QuadraticField(ScalarField):
    """u(x) = 0.5 <x, A x> + c with exact derivatives.

    ``value`` and ``gradient`` also take an (m, n) cloud and return (m,) or
    (m, n), every row bit for bit the single-point result: the stacked
    products ``(X[:, None, :] @ A) @ X[:, :, None]`` and ``A @ X[:, :, None]``
    run the kernel of the single-point products row by row, where ``X @ A``
    would not.  ``hessian`` takes one point: it is A everywhere.
    """

    def __init__(self, A, c=0.0):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise InputError("A must be square")
        if not np.array_equal(self.A, self.A.T):
            raise InputError("A must be symmetric")
        self.c = float(c)
        self.dim = self.A.shape[0]

    def value(self, x):
        x = self._points(x)
        if x.ndim == 2:
            return 0.5 * ((x[:, None, :] @ self.A) @ x[:, :, None])[:, 0, 0] + self.c
        return 0.5 * float(x @ self.A @ x) + self.c

    def gradient(self, x):
        x = self._points(x)
        if x.ndim == 2:
            return (self.A @ x[:, :, None])[:, :, 0]
        return self.A @ x

    def hessian(self, x):
        self._point(x)
        return self.A.copy()


class CallableField(ScalarField):
    """Wraps plain callables; derivatives fall back to central differences."""

    def __init__(self, dim, fn, grad=None, hess=None, fd_step=None):
        self.dim = int(dim)
        self._fn = fn
        self._grad = grad
        self._hess = hess
        self._fd_step = fd_step

    def value(self, x):
        return float(self._fn(self._point(x)))

    def gradient(self, x):
        x = self._point(x)
        if self._grad is not None:
            return np.atleast_1d(np.asarray(self._grad(x), dtype=float))
        h = self._fd_step if self._fd_step is not None else default_fd_step(x)
        return fd_gradient(self._fn, x, h)

    def hessian(self, x):
        x = self._point(x)
        if self._hess is not None:
            return np.asarray(self._hess(x), dtype=float)
        h = self._fd_step if self._fd_step is not None else default_fd_step(x)
        return fd_hessian(self._fn, x, h)


class AffineScaledField(ScalarField):
    """View  w(x) = outer * u(inner * x) + (quad/2)|x|^2 + offset.

    Derivatives are exact chain-rule expressions of the backing field's, so a
    pipeline of these views stays analytic whenever the base is.  Nested views
    flatten into a single layer; in particular an exact involution composed
    with itself collapses to the identity coefficients (1, 1, 0, 0) and
    evaluates bit-for-bit as the base.

    Each method also takes an (m, n) cloud, when the base does, and returns
    (m,), (m, n) or (m, n, n), every row bit for bit the single-point result.
    """

    def __init__(self, base, outer=1.0, inner=1.0, quad=0.0, offset=0.0):
        outer, inner, quad, offset = float(outer), float(inner), float(quad), float(offset)
        if isinstance(base, AffineScaledField):
            offset = outer * base.offset + offset
            quad = outer * base.quad * inner * inner + quad
            inner = base.inner * inner
            outer = outer * base.outer
            base = base.base
        self.base = base
        self.outer = outer
        self.inner = inner
        self.quad = quad
        self.offset = offset
        self.dim = base.dim

    def value(self, x):
        x = self._points(x)
        return (
            self.outer * self.base.value(self.inner * x)
            + 0.5 * self.quad * _dot_self(x)
            + self.offset
        )

    def gradient(self, x):
        x = self._points(x)
        return self.outer * self.inner * self.base.gradient(self.inner * x) + self.quad * x

    def hessian(self, x):
        x = self._points(x)
        return (
            self.outer * self.inner ** 2 * self.base.hessian(self.inner * x)
            + self.quad * np.eye(self.dim)
        )


def _bracket_index(ts, t):
    """Index k of the grid cell [ts[k], ts[k+1]] holding t, clamped to the
    table; elementwise for an array of t."""
    k = np.searchsorted(ts, t, side="right") - 1
    if isinstance(k, np.ndarray):
        return np.clip(k, 0, len(ts) - 2)
    return min(max(int(k), 0), len(ts) - 2)


def _local_cubic(ts, vals, t):
    """Value at t of the interpolating cubic through the 4 nearest samples.

    Interior windows are symmetric around t; within one cell of the boundary
    the window is clamped.
    """
    n = len(ts)
    k = _bracket_index(ts, t)
    i0 = min(max(k - 1, 0), n - 4)
    idx = slice(i0, i0 + 4)
    tw = ts[idx]
    vw = vals[idx]
    # Newton divided differences, evaluated in nested form
    c = vw.astype(float).copy()
    for j in range(1, 4):
        c[j:] = (c[j:] - c[j - 1 : -1]) / (tw[j:] - tw[: 4 - j])
    d0, d1, d2, d3 = c
    t0, t1, t2 = tw[0], tw[1], tw[2]
    return d0 + (t - t0) * (d1 + (t - t1) * (d2 + (t - t2) * d3))


class Table1DField(ScalarField):
    """1-D field from (value, slope, curvature) on strictly increasing nodes of any spacing.

    Value uses the two-point quintic Hermite; the slope uses the cubic Hermite
    of (slope, curvature); the curvature is interpolated by a local cubic, or
    supplied exactly by ``curvature_fn`` when the backing relation is known.

    Each method also takes an (m, 1) cloud in one batch, ``hessian`` when
    ``curvature_fn`` takes arrays, and returns (m,), (m, 1) or (m, 1, 1),
    every row bit for bit its point's (both Hermites are elementwise).
    """

    dim = 1

    def __init__(self, ts, vals, slopes, curvatures, curvature_fn=None):
        self.ts = np.asarray(ts, dtype=float)
        self.vals = np.asarray(vals, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)
        self.curvs = np.asarray(curvatures, dtype=float)
        if not (len(self.ts) >= 4 and len(self.ts) == len(self.vals) == len(self.slopes) == len(self.curvs)):
            raise InputError("need >= 4 aligned samples")
        self._curv_fn = curvature_fn

    def _t(self, t):
        """t, a float or an array, clamped into the table span; InputError if
        any t lies outside it by more than rounding."""
        lo, hi = self.ts[0], self.ts[-1]
        outside = (t < lo - 1e-9 * (1 + abs(lo))) | (t > hi + 1e-9 * (1 + abs(hi)))
        cloud = isinstance(t, np.ndarray)
        if outside.any() if cloud else outside:
            bad = t[outside][0] if cloud else t
            raise InputError(f"evaluation point {bad} outside table span [{lo}, {hi}]")
        return np.clip(t, lo, hi) if cloud else min(max(t, lo), hi)

    def _point_t(self, x):
        return self._t(float(self._point(x)[0]))

    def _points_t(self, x):
        """(t, cloud): t of a point as a float, or of an (m, 1) cloud as (m,)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2 and x.shape[1] == 1:
            return self._t(x[:, 0]), True
        return self._point_t(x), False

    def value(self, x):
        t, cloud = self._points_t(x)
        k = _bracket_index(self.ts, t)
        v = hermite_quintic_value(
            t,
            self.ts[k],
            self.ts[k + 1],
            self.vals[k],
            self.vals[k + 1],
            self.slopes[k],
            self.slopes[k + 1],
            self.curvs[k],
            self.curvs[k + 1],
        )
        return v if cloud else float(v)

    def slope(self, t):
        """Slope at a float t, or elementwise at an array of t."""
        k = _bracket_index(self.ts, t)
        v = hermite_value(
            t,
            self.ts[k],
            self.ts[k + 1],
            self.slopes[k],
            self.slopes[k + 1],
            self.curvs[k],
            self.curvs[k + 1],
        )
        return v if isinstance(t, np.ndarray) else float(v)

    def curvature(self, t):
        """Curvature at a float t, or from ``curvature_fn`` at an array of t."""
        if self._curv_fn is None:
            return float(_local_cubic(self.ts, self.curvs, t))
        return self._curv_fn(t) if isinstance(t, np.ndarray) else float(self._curv_fn(t))

    def gradient(self, x):
        t, cloud = self._points_t(x)
        return self.slope(t)[:, None] if cloud else np.array([self.slope(t)])

    def hessian(self, x):
        t, cloud = self._points_t(x) if self._curv_fn is not None else (self._point_t(x), False)
        return self.curvature(t)[:, None, None] if cloud else np.array([[self.curvature(t)]])


class SeparableExtensionField(ScalarField):
    """n-D extension  w(x) = w1(x_1) + (|x|^2 - x_1^2)/4  of a 1-D profile.

    ``value``, ``gradient`` and ``hessian`` also take an (m, n) cloud, when
    the profile takes an (m, 1) one, and return (m,), (m, n) or (m, n, n),
    every row bit for bit the single-point result.
    """

    def __init__(self, profile_1d, n):
        if n < 1:
            raise InputError("dimension must be >= 1")
        if profile_1d.dim != 1:
            raise InputError("base profile must be one-dimensional")
        self.base = profile_1d
        self.dim = int(n)

    def value(self, x):
        x = self._points(x)
        x1 = x[..., 0]
        rest = _dot_self(x) - x1 * x1
        return self.base.value(x[..., :1]) + 0.25 * rest

    def gradient(self, x):
        x = self._points(x)
        g = 0.5 * x
        g[..., 0] = self.base.gradient(x[..., :1])[..., 0]
        return g

    def hessian(self, x):
        x = self._points(x)
        H = 0.5 * np.broadcast_to(np.eye(self.dim), x.shape[:-1] + (self.dim, self.dim))
        H[..., 0, 0] = self.base.hessian(x[..., :1])[..., 0, 0]
        return H


class RadialProfileField(ScalarField):
    """n-D radial potential u(|x|) from 1-D profile evaluators.

    The Hessian is u'' along the ray and u'/r on the orthogonal complement;
    the removable singularity at the origin is filled with u''(0) I.
    """

    def __init__(self, n, u_fn, du_fn, d2u_fn, r_origin=1e-7):
        self.dim = int(n)
        self._u = u_fn
        self._du = du_fn
        self._d2u = d2u_fn
        self._r0 = float(r_origin)

    def value(self, x):
        x = self._point(x)
        return float(self._u(float(np.linalg.norm(x))))

    def gradient(self, x):
        x = self._point(x)
        r = float(np.linalg.norm(x))
        if r < self._r0:
            return float(self._d2u(0.0)) * x
        return float(self._du(r)) / r * x

    def hessian(self, x):
        x = self._point(x)
        r = float(np.linalg.norm(x))
        if r < self._r0:
            return float(self._d2u(0.0)) * np.eye(self.dim)
        xh = x / r
        radial = float(self._d2u(r))
        tangent = float(self._du(r)) / r
        return tangent * np.eye(self.dim) + (radial - tangent) * np.outer(xh, xh)
