"""Potential fields with value / gradient / Hessian evaluation: closed-form
derivatives (quadratics, affine-scaled views), one-dimensional profiles
integrated on the steps of an ODE trajectory or read from tables, and their
separable and radial extensions.

Views compose lazily (chain rule on exact derivatives), so transform pipelines
do not accumulate interpolation error.
"""

from __future__ import annotations

import numpy as np

from .numerics import _READ_BLOCK, InputError, hermite_value, hermite_quintic_value

__all__ = [
    "ScalarField",
    "QuadraticField",
    "AffineScaledField",
    "Table1DField",
    "StepIntegralField",
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


def _span_t(field, x, lo, hi):
    """(t, cloud) of a 1-D field's point, t a float, or of its (m, 1) cloud, t
    (m,), clamped into [lo, hi]; InputError if any t lies outside it by more
    than rounding."""
    x = np.asarray(x, dtype=float)
    cloud = x.ndim == 2 and x.shape[1] == 1
    t = x[:, 0] if cloud else float(field._point(x)[0])
    outside = (t < lo - 1e-9 * (1 + abs(lo))) | (t > hi + 1e-9 * (1 + abs(hi)))
    if outside.any() if cloud else outside:
        bad = t[outside][0] if cloud else t
        raise InputError(f"evaluation point {bad} outside the span [{lo}, {hi}]")
    return (np.clip(t, lo, hi) if cloud else min(max(t, lo), hi)), cloud


class Table1DField(ScalarField):
    """1-D field from (value, slope, curvature) on strictly increasing nodes of any spacing.

    Value uses the two-point quintic Hermite; the slope uses the cubic Hermite
    of (slope, curvature); the curvature is interpolated by a local cubic.

    ``value`` and ``gradient`` also take an (m, 1) cloud in one batch and
    return (m,) or (m, 1), every row bit for bit its point's (both Hermites
    are elementwise); ``hessian`` takes one point.
    """

    dim = 1

    def __init__(self, ts, vals, slopes, curvatures):
        self.ts = np.asarray(ts, dtype=float)
        self.vals = np.asarray(vals, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)
        self.curvs = np.asarray(curvatures, dtype=float)
        if not (len(self.ts) >= 4 and len(self.ts) == len(self.vals) == len(self.slopes) == len(self.curvs)):
            raise InputError("need >= 4 aligned samples")

    def _points_t(self, x):
        return _span_t(self, x, self.ts[0], self.ts[-1])

    def value(self, x):
        t, cloud = self._points_t(x)
        ts, vals, slopes, curvs, k = self.ts, self.vals, self.slopes, self.curvs, _bracket_index(self.ts, t)
        v = hermite_quintic_value(t, ts[k], ts[k + 1], vals[k], vals[k + 1], slopes[k], slopes[k + 1],
                                  curvs[k], curvs[k + 1])
        return v if cloud else float(v)

    def slope(self, t):
        """Slope at a float t, or elementwise at an array of t."""
        ts, slopes, curvs, k = self.ts, self.slopes, self.curvs, _bracket_index(self.ts, t)
        v = hermite_value(t, ts[k], ts[k + 1], slopes[k], slopes[k + 1], curvs[k], curvs[k + 1])
        return v if isinstance(t, np.ndarray) else float(v)

    def gradient(self, x):
        t, cloud = self._points_t(x)
        return self.slope(t)[:, None] if cloud else np.array([self.slope(t)])

    def hessian(self, x):
        t, _ = self._points_t(self._point(x))
        return np.array([[float(_local_cubic(self.ts, self.curvs, t))]])


# 4-point Gauss-Legendre on [0, 1] for a StepIntegralField's steps (6 and 8
# move the certificates only at rounding): nodes u, weights w, and w (1 - u)
_GL_NODES = np.array([0.06943184420297371, 0.33000947820757187, 0.6699905217924281, 0.9305681557970263])
_GL_WEIGHTS = (0.17392742256872692, 0.32607257743127305, 0.32607257743127305, 0.17392742256872692)
_GL_WEIGHTS_TAIL = (0.1618513208623103, 0.21846553629538057, 0.1076070411358925, 0.012076101706416622)


class StepIntegralField(ScalarField):
    """1-D profile F with F'' = g(y(t)) on [-span, span], y the first state
    component of a two-sided ``Trajectory`` (ascending, with ``dfs`` and a
    knot at t = 0), integrated on the trajectory's own steps.

    On each step, Gauss-Legendre on the quintic dense output (the
    trajectory's own interpolant, on y alone) gives I1 = int g and
    I2 = int (t_out - s) g ds from the step's knot nearer the origin, t_in,
    to its other knot t_out.  F' and F at the knots are summed outward from
    F'(0) = ``slope0``, F(0) = ``value0`` on each leg: F'_out = F'_in + I1,
    F_out = F_in + (h F'_in + I2), h = t_out - t_in.  A read at t takes the
    same rule from the inner knot of t's step to t: ``value`` is F,
    ``gradient`` F' and ``hessian`` g(y(t)).

    Each method also takes an (m, 1) cloud and returns (m,), (m, 1) or
    (m, 1, 1), every row bit for bit its point's (a point is a cloud of one;
    the nodes are summed left to right).  The last cloud read is kept, so the
    methods called on one cloud read it once between them.  A read outside
    [-span, span] by more than rounding is an InputError.
    """

    dim = 1

    def __init__(self, dense, g, value0, slope0, span):
        self._ts = dense.ts
        self._knots = (dense.ys[:, 0].copy(), dense.fs[:, 0].copy(), dense.dfs[:, 0].copy())
        self._g = g    # elementwise on an array of first components
        self.span = float(span)
        self._last_cloud = (None, None)    # (bytes of the cloud's times, its reads)
        ts = self._ts
        steps = np.arange(len(ts) - 1)
        inner = steps + (ts[:-1] < 0.0)    # on the left leg a step's inner knot is its right end
        h = ts[2 * steps + 1 - inner] - ts[inner]
        i1, i2, _ = self._rule(steps, inner, h)
        h, i1, i2 = h.tolist(), i1.tolist(), i2.tolist()
        origin = int(np.searchsorted(ts, 0.0))
        vals, slopes = [float(value0)] * len(ts), [float(slope0)] * len(ts)
        for k in [*range(origin, len(ts) - 1), *range(origin - 1, -1, -1)]:  # outward on each leg
            i, j = (k, k + 1) if k >= origin else (k + 1, k)
            slopes[j] = slopes[i] + i1[k]
            vals[j] = vals[i] + (h[k] * slopes[i] + i2[k])
        self.vals, self.slopes = np.array(vals), np.array(slopes)    # F and F' at the knots

    def _rule(self, k, inner, d, t=None):
        """I1 = int g and I2 = int (t_in + d - s) g ds from t_in = ts[inner]
        over d on the steps k, and g(y(t)) when t is given, in one read."""
        ts, (y, f, df) = self._ts, self._knots
        times = ts[inner] + _GL_NODES[:, None] * d
        if t is not None:
            times = np.vstack([times, t])
        g = self._g(hermite_quintic_value(times, ts[k], ts[k + 1], y[k], y[k + 1], f[k], f[k + 1], df[k], df[k + 1]))
        i1 = sum(w * gj for w, gj in zip(_GL_WEIGHTS, g))
        i2 = sum(w * gj for w, gj in zip(_GL_WEIGHTS_TAIL, g))
        return d * i1, d * d * i2, g[-1]

    def read(self, x):
        """(F, F', g(y(t)), cloud): floats at a point, (m,) arrays at an
        (m, 1) cloud, read in blocks that bound the temporaries."""
        t, cloud = _span_t(self, x, -self.span, self.span)
        t = np.atleast_1d(t)
        key = t.tobytes()
        if cloud and self._last_cloud[0] == key:
            return (*self._last_cloud[1], True)
        ts = self._ts
        reads = np.empty((3, len(t)))
        for lo in range(0, len(t), _READ_BLOCK):
            tb = t[lo : lo + _READ_BLOCK]
            k = _bracket_index(ts, tb)
            inner = k + (ts[k] < 0.0)
            d = tb - ts[inner]
            i1, i2, g = self._rule(k, inner, d, tb)
            reads[:, lo : lo + _READ_BLOCK] = (self.vals[inner] + (d * self.slopes[inner] + i2),
                                               self.slopes[inner] + i1, g)
        if not cloud:
            return (*reads[:, 0].tolist(), False)
        reads.flags.writeable = False    # shared by every read of this cloud
        self._last_cloud = (key, reads)
        return (*reads, True)

    def value(self, x):
        return self.read(x)[0]

    def gradient(self, x):
        _, dF, _, cloud = self.read(x)
        return dF[:, None] if cloud else np.array([dF])

    def hessian(self, x):
        *_, g, cloud = self.read(x)
        return g[:, None, None] if cloud else np.array([[g]])


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
