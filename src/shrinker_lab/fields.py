"""Potential fields with value / gradient / Hessian evaluation: closed-form
derivatives (quadratics, affine-scaled views), one-dimensional profiles
integrated on the steps of an ODE trajectory or read from tables, and their
separable extension.  (A radial profile is its own field:
``shooting.RadialProfile``.)

Every field reads a row-major (m, dim) cloud with one kernel a derivative,
and a point as a cloud of one, with no exception (``numerics.as_cloud``), so
each row of a cloud read is its point's read bit for bit.  Views compose
lazily (chain rule on exact derivatives), so transform pipelines do not
accumulate interpolation error.
"""

from __future__ import annotations

import numpy as np

from .numerics import _READ_BLOCK, InputError, Trajectory, as_cloud, as_count, as_sym_matrix, read_span, row_dot

__all__ = [
    "ScalarField",
    "QuadraticField",
    "AffineScaledField",
    "Table1DField",
    "StepIntegralField",
    "SeparableExtensionField",
]


class ScalarField:
    """Base interface: a potential u with u(x), Du(x), D^2u(x).

    ``value``, ``gradient`` and ``hessian`` read one point (dim,) as a float,
    (dim,) or (dim, dim), or an (m, dim) cloud as (m,), (m, dim) or
    (m, dim, dim); a stack of fields reads a (*stack, m, dim) stack of
    clouds.  Subclasses implement ``_value``, ``_gradient`` and ``_hessian``
    on row-major clouds; ``numerics.as_cloud`` reads a point as a cloud of
    one and unwraps its reads.
    """

    dim: int
    stack = ()    # the shape of a stack of fields, which reads a stack of clouds

    def value(self, x):
        x, unwrap = as_cloud(x, self.dim, self.stack)
        return unwrap(self._value(x))

    def gradient(self, x):
        x, unwrap = as_cloud(x, self.dim, self.stack)
        return unwrap(self._gradient(x))

    def hessian(self, x):
        x, unwrap = as_cloud(x, self.dim, self.stack)
        return unwrap(self._hessian(x))


class QuadraticField(ScalarField):
    """u(x) = 0.5 <x, A x> + c with exact derivatives; with a (k, n, n) stack
    A and (k,) constants c, the stack of k such fields, which reads a
    (k, m, n) stack of clouds, one cloud a field.

    On a cloud the stacked products ``(X[..., None, :] @ A) @ X[..., :, None]``
    and ``A @ X[..., :, None]`` run the kernel of the single-point products row
    by row, where ``X @ A`` would not, and the Hessian is A repeated m times.
    A point is a cloud of one, as on every field.  A is read by ``as_sym_matrix``.
    """

    def __init__(self, A, c=0.0):
        self.A = as_sym_matrix(A)
        self.c = float(c) if self.A.ndim == 2 else np.asarray(c, dtype=float)
        self.dim = self.A.shape[-1]
        self.stack = self.A.shape[:-2]

    def _value(self, x):
        quad = (x[..., None, :] @ self.A[..., None, :, :]) @ x[..., :, None]
        return 0.5 * quad[..., 0, 0] + np.expand_dims(self.c, -1)

    def _gradient(self, x):
        return (self.A[..., None, :, :] @ x[..., :, None])[..., 0]

    def _hessian(self, x):
        return np.repeat(self.A[..., None, :, :], x.shape[-2], axis=-3)


class AffineScaledField(ScalarField):
    """View  w(x) = outer * u(inner * x) + (quad/2)|x|^2 + offset.

    Derivatives are exact chain-rule expressions of the backing field's, so a
    pipeline of these views stays analytic whenever the base is.
    """

    def __init__(self, base, outer=1.0, inner=1.0, quad=0.0, offset=0.0):
        self.base = base
        self.outer, self.inner, self.quad, self.offset = float(outer), float(inner), float(quad), float(offset)
        self.dim = base.dim

    def _value(self, x):
        return self.outer * self.base.value(self.inner * x) + 0.5 * self.quad * row_dot(x, x) + self.offset

    def _gradient(self, x):
        return self.outer * self.inner * self.base.gradient(self.inner * x) + self.quad * x

    def _hessian(self, x):
        return self.outer * self.inner ** 2 * self.base.hessian(self.inner * x) + self.quad * np.eye(self.dim)


def _local_cubic(read, vals, t):
    """Value at each of an array of t, read on the span of ``read`` (a
    ``Trajectory`` on the sample nodes), of the interpolating cubic through
    the 4 nearest of the samples ``vals``.

    Interior windows are symmetric around t; within one cell of the boundary
    the window is clamped.  Every operation is elementwise, so each t rounds
    as it would alone.
    """
    ts, t = read.ts, read_span(t, read.ts[0], read.ts[-1])
    i0 = np.clip(read.bracket(t) - 1, 0, len(ts) - 4)
    window = i0[:, None] + np.arange(4)
    tw, c = ts[window], vals[window]
    # Newton divided differences, evaluated in nested form
    for j in range(1, 4):
        c[:, j:] = (c[:, j:] - c[:, j - 1 : -1]) / (tw[:, j:] - tw[:, : 4 - j])
    d0, d1, d2, d3 = c.T
    return d0 + (t - tw[:, 0]) * (d1 + (t - tw[:, 1]) * (d2 + (t - tw[:, 2]) * d3))


class Table1DField(ScalarField):
    """1-D field from (value, slope, curvature) on strictly increasing nodes of any spacing.

    Value and slope are read through two ``Trajectory`` objects on the nodes:
    the quintic Hermite of (value, slope, curvature) and the cubic Hermite of
    (slope, curvature).  The curvature is interpolated by a local cubic.  All
    three read a cloud's times through ``read_span``, element by element.
    Nodes that are not finite and strictly increasing are an InputError.
    """

    dim = 1

    def __init__(self, ts, vals, slopes, curvatures):
        self.ts = np.asarray(ts, dtype=float)
        self.vals = np.asarray(vals, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)
        self.curvs = np.asarray(curvatures, dtype=float)
        if not (len(self.ts) >= 4 and len(self.ts) == len(self.vals) == len(self.slopes) == len(self.curvs)):
            raise InputError("need >= 4 aligned samples")
        if not (np.isfinite(self.ts).all() and (np.diff(self.ts) > 0.0).all()):
            raise InputError("nodes must be finite and strictly increasing")
        self._value_read = Trajectory(self.ts, self.vals[:, None], self.slopes[:, None], dfs=self.curvs[:, None])
        self._slope_read = Trajectory(self.ts, self.slopes[:, None], self.curvs[:, None])

    def _value(self, x):
        return self._value_read.evaluate(x[:, 0])[:, 0]

    def _gradient(self, x):
        return self._slope_read.evaluate(x[:, 0])

    def _hessian(self, x):
        return _local_cubic(self._value_read, self.curvs, x[:, 0])[:, None, None]


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
    trajectory's own interpolant, read on y alone) gives I1 = int g and
    I2 = int (t_out - s) g ds from the step's knot nearer the origin, t_in,
    to its other knot t_out.  F' and F at the knots are summed outward from
    F'(0) = ``slope0``, F(0) = ``value0`` on each leg: F'_out = F'_in + I1,
    F_out = F_in + (h F'_in + I2), h = t_out - t_in.  A read at t takes the
    same rule from the inner knot of t's step to t: ``value`` is F,
    ``gradient`` F' and ``hessian`` g(y(t)).

    ``read`` is the one read of the trajectory at a cloud, for this field and
    for the construction profile built on it: one ``numerics.read_span`` on
    [-span, span] cut to the trajectory's knots, one ``Trajectory.bracket``
    search, and F, F' and the trajectory's whole state at t in one array.
    The nodes are summed left to right, not through ``@``, so each row rounds
    as it would alone.  The last cloud read is kept, so the methods called on
    one cloud read it once between them.
    """

    dim = 1

    def __init__(self, dense, g, value0, slope0, span):
        self.dense = dense    # the whole state, read at a cloud's times
        self._y = Trajectory(dense.ts, dense.ys[:, :1], dense.fs[:, :1], dfs=dense.dfs[:, :1])
        self._g = g    # elementwise on an array of first components
        self.span = float(span)
        self._last_cloud = (None, None)    # (bytes of the cloud's times, its reads)
        ts = dense.ts
        steps = np.arange(len(ts) - 1)
        inner = steps + (ts[:-1] < 0.0)    # on the left leg a step's inner knot is its right end
        h = ts[2 * steps + 1 - inner] - ts[inner]
        i1, i2 = self._rule(steps, inner, h)
        h, i1, i2 = h.tolist(), i1.tolist(), i2.tolist()
        origin = int(np.searchsorted(ts, 0.0))
        vals, slopes = [float(value0)] * len(ts), [float(slope0)] * len(ts)
        for k in [*range(origin, len(ts) - 1), *range(origin - 1, -1, -1)]:  # outward on each leg
            i, j = (k, k + 1) if k >= origin else (k + 1, k)
            slopes[j] = slopes[i] + i1[k]
            vals[j] = vals[i] + (h[k] * slopes[i] + i2[k])
        self.vals, self.slopes = np.array(vals), np.array(slopes)    # F and F' at the knots

    def _rule(self, k, inner, d):
        """I1 = int g and I2 = int (t_in + d - s) g ds from t_in = ts[inner]
        over d on the steps k."""
        g = self._g(self._y.interpolate(k, self._y.ts[inner] + _GL_NODES[:, None] * d)[..., 0])
        i1 = sum(w * gj for w, gj in zip(_GL_WEIGHTS, g))
        i2 = sum(w * gj for w, gj in zip(_GL_WEIGHTS_TAIL, g))
        return d * i1, d * d * i2

    def read(self, x):
        """F, F' and the trajectory's whole state y(t), one row a component,
        at an (m, 1) cloud, as a (2 + len(y), m) array, read in blocks that
        bound the temporaries."""
        ts = self.dense.ts
        t = read_span(x[:, 0], max(-self.span, ts[0]), min(self.span, ts[-1]))
        key = t.tobytes()
        if self._last_cloud[0] == key:
            return self._last_cloud[1]
        k = self._y.bracket(t)
        reads = np.empty((2 + self.dense.ys.shape[1], len(t)))
        for lo in range(0, len(t), _READ_BLOCK):
            block = slice(lo, lo + _READ_BLOCK)
            tb, kb = t[block], k[block]
            inner = kb + (ts[kb] < 0.0)
            d = tb - ts[inner]
            i1, i2 = self._rule(kb, inner, d)
            reads[0, block] = self.vals[inner] + (d * self.slopes[inner] + i2)
            reads[1, block] = self.slopes[inner] + i1
            reads[2:, block] = self.dense.interpolate(kb, tb).T
        reads.flags.writeable = False    # shared by every read of this cloud
        self._last_cloud = (key, reads)
        return reads

    def _value(self, x):
        return self.read(x)[0]

    def _gradient(self, x):
        return self.read(x)[1][:, None]

    def _hessian(self, x):
        return self._g(self.read(x)[2])[:, None, None]


class SeparableExtensionField(ScalarField):
    """n-D extension  w(x) = w1(x_1) + (|x|^2 - x_1^2)/4  of a 1-D profile;
    n is an integer of at least 1 (``numerics.as_count``)."""

    def __init__(self, profile_1d, n):
        self.dim = as_count(n, "dimension")
        if profile_1d.dim != 1:
            raise InputError("base profile must be one-dimensional")
        self.base = profile_1d

    def _value(self, x):
        x1 = x[:, 0]
        return self.base.value(x[:, :1]) + 0.25 * (row_dot(x, x) - x1 * x1)

    def _gradient(self, x):
        g = 0.5 * x
        g[:, 0] = self.base.gradient(x[:, :1])[:, 0]
        return g

    def _hessian(self, x):
        H = 0.5 * np.broadcast_to(np.eye(self.dim), (len(x), self.dim, self.dim))
        H[:, 0, 0] = self.base.hessian(x[:, :1])[:, 0, 0]
        return H
