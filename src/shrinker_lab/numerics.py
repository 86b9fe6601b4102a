"""Self-contained numerical kernels: symmetric eigenvalues (LAPACK through
numpy), finite differences, monotone inversion, cumulative Simpson
quadrature, adaptive Runge-Kutta integration with dense output.

Everything here is a pure function of its inputs; matrices are small and dense
(n <= 10 throughout the package), so simplicity and determinism win over
asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InputError",
    "DomainError",
    "ConstructionError",
    "DivergenceEvent",
    "RhsEvaluationError",
    "as_sym_matrix",
    "eig_sym",
    "eig_sym_full",
    "row_dot",
    "fd_gradient",
    "fd_hessian",
    "invert_monotone",
    "cumulative_simpson",
    "MAX_GRID_POINTS",
    "as_count",
    "as_positive",
    "READ_SLACK",
    "read_span",
    "as_cloud",
    "Trajectory",
    "abs_tolerance",
    "integrate_ode",
    "hermite_value",
    "hermite_quintic_value",
]


class InputError(ValueError):
    """A bad argument: non-finite, malformed or outside its parameter range."""


class DomainError(ValueError):
    """A point left the set where the equation is defined: the admissibility
    cone, the spacelike condition, convexity, a nonsingular weight or a
    nondegenerate metric.  ``value`` is the offending eigenvalue, curvature or
    1 - |Df|^2, where there is one, and ``location`` the point it was met at."""

    def __init__(self, message, value=None, location=None):
        super().__init__(message)
        self.value = value
        self.location = location


class ConstructionError(RuntimeError):
    """A numerical stage of a construction failed; ``stage`` names it."""

    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class RhsEvaluationError(DomainError):
    """Raised by an ODE right-hand side (``integrate_ode``'s acc) that cannot
    be evaluated at (t, u, v): the state left the equation's domain.

    The integrator treats this as a soft failure: it shrinks the step and,
    if the step underflows, records an event labelled with ``self.label``.
    """

    def __init__(self, label, detail=""):
        super().__init__(label if not detail else f"{label}: {detail}")
        self.label = label
        self.detail = detail


@dataclass(frozen=True)
class DivergenceEvent:
    """Where and why an integration stopped before reaching the end of the span."""

    label: str
    t: float
    y: np.ndarray
    detail: str = ""


def as_sym_matrix(M):
    """Validate and return a symmetric float matrix, or a (..., n, n) stack of
    them checked matrix by matrix (no copy if already valid).  Asymmetry up to
    1e-12 times the matrix's largest entry (at least 1) is finite-difference
    noise and is averaged away in that matrix alone; more is an InputError."""
    A = np.asarray(M, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise InputError("matrix has non-finite entries")
    At = A.swapaxes(-1, -2)
    same = A == At
    if not same.all():
        if (np.abs(A - At).max(axis=(-2, -1)) > 1e-12 * np.maximum(1.0, np.abs(A).max(axis=(-2, -1)))).any():
            raise InputError("matrix is not symmetric")
        A = np.where(same.all(axis=(-2, -1))[..., None, None], A, 0.5 * (A + At))
    return A


def eig_sym(M):
    """All eigenvalues, ascending, of a symmetric matrix, or of each matrix of a
    (..., n, n) stack in one call: LAPACK ``syevd`` matrix by matrix, bit for bit."""
    return np.linalg.eigvalsh(as_sym_matrix(M))


def eig_sym_full(M):
    """Eigenvalues (ascending) and the corresponding orthonormal eigenvectors."""
    w, Q = np.linalg.eigh(as_sym_matrix(M))
    return w, Q


def row_dot(a, b):
    """<a, b> along the last axis, row by row of stacked vectors: the stacked
    product ``a[..., None, :] @ b[..., :, None]`` runs the kernel of the
    single-point ``a @ b`` on each row, so each row rounds as its point does."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def fd_gradient(fn, x, h):
    """Central-difference gradient of the callable ``fn``, second order in a
    finite positive step h (``as_positive``)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = as_positive(h, "fd step")
    g = np.empty(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


def fd_hessian(fn, x, h):
    """Central-difference Hessian of the callable ``fn``, second order; exactly
    symmetric output.

    The mixed-derivative stencil is evaluated once per (i, j) pair with i < j
    and mirrored, so H[i, j] == H[j, i] bit for bit.  h as ``fd_gradient``'s.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = as_positive(h, "fd step")
    n = len(x)
    H = np.empty((n, n))
    f0 = fn(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        H[i, i] = (fn(x + ei) - 2.0 * f0 + fn(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (
                fn(x + ei + ej) - fn(x + ei - ej) - fn(x - ei + ej) + fn(x - ei - ej)
            ) / (4.0 * h * h)
            H[i, j] = mixed
            H[j, i] = mixed
    return H


def invert_monotone(fn, y, lo, hi, dfn=None, seed=None):
    """Solve fn(x) = y, to |fn(x) - y| <= 1e-12 (1 + |y|), for a strictly
    increasing fn on the finite [lo, hi].

    Newton steps (given ``dfn``) while they stay inside the bracket, else
    Illinois secant steps (an end kept twice in a row has its residual halved,
    so the secant does not stall as regula falsi does), else bisection.
    """
    y = float(y)
    resid_tol = 1e-12 * (1.0 + abs(y))
    a, b = float(lo), float(hi)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError(f"bracket [{a}, {b}] must be finite")

    fa = fn(a) - y
    fb = fn(b) - y
    if fa > 0 or fb < 0:
        raise InputError(f"target {y} not bracketed by [{a}, {b}]")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b

    x = float(seed) if (seed is not None and a < seed < b) else 0.5 * (a + b)
    fx = fn(x) - y
    moved = 0  # the end the last iterate replaced: -1 for a, +1 for b
    for _ in range(120):
        if abs(fx) <= resid_tol:
            return x
        if fx > 0:
            if moved > 0:
                fa *= 0.5
            b, fb, moved = x, fx, 1
        else:
            if moved < 0:
                fb *= 0.5
            a, fa, moved = x, fx, -1
        step_ok = False
        if dfn is not None:
            d = dfn(x)
            if d > 0 and math.isfinite(d):
                xn = x - fx / d
                if a < xn < b:
                    x = xn
                    step_ok = True
        if not step_ok:
            denom = fb - fa
            xn = a - fa * (b - a) / denom if denom != 0 else 0.5 * (a + b)
            x = xn if a < xn < b else 0.5 * (a + b)
        fx = fn(x) - y
        if b - a <= 4.0 * np.spacing(max(abs(a), abs(b))):
            return x
    if abs(fx) <= 100.0 * resid_tol:
        return x
    raise InputError(f"monotone inversion stalled: |f(x)-y| = {abs(fx):.3e}")


def cumulative_simpson(y, dx):
    """Antiderivative of samples ``y`` at spacing ``dx``, 0.0 at the first node.

    Interval i gets the three-point Simpson part dx/3 (5 f1/4 + 2 f2 - f3/4)
    (Cartwright 2017, eqn 10): f1, f2 are its ends and f3 the next node,
    rightwards for even i, leftwards for odd i and the last interval.  The
    order of operations is the usual equal-interval cumulative Simpson's, which
    the tests match bit for bit; ``+= 0.0`` turns a -0.0 sum into 0.0."""
    y = np.asarray(y, dtype=float)
    if len(y) < 3:
        raise InputError(f"Simpson quadrature needs at least 3 samples, got {len(y)}")

    def ahead(v):
        return dx / 3 * (5 * v[:-2] / 4 + 2 * v[1:-1] - v[2:] / 4)

    behind = ahead(y[::-1])[::-1]
    parts = np.empty(len(y) - 1)
    parts[:-1:2] = ahead(y)[::2]
    parts[1::2] = behind[::2]
    parts[-1] = behind[-1]
    res = np.cumsum(parts)
    res += 0.0
    return np.concatenate(([0.0], res))


def hermite_value(t, t0, t1, y0, y1, d0, d1):
    """Cubic Hermite interpolant on [t0, t1] from endpoint values and slopes.

    Pure elementwise arithmetic: arrays of intervals broadcast, each element
    rounded exactly as the scalar call would round it.
    """
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * d0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * d1
    )


def hermite_quintic_value(t, t0, t1, y0, y1, d0, d1, s0, s1):
    """Two-point quintic Hermite from values, slopes, and curvatures."""
    h = t1 - t0
    u = (t - t0) / h
    u2 = u * u
    u3 = u2 * u
    u4 = u3 * u
    u5 = u4 * u
    b0 = 1 - 10 * u3 + 15 * u4 - 6 * u5
    b1 = u - 6 * u3 + 8 * u4 - 3 * u5
    b2 = 0.5 * (u2 - 3 * u3 + 3 * u4 - u5)
    c0 = 10 * u3 - 15 * u4 + 6 * u5
    c1 = -4 * u3 + 7 * u4 - 3 * u5
    c2 = 0.5 * (u3 - 2 * u4 + u5)
    return (
        b0 * y0
        + b1 * h * d0
        + b2 * h * h * s0
        + c0 * y1
        + c1 * h * d1
        + c2 * h * h * s1
    )


# how far past an end, relative to 1 + |end|, a read still reads the end:
# numpy's arange drifts past the end of a profile grid (constructor.profile_grid)
# by 3.0e-13 relative at 4,001 rows and 3.7e-13 at 23,801, more with more rows
READ_SLACK = 1e-9

# the most points a grid of a profile table or a Legendre check may hold
MAX_GRID_POINTS = 10**6


def as_count(value, name, least=1):
    """``value`` as an int, refused unless it is an integer of at least
    ``least``: the one rule for a dimension, a sample count or a precision.
    A fractional count would be rounded down without a word, and a string
    read as a number."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise InputError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def as_positive(value, name):
    """``value`` as a float, refused unless it is finite and positive: the one
    rule for a size (a span, a radius, a step or a time)."""
    v = float(value)
    if not 0.0 < v < math.inf:  # NaN fails too
        raise InputError(f"{name} must be finite and positive, got {v}")
    return v


def read_span(t, lo, hi):
    """Times t (a 1-D array) on [lo, hi], the one rule for reads at or past
    the ends of data: a time within READ_SLACK (1 + |end|) past an end is that
    end; any other time outside, or NaN, is an InputError, as is a t of any
    other shape (a scalar, a 2-D batch)."""
    lo, hi = float(lo), float(hi)
    below, above = lo - READ_SLACK * (1 + abs(lo)), hi + READ_SLACK * (1 + abs(hi))
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise InputError(f"expected a 1-D array of times, got shape {t.shape}")
    inside = (t >= below) & (t <= above)
    if not inside.all():
        raise InputError(f"read at {t[~inside][0]} outside the span [{lo}, {hi}]")
    return np.clip(t, lo, hi)


def as_cloud(x, dim, stack=()):
    """x as a row-major (*stack, m, dim) cloud of floats, with the unwrap of a
    read on it: the one rule for what a point is.  A point (dim,), or a float
    in dimension 1, is a cloud of one, and a read on it unwraps to its one
    row, a Python float for a scalar read; a (*stack, m, dim) cloud is read,
    and its reads returned, as they are.  Any other shape, a point on a
    stack among them, is an InputError, and then so is a NaN or infinite
    coordinate: the first point that holds one is named."""
    p = np.asarray(x, dtype=float)
    point = not stack and p.ndim < 2 and p.size == dim
    if not (point or p.ndim == len(stack) + 2 and p.shape[:-2] == stack and p.shape[-1] == dim):
        raise InputError(f"expected {f'a stack {stack} of clouds' if stack else 'a point or a cloud'} "
                         f"of dimension {dim}, got shape {p.shape}")
    cloud = np.ascontiguousarray(p.reshape(1, dim) if point else p)
    if not np.isfinite(cloud).all():
        raise InputError(f"points must be finite, got {cloud[~np.isfinite(cloud).all(axis=-1)][0].tolist()}")
    return cloud, _one_row if point else _as_is


def _one_row(read):
    return float(read[0]) if read.ndim == 1 else read[0]


def _as_is(read):
    return read


# query times a Trajectory.evaluate or StepIntegralField.read block reads: at
# 1,024 a block's twenty-odd (4 Gauss nodes, block) float64 temporaries fit a
# 2 MiB per-core L2.  The 4,926-row bounded-cone table read (best of 7 x 40,
# 2-core Xeon): 3.37 ms at 4,096, 3.07 at 2,048, 2.26 at 1,024, 2.84 at 512
# and 4.09 at 256, every size the same bits
_READ_BLOCK = 1024


@dataclass
class Trajectory:
    """Dense solution of an ODE system on the span actually covered, and the
    one reader of piecewise Hermite data.

    Values between knots come from Hermite interpolation on the bracketing
    step, which keeps downstream quadrature consistent with a single
    trajectory: the cubic ``hermite_value`` from the states ``ys`` and
    derivatives ``fs`` at both knots, or, where ``dfs`` holds the time
    derivative of ``fs`` at each knot, the quintic ``hermite_quintic_value``
    from (y, f, f'), of the integrator's order.  ``interpolate`` reads given
    steps, ``evaluate`` a batch of times, and ``__call__`` one time as a batch
    of one.
    """

    ts: np.ndarray
    ys: np.ndarray
    fs: np.ndarray
    event: DivergenceEvent | None = None
    n_steps: int = 0
    n_rejected: int = 0
    dfs: np.ndarray | None = None

    @property
    def completed(self):
        return self.event is None

    @property
    def t_end(self):
        """The last knot: where the integration stopped."""
        return float(self.ts[-1])

    def __call__(self, t):
        """State vector at time t: ``evaluate`` on a batch of one."""
        return self.evaluate([float(t)])[0]

    def evaluate(self, tq):
        """States at a 1-D array of times, shape (m, dim), each time read on
        the covered span through ``read_span``."""
        ts = self.ts
        tq = read_span(tq, *sorted((ts[0], ts[-1])))
        if len(ts) == 1:  # zero-span trajectory: the initial state
            return np.repeat(self.ys, len(tq), axis=0)
        k = self.bracket(tq)
        # in blocks that bound the temporaries of a long batch
        out = np.empty((len(tq), self.ys.shape[1]))
        for lo in range(0, len(tq), _READ_BLOCK):
            out[lo : lo + _READ_BLOCK] = self.interpolate(k[lo : lo + _READ_BLOCK], tq[lo : lo + _READ_BLOCK])
        return out

    def bracket(self, t):
        """Index k of the step from ts[k] to ts[k + 1] holding each of an array
        of times on the covered span (the last step holds the last knot)."""
        ts = self.ts
        s = 1.0 if ts[0] <= ts[-1] else -1.0  # searchsorted wants ascending keys
        return np.clip(np.searchsorted(s * ts, s * t, side="right") - 1, 0, len(ts) - 2)

    def interpolate(self, k, t):
        """The interpolant of step k[j], from ts[k[j]] to ts[k[j] + 1], read at
        t[..., j], shape t.shape + (dim,): no search and no clamp.  Each
        element rounds as the scalar kernel rounds it."""
        ts, ys, fs, dfs = self.ts, self.ys, self.fs, self.dfs
        c = k[:, None]
        t, t0, t1 = np.asarray(t)[..., None], ts[c], ts[c + 1]
        if dfs is None:
            return hermite_value(t, t0, t1, ys[k], ys[k + 1], fs[k], fs[k + 1])
        return hermite_quintic_value(t, t0, t1, ys[k], ys[k + 1], fs[k], fs[k + 1], dfs[k], dfs[k + 1])


# Dormand-Prince 5(4) pair, FSAL (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.5), as float tuples
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = tuple(
    b - bh
    for b, bh in zip(
        _DP_A[6] + (0.0,),
        (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40),
    )
)


class _NonFiniteStage(Exception):
    """A stage point left the finite numbers: the step is retried shorter."""


# every integration's absolute tolerance is rel_tol * ABS_PER_REL_TOL: one
# mixed error-control rule (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.4)
ABS_PER_REL_TOL = 1e-2


def abs_tolerance(rel_tol):
    """The absolute tolerance rel_tol * ABS_PER_REL_TOL; an InputError unless
    both are finite and positive."""
    abs_tol = rel_tol * ABS_PER_REL_TOL
    if not (0.0 < rel_tol < math.inf and abs_tol > 0):  # NaN fails too
        raise InputError(f"tolerances must be finite and positive: rel_tol {rel_tol}, abs_tol {abs_tol}")
    return abs_tol


def integrate_ode(acc, y0, t_span, rel_tol=1e-10):
    """Adaptive Dormand-Prince 5(4) with dense output for u'' = acc(t, u, v),
    stepped as the pair u' = v, v' = acc (Hairer, Norsett & Wanner, Solving
    ODEs I, sec. II.14).

    Each step runs on named Python floats: the state, the seven stages and the
    error estimate, each stage sum written out per component left to right
    over its tableau row; a stage's slope of u is the stage point's own v.
    No step builds an ndarray or loops over components: on a pair, numpy's
    per-call overhead or a loop's would cost more than the arithmetic.  A
    stage's checks are written into the step, so acc is its one Python call;
    min, max and abs are comparisons; the knots are flat float lists.

    Parameters
    ----------
    acc : callable
        ``acc(t, u, v) -> u''``, a float (checked on every call).  May raise
        :class:`RhsEvaluationError` to signal that (t, u, v) left the domain;
        the step is then shrunk and, on underflow, the failure becomes a
        :class:`DivergenceEvent` on the trajectory.  Raised at the initial
        state, before any step, it reaches the caller.  A non-finite stage
        point is never passed to it: the step is retried shorter.
    y0 : array_like
        Initial state (u0, v0), a pair of finite floats (an InputError otherwise).
    t_span : (t0, t1)
        Integration span, both ends finite (an InputError otherwise); t1 < t0
        integrates backwards.
    rel_tol : float
        Per-step local error control (RMS-weighted), mixed with the absolute
        tolerance rel_tol * ABS_PER_REL_TOL; both must be finite and positive
        (an InputError otherwise).

    Returns
    -------
    Trajectory
        Dense trajectory over the covered span, states (u, v) in ``ys`` and
        (v, u'') in ``fs``; ``trajectory.event`` is None
        iff t1 was reached, to within the step floor 1e-14 * max(1, |t|)
        (summed steps can round a few ulp short of t1, and the last knot
        then stays there).
    """
    abs_tol = abs_tolerance(rel_tol)
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise InputError(f"t_span must be finite, got {t_span}")
    y_arr = np.atleast_1d(np.asarray(y0, dtype=float))
    if y_arr.shape != (2,):
        raise InputError(f"initial state must be a pair of floats, got shape {y_arr.shape}")
    if not np.isfinite(y_arr).all():
        raise InputError("non-finite initial state")
    isfinite = math.isfinite

    u, v = y_arr.tolist()
    p0, q0 = v, acc(t0, u, v)
    if not isinstance(q0, float):
        raise InputError(f"acc must return a float, got {q0!r}")
    direction = 1.0 if t1 >= t0 else -1.0
    span = abs(t1 - t0)

    ts, us, vs, ps, qs = [t0], [u], [v], [p0], [q0]
    event, n_steps, n_rejected = None, 0, 0

    h = max(min(span / 100.0, 1.0), 1e-12 * span)
    t = t0
    min_h_floor = 1e-14

    # the tableau as locals: each stage sum below is spelled out left to right
    # over its row, one fixed order of IEEE operations whichever BLAS numpy loads
    (a10,) = _DP_A[1]
    a20, a21 = _DP_A[2]
    a30, a31, a32 = _DP_A[3]
    a40, a41, a42, a43 = _DP_A[4]
    a50, a51, a52, a53, a54 = _DP_A[5]
    a60, a61, a62, a63, a64, a65 = _DP_A[6]
    e0, e1, e2, e3, e4, e5, e6 = _DP_E
    _, c1, c2, c3, c4, c5, c6 = _DP_C

    # rest = |t1 - t|; 2 or 4 * 1e-14 * max(1, |t|) is 2 or 4 * floor, bit for bit
    while (rest := (t1 - t) * direction) > 0:
        if rest < h:
            h = rest
        floor = min_h_floor * (t if t > 1.0 else -t if t < -1.0 else 1.0)
        if h < floor:
            if rest < floor:
                break  # the summed steps rounded a few ulp short of t1: reached
            event = DivergenceEvent("step_underflow", t, np.array((u, v)), "step size underflow")
            break
        hd = h * direction
        try:
            # stage i is (p_i, q_i), the derivative of the state's (u, v) at
            # the stage point (u_i, p_i): p_i is the point's v, q_i its acc
            u1 = u + hd * (a10 * p0)
            p1 = v + hd * (a10 * q0)
            if not (isfinite(u1) and isfinite(p1)):
                raise _NonFiniteStage
            if not isinstance(q1 := acc(t + c1 * hd, u1, p1), float):
                raise InputError(f"acc must return a float, got {q1!r}")
            u2 = u + hd * (a20 * p0 + a21 * p1)
            p2 = v + hd * (a20 * q0 + a21 * q1)
            if not (isfinite(u2) and isfinite(p2)):
                raise _NonFiniteStage
            if not isinstance(q2 := acc(t + c2 * hd, u2, p2), float):
                raise InputError(f"acc must return a float, got {q2!r}")
            u3 = u + hd * (a30 * p0 + a31 * p1 + a32 * p2)
            p3 = v + hd * (a30 * q0 + a31 * q1 + a32 * q2)
            if not (isfinite(u3) and isfinite(p3)):
                raise _NonFiniteStage
            if not isinstance(q3 := acc(t + c3 * hd, u3, p3), float):
                raise InputError(f"acc must return a float, got {q3!r}")
            u4 = u + hd * (a40 * p0 + a41 * p1 + a42 * p2 + a43 * p3)
            p4 = v + hd * (a40 * q0 + a41 * q1 + a42 * q2 + a43 * q3)
            if not (isfinite(u4) and isfinite(p4)):
                raise _NonFiniteStage
            if not isinstance(q4 := acc(t + c4 * hd, u4, p4), float):
                raise InputError(f"acc must return a float, got {q4!r}")
            u5 = u + hd * (a50 * p0 + a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
            p5 = v + hd * (a50 * q0 + a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4)
            if not (isfinite(u5) and isfinite(p5)):
                raise _NonFiniteStage
            if not isinstance(q5 := acc(t + c5 * hd, u5, p5), float):
                raise InputError(f"acc must return a float, got {q5!r}")
            # row 6 holds the fifth-order weights: the last stage point is the
            # new state, and its derivative the next step's first stage (FSAL)
            un = u + hd * (a60 * p0 + a61 * p1 + a62 * p2 + a63 * p3 + a64 * p4 + a65 * p5)
            p6 = vn = v + hd * (a60 * q0 + a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5)
            if not (isfinite(un) and isfinite(vn)):
                raise _NonFiniteStage
            if not isinstance(q6 := acc(t + c6 * hd, un, vn), float):
                raise InputError(f"acc must return a float, got {q6!r}")
        except _NonFiniteStage:
            n_rejected += 1
            h *= 0.25
            continue
        except RhsEvaluationError as exc:
            # domain failure inside the step: shrink; underflow localizes it
            if h < 4.0 * floor:
                event = DivergenceEvent(exc.label, t, np.array((u, v)), exc.detail)
                break
            n_rejected += 1
            h *= 0.25
            continue

        # the weights' max(|u|, |un|) and max(|v|, |vn|), up to a zero's sign, lost in abs_tol + 0
        wu, wun = (u if u > 0 else -u), (un if un > 0 else -un)
        wv, wvn = (v if v > 0 else -v), (vn if vn > 0 else -vn)
        su = hd * (e0 * p0 + e1 * p1 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5 + e6 * p6) / (
            abs_tol + rel_tol * (wun if wun > wu else wu)
        )
        sv = hd * (e0 * q0 + e1 * q1 + e2 * q2 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6) / (
            abs_tol + rel_tol * (wvn if wvn > wv else wv)
        )
        err = math.sqrt((su * su + sv * sv) / 2)  # RMS

        # the factor min(hi, max(lo, fac)) as comparisons: a NaN fac is lo
        if err <= 1.0 or h <= 2.0 * floor:
            # the new state passed as a stage point; its acc may not
            if not isfinite(q6):
                event = DivergenceEvent("non_finite_state", t, np.array((u, v)))
                break
            t = t + hd
            u, v, p0, q0 = un, vn, p6, q6
            ts.append(t)
            us.append(u)
            vs.append(v)
            ps.append(p6)
            qs.append(q6)
            n_steps += 1
            fac = 0.9 * err ** -0.2 if err > 0 else 5.0
            h *= (fac if fac < 5.0 else 5.0) if fac > 0.2 else 0.2
        else:
            n_rejected += 1
            fac = 0.9 * err ** -0.2
            h *= (fac if fac < 1.0 else 1.0) if fac > 0.1 else 0.1

    return Trajectory(np.array(ts), np.column_stack((us, vs)), np.column_stack((ps, qs)), event, n_steps, n_rejected)
