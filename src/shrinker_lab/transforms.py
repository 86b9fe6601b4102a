"""Solution-pipeline transforms as numerical operations: one-dimensional
Legendre duality, convexifying shifts, the bounded-cone normalization used by
the counterexample construction, and parabolic self-similar extension in
time.

All transforms are lazy views over the backing field (exact chain rule), so
pipelines do not accumulate interpolation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import AffineScaledField, Table1DField
from .numerics import MAX_GRID_POINTS, DomainError, InputError, as_count, as_positive, eig_sym, row_dot
from .tau import Branch, phase, operator_value

__all__ = [
    "Transform1DResult",
    "legendre_1d",
    "DualEquationCheck",
    "legendre_dual_residual",
    "convexify_shift",
    "normalize_counterexample_branch",
    "SelfSimilarSample",
    "self_similar_extension",
]


@dataclass
class Transform1DResult:
    """Legendre dual of a strictly convex 1-D potential, tabulated on the
    primal nodes x_i, and its involution defect.

    The dual field's nodes ``field.ts`` are y_i = w'(x_i), and it carries
    exact-at-sample values ``field.vals``, slopes ``field.slopes`` (= the
    primal nodes) and curvatures ``field.curvs`` (= 1/w''(x_i)).
    """

    field: Table1DField
    involution_defect: float


def _finite_interval(t0, t1):
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and t0 < t1 < math.inf):  # NaN fails too
        raise InputError(f"need a finite interval t0 < t1, got [{t0}, {t1}]")
    return t0, t1


def _dual_table(field, xs):
    """The Legendre dual of a 1-D field tabulated on the nodes xs: w, w' and
    w'' read as one cloud each, y_i = w'(x_i), w*(y_i) = x_i y_i - w(x_i),
    slope x_i and curvature 1/w''(x_i); no inversion is needed.  A w'' that
    is not positive, or a w' that does not strictly increase from node to
    node, is a DomainError."""
    nodes = xs[:, None]
    vals, ys, curv = field.value(nodes), field.gradient(nodes)[:, 0], field.hessian(nodes)[:, 0, 0]
    bad = np.flatnonzero(curv <= 0.0)
    if len(bad):
        x, c = float(xs[bad[0]]), float(curv[bad[0]])
        raise DomainError(f"w''({x}) = {c} <= 0: not strictly convex", value=c, location=x)
    rise = np.diff(ys)
    bad = np.flatnonzero(rise <= 0.0)
    if len(bad):
        x, r = float(xs[bad[0] + 1]), float(rise[bad[0]])
        raise DomainError(f"w' rises by {r} <= 0 into x = {x}: not strictly convex", value=r, location=x)
    return Table1DField(ys, xs * ys - vals, xs, 1.0 / curv)


def legendre_1d(field, t0, t1, num=801):
    """Legendre transform of a strictly convex 1-D field on [t0, t1], tabulated
    on the ``num`` uniform nodes x_i (``_dual_table``).

    The involution defect re-transforms the dual on ``num`` uniform dual nodes
    and reports the sup gap to the input at the midpoints of the primal cells
    from x_2 to x_{num-3}, between the nodes of both tables; it needs ``num``
    >= 6, so that one exists.  An interval that is not finite is an
    InputError, and so is a ``num`` that is not an integer
    (``numerics.as_count``).
    """
    if field.dim != 1:
        raise InputError("legendre_1d expects a one-dimensional field")
    t0, t1 = _finite_interval(t0, t1)
    num = as_count(num, "num")
    if num < 6:
        raise InputError(f"{num} samples leave the involution check no interior sample")
    xs = np.linspace(t0, t1, num)
    dual = _dual_table(field, xs)
    back = _dual_table(dual, np.linspace(dual.ts[0], dual.ts[-1], num))
    mids = (0.5 * (xs[2 : num - 3] + xs[3 : num - 2]))[:, None]
    return Transform1DResult(dual, float(np.max(np.abs(back.value(mids) - field.value(mids)))))


@dataclass
class DualEquationCheck:
    """Residual sups for the dual pipeline of a convexified solution."""

    dual_equation_sup: float
    hessian_inverse_defect: float
    phase_drift_sup: float
    transform: Transform1DResult


def legendre_dual_residual(w_field, t0, t1, grid_step=1e-2):
    """Check the dual of a 1-D solution of the reciprocal-sum equation.

    One ``legendre_1d`` call on the nodes ``grid_step`` apart gives the dual
    and its involution defect; an interval that is not finite, a step that is
    not finite and positive (``numerics.as_positive``), or more than
    MAX_GRID_POINTS nodes is an InputError, before any node is formed.  The
    dual must satisfy  sqrt(2) w*'' = <y, Dw*>/2 - w*;
    its Hessian must be the reciprocal of the primal one (checked against
    (x_{i+1} - x_{i-1}) / (y_{i+1} - y_{i-1})); and its phase h must satisfy
    the drift equation  tr D^2 h = K <y, Dh>  with K = sqrt(2)/4.  The drift
    check takes central differences of step h = min(1e-3, dy), dy the smallest
    dual spacing, from three phase reads of the dual table at y - h, y and
    y + h, on the dual nodes past a margin of max(4, ceil(4e-3 / dy) + 2)
    nodes at either end; a grid that leaves none is an InputError.
    """
    t0, t1 = _finite_interval(t0, t1)
    grid_step = as_positive(grid_step, "grid_step")
    if not (t1 - t0) / grid_step + 1 <= MAX_GRID_POINTS:  # an overflowing width fails too
        raise InputError(f"grid_step {grid_step} puts more than {MAX_GRID_POINTS} points on [{t0}, {t1}]")
    num = int(round((t1 - t0) / grid_step)) + 1
    res = legendre_1d(w_field, t0, t1, num=num)
    ys, vals, xs, hess = res.field.ts, res.field.vals, res.field.slopes, res.field.curvs

    dual_equation_sup = float(np.max(np.abs(math.sqrt(2.0) * hess - (0.5 * ys * xs - vals))))

    fd_hess = (xs[2:] - xs[:-2]) / (ys[2:] - ys[:-2])
    hessian_inverse_defect = float(np.max(np.abs(fd_hess - hess[1:-1])))

    dy = float(np.min(np.diff(ys)))
    h = min(1e-3, dy)
    margin = max(4, int(math.ceil(4 * 1e-3 / dy)) + 2)
    if not len(ys) > 2 * margin:
        raise InputError(f"{len(ys)} samples leave the drift check no sample {margin} from either end")
    y = ys[margin:-margin, None]
    lo, mid, hi = phase(res.field, y - h), phase(res.field, y), phase(res.field, y + h)
    drift = (hi - 2.0 * mid + lo) / (h * h) - math.sqrt(2.0) / 4.0 * (y[:, 0] * ((hi - lo) / (2.0 * h)))
    return DualEquationCheck(dual_equation_sup, hessian_inverse_defect, float(np.max(np.abs(drift))), res)


def convexify_shift(tp, field):
    """Shift  w = u + k|x|^2/2  making upper-cone solutions strictly convex.

    k = 1 on the HARM branch, k = a - b on the LOG branch; the phase is
    invariant under the shift (the quadratic term cancels exactly), and the
    Hessian spectrum translates by k.
    """
    if tp.cone_side != "upper":
        raise DomainError("lower-cone input: the shift convexifies upper-cone solutions only; negate first (u -> -k|x|^2 - u)")
    if tp.branch not in (Branch.HARM, Branch.LOG):
        raise InputError(f"convexifying shift defined for HARM and LOG only, not {tp.branch.value}")
    return AffineScaledField(field, outer=1.0, inner=1.0, quad=tp.edge_sums[0], offset=0.0)  # HARM: 1 - 0


def normalize_counterexample_branch(tp, field):
    """Exact affine map from the logit form, with Hessian in (0, 1), back to
    the bounded-cone equation.

    It inverts  w(x) = k u(c2 x) + (s/2)|x|^2  with k = 2b/sqrt(a^2+1),
    c2 = (a^2+1)^{1/4}/(2b), s = (a+b)/(2b), so
    u(y) = w(y/c2)/k - ((a+b)/2)|y|^2.
    """
    k, c2 = tp.neg_scaling
    mus = eig_sym(field.hessian(np.zeros(field.dim)))
    if np.any(mus <= 0.0) or np.any(mus >= 1.0):
        raise DomainError(f"input Hessian spectrum {mus} not inside (0, 1)")
    return AffineScaledField(field, outer=1.0 / k, inner=1.0 / c2, quad=-tp.edge_sums[1], offset=0.0)


@dataclass(frozen=True)
class SelfSimilarSample:
    v: float
    v_t: float
    defect: float


def self_similar_extension(tp, field, x, t):
    """Parabolic extension  v(x, t) = -t u(x / sqrt(-t))  for t < 0.

    v_t follows the closed form  -u + <Du, x/sqrt(-t)>/2, and the defect
    v_t - F(lambda(D^2 v)) equals minus the equation residual of u at the
    rescaled point; the Hessian spectrum is invariant under the scaling.
    ``x`` is one point and ``t`` one time, or (k, n) points and (k,) times
    on a stack of k quadratic fields, giving (k,) values; each point is read
    as a cloud of one, so a stack costs one value, gradient and eigen read.
    A non-finite t or x / sqrt(-t) is an InputError (x: ``numerics.as_cloud``),
    and so is a point whose v, v_t or defect is not finite (a value or a
    product that overflows): the first such (x, t) is named.
    """
    t, x = np.asarray(t, dtype=float), np.atleast_1d(np.asarray(x, dtype=float))
    if not ((t < 0.0) & np.isfinite(t)).all():  # NaN and -inf fail too
        raise InputError(f"self-similar extension needs finite t < 0, got {t}")
    xi = x / np.sqrt(-t)[..., None]
    cloud = xi[..., None, :]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by point
        u_val, grad = field.value(cloud)[..., 0], field.gradient(cloud)[..., 0, :]
        v_t = -u_val + 0.5 * row_dot(grad, xi)
        sample = (-t * u_val, v_t, v_t - operator_value(tp, eig_sym(field.hessian(cloud)[..., 0, :, :])))
    bad = np.flatnonzero(~np.isfinite(np.stack(sample)).all(axis=0))
    if len(bad):
        raise InputError(f"self-similar extension not finite at x = {x.reshape(-1, x.shape[-1])[bad[0]].tolist()}, "
                         f"t = {t.reshape(-1)[bad[0]]}")
    return SelfSimilarSample(*(sample if t.ndim else map(float, sample)))
