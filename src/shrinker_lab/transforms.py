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

from .fields import AffineScaledField, CallableField, Table1DField
from .numerics import DomainError, InputError, eig_sym, invert_monotone
from .tau import Branch, phase, operator_value, weighted_laplace_residual

__all__ = [
    "Transform1DResult",
    "legendre_1d",
    "DualEquationCheck",
    "legendre_dual_residual",
    "convexify_shift",
    "logit_equation_residual",
    "normalize_counterexample_branch",
    "SelfSimilarSample",
    "self_similar_extension",
]


@dataclass
class Transform1DResult:
    """Legendre dual of a strictly convex 1-D potential on a grid.

    ``inverse_map[i]`` is the point x with w'(x) = y_grid[i]; the dual field
    carries exact-at-sample values, slopes (= inverse map), and curvatures
    (= 1/w''(x(y))).
    """

    y_grid: np.ndarray
    dual_values: np.ndarray
    inverse_map: np.ndarray
    dual_hessian: np.ndarray
    field: Table1DField
    involution_defect: float | None = None


def legendre_1d(field, t0, t1, num=801, check_involution=True):
    """Legendre transform of a strictly convex 1-D field on [t0, t1].

    y = w'(x),  w*(y) = x y - w(x); the inverse map comes from monotone
    inversion of w' per dual sample.  The involution defect re-transforms the
    dual and reports the sup gap to the input over interior samples; it needs
    ``num`` >= 5, so that one exists.
    """
    if field.dim != 1:
        raise InputError("legendre_1d expects a one-dimensional field")
    t0, t1 = float(t0), float(t1)
    if not t1 > t0:
        raise InputError(f"need t1 > t0, got [{t0}, {t1}]")
    if check_involution and num < 5:
        raise InputError(f"{num} samples leave the involution check no interior sample")
    xs = np.linspace(t0, t1, num)
    curv = np.array([field.hessian([x])[0, 0] for x in xs])
    bad = np.where(curv <= 0.0)[0]
    if len(bad):
        x, c = float(xs[bad[0]]), float(curv[bad[0]])
        raise DomainError(f"w''({x}) = {c} <= 0: not strictly convex", value=c, location=x)

    def wprime(x):
        return float(field.gradient([x])[0])

    y0, y1 = wprime(t0), wprime(t1)
    ys = np.linspace(y0, y1, num)
    x_of_y = np.empty(num)
    x_of_y[0] = t0
    x_of_y[-1] = t1
    seed = t0
    for i in range(1, num - 1):
        seed = invert_monotone(
            wprime,
            ys[i],
            t0,
            t1,
            dfn=lambda x: float(field.hessian([x])[0, 0]),
            seed=seed,
        )
        x_of_y[i] = seed
    dual_vals = np.array([x_of_y[i] * ys[i] - field.value([x_of_y[i]]) for i in range(num)])
    dual_hess = np.array([1.0 / float(field.hessian([x])[0, 0]) for x in x_of_y])
    dual_field = Table1DField(ys, dual_vals, x_of_y, dual_hess)
    result = Transform1DResult(ys, dual_vals, x_of_y, dual_hess, dual_field)

    if check_involution:
        back = legendre_1d(dual_field, y0, y1, num=num, check_involution=False)
        interior = slice(2, num - 2)
        defect = 0.0
        for x in xs[interior]:
            defect = max(defect, abs(back.field.value([x]) - field.value([x])))
        result.involution_defect = float(defect)
    return result


@dataclass
class DualEquationCheck:
    """Residual sups for the dual pipeline of a convexified solution."""

    dual_equation_sup: float
    hessian_inverse_defect: float
    phase_drift_sup: float
    transform: Transform1DResult


def legendre_dual_residual(w_field, t0, t1, grid_step=1e-2):
    """Check the dual of a 1-D solution of the reciprocal-sum equation.

    The dual must satisfy  sqrt(2) w*'' = <y, Dw*>/2 - w*; its Hessian must be
    the reciprocal of the primal one (verified against a central difference of
    the inverse map); and its phase h must satisfy the drift equation
    tr D^2 h = K <y, Dh> with K = sqrt(2)/4, on the dual samples past a margin
    of max(4, ceil(4e-3 / dy) + 2) samples at either end (dy the dual step); a
    grid that leaves none is an InputError.
    """
    num = int(round((float(t1) - float(t0)) / grid_step)) + 1
    res = legendre_1d(w_field, t0, t1, num=num, check_involution=False)
    ys, vals, xs, hess = res.y_grid, res.dual_values, res.inverse_map, res.dual_hessian

    dual_eq = np.abs(math.sqrt(2.0) * hess - (0.5 * ys * xs - vals))
    dual_equation_sup = float(np.max(dual_eq))

    dy = ys[1] - ys[0]
    fd_hess = (xs[2:] - xs[:-2]) / (2.0 * dy)
    hessian_inverse_defect = float(np.max(np.abs(fd_hess - hess[1:-1])))

    phi_field = CallableField(1, lambda y: phase(res.field, y), fd_step=min(1e-3, dy))
    margin = max(4, int(math.ceil(4 * 1e-3 / dy)) + 2)
    if not len(ys) > 2 * margin:
        raise InputError(f"{len(ys)} samples leave the drift check no sample {margin} from either end")
    drift_sup = 0.0
    for y in ys[margin:-margin]:
        r = weighted_laplace_residual(phi_field, math.sqrt(2.0) / 4.0, [y])
        drift_sup = max(drift_sup, abs(r))
    return DualEquationCheck(dual_equation_sup, hessian_inverse_defect, drift_sup, res)


def convexify_shift(tp, field):
    """Shift  w = u + k|x|^2/2  making upper-cone solutions strictly convex.

    k = 1 on the HARM branch, k = a - b on the LOG branch; the phase is
    invariant under the shift (the quadratic term cancels exactly), and the
    Hessian spectrum translates by k.
    """
    if tp.cone_side != "upper":
        raise DomainError("lower-cone input: the shift convexifies upper-cone solutions only; negate first (u -> -k|x|^2 - u)")
    if tp.branch is Branch.HARM:
        k = 1.0
    elif tp.branch is Branch.LOG:
        k = tp.a - tp.b
    else:
        raise InputError(f"convexifying shift defined for HARM and LOG only, not {tp.branch.value}")
    return AffineScaledField(field, outer=1.0, inner=1.0, quad=k, offset=0.0)


def logit_equation_residual(field, x):
    """Residual of  sum ln(mu_i / (1 - mu_i)) = phase  for 0 < D^2 w < I."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mus = eig_sym(field.hessian(x))
    if np.any(mus <= 0.0) or np.any(mus >= 1.0):
        raise DomainError(f"Hessian spectrum {mus} outside (0, 1) at {x}", location=x)
    lhs = float(np.sum(np.log(mus) - np.log1p(-mus)))
    return float(lhs - phase(field, x))


def _neg_constants(tp):
    if tp.branch is not Branch.NEG:
        raise InputError(f"normalization defined on the NEG branch, not {tp.branch.value}")
    a, b = tp.a, tp.b
    k = 2.0 * b / tp.sqrt_a2p1
    c2 = tp.sqrt_a2p1 ** 0.5 / (2.0 * b)
    return a, b, k, c2


def normalize_counterexample_branch(tp, field):
    """Exact affine map from the logit form, with Hessian in (0, 1), back to
    the bounded-cone equation.

    It inverts  w(x) = k u(c2 x) + (s/2)|x|^2  with k = 2b/sqrt(a^2+1),
    c2 = (a^2+1)^{1/4}/(2b), s = (a+b)/(2b), so
    u(y) = w(y/c2)/k - ((a+b)/2)|y|^2.
    """
    a, b, k, c2 = _neg_constants(tp)
    mus = eig_sym(field.hessian(np.zeros(field.dim)))
    if np.any(mus <= 0.0) or np.any(mus >= 1.0):
        raise DomainError(f"input Hessian spectrum {mus} not inside (0, 1)")
    return AffineScaledField(field, outer=1.0 / k, inner=1.0 / c2, quad=-(a + b), offset=0.0)


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
    """
    t = float(t)
    if t >= 0.0:
        raise InputError(f"self-similar extension needs t < 0, got {t}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    xi = x / math.sqrt(-t)
    u_val = field.value(xi)
    grad = field.gradient(xi)
    v = -t * u_val
    v_t = -u_val + 0.5 * float(grad @ xi)
    F = operator_value(tp, eig_sym(field.hessian(xi)))
    return SelfSimilarSample(v=float(v), v_t=float(v_t), defect=float(v_t - F))
