"""Geometry of gradient graphs {(x, Du(x))} in the doubled space with the
interpolating ambient form G = [[sin I, cos I], [cos I, sin I]]: induced
metric, normal projection, and the self-shrinker defect H + X^perp/2 as a
vector equation.

G is never built: every product with it is written in n x n blocks, so the
normal projection is one n x n solve against the induced metric.

Each function reads an (m, n) cloud on one field, or a (k, m, n) stack of
clouds on a stack of k ``fields.QuadraticField``s (Hessians and ambient
vectors stacked alike), or one point, read as a cloud of one
(``numerics.as_cloud``); the duality defect reads a Hessian or a (k, n, n)
stack.  Products, solves and inverses are stacked numpy and LAPACK calls that
run the single-point kernel on each row, so every row of a stacked read is
its point's read bit for bit.
"""

from __future__ import annotations

import numpy as np

from .fields import QuadraticField
from .numerics import DomainError, InputError, as_cloud, as_sym_matrix, eig_sym, row_dot
from .tau import Branch, _gradient_matrix, operator_value

__all__ = [
    "metric_duality_defect",
    "normal_project",
    "shrinker_defect",
]

FD_STEP = 1e-3  # central-difference step of D_x F(lambda(D^2 u)) in _mean_curvature


def _matvec(H, v):
    """H v row by row of stacked (..., n, n) matrices and (..., n) vectors."""
    return (H @ v[..., None])[..., 0]


def _metric(tp, H):
    """The induced metric sin (I + H^2) + 2 cos H of validated (..., n, n)
    Hessians: the pullback metric on the graph."""
    s, c = tp.sin_cos
    return s * (np.eye(H.shape[-1]) + H @ H) + 2.0 * c * H


def _normal(tp, H, V):
    """Normal parts of (..., 2n) ambient vectors at validated Hessians; a
    singular metric anywhere in the stack is a DomainError."""
    n = H.shape[-1]
    s, c = tp.sin_cos
    w = V[..., n:] - _matvec(H, V[..., :n])
    try:
        beta = np.linalg.solve(_metric(tp, H), (c * w + s * _matvec(H, w))[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"induced metric degenerate: {exc}") from exc
    return np.concatenate([-beta, w - _matvec(H, beta)], axis=-1)


def _mean_curvature(tp, field, x):
    """The ambient vectors V = (0, D_x F(lambda(D^2 u))) at the points x, whose
    normal parts are the mean curvature vectors: the 2n stencil points of
    every point are read as one cloud.  On a ``QuadraticField`` every
    difference is +0.0: its k spectra get the stencil's cone check once, and
    V is zero."""
    n = x.shape[-1]
    if isinstance(field, QuadraticField):
        operator_value(tp, eig_sym(field.A))
        return np.zeros((*x.shape[:-1], 2 * n))
    steps = FD_STEP * np.eye(n)
    stencil = np.concatenate([x[..., None, :] + steps, x[..., None, :] - steps], axis=-2)
    spectra = eig_sym(field.hessian(stencil.reshape(*x.shape[:-2], -1, n)))
    F = operator_value(tp, spectra).reshape(*x.shape[:-1], 2 * n)
    return np.concatenate([np.zeros(x.shape), (F[..., :n] - F[..., n:]) / (2.0 * FD_STEP)], axis=-1)


def metric_duality_defect(tp, H):
    """Sup-norm gap between the inverse induced metric and dF/dH: a float, or
    (k,) for a (k, n, n) stack of Hessians, each row its matrix's gap bit for bit.

    Both are diagonal in the Hessian eigenbasis with entries
    1/(sin (1+lam^2) + 2 cos lam) and f'(lam); the identity is exact, so the
    defect measures eigensolver and inversion error only.  H is validated
    once; the eigen-solve comes first, so an inadmissible H raises there,
    before any metric is inverted; a singular metric is a DomainError.
    """
    H = as_sym_matrix(H)
    dF = _gradient_matrix(tp, *np.linalg.eigh(H))
    try:
        ginv = np.linalg.inv(_metric(tp, H))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"induced metric degenerate: {exc}") from exc
    gap = np.max(np.abs(ginv - dF), axis=(-2, -1))
    return float(gap) if gap.ndim == 0 else gap


def normal_project(tp, H, V):
    """Component of an ambient vector orthogonal (w.r.t. the ambient form) to
    the graph tangent space at Hessian H; or of each of a (..., 2n) stack of
    vectors at its own Hessian of a (..., n, n) stack.

    With the tangent frame E = (I, H), V = (v1, v2) splits exactly as
    E v1 + (0, w), w = v2 - H v1, and the tangent part E v1 drops out.  The
    rest is projected by one n x n solve: the induced metric E^T G E times
    beta equals E^T G (0, w) = (cos I + sin H) w, and the normal part is
    (0, w) - E beta.  Along a quadratic, X = (x, A x) gives w = 0 exactly.
    A non-finite entry of V is an InputError.
    """
    H = as_sym_matrix(H)
    V = np.asarray(V, dtype=float)
    shape = H.shape[:-2] + (2 * H.shape[-1],)
    if V.shape != shape:
        raise InputError(f"expected ambient vectors of shape {shape}, got {V.shape}")
    if not np.isfinite(V).all():
        raise InputError("ambient vectors must be finite")
    return _normal(tp, H, V)


def shrinker_defect(tp, field, x):
    """Norm of  H + (1/2) X^perp  at the graph point over x, or at each point
    of an (m, n) cloud, (m,), or of a (k, m, n) stack of clouds, (k, m).

    Vanishes along self-shrinkers.  H is the normal part of
    V = (0, D_x[F(lambda(D^2 u))]), whose derivative is taken by central
    differences (no ill-conditioned eigenvector derivatives at eigenvalue
    crossings); the projection is linear, so the defect vector W is the
    normal part of V + X/2: one induced metric and one stacked solve on the
    Hessians at x, read and validated once.  For branches whose ambient form
    is positive definite the ambient norm sqrt(sin (|w1|^2 + |w2|^2) +
    2 cos w1.w2) of W = (w1, w2) is used; on the indefinite branches the
    Euclidean norm of the defect vector is reported (a residual must vanish
    iff the vector does).  The value never reads u itself, so it is exactly
    invariant under constant shifts of the potential.  On a quadratic W is
    exactly 0: F(lambda(D^2 u)) is constant, so V = 0 and no stencil is
    read, and X is tangent, split off exactly by the projection.  A NaN or
    infinite coordinate is an InputError
    (``numerics.as_cloud``), and so is a point whose graph point (x, Du(x)),
    defect vector or norm is not finite (a gradient or a product that
    overflows): the first such point is named.
    """
    x, unwrap = as_cloud(x, field.dim, field.stack)
    n = x.shape[-1]
    H = as_sym_matrix(field.hessian(x))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by point
        X = np.concatenate([x, field.gradient(x)], axis=-1)
        W = _normal(tp, H, _mean_curvature(tp, field, x) + 0.5 * X)
        if tp.branch in (Branch.ATAN, Branch.SLAG):
            s, c = tp.sin_cos
            w1, w2 = W[..., :n], W[..., n:]
            sq = s * (row_dot(w1, w1) + row_dot(w2, w2)) + 2.0 * c * row_dot(w1, w2)
            d = np.sqrt(np.maximum(sq, 0.0))  # rounding below 0 is 0; a NaN stays, refused below
        else:
            d = np.sqrt(row_dot(W, W))
    bad = ~np.isfinite(d)  # as it is wherever X or W is not finite
    if bad.any():
        raise InputError(f"graph point, defect vector or its norm not finite at x = {x[bad][0].tolist()}")
    return unwrap(d)
