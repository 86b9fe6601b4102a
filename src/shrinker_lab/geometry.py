"""Geometry of gradient graphs {(x, Du(x))} in the doubled space with the
interpolating ambient form G = [[sin I, cos I], [cos I, sin I]]: induced
metric, normal projection, mean curvature, and the self-shrinker defect as a
vector equation.

G is never built: every product with it is written in n x n blocks, so the
normal projection is one n x n solve against the induced metric.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DomainError, InputError, as_sym_matrix, eig_sym
from .tau import Branch, operator_gradient_matrix, operator_value

__all__ = [
    "induced_metric",
    "metric_duality_defect",
    "normal_project",
    "mean_curvature",
    "shrinker_defect",
]

FD_STEP = 1e-3  # central-difference step of D_x F(lambda(D^2 u)) in mean_curvature


def induced_metric(tp, H):
    """Pullback metric on the graph:  sin (I + H^2) + 2 cos H."""
    H = as_sym_matrix(H)
    s, c = tp.sin_cos
    n = H.shape[0]
    return s * (np.eye(n) + H @ H) + 2.0 * c * H


def metric_duality_defect(tp, H):
    """Sup-norm gap between the inverse induced metric and dF/dH.

    Both are diagonal in the Hessian eigenbasis with entries
    1/(sin (1+lam^2) + 2 cos lam) and f'(lam); the identity is exact, so the
    defect measures eigensolver and inversion error only.  The one eigen-solve,
    in :func:`operator_gradient_matrix`, comes first: an inadmissible H
    raises there, before its metric is inverted.
    """
    H = as_sym_matrix(H)
    dF = operator_gradient_matrix(tp, H)
    try:
        ginv = np.linalg.inv(induced_metric(tp, H))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"induced metric degenerate: {exc}") from exc
    return float(np.max(np.abs(ginv - dF)))


def normal_project(tp, H, V):
    """Component of an ambient vector orthogonal (w.r.t. the ambient form) to
    the graph tangent space at Hessian H.

    With the tangent frame E = (I, H), V = (v1, v2) splits exactly as
    E v1 + (0, w), w = v2 - H v1, and the tangent part E v1 drops out.  The
    rest is projected by one n x n solve: the induced metric E^T G E times
    beta equals E^T G (0, w) = (cos I + sin H) w, and the normal part is
    (0, w) - E beta.  Along a quadratic, X = (x, A x) gives w = 0 exactly.
    """
    H = as_sym_matrix(H)
    V = np.asarray(V, dtype=float)
    n = H.shape[0]
    if V.shape != (2 * n,):
        raise InputError(f"expected an ambient vector of length {2 * n}, got {V.shape}")
    s, c = tp.sin_cos
    w = V[n:] - H @ V[:n]
    try:
        beta = np.linalg.solve(induced_metric(tp, H), c * w + s * (H @ w))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"induced metric degenerate: {exc}") from exc
    return np.concatenate([-beta, w - H @ beta])


def mean_curvature(tp, field, x):
    """Mean curvature vector of the gradient graph at (x, Du(x)).

    The ambient divergence reduces to the normal projection of
    (0, D_x[F(lambda(D^2 u))]); the derivative of the composite scalar is taken
    by central differences, which avoids ill-conditioned eigenvector
    derivatives at eigenvalue crossings.  The 2n stencil points
    x +- FD_STEP e_i are read as one cloud, one stacked eigen-solve and one
    ``operator_value``: the points and arithmetic of ``numerics.fd_gradient``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(x)
    steps = FD_STEP * np.eye(n)
    F = operator_value(tp, eig_sym(field.hessian(np.vstack([x + steps, x - steps]))))
    V = np.concatenate([np.zeros(n), (F[:n] - F[n:]) / (2.0 * FD_STEP)])
    return normal_project(tp, field.hessian(x), V)


def shrinker_defect(tp, field, x):
    """Norm of  H + (1/2) X^perp  at the graph point over x.

    Vanishes along self-shrinkers.  For branches whose ambient form is
    positive definite the ambient norm sqrt(sin (|w1|^2 + |w2|^2) +
    2 cos w1.w2) of W = (w1, w2) is used; on the indefinite branches the
    Euclidean norm of the defect vector is reported (a residual must vanish
    iff the vector does).  The value never reads u itself, so it is exactly
    invariant under constant shifts of the potential.  On a quadratic both
    terms are exactly 0: X is tangent, split off exactly by
    :func:`normal_project`, and F(lambda(D^2 u)) is constant, so its central
    difference is 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    H_vec = mean_curvature(tp, field, x)
    Hmat = field.hessian(x)
    X = np.concatenate([x, field.gradient(x)])
    W = H_vec + 0.5 * normal_project(tp, Hmat, X)
    if tp.branch in (Branch.ATAN, Branch.SLAG):
        s, c = tp.sin_cos
        w1, w2 = W[: len(x)], W[len(x):]
        return float(math.sqrt(max(0.0, s * float(w1 @ w1 + w2 @ w2) + 2.0 * c * float(w1 @ w2))))
    return float(np.linalg.norm(W))
