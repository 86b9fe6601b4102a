"""Exact quadratic solutions  u(x) = <x, A x>/2 - F(lambda(A))  and their
certification, plus admissible-matrix sampling used by sweeps and tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import QuadraticField
from .numerics import as_sym_matrix, eig_sym
from .tau import cone_spec, operator_value, phase

__all__ = [
    "QuadraticSolution",
    "build_quadratic",
    "verify_quadratic",
    "random_admissible_matrix",
    "random_orthogonal",
]


@dataclass(frozen=True)
class QuadraticSolution:
    """Quadratic potential solving the self-shrinker equation exactly.

    The constant is pinned to  c = -F(lambda(A)): substituting the quadratic
    into the equation leaves  -u + <x, Du>/2 = -c  at every x, which matches
    the operator value iff c has that value.
    """

    tp: object
    A: np.ndarray
    c: float

    @cached_property
    def field(self):
        return QuadraticField(self.A, self.c)

    @property
    def dim(self):
        return self.A.shape[0]


def build_quadratic(tp, A):
    """Construct the quadratic solution with Hessian A (A must be admissible;
    ``operator_value`` raises the "inadmissible" DomainError otherwise)."""
    A = as_sym_matrix(A)
    return QuadraticSolution(tp, A, -operator_value(tp, eig_sym(A)))


def verify_quadratic(sol, points):
    """Max |shrinker residual| of a built solution over an (m, n) cloud of
    sample points.

    D^2u = A everywhere, so F(lambda(D^2u)) is -sol.c, read from
    ``build_quadratic``'s one eigen-solve; the cloud costs one ``phase`` call.
    """
    return float(np.max(np.abs(-sol.c - phase(sol.field, points)), initial=0.0))


def random_orthogonal(n, rng):
    """Haar-ish orthogonal matrix via QR of a Gaussian sample."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _eigenvalue_window(tp, margin, spread):
    spec = cone_spec(tp)
    lo_finite, hi_finite = math.isfinite(spec.lo), math.isfinite(spec.hi)
    if lo_finite and hi_finite:
        width = spec.hi - spec.lo
        return spec.lo + margin * width, spec.hi - margin * width
    if lo_finite:
        return spec.lo + margin, spec.lo + margin + spread
    if hi_finite:
        return spec.hi - margin - spread, spec.hi - margin
    return -spread / 2.0, spread / 2.0


def random_admissible_matrix(tp, n, rng, margin=0.15, spread=4.0):
    """Random symmetric matrix whose spectrum sits inside the selected cone
    component with a safety margin (keeps f' moderate for tight residual
    targets)."""
    lo, hi = _eigenvalue_window(tp, margin, spread)
    lams = rng.uniform(lo, hi, size=n)
    Q = random_orthogonal(n, rng)
    A = (Q * lams) @ Q.T
    return 0.5 * (A + A.T)
