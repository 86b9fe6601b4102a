"""Exact quadratic solutions  u(x) = <x, A x>/2 - F(lambda(A))  and their
certification, plus admissible-matrix sampling used by sweeps and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import QuadraticField
from .numerics import DomainError, as_sym_matrix, eig_sym
from .tau import admissible, cone_spec, operator_value, shrinker_residual

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

    @cached_property
    def eigenvalues(self):
        return eig_sym(self.A)

    @property
    def dim(self):
        return self.A.shape[0]


def build_quadratic(tp, A):
    """Construct the quadratic solution with Hessian A (A must be admissible)."""
    A = as_sym_matrix(A)
    eigs = eig_sym(A)
    if admissible(tp, eigs) is None:
        raise DomainError(
            f"matrix spectrum {eigs} inadmissible for branch {tp.branch.value}", value=float(eigs[0])
        )
    return QuadraticSolution(tp, A, -operator_value(tp, eigs))


def verify_quadratic(tp, A, points):
    """Max |shrinker residual| of the built solution over an (m, n) cloud of
    sample points, evaluated as one cloud."""
    sol = build_quadratic(tp, A)
    return float(np.max(np.abs(shrinker_residual(tp, sol.field, points)), initial=0.0))


def random_orthogonal(n, rng):
    """Haar-ish orthogonal matrix via QR of a Gaussian sample."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _eigenvalue_window(tp, margin, spread):
    spec = cone_spec(tp)
    if spec.kind == "interval":
        width = spec.hi - spec.lo
        return spec.lo + margin * width, spec.hi - margin * width
    if spec.kind == "halfline_above":
        return spec.lo + margin, spec.lo + margin + spread
    if spec.kind == "halfline_below":
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
