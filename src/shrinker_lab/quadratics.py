"""Exact quadratic solutions  u(x) = <x, A x>/2 - F(lambda(A))  and their
certification, plus admissible-matrix sampling used by sweeps and tests.
Each takes one matrix or a (k, n, n) stack through the same kernels, so a
matrix is a stack of one and each matrix of a stack gets its own result bits.
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
    "admissible_draw",
    "admissible_matrix",
    "random_admissible_matrix",
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
    c: float  # (k,) for a (k, n, n) stack

    @cached_property
    def field(self):
        return QuadraticField(self.A, self.c)


def build_quadratic(tp, A):
    """Construct the quadratic solution with Hessian A, or their stack from a
    stack of Hessians in one eigen-solve (A must be admissible; ``operator_value``
    raises the "inadmissible" DomainError of the first matrix that is not)."""
    A = as_sym_matrix(A)
    return QuadraticSolution(tp, A, -operator_value(tp, eig_sym(A)))


def verify_quadratic(sol, points):
    """Max |shrinker residual| of a built solution over an (m, n) cloud of
    sample points, or of each solution of a stack over its own cloud of a
    (k, m, n) stack, as (k,): the sweeps draw a block of trials, then read it.

    D^2u = A everywhere, so F(lambda(D^2u)) is -sol.c, read from
    ``build_quadratic``'s one eigen-solve; the clouds cost one ``phase`` call.
    """
    sup = np.max(np.abs(np.expand_dims(-sol.c, -1) - phase(sol.field, points)), axis=-1, initial=0.0)
    return float(sup) if sup.ndim == 0 else sup


def _eigenvalue_window(tp):
    """Where sampled spectra lie: the selected cone component less a margin
    at each finite end (0.15 of a bounded one's width), 4 wide on an unbounded one."""
    margin, spread = 0.15, 4.0
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


def admissible_draw(tp, n, rng):
    """What one admissible matrix draws from ``rng``, in order: its spectrum,
    uniform inside the selected cone component with a safety margin (keeps f'
    moderate for tight residual targets), then a Gaussian (n, n) sample."""
    lo, hi = _eigenvalue_window(tp)
    return rng.uniform(lo, hi, size=n), rng.standard_normal((n, n))


def admissible_matrix(spectrum, gaussian):
    """The one builder of sampled matrices: A = Q diag(spectrum) Q^T,
    symmetrized, Q the Haar-ish orthogonal factor of ``gaussian``'s QR; or the
    stack of them from (k, n) spectra and (k, n, n) samples, in one QR and one
    product."""
    q, r = np.linalg.qr(gaussian)
    Q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]
    A = (Q * spectrum[..., None, :]) @ Q.swapaxes(-1, -2)
    return 0.5 * (A + A.swapaxes(-1, -2))


def random_admissible_matrix(tp, n, rng):
    """``admissible_matrix`` of one ``admissible_draw``: the sweeps draw
    first, then build a stack of these."""
    return admissible_matrix(*admissible_draw(tp, n, rng))
