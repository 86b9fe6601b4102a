"""Exact quadratic solutions  u(x) = <x, A x>/2 - F(lambda(A))  and their
certification, plus admissible-matrix sampling used by sweeps and tests.
A solution is its ``fields.QuadraticField``.  Each takes one matrix or a
(k, n, n) stack through the same kernels, so a matrix is a stack of one and
each matrix of a stack gets its own result bits.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import QuadraticField
from .numerics import as_count, as_sym_matrix, eig_sym
from .tau import cone_spec, operator_value, phase

__all__ = [
    "build_quadratic",
    "verify_quadratic",
    "admissible_draw",
    "admissible_matrix",
    "random_admissible_matrix",
    "scaled_uniform",
]


def build_quadratic(tp, A):
    """The ``QuadraticField`` with Hessian A, or their stack from a stack of
    Hessians in one eigen-solve (A must be admissible; ``operator_value``
    raises the "inadmissible" DomainError of the first matrix that is not).

    The constant is pinned to  c = -F(lambda(A)): substituting the quadratic
    into the equation leaves  -u + <x, Du>/2 = -c  at every x, which matches
    the operator value iff c has that value.
    """
    A = as_sym_matrix(A)
    return QuadraticField(A, -operator_value(tp, eig_sym(A)))


def verify_quadratic(field, points):
    """Max |shrinker residual| of a built solution over an (m, n) cloud of
    sample points, or of each solution of a stack over its own cloud of a
    (k, m, n) stack, as (k,): the sweeps draw a block of trials, then read it.

    D^2u = A everywhere, so F(lambda(D^2u)) is -field.c, read from
    ``build_quadratic``'s one eigen-solve; the clouds cost one ``phase`` call.
    """
    sup = np.max(np.abs(np.expand_dims(-field.c, -1) - phase(field, points)), axis=-1, initial=0.0)
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


def scaled_uniform(lo, hi, u):
    """Unit uniforms u (``Generator.random`` draws) on [lo, hi) by numpy's own
    ``uniform`` formula: ``Generator.uniform(lo, hi, size)``'s doubles and state."""
    return lo + (hi - lo) * u


def admissible_draw(n, rng):
    """What one admissible matrix draws from ``rng``, in order: its spectrum's
    n unit uniforms, for ``_eigenvalue_window`` (which keeps f' moderate for
    tight residual targets), then a Gaussian (n, n) sample; n is an integer >= 1."""
    n = as_count(n, "matrix dimension")
    return rng.random(n), rng.standard_normal((n, n))


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
    """``admissible_matrix`` of one ``admissible_draw`` scaled onto the window:
    the sweeps draw first, then build a stack of these."""
    units, gaussian = admissible_draw(n, rng)
    return admissible_matrix(scaled_uniform(*_eigenvalue_window(tp), units), gaussian)
