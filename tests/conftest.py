import math

import numpy as np
import pytest

from shrinker_lab import TauParams
from shrinker_lab.cli import BRANCH_DEFAULTS
from shrinker_lab.fields import ScalarField
from shrinker_lab.numerics import DomainError, eig_sym, fd_gradient, fd_hessian
from shrinker_lab.tau import phase


def branch_params():
    """The CLI's default TauParams of each branch, by name."""
    return {name: make() for name, make in BRANCH_DEFAULTS.items()}


def with_lower_cones():
    """branch_params() plus the lower components of LOG and HARM."""
    tps = branch_params()
    tps["HARM-lower"] = TauParams.harmonic("lower")
    tps["LOG-lower"] = TauParams.log_branch(math.pi / 6, "lower")
    return tps


@pytest.fixture
def all_branches():
    return branch_params()


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def same_bits(a, b):
    """Equal shapes and identical float64 bit patterns (0.0 and -0.0 differ)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def as_pair(t):
    """A libmp tuple as the (man, exp) pair ``jets`` holds it in: man odd or 0."""
    sign, man, exp, _ = t
    return -man if sign else man, exp


def default_fd_step(x):
    """Step balancing truncation vs rounding for second-order differences."""
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    return 1e-4 * max(1.0, r)


class CallableField(ScalarField):
    """Wraps plain callables of one point; derivatives fall back to central
    differences.  The cloud kernels call them row by row."""

    def __init__(self, dim, fn, grad=None, hess=None, fd_step=None):
        self.dim = int(dim)
        self._fn = fn
        self._grad = grad
        self._hess = hess
        self._fd_step = fd_step

    def _step(self, p):
        return self._fd_step if self._fd_step is not None else default_fd_step(p)

    def _value(self, x):
        return np.array([float(self._fn(p)) for p in x])

    def _gradient(self, x):
        if self._grad is not None:
            return np.array([np.atleast_1d(np.asarray(self._grad(p), dtype=float)) for p in x])
        return np.array([fd_gradient(self._fn, p, self._step(p)) for p in x])

    def _hessian(self, x):
        if self._hess is not None:
            return np.array([np.asarray(self._hess(p), dtype=float) for p in x])
        return np.array([fd_hessian(self._fn, p, self._step(p)) for p in x])


def logit_equation_residual(field, x):
    """Residual of  sum ln(mu_i / (1 - mu_i)) = phase  for 0 < D^2 w < I."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mus = eig_sym(field.hessian(x))
    if np.any(mus <= 0.0) or np.any(mus >= 1.0):
        raise DomainError(f"Hessian spectrum {mus} outside (0, 1) at {x}", location=x)
    lhs = float(np.sum(np.log(mus) - np.log1p(-mus)))
    return float(lhs - phase(field, x))
