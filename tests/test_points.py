"""Every reader of points reads them by one rule, ``numerics.as_cloud``: a
point (dim,), or a float in dimension 1, is a cloud of one, read as that
cloud's one row bit for bit, a Python float for a scalar read; a point of
another dimension, a stack of clouds on an unstacked field, and a point with
a NaN or infinite coordinate are InputErrors."""

import functools
import re

import numpy as np
import pytest

from shrinker_lab import TauParams
from shrinker_lab.fields import QuadraticField, SeparableExtensionField, Table1DField
from shrinker_lab.geometry import mean_curvature, shrinker_defect
from shrinker_lab.numerics import InputError
from shrinker_lab.tau import minkowski_residual, phase, shrinker_residual

from conftest import same_bits

SLAG = TauParams.special_lagrangian()  # every spectrum is admissible


@functools.cache
def _profile():
    ts = np.linspace(-4.0, 4.0, 161)
    return Table1DField(ts, 0.3 * np.sin(ts), 0.3 * np.cos(ts), -0.3 * np.sin(ts))


def _quadratic(n):
    A = 0.1 * np.random.default_rng(n).standard_normal((n, n))
    return QuadraticField(A + A.T, 0.4)


# name: dim -> an unstacked field of that dimension, spacelike on [-1, 1]^dim
FIELDS = {
    "QuadraticField": _quadratic,
    "Table1DField-SeparableExtensionField": lambda n: _profile() if n == 1 else SeparableExtensionField(_profile(), n),
}

# name: (read(field, x), whether a point's read is a number)
READERS = {
    "ScalarField.value": (lambda f, x: f.value(x), True),
    "ScalarField.gradient": (lambda f, x: f.gradient(x), False),
    "ScalarField.hessian": (lambda f, x: f.hessian(x), False),
    "tau.phase": (phase, True),
    "tau.shrinker_residual": (functools.partial(shrinker_residual, SLAG), True),
    "tau.minkowski_residual": (minkowski_residual, True),
    "geometry.mean_curvature": (functools.partial(mean_curvature, SLAG), False),
    "geometry.shrinker_defect": (functools.partial(shrinker_defect, SLAG), True),
}

CASES = [(reader, field) for reader in READERS for field in FIELDS]


@pytest.mark.parametrize("reader, field", CASES)
@pytest.mark.parametrize("n", [1, 3])
def test_a_point_reads_as_its_cloud_of_one(reader, field, n):
    read, scalar = READERS[reader]
    f = FIELDS[field](n)
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    got, row = read(f, x), read(f, x[None])[0]
    assert same_bits(got, row)
    assert type(got) is float or not scalar
    if n == 1:
        assert same_bits(read(f, float(x[0])), row)


@pytest.mark.parametrize("reader, field", CASES)
def test_a_point_of_another_dimension_and_a_stack_are_refused(reader, field):
    read, _ = READERS[reader]
    f = FIELDS[field](3)
    for x in (np.zeros(2), 0.5, np.zeros((4, 2)), np.zeros((2, 4, 3))):
        with pytest.raises(InputError, match="of dimension 3"):
            read(f, x)


@pytest.mark.parametrize("reader, field", CASES)
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_point_is_refused_and_named(reader, field, n, bad):
    read, _ = READERS[reader]
    f = FIELDS[field](n)
    x = np.full(n, 0.5)
    x[-1] = bad
    named = re.escape(f"points must be finite, got {x.tolist()}")
    for points in (x, np.vstack([np.full(n, 0.25), x])):
        with pytest.raises(InputError, match=named):
            read(f, points)
