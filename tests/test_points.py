"""Every reader of points reads them by one rule, ``numerics.as_cloud``: a
point (dim,), or a float in dimension 1, is a cloud of one, read as that
cloud's one row bit for bit, a Python float for a scalar read; a point of
another dimension, a stack of clouds on an unstacked field, and a point with
a NaN or infinite coordinate are InputErrors."""

import functools
import re
import warnings

import numpy as np
import pytest

from shrinker_lab import TauParams
from shrinker_lab.fields import QuadraticField, SeparableExtensionField, Table1DField
from shrinker_lab.geometry import shrinker_defect
from shrinker_lab.numerics import InputError
from shrinker_lab.tau import minkowski_residual, phase, shrinker_residual
from shrinker_lab.transforms import self_similar_extension

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


def test_a_finite_point_whose_read_overflows_is_refused_and_named():
    # 0.25 |x|^2 overflows at |x| = 1e160 and, for the extension, at
    # x / sqrt(-t) = 1e160: each read used to return NaN, with numpy overflow
    # warnings, which are errors here
    field = QuadraticField(0.5 * np.eye(2))
    x = np.array([[0.5, 0.1], [1e160, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read in (phase, functools.partial(shrinker_residual, SLAG)):
            for points in (x, x[1]):
                with pytest.raises(InputError, match=re.escape("phase not finite at x = [1e+160, 0.0]")):
                    read(field, points)
        y = np.array([[0.5, 0.1], [1e10, 0.0]])
        stacked = QuadraticField(np.stack([0.5 * np.eye(2)] * 2))
        for fld, points, t in ((field, y[1], -1e-300), (stacked, y, np.array([-1.0, -1e-300]))):
            with pytest.raises(InputError, match=re.escape("not finite at x = [10000000000.0, 0.0], t = -1e-300")):
                self_similar_extension(SLAG, fld, points, t)
        assert same_bits(phase(field, x[0]), -0.25 * 0.26 + 0.5 * 0.5 * 0.26)
