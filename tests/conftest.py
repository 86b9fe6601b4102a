import math

import numpy as np
import pytest

from shrinker_lab import TauParams


def branch_params():
    return {
        "MA": TauParams.monge_ampere(),
        "LOG": TauParams.log_branch(math.pi / 6),
        "HARM": TauParams.harmonic(),
        "ATAN": TauParams.atan_branch(math.pi / 3),
        "SLAG": TauParams.special_lagrangian(),
        "NEG": TauParams.neg_branch(a=-2.0),
    }


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
