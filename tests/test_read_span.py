"""Every reader of data on a span reads at and past its ends by one rule,
``numerics.read_span``: a time within READ_SLACK (1 + |end|) outside an end
reads the end, bit for bit, and any other time outside the span, or NaN, is
an InputError.  A field reads its times as points, so the points rule
(``numerics.as_cloud``) refuses a NaN there first."""

import functools
import math

import numpy as np
import pytest

from shrinker_lab import TauParams
from shrinker_lab.constructor import assemble_w1, build_mss_counterexample, solve_phase_ode
from shrinker_lab.fields import Table1DField
from shrinker_lab.numerics import READ_SLACK, InputError, integrate_ode
from shrinker_lab.shooting import shoot_radial

from conftest import same_bits


@functools.cache
def _backward():
    """A descending trajectory: the oscillator integrated from 0 to -3."""
    return integrate_ode(lambda t, u, v: -u, [1.0, 0.2], (0.0, -3.0), 1e-8)


@functools.cache
def _phase():
    return solve_phase_ode(0.3, 0.7, 10.0, rel_tol=1e-8)


@functools.cache
def _shot(dps):
    # SLAG ends in inversion_failure on the float path, blow_up at dps 15
    return shoot_radial(TauParams.special_lagrangian(), 2, -math.pi / 2 + 0.1, r_max=50.0, dps=dps)


def _ends(ts):
    return min(ts[0], ts[-1]), max(ts[0], ts[-1])


def _trajectory(read):
    traj = _backward()
    return lambda t: read(traj, t), *_ends(traj.ts)


def _table():
    ts = np.cumsum(np.random.default_rng(7).uniform(0.05, 0.15, 60)) - 4.0
    f = Table1DField(ts, np.sin(ts), np.cos(ts), -np.sin(ts))
    return lambda t: [f.value([t]), *f.gradient([t]), *f.hessian([t]).ravel()], ts[0], ts[-1]


def _step_integral(span):
    fld = assemble_w1(_phase(), span=span).field
    lo, hi = _ends(fld.dense.ts)
    return lambda t: fld.read(np.array([[t]]))[:, 0], max(-fld.span, lo), min(fld.span, hi)


def _phase_read(read):
    traj = _phase()
    return lambda t: read(traj, t), *_ends(traj.dense.ts)


def _minkowski():
    fld, _ = build_mss_counterexample(1.2, 0.1, T=10.0, rel_tol=1e-8, radius=5.0, samples=11)
    reads = (fld.value, fld.gradient, fld.hessian, fld.gradient_complement)
    return lambda t: [np.ravel(read(np.array([[t]]))) for read in reads], *_ends(fld._integral.dense.ts)


def _radial(dps):
    # ``states`` reads r on [0, the event], here rs[-1], and the field's value
    # and Hessian the point (r, 0) on [0, rs[-1]]; a point's radius is never
    # below 0, so below 0 the field reads the origin and only ``states`` reads
    # r (the gradient divides u' by the point's own radius, not the end's)
    prof = _shot(dps)
    assert prof.rs[-1] == prof.event.r

    def read(r):
        x = [max(r, 0.0), 0.0]
        return [*prof.states(np.array([r]))[0], prof.value(x), *np.ravel(prof.hessian(x))]

    return read, 0.0, prof.rs[-1]


# name: () -> (read(t), the span's lower end, its upper end)
READERS = {
    "Trajectory.evaluate": lambda: _trajectory(lambda traj, t: traj.evaluate([t])),
    "Trajectory.__call__": lambda: _trajectory(lambda traj, t: traj(t)),
    "Table1DField": _table,
    "StepIntegralField-inside": lambda: _step_integral(8.0),
    "StepIntegralField-whole": lambda: _step_integral(None),
    "PhaseTrajectory.phi_array": lambda: _phase_read(lambda traj, t: traj.phi_array([t])),
    "PhaseTrajectory.phi_pair": lambda: _phase_read(lambda traj, t: traj.phi_pair(t)),
    "MinkowskiProfile": _minkowski,
    "RadialProfile-float": lambda: _radial(None),
    "RadialProfile-taylor": lambda: _radial(15),
}


@pytest.mark.parametrize("reader", list(READERS))
def test_half_the_slack_past_an_end_reads_the_end_and_twice_it_is_refused(reader):
    read, lo, hi = READERS[reader]()
    for end, outward in ((lo, -1.0), (hi, 1.0)):
        slack = READ_SLACK * (1 + abs(end))
        assert same_bits(np.hstack(read(end + 0.5 * outward * slack)), np.hstack(read(end)))
        with pytest.raises(InputError, match="outside the span"):
            read(end + 2.0 * outward * slack)


# the readers whose first read of a time is a field's read of a point
POINT_READERS = {"Table1DField", "MinkowskiProfile"}


@pytest.mark.parametrize("reader", list(READERS))
def test_nan_time_is_refused(reader):
    read, _, _ = READERS[reader]()
    with pytest.raises(InputError, match="points must be finite" if reader in POINT_READERS else "outside the span"):
        read(math.nan)


@pytest.mark.parametrize("reader", list(READERS))
def test_the_slack_is_wide_enough_for_a_grid_and_no_wider(reader):
    # numpy's arange drifts up to 3.7e-13 (1 + |end|) past a profile grid's
    # end, and such a read must read the end; a read 1e-8 (1 + |end|) past an
    # end is refused (the two literals bound READ_SLACK from both sides)
    read, lo, hi = READERS[reader]()
    for end, outward in ((lo, -1.0), (hi, 1.0)):
        assert same_bits(np.hstack(read(end + 4e-13 * outward * (1 + abs(end)))), np.hstack(read(end)))
        with pytest.raises(InputError, match="outside the span"):
            read(end + 1e-8 * outward * (1 + abs(end)))
