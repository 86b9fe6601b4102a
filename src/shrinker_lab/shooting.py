"""Radial shooting for the self-shrinker potential equation.

A radial potential has Hessian eigenvalues (u'', u'/r x (n-1)), so the
equation reduces to

    u'' = f^{-1}( (-u + r u'/2) - (n-1) f(u'/r) ),

integrated outward from the series start u'(0) = 0, u''(0) = f^{-1}(-u0/n).

Termination events are data, not errors.  Every attainable u0 is the exact
data of the quadratic  lambda r^2/2 + u0,  lambda = f^{-1}(-u0/n), whose
trajectory is exponentially unstable: deviations grow like
exp(r^2/(4 f'(lambda))).  Rounding alone drives a shot off it, so a cone exit,
inversion failure or blow-up marks the radius where the working precision
runs out (r^2 grows by about 4 f'(lambda) ln 10 per decimal digit), not a
perturbation that rigidity rules out.  Reproducing the closed form to large
radius requires the high-precision Taylor path (``dps=...``).  A shot makes
one integrator call on u'' = acc(r, u, u'): ``numerics.integrate_ode`` with
``_curvature``, the float step rule itself, which calls the float closed forms
``tp.forms`` and ends in the polished f^{-1}, one call an evaluation, or
``jets.taylor_integrate`` with ``_jet_curvature``, the equation on Taylor-mode
jets of the branch closed forms bound once a shot, recorded once a region.

One step rule, built once a shot by ``_step_rule`` with its bounds in the
state's arithmetic, checks every state either path reaches: the float path's
initial state and right-hand side, each profile sample and read, and (on mpf
states) each Taylor expansion point.
So the two paths stop at a cone exit, an inversion failure and a blow-up past
|(u, u')| = _BLOW_UP_MAG the same way, and at the state where the rule first
fails; the float integrator also stops at a step underflow or a non-finite
state, and the Taylor one at its minimum step.  Either integrator hands back
its stop as a ``DivergenceEvent`` and a batched reader of (u, u') from
_R_START on, and raises on a start the rule refuses.  ``shoot_radial`` names
the stop once (a rule's kind as it is, any other a ``blow_up``) at the shot's
one end, the lesser of r_max and the path's end (_R_START for a refused
start), and makes the rest the shot's one ``states``: (u0, +0.0) at r = 0, the
path's series below _R_START (everywhere if it took no step), the reader
beyond.  A profile ends at the last sample the rule accepts, and
``RadialProfile``, the n-D radial field itself, holds its samples, its event,
``states`` and ``curvature``, and reads a batch of radii through ``states``
on [0, that sample] (``numerics.read_span``); a read past there is an
InputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float

from .fields import ScalarField
from . import jets
from .numerics import (
    DomainError, InputError, RhsEvaluationError, abs_tolerance, as_count, as_positive, integrate_ode, read_span, row_dot,
)
from .tau import _JETS, _MP, _forms, cone_spec, f_inverse, f_value

__all__ = ["ShotEvent", "RadialProfile", "shoot_radial", "radial_quadratic_reference"]

_R_START = 1e-8
_R_SERIES = 1e-6
_BLOW_UP_MAG = 1e10
_RULE_KINDS = ("cone_exit", "inversion_failure", "blow_up")  # the events the step rule names


@dataclass(frozen=True)
class ShotEvent:
    kind: str            # completed | cone_exit | blow_up | inversion_failure
    r: float
    detail: str = ""

    @property
    def completed(self):
        return self.kind == "completed"


@dataclass
class RadialProfile(ScalarField):
    """Sampled radial profile (r, u, u', u'') with its termination event, and
    the n-D radial field u(|x|): it reads a batch of radii through ``states``
    and ``curvature`` on [0, rs[-1]] (a NaN end if no sample).  The Hessian is
    u'' along the ray and u'/r across it, u''(0) within _R_SERIES.
    """

    n: int
    rs: np.ndarray
    us: np.ndarray
    ups: np.ndarray
    upps: np.ndarray
    event: ShotEvent
    states: object  # an array of radii -> (m, 2) array of (u, u'), up to the shot's end
    curvature: object  # (r, u, u') -> u'', the shot's ``_curvature``

    @property
    def dim(self):
        return self.n

    @property
    def field(self):
        """The profile itself, as the n-D radial field it describes."""
        return self

    def _read(self, radii):
        """Radii read on [0, rs[-1]], and u and u' at each."""
        r = read_span(radii, 0.0, self.rs[-1] if len(self.rs) else math.nan)
        return (r, *self.states(r).T)

    def _upp(self, r, u, up):
        return np.array(list(map(self.curvature, r.tolist(), u.tolist(), up.tolist())))

    def _polar(self, x):
        """A cloud's radii, those within _R_SERIES, and the read there (at 0 for those)."""
        r = np.sqrt(row_dot(x, x))
        near = r < _R_SERIES
        return r, near, self._read(np.where(near, 0.0, r))

    def _value(self, x):
        return self._read(np.sqrt(row_dot(x, x)))[1]

    def _gradient(self, x):
        r, near, (at, u, up) = self._polar(x)
        tangent = up / np.where(near, 1.0, r)
        tangent[near] = self._upp(at[near], u[near], up[near])
        return tangent[:, None] * x

    def _hessian(self, x):
        r, near, (at, u, up) = self._polar(x)
        radial = self._upp(at, u, up)
        tangent = np.where(near, radial, up / np.where(near, 1.0, at))  # past the end, the end's u'/r
        xh = x / np.where(near, 1.0, r)[:, None]    # at the origin radial - tangent is 0
        return (tangent[:, None, None] * np.eye(self.n)
                + (radial - tangent)[:, None, None] * (xh[:, :, None] * xh[:, None, :]))

    def rows(self):
        return np.column_stack([self.rs, self.us, self.ups, self.upps])


def _step_rule(tp, n, upp0, f, then):
    """The one step rule of both shooting paths: ``rule(r, u, up)`` returns ``then(target)``,
    the target (-u + r u'/2) - (n-1) f(s) of the radial equation u'' = f^{-1}(target) under a
    map bound once a shot: f^{-1} on floats, so the rule is the float shot's u'', or the identity.

    The transverse eigenvalue s is ``upp0`` = u''(0) below _R_SERIES and u'/r
    beyond.  ``f`` is the branch's f bound in the state's arithmetic:
    ``tp.forms[0]`` on floats, behind the rule's cone test, so the bits are
    ``f_value``'s, or a Taylor shot's mpf form.  The bounds, 1/2 and _R_SERIES are bound
    in it too: the doubles, or for an mpf ``upp0`` their exact mpf values (``mp.mpf``
    would round them), so no comparison converts a float.  The rule raises RhsEvaluationError
    ``cone_exit`` when s has left the selected cone component, ``inversion_failure``
    when the target is outside the range of f on it, and then ``blow_up`` when
    |u| or |u'| passes _BLOW_UP_MAG.
    """
    spec, m = cone_spec(tp), n - 1
    exact = (lambda x: mp.make_mpf(from_float(x))) if isinstance(upp0, mp.mpf) else float
    lo, hi, f_lo, f_hi, big, neg_big, half, r_series = map(
        exact, (spec.lo, spec.hi, spec.f_lo, spec.f_hi, _BLOW_UP_MAG, -_BLOW_UP_MAG, 0.5, _R_SERIES))

    def rule(r, u, up):
        s = upp0 if r < r_series else up / r
        if not lo < s < hi:
            raise RhsEvaluationError("cone_exit", f"transverse eigenvalue {s} left the cone")
        target = (-u + half * r * up) - m * f(s)
        if not (f_lo < target < f_hi):
            raise RhsEvaluationError("inversion_failure", f"operator target {target} out of range")
        if u > big or u < neg_big or up > big or up < neg_big:  # |u| or |u'| > big, as comparisons
            raise RhsEvaluationError("blow_up", f"|(u, u')| passed {_BLOW_UP_MAG:g}")
        return then(target)

    return rule


def _curvature(tp, n, upp0):
    """A shot's u'' = f^{-1}(target), the float step rule on ``tp.forms[0]`` ending in
    ``f_inverse``'s closure: the integrator's acc, each sample's u'' and the field's Hessian read."""
    return _step_rule(tp, n, upp0, tp.forms[0], tp.f_inverse_polished)


def _jet_curvature(tp, n, upp0, f):
    """The Taylor path's acc: the step rule on the mpf form ``f`` at the expansion
    point, its map the identity (only its check is needed), then the jet of
    f^{-1}((-u + r p/2) - (n-1) f(s)), s = p/r; below _R_SERIES, where p/r has a pole at r = 0 next to the expansion point, f(s) is
    f(u''(0)).  The closed forms on jets are bound once, at the shot's precision;
    the jet is recorded once a region on the tape, which each later call hands back."""
    rule = _step_rule(tp, n, upp0, f, lambda target: target)
    f_jet, f_inv_jet, _ = _forms(tp, _JETS)
    graphs = {}  # region -> (the node list of the tape its jet was recorded on, the jet)

    def acc(r, u, p):
        r0 = jets.mpf(r.c[0])
        rule(r0, jets.mpf(u.c[0]), jets.mpf(p.c[0]))
        near = r0 < _R_SERIES
        nodes, g = graphs.get(near, (None, None))
        if nodes is not r.tape.nodes:  # not recorded on this tape for the region, or dropped since
            target = -u + r * p / 2
            if n > 1:  # at n = 1 the term is 0 times f(s): not formed
                target = target - (n - 1) * (f(upp0) if near else f_jet(p / r))
            g = f_inv_jet(target)
            graphs[near] = r.tape.nodes, g
        return g

    return acc


def _series_state(u0, upp0, r):
    return u0 + 0.5 * upp0 * r * r, upp0 * r


def radial_quadratic_reference(tp, n, c, r_max=10.0, n_samples=401):
    """Exact profile u(r) = c r^2/2 - n f(c); the shooting oracle."""
    n, r_max, n_samples = as_count(n, "dimension"), as_positive(r_max, "r_max"), as_count(n_samples, "n_samples", 2)
    c = float(c)
    if not cone_spec(tp).contains(c):
        raise DomainError(f"curvature {c} outside the selected cone component", value=c)
    const = -n * f_value(tp, c)
    rs = np.linspace(0.0, r_max, n_samples)
    return RadialProfile(
        n, rs, 0.5 * c * rs**2 + const, c * rs, np.full_like(rs, c),
        ShotEvent("completed", r_max), lambda r: np.column_stack([0.5 * c * r * r + const, c * r]),
        _curvature(tp, n, c),
    )


def _taylor_start(tp, n, u0, dps):
    """The Taylor path's series constants, acc and (u, u') at _R_START, at
    ``dps`` digits.  ``u0`` may be an mpf or decimal string: shooting from the
    float64 rounding of quadratic data is shooting from genuinely perturbed
    data, which the rigidity mechanism blows up near finite radius no matter
    the working precision.  The mpf forms are bound once, for u''(0) and the acc."""
    with mp.workdps(dps):
        u0 = mp.mpf(u0) if isinstance(u0, (str, mp.mpf)) else mp.mpf(float(u0))  # a float converts exactly
        f, f_inv, _ = _forms(tp, _MP)
        upp0 = f_inv(-u0 / n)
        return (float(u0), float(upp0)), _jet_curvature(tp, n, upp0, f), _series_state(u0, upp0, mp.mpf(_R_START))


def shoot_radial(tp, n, u0, r_max=10.0, rel_tol=1e-10, *, dps=None, n_samples=401):
    """Integrate the radial equation outward from u(0) = u0.

    Either path starts its integrator from the series at _R_START = 1e-8: an ``r_max``
    below that takes no step, and the profile is the series on [0, r_max], ``completed``
    unless the step rule refuses the start; either way the event is at most r_max.

    Parameters
    ----------
    dps : int, optional
        When given, integrate with ``jets.taylor_integrate``'s degree-20
        Taylor steps on jets of the equation at that many digits.  Required
        to hold the (exponentially unstable) quadratic trajectories to large
        radius; the float path is the event-recording experimental tool.
        Both paths end in the same event kinds.

    Raises
    ------
    InputError
        If ``n`` is not an integer of at least 1, ``n_samples`` one of at
        least 2 or ``dps`` one above 10; if ``r_max`` or ``rel_tol`` is not
        finite and positive; if -u0/n is not attainable on the selected cone
        component, or its preimage u''(0) is not finite (no valid initial
        curvature exists).
    """
    n, r_max, n_samples = as_count(n, "dimension"), as_positive(r_max, "r_max"), as_count(n_samples, "n_samples", 2)
    abs_tolerance(rel_tol)  # before the step rule may refuse the start
    if dps is not None:
        dps = as_count(dps, "dps", 11)  # the Taylor steps' tolerance is 10^-(dps-10)
    u0_raw = u0
    u0 = float(u0)
    upp0 = f_inverse(tp, -u0 / n)
    if not math.isfinite(upp0):
        raise InputError(f"u''(0) = f^-1(-u0/n) = {upp0} at u0 = {u0}: no finite initial curvature")

    curvature = _curvature(tp, n, upp0)  # bounds, range, n - 1 and forms bound once a shot
    su, supp = u0, upp0  # the series constants; the Taylor path has its own
    span = (_R_START, max(r_max, _R_START))
    try:
        if dps is None:
            traj = integrate_ode(curvature, _series_state(u0, upp0, _R_START), span, rel_tol)
            read, t_end, stop = traj.evaluate, traj.t_end, traj.event
        else:
            (su, supp), acc, y0 = _taylor_start(tp, n, u0_raw, dps)
            read, t_end, stop = jets.taylor_integrate(acc, y0, span, dps)
    except RhsEvaluationError as exc:  # the rule refused the start: the series is the whole shot
        read, t_end, stop = None, _R_START, exc
    r_end = min(r_max, t_end)  # the shot's end on every path: never past r_max
    # the integrator's step underflow and non-finite state, and the Taylor minimum step, are blow-ups
    event = (ShotEvent("completed", r_max) if stop is None
             else ShotEvent(stop.label if stop.label in _RULE_KINDS else "blow_up", r_end, stop.detail))

    def states(radii):
        """(u, u') at an array of radii on [0, r_end], one row a radius."""
        r = read_span(radii, 0.0, r_end)
        out = np.empty((len(r), 2))
        near = (r < _R_START) | (read is None)
        out[near] = np.column_stack(_series_state(su, supp, r[near]))
        if not near.all():
            out[~near] = read(r[~near])
        out[r == 0.0] = u0, 0.0
        return out

    rs = np.linspace(0.0, r_end, n_samples)
    samples = states(rs)
    upps = []
    for r, u, up in zip(rs.tolist(), *samples.T.tolist()):
        try:
            upps.append(curvature(r, u, up))
        except RhsEvaluationError as exc:
            # the profile ends at the last sample the step rule accepts
            if event.completed:
                event = ShotEvent(exc.label, r, exc.detail)
            rs, samples = rs[:len(upps)], samples[:len(upps)]
            break
    us, ups = samples.T.copy()
    return RadialProfile(n, rs, us, ups, np.array(upps), event, states, curvature)
