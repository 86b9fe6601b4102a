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
radius requires the high-precision Taylor path (``dps=...``): a
degree-20 Taylor series method whose coefficients are Taylor-mode jets of the
branch closed forms (:mod:`.jets`, ``tau.f_value_jet``/``f_inverse_jet``),
computed and handed back as libmp tuples at the working precision.  Steps
are joined on those tuples at 40 extra bits, as mpmath's ``polyval`` joins
them.  The profile is read in fixed point:
each step's coefficients are held as integers on one power-of-two scale, 72
bits past the working precision relative to a bound on the step's largest
term, and each sample is rounded once to float (``_shoot_mp``).  The float
path samples its profile in one batched ``Trajectory.evaluate`` read, bit for
bit the per-radius reads of the profile it returns (``_shoot_float``).

One step rule, built once a shot by ``_step_rule``, checks every state either
path reaches: the float path's initial state and right-hand side, each
profile sample and read, and (as an mpf rule) each Taylor expansion point.
One closure a shot, ``_curvature``, gives every u'' from the rule.
So the two paths name a cone exit, an inversion failure and a blow-up past
|(u, u')| = _BLOW_UP_MAG the same way, and at the state where the rule first
fails.  The one exit outside the rule is the Taylor path's ``blow_up`` when
its step radius falls below _MIN_STEP, where the float path's integrator
shrinks its step to its own floor.  Each path hands back one batched reader
of (u, u') at radii from _R_START on and its own series constants;
``shoot_radial`` makes them the shot's one ``states``: (u0, +0.0) at r = 0,
the series below _R_START (everywhere if the path took no step), the reader
beyond.  A profile ends at the last sample the rule accepts, and
``RadialProfile``, the n-D radial field itself, reads a batch of radii
through ``states`` on [0, that sample] (``numerics.read_span``); a read past
there is an InputError.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    from_float, from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_sub, round_nearest, to_float,
)

from . import jets
from .fields import ScalarField
from .numerics import (
    DomainError, InputError, RhsEvaluationError, abs_tolerance, as_count, as_positive, integrate_ode, read_span, row_dot,
)
from .tau import cone_spec, f_inverse, f_inverse_jet, f_inverse_mp, f_value, f_value_jet, f_value_mp

__all__ = ["ShotEvent", "RadialProfile", "shoot_radial", "radial_quadratic_reference"]

_R_START = 1e-8
_R_SERIES = 1e-6
_BLOW_UP_MAG = 1e10


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
    the n-D radial field u(|x|): ``u``, ``du``, ``d2u`` and the field read a
    batch of radii through the shot's ``states`` and ``curvature`` on
    [0, rs[-1]] (a NaN end if no sample).  The Hessian is u'' along the ray
    and u'/r across it, u''(0) within _R_SERIES.
    """

    tp: object
    n: int
    u0: float
    upp0: float  # u''(0): the step rule's transverse eigenvalue below _R_SERIES
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

    def u(self, r):
        return float(self._read([r])[1][0])

    def du(self, r):
        return float(self._read([r])[2][0])

    def d2u(self, r):
        return float(self._upp(*self._read([r]))[0])

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
        tangent = np.where(near, radial, up / np.where(near, 1.0, r))
        xh = x / np.where(near, 1.0, r)[:, None]    # at the origin radial - tangent is 0
        return (tangent[:, None, None] * np.eye(self.n)
                + (radial - tangent)[:, None, None] * (xh[:, :, None] * xh[:, None, :]))

    def rows(self):
        return np.column_stack([self.rs, self.us, self.ups, self.upps])


def _step_rule(tp, n, upp0, f=None):
    """The one step rule of both shooting paths: ``rule(r, u, up)`` returns the
    target (-u + r u'/2) - (n-1) f(s) of the radial equation u'' = f^{-1}(target).

    The transverse eigenvalue s is ``upp0`` = u''(0) below _R_SERIES and u'/r
    beyond.  ``f`` is ``f_value`` (looked up at each call, so a wrapper
    installed over it sees every step), or ``f_value_mp`` on mpf states.  The
    rule raises RhsEvaluationError ``cone_exit`` when s has left the selected
    cone component, ``inversion_failure`` when the target is outside the range
    of f on it, and then ``blow_up`` when |u| or |u'| passes _BLOW_UP_MAG.
    """
    spec = cone_spec(tp)
    lo, hi, f_lo, f_hi, m = spec.lo, spec.hi, spec.f_lo, spec.f_hi, n - 1

    def rule(r, u, up):
        s = upp0 if r < _R_SERIES else up / r
        if not lo < s < hi:
            raise RhsEvaluationError("cone_exit", f"transverse eigenvalue {s} left the cone")
        target = (-u + 0.5 * r * up) - m * (f or f_value)(tp, s)
        if not (f_lo < target < f_hi):
            raise RhsEvaluationError("inversion_failure", f"operator target {target} out of range")
        if abs(u) > _BLOW_UP_MAG or abs(up) > _BLOW_UP_MAG:
            raise RhsEvaluationError("blow_up", f"|(u, u')| passed {_BLOW_UP_MAG:g}")
        return target

    return rule


def _curvature(tp, rule):
    """A shot's u'' = f^{-1}(rule(r, u, u')): the integrator's acc, each sample's
    u'' and the field's Hessian read; ``f_inverse`` is looked up at each call."""
    return lambda r, u, up: f_inverse(tp, rule(r, u, up))


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
        tp, n, float(const), c, rs, 0.5 * c * rs**2 + const, c * rs, np.full_like(rs, c),
        ShotEvent("completed", r_max), lambda r: np.column_stack([0.5 * c * r * r + const, c * r]),
        _curvature(tp, _step_rule(tp, n, c)),
    )


def _shoot_float(curvature, u0, upp0, r_max, rel_tol):
    """(u, u')'s batched reader (None if the step rule refuses the start),
    series constants, end and event, integrated from the series state at
    _R_START with ``curvature`` as the integrator's acc."""
    try:  # the initial state's acc, as _shoot_mp checks each expansion point
        traj = integrate_ode(curvature, _series_state(u0, upp0, _R_START), (_R_START, r_max), rel_tol)
    except RhsEvaluationError as exc:  # no step: the series is the whole shot
        return None, (u0, upp0), _R_START, ShotEvent(exc.label, _R_START, exc.detail)

    if traj.event is None:
        event = ShotEvent("completed", r_max)
    else:
        kind = traj.event.label
        if kind not in ("cone_exit", "inversion_failure", "blow_up"):
            kind = "blow_up"
        event = ShotEvent(kind, float(traj.event.t), traj.event.detail)
    return traj.evaluate, (u0, upp0), traj.t_end, event


_DEGREE = 20
_MIN_STEP = 1e-12
_GUARD = 32  # bits the profile reader's fixed point keeps below fine_prec


def _taylor_step(tp, n, r0, u0, p0, f_s_frozen):
    """Degree-_DEGREE jets of (u, p) at r0 for u' = p, p' = f^{-1}(-u + r p/2 - (n-1) f(s)).

    s is p/r; at the series start, where p/r has a pole at r = 0 next to the
    expansion point, f(s) is the constant ``f_s_frozen`` instead.  The
    coefficients are libmp tuples, each u_{k+1}, p_{k+1} rounded as ``mpf / int``.
    """
    tape = jets.Tape()
    u, p, r = tape.input([u0]), tape.input([p0]), tape.input([r0])
    r.c += [from_int(1)] + [fzero] * (_DEGREE - 1)  # the series of r itself
    f_s = f_s_frozen if f_s_frozen is not None else f_value_jet(tp, p / r)
    g = f_inverse_jet(tp, (-u + r * p / 2) - (n - 1) * f_s)
    for k in range(_DEGREE):
        tape.advance(k)
        u.c.append(mpf_div(p.c[k], from_int(k + 1), tape.prec, tape.rnd))
        p.c.append(mpf_div(g.c[k], from_int(k + 1), tape.prec, tape.rnd))
    return u.c, p.c


def _step_index(starts_f, starts, r):
    """max(bisect.bisect(starts, r) - 1, 0) for the exact starts (libmp tuples)
    and a float r, from their floats ``starts_f``: the float of a start orders
    it against every float but itself, where the exact test settles it."""
    i = bisect.bisect(starts_f, r)
    while i > 0 and starts_f[i - 1] == r and mpf_gt(starts[i - 1], from_float(r)):
        i -= 1
    return max(i - 1, 0)


def _fixed_point(us, ps, radius, prec):
    """A step's two series (lowest first, libmp tuples) as integers on one scale
    2^-S, highest first: S = prec - M, M >= log2 max_j |c_j| radius^j over both."""
    _, _, exp, bc = radius._mpf_  # radius < 2^(exp + bc)
    top = max((c[2] + c[3] + j * (exp + bc) for cs in (us, ps) for j, c in enumerate(cs) if c != fzero),
              default=0)
    scale = prec - top

    def ints(cs):
        out = []
        for sign, man, e, _ in reversed(cs):
            v = man << (e + scale) if e + scale >= 0 else man >> -(e + scale)
            out.append(-v if sign else v)
        return out

    return scale, ints(us), ints(ps)


def _horner(coeffs, hm, e):
    """Horner's rule for integer coefficients (highest first) on a scale 2^-S
    at h = hm 2^-e: the value on the same scale, each product floored."""
    acc = 0
    for c in coeffs:
        acc = c + (acc * hm >> e)
    return acc


def _join(cs, x, prec, rnd):
    """``mp.polyval`` of a series (lowest first, libmp tuples) at x under
    ``mp.workprec(prec)``: Horner from the top coefficient, unrounded, each
    step ``c + x * acc`` rounded twice as the mpf operators round it."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = mpf_add(c, mpf_mul(x, acc, prec, rnd), prec, rnd)
    return acc


def _to_float(acc, scale):
    """acc 2^-scale rounded once to the nearest float, as ``float(mpf)`` rounds."""
    try:
        return math.ldexp(acc, -scale)
    except OverflowError:  # acc past the double range: scales above about 1000 bits
        return to_float(from_man_exp(acc, -scale), rnd=round_nearest)


def _shoot_mp(tp, n, u0, r_max, dps):
    """Arbitrary-precision Taylor path: Taylor-mode jets of the radial system.

    ``u0`` may be an mpf or decimal string: shooting from the float64 rounding
    of quadratic data is shooting from genuinely perturbed data, which the
    rigidity mechanism blows up near finite radius no matter the working
    precision.

    Each step expands (u, p = u') to degree _DEGREE at the working precision,
    as libmp tuples, and takes the step of mpmath's ``ode_taylor`` (as
    ``odefun`` calls it with tol = 10^-(dps-10)): radius
    min(1, (tol'/|c_d|)^(1/d))/2 over both series,
    tol' = 2^-(floor(log2 10^(dps-10)) + 10).  Steps are joined at
    fine_prec = prec + 40 bits by ``_join``, the libmp calls of mpmath's
    ``polyval`` on the tuples; only c_d and each joined state are wrapped as
    mpf values.  Every expansion point goes through
    the float path's step rule (``_step_rule``), whose error names the
    event; the one other exit is ``blow_up`` when the step radius falls below
    _MIN_STEP (a singularity ahead).

    The profile reader works in fixed point.  Each step's two series are held
    as integers on one scale 2^-S, S = fine_prec + _GUARD - M, where M is an
    upper bound of log2 max_j |c_j| rho^j over both series and rho is the step
    radius (bounding |c_j| alone would leave no bits for the low orders once
    rho is small).  A read picks the step ``bisect.bisect`` picks on the exact
    starts, forms h = r - start at fine_prec as hm 2^-e, runs Horner on the
    integers, shifting each product right by e bits, and rounds once to float.
    Its error, a few units of 2^-S, is under 2^(M - fine_prec) like the
    rounding of mpmath's Horner at fine_prec, far below a float's last bit:
    each sample is the float of mpmath's value there.
    """
    with mp.workdps(int(dps)):
        if isinstance(u0, str) or isinstance(u0, mp.mpf):
            u0_mp = mp.mpf(u0)
        else:
            u0_mp = mp.mpf(float(u0))  # exact binary conversion
        upp0_mp = f_inverse_mp(tp, -u0_mp / n)
        fine_prec = mp.mp.prec + 40
        rnd = mp.mp._prec_rounding[1]
        tol = mp.ldexp(1, -(int((int(dps) - 10) * math.log2(10.0)) + 10))
        f_s0 = f_value_mp(tp, upp0_mp)  # f(s) while s is frozen at u''(0)
        r0 = mp.mpf(_R_START)
        u, p = _series_state(u0_mp, upp0_mp, r0)
        # per step: the start as a float and exactly, and (S, u and u' on 2^-S)
        starts_f, starts, steps = [], [], []
        rule = _step_rule(tp, n, upp0_mp, f=f_value_mp)
        while True:
            try:
                rule(r0, u, p)
            except RhsEvaluationError as exc:
                event = ShotEvent(exc.label, float(r0), exc.detail)
                break
            us, ps = _taylor_step(tp, n, r0, u, p, f_s0 if r0 < _R_SERIES else None)
            radius = min([mp.mpf(1)] + [mp.root(tol / abs(mp.make_mpf(c[-1])), _DEGREE)
                                        for c in (us, ps) if c[-1] != fzero]) / 2
            if radius < _MIN_STEP:
                event = ShotEvent("blow_up", float(r0), f"Taylor step {mp.nstr(radius, 3)} below {_MIN_STEP:g}")
                break
            starts_f.append(float(r0))
            starts.append(r0._mpf_)
            steps.append(_fixed_point(us, ps, radius, fine_prec + _GUARD))
            r0 = r0 + radius
            u, p = (mp.make_mpf(_join(cs, radius._mpf_, fine_prec, rnd)) for cs in (us, ps))
            if r0 >= r_max:
                event = ShotEvent("completed", float(r_max))
                break

        def state(r):
            i = _step_index(starts_f, starts, r)
            sign, hm, exp, _ = mpf_sub(from_float(r), starts[i], fine_prec, rnd)
            if sign:
                hm = -hm
            if exp > 0:
                hm, exp = hm << exp, 0
            scale, us, ps = steps[i]
            return _to_float(_horner(us, hm, -exp), scale), _to_float(_horner(ps, hm, -exp), scale)

    read = (lambda rs: [state(r) for r in rs.tolist()]) if steps else None
    return read, (float(u0_mp), float(upp0_mp)), event.r, event


def shoot_radial(tp, n, u0, r_max=10.0, rel_tol=1e-10, *, dps=None, n_samples=401):
    """Integrate the radial equation outward from u(0) = u0.

    Parameters
    ----------
    dps : int, optional
        When given, integrate with degree-20 Taylor steps whose coefficients
        are Taylor-mode jets of the equation at that many digits.  Steps are
        joined at 40 extra bits; samples are read in fixed point, 72 bits past
        that precision relative to each step's largest term, and rounded once
        to float.
        Required to hold the (exponentially unstable) quadratic trajectories
        to large radius; the float path is the event-recording experimental
        tool.  Both paths end in the same event kinds.

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

    curvature = _curvature(tp, _step_rule(tp, n, upp0))  # bounds, range and n - 1 bound once a shot
    read, (su, supp), r_end, event = (_shoot_float(curvature, u0, upp0, r_max, rel_tol) if dps is None
                                      else _shoot_mp(tp, n, u0_raw, r_max, dps))

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
    upps = np.empty_like(rs)
    for i, (r, u, up) in enumerate(zip(rs.tolist(), *samples.T.tolist())):
        try:
            upps[i] = curvature(r, u, up)
        except RhsEvaluationError as exc:
            # the profile ends at the last sample the step rule accepts
            if event.completed:
                event = ShotEvent(exc.label, float(r), exc.detail)
            rs, samples, upps = rs[:i], samples[:i], upps[:i]
            break
    us, ups = samples.T.copy()
    return RadialProfile(tp, n, u0, upp0, rs, us, ups, upps, event, states, curvature)
