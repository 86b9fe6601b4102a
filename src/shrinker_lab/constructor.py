"""Numerical construction of entire non-quadratic solutions on the
bounded-cone branch, via the phase ODE

    phi'' = e^phi / (2 (1 + e^phi)^2) * t * phi',    phi(0) = a0, phi'(0) = a1,

double quadrature to a 1-D profile with curvature e^phi/(1+e^phi), product
extension to n dimensions, and the exact affine back-transform; plus the
analogous spacelike construction in the flat-signature graph equation.  Every
constructed solution carries a machine-checkable certificate.

Each ODE is integrated, as its second derivative alone, from 0 in both
directions and the two legs are joined into one ascending
``numerics.Trajectory``, on whose steps both profiles are integrated
(``fields.StepIntegralField``).  Its dense output is the quintic Hermite from
each knot's state, its derivative and the derivative's time derivative
taken from the ODE, so it has the integrator's order.  A profile's
clouds and CSV tables read the trajectory once, through the step integral's
cached ``read``, which holds F, F' and the state at each time; the stable
residual and single times read the phase through ``PhaseTrajectory``.  Both
profiles' tables, (x, the trajectory's state, f, f', f''), come from one
reader, ``_table``, and both certificates from one rule, ``Certificate.of``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .fields import ScalarField, SeparableExtensionField, StepIntegralField
from .numerics import MAX_GRID_POINTS, READ_SLACK, ConstructionError, DomainError, InputError
from .numerics import Trajectory, abs_tolerance, as_count, as_positive, integrate_ode
from .numerics import cumulative_simpson  # noqa: F401  unused; perfbench/tracing.py wraps it by this name
from .tau import Branch, minkowski_residual, phase, shrinker_residual
from .transforms import normalize_counterexample_branch

__all__ = [
    "PhaseTrajectory",
    "solve_phase_ode",
    "W1Profile",
    "assemble_w1",
    "Certificate",
    "build_counterexample",
    "MinkowskiProfile",
    "build_mss_counterexample",
]


RESIDUAL_TARGET = 1e-6  # the residual sup each construction certifies against
# The construction ODEs run at ODE_TOL_PER_TOL times the construction's
# tolerance; with dense output of the integrator's order the certified residual
# is about 10-30 times the integrator's tolerance (scripts/tolerance_scaling.py).
# 1e-4 is the largest power of ten that keeps criterion 05's build (1e-10) at
# its rounding floor, 1.990e-13 (1e-3: 1.755e-12).  1e-5 asks for 1e-15, which
# ODE_TOL_FLOOR lifts to 1e-14, a hair below 1e-10 * 1e-4, and gives 2.736e-13.
ODE_TOL_PER_TOL = 1e-4
# Never below criterion 05's 1e-14: finer steps resolve less than the doubles
# do, and a build at 1e-16 took 25 times as long as at 1e-12 for one residual.
ODE_TOL_FLOOR = 1e-14


def sigmoid(s):
    """Logistic e^s / (1 + e^s) without overflow on either tail; a float for a
    scalar, an array for an array.  A float skips numpy's shape dispatch and
    is rounded in Python floats, but its exponential is still ``np.exp``,
    which rounds a float as it rounds an array element, so both forms agree
    bit for bit (``math.exp`` does not)."""
    if isinstance(s, float) or np.ndim(s) == 0:
        s = float(s)
        e = float(np.exp(-abs(s)))
        return 1.0 / (1.0 + e) if s >= 0.0 else e / (1.0 + e)
    s = np.asarray(s, dtype=float)
    e = np.exp(-np.abs(s))
    return np.where(s >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _phase_rhs(t, phi, dphi):
    """phi'' of the phase ODE at t, from the floats phi and phi'."""
    sig = sigmoid(phi)
    return 0.5 * sig * (1.0 - sig) * t * dphi


def _phase_rhs_dot(ts, ys, fs):
    """phi''' at the knots ts, from their states and derivatives: with
    g = sigma(1 - sigma) t / 2, phi''' = g_t phi' + g phi'', where
    g_t = sigma(1 - sigma) ((1 - 2 sigma) phi' t + 1) / 2."""
    dphi, d2phi = ys[:, 1], fs[:, 1]
    sig = sigmoid(ys[:, 0])
    half_slope = 0.5 * sig * (1.0 - sig)
    g_t = half_slope * ((1.0 - 2.0 * sig) * dphi * ts + 1.0)
    return g_t * dphi + half_slope * ts * d2phi


@dataclass
class PhaseTrajectory:
    """Dense (phi, phi') on [-T, T], read on it alone (``numerics.read_span``).

    Beyond it the forcing e^phi/(2(1+e^phi)^2) is below the tail bound the
    certificate records, so phi' changes by at most that bound.  ``bound`` is
    the a-priori ceiling a1 * exp(e^{-a0}/a1^2) on phi' for t >= 0.
    """

    a0: float
    a1: float
    span: float
    abs_tol: float
    dense: Trajectory          # (phi, phi'), both legs joined, ascending
    bound: float
    monotone_on_right: bool
    positive_slope: bool

    def phi_pair(self, t):
        """(phi, phi') at t: ``dense`` read at one time."""
        phi, dphi = self.dense(t).tolist()
        return phi, dphi

    def phi_array(self, ts):
        """(phi, phi') at each of an array of times on the integrated span,
        shape (m, 2)."""
        return self.dense.evaluate(ts)

    def tail_bound(self, side=1):
        """Ceiling on the change of phi' past the integrated span, at the end
        of ``side``'s sign."""
        t_end = self.dense.ts[-1] if side > 0 else self.dense.ts[0]
        phi_end, dphi_end = self.phi_pair(t_end)
        rate = max(self.a1, dphi_end, 1e-30)
        return 0.5 * self.bound * math.exp(-abs(phi_end)) * (abs(t_end) / rate + 1.0 / (rate * rate))


def solve_phase_ode(a0, a1, T, rel_tol=1e-10):
    """Integrate the phase ODE on [-T, T] from phi(0)=a0, phi'(0)=a1 > 0.

    a1 = 0 forces the constant phase (a trivial solution) and is rejected, as
    is data whose a-priori ceiling on phi' overflows, or a T not finite and
    positive (``numerics.as_positive``).  A divergence event contradicts the
    entirety of the construction: it is an integrator failure, not recorded.
    """
    a0, a1 = float(a0), float(a1)
    if not (math.isfinite(a0) and math.isfinite(a1)):
        raise InputError(f"phi(0) and phi'(0) must be finite, got {a0}, {a1}")
    if a1 == 0.0:
        raise InputError("phi'(0) = 0 yields a constant phase: trivial solution")
    if a1 < 0.0:
        raise InputError("phi'(0) must be positive (negate t to flip the sign)")
    T = as_positive(T, "T")
    _check_size(T, rel_tol)
    try:
        bound = a1 * math.exp(math.exp(-a0) / (a1 * a1))
    except (OverflowError, ZeroDivisionError):
        bound = math.inf
    if not math.isfinite(bound):
        raise InputError(
            f"the a-priori ceiling a1 exp(exp(-a0)/a1^2) on phi' overflows at a0 = {a0}, a1 = {a1}"
        )
    abs_tol = abs_tolerance(rel_tol)  # at the construction's tolerance: the checks' slack

    assert _phase_rhs(0.0, a0, a1) == 0.0  # phi''(0) vanishes identically

    dense = _two_sided(_phase_rhs, _phase_rhs_dot, [a0, a1], T, rel_tol, "phase_ode", "t")
    right = dense.ys[dense.ts >= 0.0, 1]
    slack = 10.0 * (rel_tol * bound + abs_tol)
    monotone = bool(np.all(np.diff(right) >= -slack))
    positive = bool(np.all(dense.ys[:, 1] > 0.0))
    traj = PhaseTrajectory(a0, a1, T, abs_tol, dense, bound, monotone, positive)
    dphi_T = traj.phi_pair(T)[1]
    if dphi_T > bound * (1.0 + 1e-9) + slack:
        raise ConstructionError("phase_ode", f"phi'(T) = {dphi_T} exceeds the a-priori bound {bound}")
    return traj


def _two_sided(rhs, rhs_dot, y0, span, rel_tol, stage, var):
    """Integrate y'' = rhs(t, y, y') from 0 to +span and to -span at
    ODE_TOL_PER_TOL times the construction's tolerance, floored at
    ODE_TOL_FLOOR, and join the legs into one ascending Trajectory on
    [-span, span] that holds the origin knot once.  ``rhs_dot(ts, ys, fs)`` is
    y''' along the solution at the knots: beside y'', the third datum of the
    quintic dense output."""
    legs = []
    for t_end in (span, -span):
        leg = integrate_ode(rhs, y0, (0.0, t_end), max(rel_tol * ODE_TOL_PER_TOL, ODE_TOL_FLOOR))
        if not leg.completed:
            raise ConstructionError(
                stage,
                f"divergence event {leg.event.label} at {var} = {leg.event.t}: "
                "tolerance failure, not accepted",
            )
        legs.append(leg)
    pos, neg = legs
    ts, ys, fs = (np.concatenate([a[:0:-1], b]) for a, b in ((neg.ts, pos.ts), (neg.ys, pos.ys), (neg.fs, pos.fs)))
    return Trajectory(ts, ys, fs, n_steps=pos.n_steps + neg.n_steps,
                      n_rejected=pos.n_rejected + neg.n_rejected,
                      dfs=np.column_stack([fs[:, 1], rhs_dot(ts, ys, fs)]))


def _check_size(span, rel_tol):
    """Refuse, before any work, a tolerance that is not finite and positive
    with its absolute part (the checks' slack), and a half-span longer than
    the integrator's span at that tolerance: (MAX_GRID_POINTS - 1) // 2 steps of
    min(2e-2, max(7.5e-4, 0.35 tol^(1/4))).  It bounds a construction's size
    and keeps the integrator off spans it would cross in a few huge steps."""
    abs_tolerance(rel_tol)
    h = min(2e-2, max(7.5e-4, 0.35 * rel_tol**0.25))
    steps = (MAX_GRID_POINTS - 1) // 2
    if not span / h <= steps:  # NaN and inf fail too
        raise InputError(f"half-span {span} exceeds the integrator's span at tolerance {rel_tol}: "
                         f"{steps * h:.6g} ({steps} steps of {h:.4g})")


def profile_span(tp, radius, T):
    """Half-span of a build's profile table and CSV rows: max(T, radius + 1) for
    the spacelike build (``tp`` None); radius / c2 * 1.02 + 1 on the bounded
    cone, whose phase is read on the span it is integrated on and not past it:
    the reported tail bound is small only once the forcing is exponentially
    dead, which a small phase slope postpones past any window.  A radius that
    is not finite and positive is an InputError (``numerics.as_positive``)."""
    radius = as_positive(radius, "radius")
    if tp is None:
        return max(T, radius + 1.0)
    if tp.branch is not Branch.NEG:
        raise InputError(f"branch {tp.branch.value} is not the bounded-cone branch (a < -1)")
    return radius / tp.neg_scaling[1] * 1.02 + 1.0


def profile_grid(span, step):
    """-span + k step for k = 0, 1, ... up to span, past it by at most the
    slack of ``numerics.read_span``: the CSV rows of a profile on [-span, span].
    A step that is not finite and positive, or more than MAX_GRID_POINTS
    points, is refused before any point is formed, as is a half-span that is
    not finite and positive (``numerics.as_positive``, both)."""
    span, step = as_positive(span, "half-span"), as_positive(step, "grid step")
    if not 2 * span / step + 1 <= MAX_GRID_POINTS:  # NaN and inf fail too
        raise InputError(f"grid step {step} puts more than {MAX_GRID_POINTS} points on [-{span}, {span}]")
    xs = np.arange(-span, span + step / 2, step)
    return xs[xs <= span + READ_SLACK * (1 + span)]


@dataclass
class W1Profile:
    """1-D profile with curvature e^phi/(1+e^phi) on [-span, span], integrated
    twice on the phase trajectory's steps in ``field``."""

    traj: PhaseTrajectory
    span: float
    field: StepIntegralField
    identity_defect: float

    def third_derivative(self, t):
        """w1''' = sigma(phi)(1 - sigma(phi)) phi'  (the non-quadraticity witness)."""
        p, dp = self.traj.phi_pair(t)
        sig = sigmoid(p)
        return float(sig * (1.0 - sig) * dp)

    def rows(self, xs):
        """Trajectory table (t, phi, phi', w1, w1', w1'') at an array of times."""
        return _table(self.field, self.field, xs)


def _table(integral, fld, xs):
    """The profile table of both constructions, (x, the trajectory's state,
    f, f', f''), shape (m, 6), at a 1-D array of points (any other shape is
    an InputError): ``fld`` is read on the points as one (m, 1) cloud, all
    through one cached ``read`` of ``integral``, the step integral under it."""
    x = np.asarray(xs, dtype=float)
    if x.ndim != 1:
        raise InputError(f"expected a 1-D array of points, got shape {x.shape}")
    x = x[:, None]
    return np.column_stack([x, integral.read(x)[2:].T, fld.value(x), fld.gradient(x), fld.hessian(x)[:, 0]])


def assemble_w1(traj, span=None):
    """Profile w1 with w1'' = sigma(phi), w1(0) = -a0, w1'(0) = -2 a1 on
    [-span, span] (by default, and at most, the trajectory's span).

    Gauss-Legendre on phi's dense output, step by step (``StepIntegralField``),
    keeps w1, w1' and w1'' = sigma(phi(t)) consistent with one trajectory up
    to quadrature and rounding.  The defining identity  phi = t w1'/2 - w1  is
    re-verified at every knot in the span and its sup defect stored.  A span
    that is not finite and positive is an InputError (``numerics.as_positive``).
    """
    S = as_positive(span, "profile half-span") if span is not None else traj.span
    if not S <= traj.span:
        raise InputError(f"profile half-span {S} exceeds the integrated half-span {traj.span}")
    fld = StepIntegralField(traj.dense, sigmoid, -traj.a0, -2.0 * traj.a1, S)
    ts = traj.dense.ts
    inside = np.abs(ts) <= S
    identity = traj.dense.ys[:, 0] - (0.5 * ts * fld.slopes - fld.vals)
    return W1Profile(traj, S, fld, float(np.max(np.abs(identity[inside]))))


@dataclass
class Certificate:
    """Machine-checkable record attached to a constructed solution.

    Both constructions make theirs with ``Certificate.of``, which decides
    once: ``residual_sup`` is max |r| over the samples, a NaN residual being
    the sup; ``cross_checks["worst_sample"]`` the first sample attaining it
    (so the first NaN), as its ``tolist()`` (a list on an n-D cloud, a float
    on a line), or None when the sup is 0; ``witness["nonzero"]`` is
    |witness["value"]| > 1e-12, the value computed, not a closed form; and
    ``passed`` needs the sup at most RESIDUAL_TARGET, ``cone_ok``, a nonzero
    witness and every build-specific check.
    """

    equation: str
    residual_sup: float
    residual_target: float
    sample_count: int
    sample_radius: float
    cone_ok: bool
    cone_margin: float
    witness: dict
    bounds: dict
    cross_checks: dict
    config: dict
    passed: bool

    @classmethod
    def of(cls, samples, residuals, *, equation, radius, cone_ok, cone_margin, witness, bounds,
           cross_checks, config, checks=()):
        """The certificate of ``residuals[i]`` at ``samples[i]``; the build gives
        the rest, and in ``checks`` its own conditions (bools) for ``passed``."""
        size = np.abs(residuals)
        sup = float(np.max(size, initial=0.0))  # a NaN residual propagates
        worst = np.asarray(samples)[np.argmax(size)].tolist() if sup != 0.0 else None
        witness = {**witness, "nonzero": bool(abs(witness["value"]) > 1e-12)}
        passed = sup <= RESIDUAL_TARGET and cone_ok and witness["nonzero"] and all(checks)
        return cls(equation, sup, RESIDUAL_TARGET, len(samples), float(radius), bool(cone_ok), float(cone_margin),
                   witness, bounds, {**cross_checks, "worst_sample": worst}, config, bool(passed))

    def to_dict(self):
        return asdict(self)


def _neg_cone_margin(b, phi_min, phi_max, n):
    """Distance 2b min(mu_min, 1 - mu_max) of the curvatures mu = sigmoid(phi)
    from the cone edges, with 1 - sigmoid(phi_max) taken as sigmoid(-phi_max):
    the rounded difference is 0 once phi_max passes about 37.  The transverse
    curvatures 1/2 cap it at 1/2 for n > 1."""
    margin = min(sigmoid(phi_min), sigmoid(-phi_max))
    if n > 1:
        margin = min(margin, 0.5)
    return 2.0 * b * margin


def _ball_samples(rng, n, radius, count):
    pts = rng.standard_normal((count, n))
    pts /= np.maximum(np.linalg.norm(pts, axis=1, keepdims=True), 1e-300)
    radii = radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)
    return pts * radii


def build_counterexample(
    tp,
    a0,
    a1,
    n,
    T=20.0,
    rel_tol=1e-10,
    radius=10.0,
    samples=800,
    seed=0,
):
    """Entire non-quadratic admissible solution on the bounded-cone branch.

    Chains the phase ODE, double quadrature, product extension, and the exact
    affine back-transform; certifies the equation residual on a sample cloud
    of |x| <= radius, strict cone membership, the non-quadraticity witness
    w1'''(0), and the phi' ceiling.

    The residual is evaluated in the algebraically identical logit-stable form
    (the operator side reduces to phi(x_1/c2)/k exactly); near the cloud edge
    the Hessian spectrum sits within ~1e-13 of the cone boundary, where the
    generic eigenvalue route is ill-conditioned in double precision.  That
    route is cross-checked on the inner half-ball and recorded; its sups are
    null if a spectrum there rounds onto the cone edge, and the certificate
    rests on the stable form alone.
    """
    span_needed = profile_span(tp, radius, T)  # refuses a branch other than NEG
    n = as_count(n, "dimension")
    seed = as_count(seed, "seed", 0)
    samples = as_count(samples, "samples")  # on none a certificate passes unread
    k, c2 = tp.neg_scaling
    traj = solve_phase_ode(a0, a1, max(T, span_needed), rel_tol=rel_tol)

    prof = assemble_w1(traj, span=span_needed)
    ufield = normalize_counterexample_branch(tp, SeparableExtensionField(prof.field, n))

    rng = np.random.default_rng(seed)
    pts = _ball_samples(rng, n, radius, samples)
    probes = np.zeros((3, n))
    probes[1, 0] = radius
    probes[2, 0] = -radius
    pts = np.vstack([pts, probes])

    phis = traj.phi_array(pts[:, 0] / c2)[:, 0]
    stables = (1.0 / k) * phis - phase(ufield, pts)
    cone_margin = _neg_cone_margin(tp.b, float(phis.min()), float(phis.max()), n)
    # sigmoid(phi) lies in (0, 1) for every finite phi, though the margin
    # underflows to 0 once |phi| passes about 745
    cone_ok = bool(np.isfinite(phis).all())

    # generic eigenvalue-route cross-check where it is well-conditioned
    is_inner = np.linalg.norm(pts, axis=1) <= 0.5 * radius
    inner = pts[is_inner]
    try:
        generic = shrinker_residual(tp, ufield, inner)
    except DomainError:
        cross_sup = agree_sup = None
    else:
        cross_sup = float(np.max(np.abs(generic), initial=0.0))
        agree_sup = float(np.max(np.abs(generic - stables[is_inner]), initial=0.0))

    witness_val = prof.third_derivative(0.0)
    witness = {
        "name": "w1_third_derivative_at_0",
        "location": 0.0,
        "value": witness_val,
        "expected": a1 * math.exp(a0) / (1.0 + math.exp(a0)) ** 2,
        "mapped_to_solution": witness_val / (k * c2**3),
        "curvature_at_0": float(sigmoid(traj.phi_pair(0.0)[0])),
    }

    bound_slack = 100.0 * (rel_tol * traj.bound + traj.abs_tol)
    dphi_T = traj.phi_pair(T)[1]
    bounds = {
        "phi_prime_at_T": dphi_T,
        "phi_prime_ceiling": traj.bound,
        "phi_prime_within_ceiling": bool(dphi_T <= traj.bound + bound_slack),
        "phi_prime_monotone_right": traj.monotone_on_right,
        "phi_prime_positive": traj.positive_slope,
        "identity_defect": prof.identity_defect,
        "tail_bound_right": traj.tail_bound(+1),
        "tail_bound_left": traj.tail_bound(-1),
    }
    cross_checks = {
        "generic_route_inner_sup": cross_sup,
        "route_agreement_inner_sup": agree_sup,
        "inner_sample_count": int(len(inner)),
    }
    config = {"a": tp.a, "b": tp.b, "tau": tp.tau, "a0": float(a0), "a1": float(a1), "n": n, "T": float(T),
              "rel_tol": float(rel_tol), "abs_tol": traj.abs_tol, "radius": float(radius),
              "samples": samples, "seed": seed}
    return ufield, prof, Certificate.of(
        pts, stables, equation="bounded-cone self-shrinker potential equation", radius=radius,
        cone_ok=cone_ok, cone_margin=cone_margin, witness=witness, bounds=bounds,
        cross_checks=cross_checks, config=config, checks=[bounds["phi_prime_within_ceiling"]],
    )


class MinkowskiProfile(ScalarField):
    """Entire 1-D spacelike profile: f' = tanh(s), with (s, phi) from the
    second-order equation  s'' = (x/2) sech^2(s) s',  phi = s'.

    ``gradient_complement`` evaluates 1 - f'^2 = sech^2(s) without the
    catastrophic cancellation of forming it from a rounded f'.  Every read of
    a cloud is the one cached ``read`` of ``integral``, a
    ``StepIntegralField`` with F'' = tanh(s) on the integrated (s, phi)
    trajectory: f is its F', and (s, phi) its state rows.  tanh and cosh are
    ``math``'s per element, mapped into flat arrays (numpy's differ in the
    last bit), and sech^2(s) phi is one numpy product.
    """

    dim = 1

    def __init__(self, integral):
        self._integral = integral
        self.span = integral.span    # the half-span of the trajectory and of f
        self._last_sech2 = (None, None)    # (the read it was mapped over, sech^2(s))

    def rows(self, xs):
        """Profile table (x, s, phi, f, f', f'') at an array of points."""
        return _table(self._integral, self, xs)

    def _value(self, x):
        return self._integral.read(x)[1]

    def _gradient(self, x):
        return np.array(list(map(math.tanh, self._integral.read(x)[2].tolist())))[:, None]

    def _hessian(self, x):
        return (self.gradient_complement(x) * self._integral.read(x)[3])[:, None, None]

    def gradient_complement(self, x):
        """1 - f'^2 = sech^2(s) at an (m, 1) cloud, as (m,): mapped once per
        cloud, as the residual reads it and then the Hessian."""
        reads = self._integral.read(x)
        if self._last_sech2[0] is not reads:
            sech2 = np.array(list(map(_sech2, reads[2].tolist())))
            sech2.flags.writeable = False    # shared by every read of this cloud
            self._last_sech2 = (reads, sech2)
        return self._last_sech2[1]


def _sech2(s):
    """sech(s)^2; 0.0 where cosh overflows (|s| > 710), far past the |s| of
    about 373 where the square underflows to 0."""
    try:
        return (1.0 / math.cosh(s)) ** 2
    except OverflowError:
        return 0.0


def _mss_rhs(x, s, p):
    """s'' = phi' of the spacelike system at x, from the floats s and phi = s'."""
    return 0.5 * x * _sech2(s) * p


def _mss_rhs_dot(xs, ys, fs):
    """phi'' at the knots xs, from their states and derivatives: with
    E = sech^2 s, E' = -2 E tanh(s) phi, so
    phi'' = E phi / 2 - x E tanh(s) phi^2 + x E phi' / 2."""
    s, p, dp = ys[:, 0], ys[:, 1], fs[:, 1]
    with np.errstate(over="ignore"):  # cosh overflows past |s| = 710, where sech^2 is 0
        E = (1.0 / np.cosh(s)) ** 2
    return 0.5 * E * p - xs * E * np.tanh(s) * p * p + 0.5 * xs * E * dp


def _spacelike_margin(max_abs_s):
    """1 - sup|f'| = 1 - tanh(max|s|) as 2 e^{-2|s|} / (1 + e^{-2|s|}): the
    rounded difference is 0 once |s| passes about 19."""
    e = math.exp(-2.0 * max_abs_s)
    return 2.0 * e / (1.0 + e)


def build_mss_counterexample(
    phi0,
    s0=0.0,
    T=20.0,
    rel_tol=1e-10,
    radius=10.0,
    samples=2001,
):
    """Entire non-trivial solution of the spacelike graph equation.

    With  phi = (x f' - f)/2  the 1-D equation reads  f''/(1 - f'^2) = phi;
    substituting  s = artanh(f')  gives  s'' = (x/2) sech^2(s) s',  integrated
    here, with  f(0) = -2 phi(0)  and f recovered by quadrature of tanh(s) on
    the integrator's steps.
    The certificate checks the equation residual (via the independent
    residual operator, on the sample cloud in one call), strict spacelikeness
    (|f'| = |tanh s| < 1 wherever s is finite, with margin 1 - sup|f'| taken
    from the largest |s|), and the nonlinearity witness f''(0) != 0, read
    from the profile and recorded beside its closed form sech^2(s0) phi0.
    T and the radius must be finite and positive (``numerics.as_positive``).
    """
    phi0, s0, T = float(phi0), float(s0), as_positive(T, "T")
    if phi0 == 0.0:
        raise InputError("phi(0) = 0 yields a linear profile: trivial solution")
    samples = as_count(samples, "samples")  # on none a certificate passes unread
    span = profile_span(None, radius, T)
    _check_size(span, rel_tol)

    dense = _two_sided(_mss_rhs, _mss_rhs_dot, [s0, phi0], span, rel_tol, "mss_ode", "x")
    integral = StepIntegralField(dense, np.tanh, 0.0, -2.0 * phi0, span)
    fld = MinkowskiProfile(integral)

    xs = np.linspace(-radius, radius, samples)
    residuals = minkowski_residual(fld, xs[:, None])
    cloud_s = integral.read(xs[:, None])[2]  # the residual's own read of the cloud
    max_abs_s = float(np.max(np.abs(cloud_s), initial=0.0))

    witness = {
        "name": "f_second_derivative_at_0",
        "location": 0.0,
        "value": float(fld.hessian([0.0])[0, 0]),
        "expected": _sech2(s0) * phi0,
    }
    bounds = {
        "sup_abs_slope": math.tanh(max_abs_s),  # max|f'| = max|tanh s|: tanh is odd and increasing
        "spacelike": math.isfinite(max_abs_s),
        "f_at_0": float(fld.value([0.0])),
        "f_at_0_expected": -2.0 * phi0,
        "slope_at_0": float(fld.gradient([0.0])[0]),
        "slope_at_0_expected": math.tanh(s0),
    }
    config = {"phi0": phi0, "s0": s0, "T": T, "rel_tol": float(rel_tol), "abs_tol": abs_tolerance(rel_tol),
              "radius": float(radius), "samples": samples}
    return fld, Certificate.of(
        xs, residuals, equation="spacelike graph self-shrinker equation", radius=radius,
        cone_ok=bounds["spacelike"], cone_margin=_spacelike_margin(max_abs_s), witness=witness,
        bounds=bounds, cross_checks={}, config=config,
    )
