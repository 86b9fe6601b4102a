"""Numerical construction of entire non-quadratic solutions on the
bounded-cone branch, via the phase ODE

    phi'' = e^phi / (2 (1 + e^phi)^2) * t * phi',    phi(0) = a0, phi'(0) = a1,

double quadrature to a 1-D profile with curvature e^phi/(1+e^phi), product
extension to n dimensions, and the exact affine back-transform; plus the
analogous spacelike construction in the flat-signature graph equation.  Every
constructed solution carries a machine-checkable certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .fields import ScalarField, SeparableExtensionField, Table1DField
from .numerics import InputError, Trajectory, hermite_value, integrate_ode
from .tau import Branch, minkowski_residual, phase, shrinker_residual
from .transforms import normalize_counterexample_branch, _neg_constants

__all__ = [
    "TrivialSolutionError",
    "ConstructionError",
    "PhaseTrajectory",
    "solve_phase_ode",
    "W1Profile",
    "assemble_w1",
    "assemble_nd",
    "Certificate",
    "build_counterexample",
    "MinkowskiProfile",
    "build_mss_counterexample",
]


class TrivialSolutionError(ValueError):
    """Initial data that can only produce the trivial (quadratic/linear) solution."""


class ConstructionError(RuntimeError):
    def __init__(self, stage, message):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def sigmoid(s):
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.ndim else float(out)


def _phase_rhs(t, y):
    sig = sigmoid(y[0])
    return np.array([y[1], 0.5 * sig * (1.0 - sig) * t * y[1]])


@dataclass
class PhaseTrajectory:
    """Dense (phi, phi') on [-T, T] with a linear tail extension beyond.

    Beyond the integrated span the forcing e^phi/(2(1+e^phi)^2) is below the
    recorded tail bound, so phi' is frozen and phi extended linearly; the
    certificate carries that bound.  ``bound`` is the a-priori ceiling
    a1 * exp(e^{-a0}/a1^2) on phi' for t >= 0.
    """

    a0: float
    a1: float
    span: float
    rel_tol: float
    abs_tol: float
    knots_t: np.ndarray
    knots_y: np.ndarray        # (N, 2): phi, phi'
    knots_f: np.ndarray        # (N, 2): derivatives
    bound: float
    monotone_on_right: bool
    positive_slope: bool
    n_steps: int

    def _ends(self):
        return self.knots_t[0], self.knots_t[-1]

    def phi_pair(self, t):
        """(phi, phi') at scalar t, tail-extended outside the integrated span."""
        lo, hi = self._ends()
        t = float(t)
        if t > hi:
            y = self.knots_y[-1]
            return y[0] + y[1] * (t - hi), y[1]
        if t < lo:
            y = self.knots_y[0]
            return y[0] + y[1] * (t - lo), y[1]
        k = int(np.searchsorted(self.knots_t, t, side="right") - 1)
        k = min(max(k, 0), len(self.knots_t) - 2)
        y = hermite_value(
            t,
            self.knots_t[k],
            self.knots_t[k + 1],
            self.knots_y[k],
            self.knots_y[k + 1],
            self.knots_f[k],
            self.knots_f[k + 1],
        )
        return float(y[0]), float(y[1])

    def phi(self, t):
        return self.phi_pair(t)[0]

    def dphi(self, t):
        return self.phi_pair(t)[1]

    def phi_array(self, ts):
        """Vectorized phi over a (sorted or not) array of times."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = self._ends()
        out = np.empty_like(ts)
        below = ts < lo
        above = ts > hi
        inside = ~(below | above)
        if np.any(below):
            y = self.knots_y[0]
            out[below] = y[0] + y[1] * (ts[below] - lo)
        if np.any(above):
            y = self.knots_y[-1]
            out[above] = y[0] + y[1] * (ts[above] - hi)
        if np.any(inside):
            tq = ts[inside]
            k = np.clip(np.searchsorted(self.knots_t, tq, side="right") - 1, 0, len(self.knots_t) - 2)
            t0 = self.knots_t[k]
            t1 = self.knots_t[k + 1]
            h = t1 - t0
            s = (tq - t0) / h
            s2 = s * s
            s3 = s2 * s
            y0 = self.knots_y[k, 0]
            y1 = self.knots_y[k + 1, 0]
            d0 = self.knots_f[k, 0]
            d1 = self.knots_f[k + 1, 0]
            out[inside] = (
                (2 * s3 - 3 * s2 + 1) * y0
                + (s3 - 2 * s2 + s) * h * d0
                + (-2 * s3 + 3 * s2) * y1
                + (s3 - s2) * h * d1
            )
        return out

    def tail_bound(self, side=1):
        """Ceiling on the phi' change neglected by the tail extension."""
        t_end = self.knots_t[-1] if side > 0 else self.knots_t[0]
        phi_end, dphi_end = self.phi_pair(t_end)
        rate = max(self.a1, dphi_end, 1e-30)
        return 0.5 * self.bound * math.exp(-abs(phi_end)) * (abs(t_end) / rate + 1.0 / rate**2)


def solve_phase_ode(a0, a1, T, rel_tol=1e-10, abs_tol=None):
    """Integrate the phase ODE on [-T, T] from phi(0)=a0, phi'(0)=a1 > 0.

    a1 = 0 forces the constant phase (a trivial solution) and is rejected.
    A divergence event contradicts the entirety of the construction, so it is
    raised as an integrator failure rather than recorded.
    """
    a0, a1, T = float(a0), float(a1), float(T)
    if a1 == 0.0:
        raise TrivialSolutionError("phi'(0) = 0 yields a constant phase: trivial solution")
    if a1 < 0.0:
        raise InputError("phi'(0) must be positive (negate t to flip the sign)")
    if not T > 0:
        raise InputError(f"need T > 0, got {T}")
    abs_tol = rel_tol * 1e-2 if abs_tol is None else float(abs_tol)

    rhs0 = _phase_rhs(0.0, np.array([a0, a1]))
    assert rhs0[1] == 0.0  # phi''(0) vanishes identically

    # cubic Hermite dense output is a full order below the integrator, so cap
    # the step with the tolerance to keep interpolated values on budget
    max_step = _dense_step_cap(rel_tol)
    legs = []
    for t_end in (T, -T):
        leg = integrate_ode(_phase_rhs, [a0, a1], (0.0, t_end), rel_tol, abs_tol, max_step=max_step)
        if not leg.completed:
            raise ConstructionError(
                "phase_ode",
                f"divergence event {leg.event.label} at t = {leg.event.t}: "
                "tolerance failure, not accepted",
            )
        legs.append(leg)
    pos, neg = legs

    ts = np.concatenate([neg.ts[::-1][:-1], pos.ts])
    ys = np.concatenate([neg.ys[::-1][:-1], pos.ys])
    fs = np.concatenate([neg.fs[::-1][:-1], pos.fs])

    bound = a1 * math.exp(math.exp(-a0) / (a1 * a1))
    right = pos.ys[:, 1]
    slack = 10.0 * (rel_tol * bound + abs_tol)
    monotone = bool(np.all(np.diff(right) >= -slack))
    positive = bool(np.all(ys[:, 1] > 0.0))
    traj = PhaseTrajectory(
        a0=a0,
        a1=a1,
        span=T,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        knots_t=ts,
        knots_y=ys,
        knots_f=fs,
        bound=bound,
        monotone_on_right=monotone,
        positive_slope=positive,
        n_steps=pos.n_steps + neg.n_steps,
    )
    if traj.dphi(T) > bound * (1.0 + 1e-9) + slack:
        raise ConstructionError(
            "phase_ode", f"phi'(T) = {traj.dphi(T)} exceeds the a-priori bound {bound}"
        )
    return traj


def _quadrature_step(rel_tol):
    """Tie the quadrature step to the integrator tolerance so the composite
    error keeps scaling when tolerances tighten (h^4 term tracks tol)."""
    return min(2e-2, max(7.5e-4, 0.35 * rel_tol**0.25))


def _dense_step_cap(rel_tol):
    return max(2e-3, 2.0 * rel_tol**0.25)


@dataclass
class W1Profile:
    """1-D profile with curvature e^phi/(1+e^phi), built by double quadrature."""

    traj: PhaseTrajectory
    ts: np.ndarray
    w1: np.ndarray
    w1p: np.ndarray
    w1pp: np.ndarray
    field: Table1DField
    identity_defect: float

    def third_derivative(self, t):
        """w1''' = sigma(phi)(1 - sigma(phi)) phi'  (the non-quadraticity witness)."""
        p, dp = self.traj.phi_pair(t)
        sig = sigmoid(p)
        return float(sig * (1.0 - sig) * dp)

    def rows(self):
        """Trajectory table (t, phi, phi', w1, w1', w1'')."""
        phis = self.traj.phi_array(self.ts)
        dphis = np.array([self.traj.dphi(t) for t in self.ts])
        return np.column_stack([self.ts, phis, dphis, self.w1, self.w1p, self.w1pp])


def assemble_w1(traj, span=None, quad_step=None):
    """Profile w1 with w1'' = e^phi/(1+e^phi), w1(0) = -a0, w1'(0) = -2 a1.

    Simpson quadrature on the integrator's dense output at a fixed fine step
    keeps all derivative relations consistent with one trajectory.  The
    defining identity  phi = t w1'/2 - w1  is re-verified at every node and
    its sup defect stored.
    """
    S = float(span) if span is not None else traj.span
    h = _quadrature_step(traj.rel_tol) if quad_step is None else float(quad_step)
    m = int(math.ceil(S / h))
    step = S / m
    ts = step * (np.arange(2 * m + 1) - m)  # exact 0 at index m

    w1pp = sigmoid(traj.phi_array(ts))
    cs = cumulative_simpson(w1pp, dx=step, initial=0.0)
    w1p = -2.0 * traj.a1 + (cs - cs[m])
    cs2 = cumulative_simpson(w1p, dx=step, initial=0.0)
    w1 = -traj.a0 + (cs2 - cs2[m])

    phis = traj.phi_array(ts)
    defect = float(np.max(np.abs(phis - (0.5 * ts * w1p - w1))))

    fld = Table1DField(ts, w1, w1p, w1pp, curvature_fn=lambda t: sigmoid(traj.phi(t)))
    return W1Profile(traj, ts, w1, w1p, w1pp, fld, defect)


def assemble_nd(profile, n):
    """Product extension  w(x) = w1(x_1) + (|x|^2 - x_1^2)/4  to dimension n.

    The transverse Hessian eigenvalues are exactly 1/2, which contribute
    nothing to either side of the logit equation, so the n-D residual at x
    equals the 1-D residual at x_1.
    """
    base = profile.field if isinstance(profile, W1Profile) else profile
    return SeparableExtensionField(base, n)


@dataclass
class Certificate:
    """Machine-checkable record attached to a constructed solution."""

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

    def to_dict(self):
        return {
            "equation": self.equation,
            "residual_sup": self.residual_sup,
            "residual_target": self.residual_target,
            "sample_count": self.sample_count,
            "sample_radius": self.sample_radius,
            "cone_ok": self.cone_ok,
            "cone_margin": self.cone_margin,
            "witness": dict(self.witness),
            "bounds": dict(self.bounds),
            "cross_checks": dict(self.cross_checks),
            "config": dict(self.config),
            "passed": self.passed,
        }


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
    abs_tol=None,
    radius=10.0,
    samples=800,
    seed=0,
    residual_target=1e-6,
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
    route is cross-checked on the inner half-ball and recorded.
    """
    if tp.branch is not Branch.NEG:
        raise ConstructionError("normalize", f"branch {tp.branch.value} is not the bounded-cone branch")
    n = int(n)
    if n < 1:
        raise InputError(f"dimension must be >= 1, got {n}")
    a, b, k, c2, s_quad = _neg_constants(tp)

    # integrate at least as far as the certificate evaluates: the linear tail
    # extension is only valid once the forcing is exponentially dead, which a
    # small phase slope postpones past any fixed window
    span_needed = radius / c2 * 1.02 + 1.0
    traj = solve_phase_ode(a0, a1, max(T, span_needed), rel_tol=rel_tol, abs_tol=abs_tol)

    try:
        prof = assemble_w1(traj, span=span_needed)
    except Exception as exc:  # noqa: BLE001 - stage tagging
        raise ConstructionError("assemble_w1", str(exc)) from exc
    wfield = assemble_nd(prof, n)
    ufield = normalize_counterexample_branch(tp, "to_u", wfield)

    rng = np.random.default_rng(seed)
    pts = _ball_samples(rng, n, radius, samples)
    probes = np.zeros((3, n))
    probes[1, 0] = radius
    probes[2, 0] = -radius
    pts = np.vstack([pts, probes])

    inv_k = 1.0 / k
    sup = 0.0
    sup_at = None
    mu_min, mu_max = math.inf, -math.inf
    for z in pts:
        x1 = z[0] / c2
        stable = inv_k * traj.phi(x1) - phase(ufield, z)
        if abs(stable) > sup:
            sup, sup_at = abs(stable), z.copy()
        mu1 = float(sigmoid(traj.phi(x1)))
        mu_min = min(mu_min, mu1, 0.5 if n > 1 else mu1)
        mu_max = max(mu_max, mu1, 0.5 if n > 1 else mu1)
    cone_margin = 2.0 * b * min(mu_min, 1.0 - mu_max)
    cone_ok = cone_margin > 0.0

    # generic eigenvalue-route cross-check where it is well-conditioned
    inner = pts[np.linalg.norm(pts, axis=1) <= 0.5 * radius]
    cross_sup = 0.0
    agree_sup = 0.0
    for z in inner[: max(1, len(inner))]:
        generic = shrinker_residual(tp, ufield, z)
        stable = inv_k * traj.phi(z[0] / c2) - phase(ufield, z)
        cross_sup = max(cross_sup, abs(generic))
        agree_sup = max(agree_sup, abs(generic - stable))

    sig0 = float(sigmoid(traj.phi(0.0)))
    witness_val = prof.third_derivative(0.0)
    witness_expected = a1 * math.exp(a0) / (1.0 + math.exp(a0)) ** 2
    witness = {
        "name": "w1_third_derivative_at_0",
        "location": 0.0,
        "value": witness_val,
        "expected": witness_expected,
        "mapped_to_solution": witness_val / (k * c2**3),
        "curvature_at_0": sig0,
        "nonzero": abs(witness_val) > 1e-12,
    }

    abs_tol_v = traj.abs_tol
    bound_slack = 100.0 * (rel_tol * traj.bound + abs_tol_v)
    dphi_T = traj.dphi(T)
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
        "worst_sample": list(map(float, sup_at)) if sup_at is not None else None,
    }
    config = {
        "a": a,
        "b": b,
        "tau": tp.tau,
        "a0": float(a0),
        "a1": float(a1),
        "n": n,
        "T": float(T),
        "rel_tol": float(rel_tol),
        "abs_tol": abs_tol_v,
        "radius": float(radius),
        "samples": int(samples),
        "seed": int(seed),
    }
    passed = (
        sup <= residual_target
        and cone_ok
        and witness["nonzero"]
        and bounds["phi_prime_within_ceiling"]
    )
    cert = Certificate(
        equation="bounded-cone self-shrinker potential equation",
        residual_sup=float(sup),
        residual_target=float(residual_target),
        sample_count=int(len(pts)),
        sample_radius=float(radius),
        cone_ok=cone_ok,
        cone_margin=float(cone_margin),
        witness=witness,
        bounds=bounds,
        cross_checks=cross_checks,
        config=config,
        passed=bool(passed),
    )
    return ufield, prof, cert


class MinkowskiProfile(ScalarField):
    """Entire 1-D spacelike profile: f' = tanh(s), with (s, phi) from the
    first-order system  s' = phi,  phi' = (x/2) sech^2(s) phi.

    ``gradient_complement`` evaluates 1 - f'^2 = sech^2(s) without the
    catastrophic cancellation of forming it from a rounded f'.
    """

    backend = "trajectory"
    dim = 1

    def __init__(self, table, s_phi_pair):
        self._table = table
        self._pair = s_phi_pair

    def value(self, x):
        return self._table.value(x)

    def gradient(self, x):
        s, _ = self._pair(float(self._point(x)[0]))
        return np.array([math.tanh(s)])

    def hessian(self, x):
        s, p = self._pair(float(self._point(x)[0]))
        sech2 = (1.0 / math.cosh(s)) ** 2
        return np.array([[sech2 * p]])

    def gradient_complement(self, x):
        s, _ = self._pair(float(self._point(x)[0]))
        return (1.0 / math.cosh(s)) ** 2


def _mss_rhs(x, y):
    s, p = y
    sech2 = (1.0 / math.cosh(s)) ** 2
    return np.array([p, 0.5 * x * sech2 * p])


def build_mss_counterexample(
    phi0,
    s0=0.0,
    T=20.0,
    rel_tol=1e-10,
    abs_tol=None,
    radius=10.0,
    samples=2001,
    residual_target=1e-6,
):
    """Entire non-trivial solution of the spacelike graph equation.

    With  phi = (x f' - f)/2  the 1-D equation reads  f''/(1 - f'^2) = phi;
    substituting  s = artanh(f')  gives the first-order system integrated
    here, with  f(0) = -2 phi(0)  and f recovered by quadrature of tanh(s).
    The certificate checks the equation residual (via the independent
    pointwise residual operator), strict spacelikeness sup|f'| < 1, and the
    nonlinearity witness  f''(0) = sech^2(s0) phi0 != 0.
    """
    phi0, s0, T = float(phi0), float(s0), float(T)
    if phi0 == 0.0:
        raise TrivialSolutionError("phi(0) = 0 yields a linear profile: trivial solution")
    if not T > 0:
        raise InputError(f"need T > 0, got {T}")
    abs_tol = rel_tol * 1e-2 if abs_tol is None else float(abs_tol)
    span = max(T, radius + 1.0)

    max_step = _dense_step_cap(rel_tol)
    legs = []
    for t_end in (span, -span):
        leg = integrate_ode(_mss_rhs, [s0, phi0], (0.0, t_end), rel_tol, abs_tol, max_step=max_step)
        if not leg.completed:
            raise ConstructionError(
                "mss_ode",
                f"divergence event {leg.event.label} at x = {leg.event.t}: "
                "tolerance failure, not accepted",
            )
        legs.append(leg)
    pos, neg = legs
    ts_k = np.concatenate([neg.ts[::-1][:-1], pos.ts])
    ys_k = np.concatenate([neg.ys[::-1][:-1], pos.ys])
    fs_k = np.concatenate([neg.fs[::-1][:-1], pos.fs])

    def pair(t):
        t = float(t)
        t = min(max(t, ts_k[0]), ts_k[-1])
        j = int(np.searchsorted(ts_k, t, side="right") - 1)
        j = min(max(j, 0), len(ts_k) - 2)
        y = hermite_value(t, ts_k[j], ts_k[j + 1], ys_k[j], ys_k[j + 1], fs_k[j], fs_k[j + 1])
        return float(y[0]), float(y[1])

    h = _quadrature_step(rel_tol)
    m = int(math.ceil(span / h))
    step = span / m
    ts = step * (np.arange(2 * m + 1) - m)
    svals = np.empty_like(ts)
    pvals = np.empty_like(ts)
    for i, t in enumerate(ts):
        svals[i], pvals[i] = pair(t)
    fp = np.tanh(svals)
    fpp = (1.0 / np.cosh(svals)) ** 2 * pvals
    cs = cumulative_simpson(fp, dx=step, initial=0.0)
    fvals = -2.0 * phi0 + (cs - cs[m])

    table = Table1DField(ts, fvals, fp, fpp)
    fld = MinkowskiProfile(table, pair)

    xs = np.linspace(-radius, radius, int(samples))
    sup = 0.0
    sup_at = 0.0
    max_abs_fp = 0.0
    for x in xs:
        r = minkowski_residual(fld, [x])
        if abs(r) > sup:
            sup, sup_at = abs(r), float(x)
        max_abs_fp = max(max_abs_fp, abs(float(fld.gradient([x])[0])))

    witness_val = (1.0 / math.cosh(s0)) ** 2 * phi0
    witness = {
        "name": "f_second_derivative_at_0",
        "location": 0.0,
        "value": float(fld.hessian([0.0])[0, 0]),
        "expected": witness_val,
        "nonzero": abs(witness_val) > 1e-12,
    }
    bounds = {
        "sup_abs_slope": max_abs_fp,
        "spacelike": bool(max_abs_fp < 1.0),
        "f_at_0": float(fld.value([0.0])),
        "f_at_0_expected": -2.0 * phi0,
        "slope_at_0": float(fld.gradient([0.0])[0]),
        "slope_at_0_expected": math.tanh(s0),
    }
    config = {
        "phi0": phi0,
        "s0": s0,
        "T": T,
        "rel_tol": float(rel_tol),
        "abs_tol": float(abs_tol),
        "radius": float(radius),
        "samples": int(samples),
    }
    passed = sup <= residual_target and bounds["spacelike"] and witness["nonzero"]
    cert = Certificate(
        equation="spacelike graph self-shrinker equation",
        residual_sup=float(sup),
        residual_target=float(residual_target),
        sample_count=int(len(xs)),
        sample_radius=float(radius),
        cone_ok=bounds["spacelike"],
        cone_margin=float(1.0 - max_abs_fp),
        witness=witness,
        bounds=bounds,
        cross_checks={"worst_sample": sup_at},
        config=config,
        passed=bool(passed),
    )
    return fld, cert
