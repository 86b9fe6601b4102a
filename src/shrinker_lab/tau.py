"""The one-parameter operator family on Hessian eigenvalues, its admissibility
cones, and the pointwise residual operators built from it.

The family is indexed by an angle ``tau`` in (-pi/4, pi/2].  Each member sums
one scalar function f over a symmetric spectrum; f, f^-1 and f' have closed
forms on every branch, one block a branch in ``_forms``, the float ones bound
once per ``TauParams``, and F and dF/dH read one spectrum or a stack.  Branch
tags are stored explicitly: seam angles are never inferred from floating-point
comparisons of cot^2(tau) with 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from types import SimpleNamespace

import mpmath as mp
import numpy as np

from . import jets
from .numerics import DomainError, InputError, as_cloud, as_positive, eig_sym, eig_sym_full, row_dot

__all__ = [
    "Branch",
    "TauParams",
    "ConeSpec",
    "cone_spec",
    "f_value",
    "f_derivative",
    "f_inverse",
    "f_range",
    "f_value_mp",
    "f_inverse_mp",
    "operator_value",
    "operator_gradient_matrix",
    "admissible",
    "phase",
    "shrinker_residual",
    "growth_ratio",
    "minkowski_residual",
]

SQRT2 = math.sqrt(2.0)


class Branch(str, Enum):
    MA = "MA"        # tau = 0, log-determinant operator
    LOG = "LOG"      # 0 < tau < pi/4
    HARM = "HARM"    # tau = pi/4, harmonic-mean type operator
    ATAN = "ATAN"    # pi/4 < tau < pi/2
    SLAG = "SLAG"    # tau = pi/2, arctangent operator
    NEG = "NEG"      # -pi/4 < tau < 0, bounded-interval cone


@dataclass(frozen=True)
class ConeSpec:
    """One open component (lo, hi) of the admissible eigenvalues, with the tag
    :func:`admissible` reports for it and the open range (f_lo, f_hi) of the
    scalar summand on it."""

    tag: str           # upper | lower | all | inside-interval
    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def contains(self, lam):
        return self.lo < lam < self.hi


@dataclass(frozen=True)
class TauParams:
    """Angle tau with derived constants and an explicit branch tag.

    ``a = cot(tau)`` and ``b = sqrt(|cot^2(tau) - 1|)``; both are stored as
    +inf on the MA branch, whose formulas never reference them.  ``cone_side``
    selects the component for branches with two admissible components.
    """

    tau: float
    a: float
    b: float
    branch: Branch
    cone_side: str = "upper"

    def __post_init__(self):
        if self.cone_side not in ("upper", "lower"):
            raise InputError(f"cone_side must be 'upper' or 'lower', got {self.cone_side!r}")
        if self.branch not in Branch:
            raise InputError(f"unknown branch {self.branch!r}")
        if self.branch is Branch.MA:
            return
        # each check holds only for finite values: a NaN, or the NaN of
        # inf - inf, fails it rather than slipping past a '>'
        if not abs(self.a - 1.0 / math.tan(self.tau)) <= 1e-9 * (1.0 + abs(self.a)):
            raise InputError(f"a = {self.a} is inconsistent with cot(tau) at tau = {self.tau}")
        if not abs(self.b * self.b - abs(self.a * self.a - 1.0)) <= 1e-9 * (1.0 + self.a * self.a):
            raise InputError(f"b = {self.b} is inconsistent with sqrt(|cot^2 tau - 1|) at a = {self.a}")
        if self.branch in (Branch.LOG, Branch.NEG) and not self.b < abs(self.a):
            # the cone edge -(a - b) on LOG, or -(b + a) on NEG, would be 0
            raise InputError(f"a = {self.a} rounds b = sqrt(a^2 - 1) to |a|: the cone edge is lost")

    def __reduce__(self):  # pickled by its fields: the cached float forms are closures
        return type(self), (self.tau, self.a, self.b, self.branch, self.cone_side)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_tau(cls, tau, cone_side="upper"):
        """Classify a float angle; the seams 0, pi/4, pi/2 match exactly."""
        tau = float(tau)
        if tau == 0.0:
            return cls.monge_ampere(cone_side)
        if tau == math.pi / 4:
            return cls.harmonic(cone_side)
        if tau == math.pi / 2:
            return cls.special_lagrangian()
        if not -math.pi / 4 < tau < math.pi / 2:  # NaN too
            raise InputError(f"tau = {tau} outside (-pi/4, pi/2]")
        branch = Branch.NEG if tau < 0.0 else Branch.LOG if tau < math.pi / 4 else Branch.ATAN
        return cls._off_seam(tau, 1.0 / math.tan(tau), branch, cone_side)

    @classmethod
    def from_cot(cls, a, cone_side="upper"):
        """Construct from a = cot(tau); rejects a in [-1, 0).  The seams are
        matched by value: a = +-inf is MA, a = 0 SLAG and a = 1 HARM."""
        a = float(a)
        if math.isinf(a):
            return cls.monge_ampere(cone_side)
        if a == 0.0:
            return cls.special_lagrangian()
        if a == 1.0:
            return cls.harmonic(cone_side)
        if -1.0 <= a < 0.0:
            raise InputError(f"a = {a} corresponds to tau <= -pi/4")
        branch = Branch.LOG if a > 1.0 else Branch.ATAN if 0.0 < a < 1.0 else Branch.NEG  # NaN is refused as NEG
        return cls._off_seam(math.atan(1.0 / a), a, branch, cone_side)

    @classmethod
    def _off_seam(cls, tau, a, branch, cone_side):
        """The LOG, ATAN or NEG member at tau, a = cot(tau): the one place b is
        formed, as sqrt(|a^2 - 1|) (1 - a^2 and a^2 - 1 round to one magnitude)."""
        return cls(tau, a, math.sqrt(abs(a * a - 1.0)), branch, cone_side)

    @classmethod
    def monge_ampere(cls, cone_side="upper"):
        return cls(0.0, math.inf, math.inf, Branch.MA, cone_side)

    @classmethod
    def harmonic(cls, cone_side="upper"):
        return cls(math.pi / 4, 1.0, 0.0, Branch.HARM, cone_side)

    @classmethod
    def special_lagrangian(cls):
        return cls(math.pi / 2, 0.0, 1.0, Branch.SLAG)

    @cached_property
    def components(self):
        """The open admissible components (:class:`ConeSpec`) of the scalar
        summand, each with the range of f on it, the one ``cone_side`` selects
        first.  Every cone and range test reads them; a non-finite eigenvalue
        lies in none."""
        br, inf = self.branch, math.inf
        if br is Branch.MA:
            return (ConeSpec("upper", 0.0, inf, -inf, inf),)
        if br is Branch.ATAN:
            c = self.sqrt_a2p1 / self.b
            return (ConeSpec("all", -inf, inf, -0.75 * math.pi * c, 0.25 * math.pi * c),)
        if br is Branch.SLAG:
            return (ConeSpec("all", -inf, inf, -math.pi / 2.0, math.pi / 2.0),)
        a_m_b, a_p_b = self.edge_sums  # HARM's (1.0, 1.0) puts both edges at -1
        if br is Branch.NEG:
            return (ConeSpec("inside-interval", -a_p_b, -a_m_b, -inf, inf),)
        upper = ConeSpec("upper", -a_m_b, inf, -inf, 0.0)
        lower = ConeSpec("lower", -inf, -a_p_b, 0.0, inf)
        return (upper, lower) if self.cone_side == "upper" else (lower, upper)

    @cached_property
    def _cone_bounds(self):
        """The components' ends as two (c, 1, 1) arrays, lo and hi: the cone
        check of a stack of spectra compares it with all c at once."""
        lo, hi = np.array([(spec.lo, spec.hi) for spec in self.components]).T
        return lo[:, None, None], hi[:, None, None]

    @classmethod
    def log_branch(cls, tau, cone_side="upper"):
        tp = cls.from_tau(tau, cone_side)
        if tp.branch is not Branch.LOG:
            raise InputError(f"tau = {tau} is not in (0, pi/4)")
        return tp

    @classmethod
    def atan_branch(cls, tau):
        tp = cls.from_tau(tau)
        if tp.branch is not Branch.ATAN:
            raise InputError(f"tau = {tau} is not in (pi/4, pi/2)")
        return tp

    @classmethod
    def neg_branch(cls, a):
        tp = cls.from_cot(a)  # NEG has one cone component: cone_side changes nothing
        if tp.branch is not Branch.NEG:
            raise InputError("parameters are not in the NEG range (a < -1)")
        return tp

    # -- derived constants -------------------------------------------------
    @cached_property
    def sqrt_a2p1(self):
        return math.sqrt(self.a * self.a + 1.0) if not math.isinf(self.a) else math.inf

    @cached_property
    def edge_sums(self):
        """(a - b, a + b), the only float sums of the constants (``_mp_consts_at``
        forms the mpf pair); b - a is -(a - b) and b + a is a + b, bit for bit."""
        return self.a - self.b, self.a + self.b

    @cached_property
    def neg_scaling(self):
        """(k, c2) = (2b / sqrt(a^2 + 1), (a^2 + 1)^(1/4) / (2b)) of the
        bounded-cone normalization; an InputError off the NEG branch."""
        if self.branch is not Branch.NEG:
            raise InputError(f"normalization defined on the NEG branch, not {self.branch.value}")
        return 2.0 * self.b / self.sqrt_a2p1, self.sqrt_a2p1 ** 0.5 / (2.0 * self.b)

    # the float closed forms (f, f^-1, f'), f_value's (lo, hi, f) and f_inverse's
    # form with its float guards (range check, clamp and polish), built once
    forms = cached_property(lambda self: _forms(self, _FLOAT))
    f_guard = cached_property(lambda self: (self.components[0].lo, self.components[0].hi, self.forms[0]))
    f_inverse_polished = cached_property(lambda self: _polished_inverse(self))

    @property
    def sin_cos(self):
        """(sin tau, cos tau) with exact values at the seams."""
        br = self.branch
        if br is Branch.MA:
            return 0.0, 1.0
        if br is Branch.HARM:
            return SQRT2 / 2.0, SQRT2 / 2.0
        if br is Branch.SLAG:
            return 1.0, 0.0
        s = 1.0 / self.sqrt_a2p1
        if br is Branch.NEG:
            return -s, -self.a * s
        return s, self.a * s


def cone_spec(tp):
    """Admissibility component selected by ``tp.cone_side``."""
    return tp.components[0]


def _eigenvalue(tp, lam):
    """``lam`` as a float, or DomainError outside every admissible component."""
    lam = float(lam)
    for spec in tp.components:
        if spec.lo < lam < spec.hi:
            return lam
    raise DomainError(f"eigenvalue {lam} outside the {tp.branch.value} admissibility set", value=lam)


def _sigmoid(s):
    if s >= 0:
        return 1.0 / (1.0 + math.exp(-s))
    e = math.exp(s)
    return e / (1.0 + e)


def _mp_consts(tp):
    return _mp_consts_at(tp, *mp.mp._prec_rounding)


@lru_cache(maxsize=256)
def _mp_consts_at(tp, prec, rounding):
    """(a, b, sqrt(a^2 + 1), a - b, a + b) as mpf values at the context's
    precision and rounding, which are passed only to key the cache."""
    a, b = mp.mpf(repr(tp.a)), mp.mpf(repr(tp.b))
    return a, b, mp.sqrt(a * a + 1), a - b, a + b


def _arithmetic(fns, pi, consts, sigmoid=None):
    """Namespace of the closed forms: log/atan/exp/tan/tanh from ``fns``, pi, a
    logistic sigmoid and ``consts(tp)`` = (a, b, sqrt(a^2 + 1), a - b, a + b)."""
    return SimpleNamespace(
        log=fns.log, atan=fns.atan, exp=fns.exp, tan=fns.tan, tanh=fns.tanh, pi=pi, consts=consts,
        sigmoid=sigmoid or (lambda s: 1 / (1 + fns.exp(-s))),
    )


_FLOAT = _arithmetic(math, math.pi, lambda tp: (tp.a, tp.b, tp.sqrt_a2p1, *tp.edge_sums), sigmoid=_sigmoid)
_MP = _arithmetic(mp, mp.pi, _mp_consts)
_JETS = _arithmetic(jets, mp.pi, _mp_consts)


def _forms(tp, ops):
    """The closed forms (f, f^{-1}, f') of ``tp``'s branch in the arithmetic
    ``ops``, one block a branch; each bound constant is a subexpression the
    formula rounds first anyway.  f^{-1} maps y to lam on the upper component
    (the lower one for LOG/HARM targets y > 0), and f' > 0.

    The groupings lam + (a -+ b) and (b - a) - lam are exact near the cone
    edges, where the left-to-right sums round the small factor to zero; the
    smooth ATAN form avoids the quotient arctangent's jump by pi across
    lam = -(a + b).
    """
    br, log, exp, tan, tanh = tp.branch, ops.log, ops.exp, ops.tan, ops.tanh
    if br is Branch.MA:
        return (lambda lam: log(lam) / 2,
                lambda y: exp(2 * y),
                lambda lam: 0.5 / lam)
    if br is Branch.SLAG:
        return ops.atan, tan, lambda lam: 1.0 / (1.0 + lam * lam)
    a, b, root, a_m_b, a_p_b = ops.consts(tp)
    if br is Branch.HARM:  # root = sqrt(2)
        return (lambda lam: -root / (1 + lam),
                lambda y: -root / y - 1,
                lambda lam: root / (1.0 + lam) ** 2)
    if br is Branch.ATAN:
        atan, scale, quarter = ops.atan, root / b, ops.pi / 4
        return (lambda lam: scale * (atan((lam + a) / b) - quarter),
                lambda y: -a + b * tan(y * b / root + quarter),
                lambda lam: root / ((lam + a) ** 2 + b * b))
    scale = root / (2 * b)
    if br is Branch.LOG:
        return (lambda lam: scale * log((lam + a_m_b) / (lam + a_p_b)),
                # (1+E)/(1-E) with E = exp(2by/sqrt(a^2+1)) equals -coth(by/sqrt(a^2+1))
                lambda y: -a - b / tanh(b * y / root),
                lambda lam: root / ((lam + a_m_b) * (lam + a_p_b)))
    sigmoid, b_m_a, edge, width = ops.sigmoid, -a_m_b, -a_p_b, 2 * b
    return (lambda lam: scale * log((lam + a_p_b) / (b_m_a - lam)),
            lambda y: edge + width * sigmoid(width * y / root),
            lambda lam: root / ((lam + a_p_b) * (b_m_a - lam)))


def f_value(tp, lam):
    """The single-eigenvalue summand of the operator: f behind
    :func:`_eigenvalue`'s check, tested first on the selected component's bounds."""
    lo, hi, form = tp.f_guard
    lam = float(lam)
    return form(lam if lo < lam < hi else _eigenvalue(tp, lam))


def f_derivative(tp, lam):
    """Closed-form derivative of the scalar summand; strictly positive.  An
    eigenvalue whose f' overflows (a float ``** 2`` raises past ~1.3e154) is an InputError."""
    lam = _eigenvalue(tp, lam)
    try:
        return tp.forms[2](lam)
    except OverflowError:
        raise InputError(f"f' overflows at eigenvalue {lam} on {tp.branch.value}") from None


def f_range(tp):
    """Open range of the scalar summand on the component picked by cone_side."""
    spec = tp.components[0]
    return spec.f_lo, spec.f_hi


def _polished_inverse(tp):
    """:func:`f_inverse` with its range, clamp ends and forms bound once."""
    spec, (f, form, f_prime) = tp.components[0], tp.forms
    lo, hi, f_lo, f_hi = spec.lo, spec.hi, spec.f_lo, spec.f_hi
    # MA's exp(2y) past double range, or LOG's tanh(b y / root) underflowing
    # to 0 at a denormal y: the preimage is the component's infinite end
    infinite_end = hi if hi == math.inf else lo
    # clamp into the open component: for extreme targets the closed form can
    # round onto (or past) a cone endpoint, where the nearest interior double
    # is the correctly rounded preimage (an infinite end clamps nothing)
    floor = math.nextafter(lo, math.inf) if math.isfinite(lo) else -math.inf
    ceiling = math.nextafter(hi, -math.inf) if math.isfinite(hi) else math.inf
    isfinite, inf = math.isfinite, math.inf

    def inverse(y):  # y a float
        if not (f_lo < y < f_hi):
            raise InputError(f"target {y} outside attainable range ({f_lo}, {f_hi})")
        try:
            lam = form(y)
        except (OverflowError, ZeroDivisionError):
            return infinite_end
        if floor > lam:  # max(lam, floor), then min(lam, ceiling), NaN kept
            lam = floor
        if ceiling < lam:
            lam = ceiling
        if not isfinite(lam):
            return lam
        # up to four guarded Newton steps while the residual is finite and
        # above tol (almost never: the closed form meets it), domain check inline
        tol = 1e-12 * (1.0 + (y if y > 0.0 else -y))  # abs(y), as a comparison
        r = f(lam if lo < lam < hi else _eigenvalue(tp, lam)) - y
        steps = 4
        while tol < abs(r) < inf:
            step = r / f_prime(lam)  # lam passed the check of the f read just before
            if not isfinite(step):
                break
            cand = lam - step
            while not lo < cand < hi:
                step *= 0.5
                cand = lam - step
                if abs(step) < 1e-300:
                    break
            lam = cand
            steps -= 1
            if not steps:
                break
            r = f(lam if lo < lam < hi else _eigenvalue(tp, lam)) - y
        return lam

    return inverse


def f_inverse(tp, y):
    """Unique admissible lam with f(lam) = y on the selected cone component.

    A closed-form seed exists on every branch; while |f(lam) - y| > 1e-12 * (1 + |y|), a guarded
    Newton polish runs at most four steps and returns an interior lam (no double meets that
    tolerance next to a finite cone edge, nor at MA's subnormal preimages).
    """
    return tp.f_inverse_polished(float(y))


def f_value_mp(tp, lam):
    """:func:`f_value`'s closed form in mpmath, for high-precision shooting."""
    return _forms(tp, _MP)[0](lam)


def f_inverse_mp(tp, y):
    """:func:`f_inverse`'s closed form in mpmath (no polish)."""
    return _forms(tp, _MP)[1](y)


def admissible(tp, eigenvalues):
    """Cone-component tag for a spectrum, or None when no component holds it.

    Tags: 'upper' | 'lower' | 'all' | 'inside-interval'.  Components are
    treated separately; a spectrum mixing them is inadmissible.
    """
    lams = np.atleast_1d(np.asarray(eigenvalues, dtype=float))
    if lams.ndim != 1 or not lams.size:
        raise InputError(f"expected one spectrum of at least one eigenvalue, got shape {lams.shape}")
    lams = lams.tolist()
    return next((spec.tag for spec in tp.components if all(spec.lo < lam < spec.hi for lam in lams)), None)


def _first_outside(tp, row):
    """The first eigenvalue of an inadmissible spectrum that lies outside the
    component of its first admissible one (its first, if none is admissible)."""
    spec = next((s for lam in row for s in tp.components if s.lo < lam < s.hi), None)
    if spec is None:
        return row[0]
    return next(lam for lam in row if not spec.lo < lam < spec.hi)


def operator_value(tp, eigenvalues):
    """Sum of the scalar summand over a spectrum (n,) (the operator itself),
    as a float, or over each spectrum of a (..., n) stack, as (...,).

    The stack's cone check is one pair of numpy comparisons against the ends
    of every cone component at once: a row is admissible when one component
    holds all of it, and a NaN lies in none.  The first inadmissible row
    raises DomainError, whose ``value`` is that row's first eigenvalue outside
    the component of its first admissible one.  Each summand is then
    ``f_value``'s closed form without its per-eigenvalue check, summed left
    to right row by row, bit for bit.
    """
    lams = np.asarray(eigenvalues, dtype=float)
    if lams.ndim and not lams.shape[-1]:
        raise InputError(f"expected spectra of at least one eigenvalue, got shape {lams.shape}")
    rows = lams.reshape(-1, lams.shape[-1] if lams.ndim else 1)
    lo, hi = tp._cone_bounds
    inside = ((lo < rows) & (rows < hi)).all(axis=2).any(axis=0)
    if not inside.all():
        row = rows[np.argmin(inside)]
        raise DomainError(f"spectrum {row} inadmissible: not inside a single {tp.branch.value} cone "
                          f"component", value=_first_outside(tp, row.tolist()))
    f = tp.forms[0]
    sums = [float(sum(map(f, row))) for row in rows.tolist()]
    return np.array(sums).reshape(lams.shape[:-1]) if lams.ndim > 1 else sums[0]


def operator_gradient_matrix(tp, H):
    """dF/dH as a symmetric matrix, or a (k, n, n) stack of them, assembled eigenvalue-wise.

    Diagonalize H, apply the scalar derivative to each eigenvalue, rotate back.
    """
    return _gradient_matrix(tp, *eig_sym_full(H))


def _gradient_matrix(tp, w, Q):
    """dF/dH from the eigenvalues w and eigenvectors Q of validated Hessians,
    one or a stack: each spectrum is checked once, then f' read bare."""
    for row in w.reshape(-1, w.shape[-1]):
        if admissible(tp, row) is None:
            raise DomainError(f"Hessian spectrum {row} inadmissible for {tp.branch.value}")
    lams = w.ravel().tolist()
    try:
        d = np.array(list(map(tp.forms[2], lams))).reshape(w.shape)
    except OverflowError:
        for lam in lams:  # f_derivative's InputError names the first eigenvalue whose f' overflows
            f_derivative(tp, lam)
        raise
    return (Q * d[..., None, :]) @ Q.swapaxes(-1, -2)


def phase(field, x):
    """-u(x) + <x, Du(x)>/2; constant along exact quadratic solutions.

    ``x`` is an (m, n) cloud, or a (k, m, n) stack of clouds on a stack of k
    quadratic fields, giving (m,) or (k, m) values, or one point, read as a
    cloud of one (``numerics.as_cloud``), so each row is its point's value
    bit for bit.  A point whose phase is not finite (a value or a product that
    overflows) is an InputError, and the first such point is named.
    """
    x, unwrap = as_cloud(x, field.dim, field.stack)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, by point
        ph = -field.value(x) + 0.5 * row_dot(x, field.gradient(x))
    bad = ~np.isfinite(ph)
    if bad.any():
        raise InputError(f"phase not finite at x = {x[bad][0].tolist()}")
    return unwrap(ph)


def shrinker_residual(tp, field, x):
    """Defect of the self-shrinker potential equation at x, zero iff
    F(lambda(D^2 u)) = -u + <x, Du>/2 holds there.  ``x`` is an (m, n) cloud
    solved as one stack, or a (k, m, n) stack of clouds on a stack of k
    quadratic fields, giving (m,) or (k, m) defects, or one point, read as a
    cloud of one.  On a quadratic, whose Hessian is constant, the defect is
    F(lambda(A)) - phase (``quadratics.verify_quadratic``).
    """
    x, unwrap = as_cloud(x, field.dim, field.stack)
    return unwrap(operator_value(tp, eig_sym(field.hessian(x))) - phase(field, x))


@dataclass(frozen=True)
class GrowthRatio:
    q: float
    dq_dr: float
    defect: float


def growth_ratio(tp, field, theta, r):
    """Radial growth diagnostic q(r) = u(r theta)/r^2 and its derivative defect.

    Along any solution, dq/dr equals 2 F(lambda(D^2 u(r theta))) / r^3; the
    returned defect measures the failure of that identity.  u is read at
    r theta and (r +- h) theta as one 3-point cloud.  theta must be a unit
    vector and r finite and positive (``numerics.as_positive``).  An r where
    q, dq/dr or the defect is not finite (r^3 overflows or is 0) is an InputError.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    nrm = float(np.linalg.norm(theta))
    # each check holds only for finite values: NaN and inf fail it
    if not abs(nrm - 1.0) <= 1e-10:
        raise InputError(f"theta must be a unit vector, |theta| = {nrm}")
    r = as_positive(r, "radius")
    h = min(1e-4 * max(1.0, r), 0.45 * r)
    u, up, um = field.value(np.array([r, r + h, r - h])[:, None] * theta).tolist()
    F = operator_value(tp, eig_sym(field.hessian(r * theta)))
    try:  # a power that overflows, or a divisor that rounds to 0, is not finite
        q, dq_dr = u / r**2, (up / (r + h) ** 2 - um / (r - h) ** 2) / (2.0 * h)
        ratio = GrowthRatio(q, dq_dr, dq_dr - 2.0 * F / r**3)
    except ArithmeticError:
        ratio = GrowthRatio(math.nan, math.nan, math.nan)
    if not all(map(math.isfinite, (ratio.q, ratio.dq_dr, ratio.defect))):
        raise InputError(f"q, dq/dr or the growth defect not finite at r = {r}")
    return ratio


def minkowski_residual(field, x):
    """Residual of the spacelike self-shrinker graph equation in flat signature.

    (delta_ij + f_i f_j / (1 - |Df|^2)) f_ij + f/2 - <x, Df>/2.  When the field
    exposes ``gradient_complement`` (a stable evaluation of 1 - |Df|^2 on a
    cloud), that is used for the weight and trusted: the direct expression
    loses precision once |Df| is within a few ulp of 1, and rounds to 0
    beyond.  The graph is spacelike where the weight's denominator is positive.

    ``x`` is an (m, n) cloud, giving (m,) residuals, or one point, read as a
    cloud of one; the first point that is not spacelike is the one reported.
    """
    x, unwrap = as_cloud(x, field.dim)
    comp_fn = getattr(field, "gradient_complement", None)
    g = field.gradient(x)
    comp = comp_fn(x) if comp_fn is not None else 1.0 - row_dot(g, g)
    bad = np.flatnonzero(comp <= 0.0)
    if len(bad):
        k = bad[0]
        raise DomainError(
            f"not spacelike: 1 - |Df|^2 = {comp[k]} <= 0 at x = {x[k]}", value=comp[k], location=x[k]
        )
    H = field.hessian(x)
    lhs = np.trace(H, axis1=1, axis2=2) + ((g[:, None, :] @ H) @ g[:, :, None])[:, 0, 0] / comp
    rhs = -0.5 * field.value(x) + 0.5 * row_dot(x, g)
    return unwrap(lhs - rhs)
