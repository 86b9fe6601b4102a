"""Taylor-mode arithmetic: truncated power series built coefficient by coefficient.

A :class:`Tape` records every series derived from its inputs, in the order the
series were made.  ``advance(k)`` appends coefficient k to each of them, using
coefficients up to k of operands made earlier and coefficients below k of the
series itself.  Products, quotients and the elementary functions follow the
standard recurrences (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13; Jorba & Zou, *Exp. Math.* 14 (2005) 99-117), so degree d costs O(d^2)
multiplications at the current mpmath precision.  Feeding outputs back into
inputs (x_{k+1} = g_k / (k + 1) for x' = g(x)) yields the Taylor coefficients
of an ODE solution.

Coefficients are raw libmp tuples: ``Jet.c`` holds them, and each rule
gives what mpf operators and ``mp.fdot`` would give, at the
``(prec, rounding)`` the tape read from the context when it was made.  A
Cauchy sum's exact products are accumulated as one signed integer, as
``mpf_sum`` adds ``mpf_mul`` products, and rounded once (``_dot``); integers
enter through ``from_int``; every other operation is the libmp call the mpf
operator makes.  So a series is bit for bit what the same recurrences give
on mpf objects, with no mpf made per coefficient.  An input's coefficients
enter exactly, whatever their precision: ``Tape.input`` converts the ones it
is given, and a caller appends tuples after that.

:func:`log`, :func:`exp`, :func:`atan`, :func:`tan` and :func:`tanh` take a
:class:`Jet`; together with the operators they form the namespace in which
``tau`` evaluates its closed forms on series.

:func:`taylor_integrate` is ``numerics.integrate_ode``'s Taylor twin for
u'' = acc(t, u, u') with acc on jets: a degree-_DEGREE Taylor series method
(Jorba & Zou) whose steps are joined and read on the libmp tuples.
"""

from __future__ import annotations

import bisect
import math

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    from_float, from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_gt, mpf_mul, mpf_mul_int, mpf_neg, mpf_sub,
    round_nearest, to_float,
)

from .numerics import DivergenceEvent, RhsEvaluationError

__all__ = ["Tape", "Jet", "log", "exp", "atan", "tan", "tanh", "taylor_integrate"]


def _dot(xs, ys, prec, rnd):
    """``mp.fdot``, i.e. ``mpf_sum(map(mpf_mul, xs, ys), prec, rnd)``, on integers.

    Each exact product is a signed int on 2^exp, added to the running sum as
    ``mpf_sum`` adds it: aligned to the lower exponent, except that a product
    more than 2 prec bits below a nonzero sum is dropped and one that far
    above the sum replaces it.  The sum is rounded once.  Operands are
    finite: no tape holds inf or nan.
    """
    man = exp = 0
    cap = 2 * prec
    for (xsign, xman, xexp, _), (ysign, yman, yexp, _) in zip(xs, ys):
        pman = xman * yman
        if pman:
            if xsign != ysign:
                pman = -pman
            delta = xexp + yexp - exp
            if delta >= 0:
                if delta > cap and (not man or delta - man.bit_length() > cap):
                    man, exp = pman, exp + delta
                else:
                    man += pman << delta
            elif -delta - pman.bit_length() > cap:
                if not man:
                    man, exp = pman, exp + delta
            else:
                man = (man << -delta) + pman
                exp += delta
    return from_man_exp(man, exp, prec, rnd)


class Tape:
    """The series derived from some inputs, in evaluation order."""

    def __init__(self):
        self.nodes = []
        self.prec, self.rnd = mp.mp._prec_rounding

    def input(self, coeffs):
        """A series whose coefficients the caller supplies as mpf values, ints or
        floats, converted exactly; the caller may append libmp tuples."""
        return Jet(self, None, [mp.convert(v)._mpf_ for v in coeffs])

    def advance(self, k):
        for node in self.nodes:
            node.c.append(node.rule(k))


class Jet:
    """Truncated power series; ``c[k]`` is the k-th Taylor coefficient as a
    libmp tuple."""

    __slots__ = ("tape", "rule", "c")

    def __init__(self, tape, rule, c=None):
        self.tape = tape
        self.rule = rule
        self.c = [] if c is None else c
        if rule is not None:
            tape.nodes.append(self)

    def _derive(self, rule):
        return Jet(self.tape, rule)

    def __add__(self, other):
        a, prec, rnd = self.c, self.tape.prec, self.tape.rnd
        if isinstance(other, Jet):
            b = other.c
            return self._derive(lambda k: mpf_add(a[k], b[k], prec, rnd))
        x = mp.mpf(other)._mpf_
        return self._derive(lambda k: mpf_add(a[k], x, prec, rnd) if k == 0 else a[k])

    __radd__ = __add__

    def __neg__(self):
        a, prec, rnd = self.c, self.tape.prec, self.tape.rnd
        return self._derive(lambda k: mpf_neg(a[k], prec, rnd))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, prec, rnd = self.c, self.tape.prec, self.tape.rnd
        if isinstance(other, Jet):
            b = other.c
            return self._derive(lambda k: _dot(a[: k + 1], b[k::-1], prec, rnd))
        x = mp.mpf(other)._mpf_
        return self._derive(lambda k: mpf_mul(a[k], x, prec, rnd))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _quotient(self.c.__getitem__, other)
        a, prec, rnd = self.c, self.tape.prec, self.tape.rnd
        x = mp.mpf(other)._mpf_
        return self._derive(lambda k: mpf_div(a[k], x, prec, rnd))

    def __rtruediv__(self, other):
        x = mp.mpf(other)._mpf_
        return _quotient(lambda k: x if k == 0 else fzero, self)


def _quotient(top, den):
    """w = top / den, ``top(k)`` giving the numerator's coefficients:
    w_k = (top_k - sum_{j=1..k} den_j w_{k-j}) / den_0."""
    b, prec, rnd = den.c, den.tape.prec, den.tape.rnd
    w = []

    def rule(k):
        return mpf_div(mpf_sub(top(k), _dot(b[1 : k + 1], w[::-1], prec, rnd), prec, rnd), b[0], prec, rnd)

    node = den._derive(rule)
    w = node.c
    return node


def _chain(x, w0, v_of):
    """w with w' = v x' and w_0 = w0, where v = v_of(w) is built after w."""
    a, prec, rnd = x.c, x.tape.prec, x.tape.rnd
    da = []  # j a_j, j = 1..k
    v = []

    def rule(k):
        if k == 0:
            return w0(mp.make_mpf(a[0]))._mpf_
        da.append(mpf_mul_int(a[k], k, prec, rnd))
        return mpf_div(_dot(da, v[k - 1 :: -1], prec, rnd), from_int(k), prec, rnd)

    node = x._derive(rule)
    v = v_of(node).c
    return node


def _quotient_chain(x, w0, v):
    """w with w' = x' / v and w_0 = w0, where v is built before w."""
    a, b, prec, rnd = x.c, v.c, x.tape.prec, x.tape.rnd
    dw = []  # j w_j, j = 1..k-1

    def rule(k):
        if k == 0:
            return w0(mp.make_mpf(a[0]))._mpf_
        t = mpf_div(_dot(dw, b[k - 1 : 0 : -1], prec, rnd), from_int(k), prec, rnd)
        wk = mpf_div(mpf_sub(a[k], t, prec, rnd), b[0], prec, rnd)
        dw.append(mpf_mul_int(wk, k, prec, rnd))
        return wk

    return x._derive(rule)


def exp(x):
    return _chain(x, mp.exp, lambda w: w)


def tan(x):
    return _chain(x, mp.tan, lambda w: 1 + w * w)


def tanh(x):
    return _chain(x, mp.tanh, lambda w: 1 - w * w)


def log(x):
    return _quotient_chain(x, mp.log, x)


def atan(x):
    return _quotient_chain(x, mp.atan, 1 + x * x)


_DEGREE = 20
_MIN_STEP = 1e-12
_GUARD = 32  # bits the reader's fixed point keeps below fine_prec


def _taylor_step(acc, t0, u0, p0):
    """Degree-_DEGREE jets of (u, p) at t0 for u' = p, p' = acc(t, u, p), as
    libmp tuples, each u_{k+1}, p_{k+1} rounded as ``mpf / int``."""
    tape = Tape()
    u, p, t = tape.input([u0]), tape.input([p0]), tape.input([t0])
    t.c += [from_int(1)] + [fzero] * (_DEGREE - 1)  # the series of t itself
    g = acc(t, u, p)
    for k in range(_DEGREE):
        tape.advance(k)
        u.c.append(mpf_div(p.c[k], from_int(k + 1), tape.prec, tape.rnd))
        p.c.append(mpf_div(g.c[k], from_int(k + 1), tape.prec, tape.rnd))
    return u.c, p.c


def _step_index(starts_f, starts, t):
    """max(bisect.bisect(starts, t) - 1, 0) for the exact starts (libmp tuples)
    and a float t, from their floats ``starts_f``: the float of a start orders
    it against every float but itself, where the exact test settles it."""
    i = bisect.bisect(starts_f, t)
    while i > 0 and starts_f[i - 1] == t and mpf_gt(starts[i - 1], from_float(t)):
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


def taylor_integrate(acc, y0, t_span, dps):
    """Taylor series method for u'' = acc(t, u, p), p = u', at ``dps`` digits,
    forward from t0 to t1 > t0 from ``y0`` = (u, p) at t0 (what ``mp.mpf``
    converts).  ``acc`` takes jets and returns the jet of u''.  An
    RhsEvaluationError it raises is the stop; raised at the initial state,
    before any step, it reaches the caller.

    Each step expands (u, p) to degree _DEGREE at the working precision and
    takes the step of mpmath's ``ode_taylor`` (as ``odefun`` calls it with
    tol = 10^-(dps-10)): radius min(1, (tol'/|c_d|)^(1/d))/2 over both
    series, tol' = 2^-(floor(log2 10^(dps-10)) + 10).  Steps are joined at
    fine_prec = prec + 40 bits by ``_join``; only c_d and each joined state
    are wrapped as mpf values.  A step radius below _MIN_STEP (a singularity
    ahead) is the other stop.

    The reader works in fixed point.  Each step's two series are held as
    integers on one scale 2^-S, S = fine_prec + _GUARD - M, where M is an
    upper bound of log2 max_j |c_j| rho^j over both series and rho is the
    step radius (bounding |c_j| alone would leave no bits for the low orders
    once rho is small).  A read picks the step ``bisect.bisect`` picks on the
    exact starts, forms h = t - start at fine_prec as hm 2^-e, runs Horner on
    the integers, shifting each product right by e bits, and rounds once to
    float.  Its error, a few units of 2^-S, is under 2^(M - fine_prec) like
    the rounding of mpmath's Horner at fine_prec, far below a float's last
    bit: each read is the float of mpmath's value there.

    Returns ``(read, t_end, event)``: the batched reader of (u, p) at an array
    of times on [t0, t_end] (None if no step was taken), where the integration
    stopped, and the stop as a ``DivergenceEvent`` (None if t1 was reached).
    """
    with mp.workdps(dps):
        fine_prec = mp.mp.prec + 40
        rnd = mp.mp._prec_rounding[1]
        tol = mp.ldexp(1, -(int((dps - 10) * math.log2(10.0)) + 10))
        t, t1 = mp.mpf(t_span[0]), float(t_span[1])
        u, p = (mp.mpf(v) for v in y0)
        # per step: the start as a float and exactly, and (S, u and p on 2^-S)
        starts_f, starts, steps, event = [], [], [], None
        while True:
            try:
                us, ps = _taylor_step(acc, t, u, p)
            except RhsEvaluationError as exc:
                if not steps:
                    raise
                event = DivergenceEvent(exc.label, float(t), np.array((float(u), float(p))), exc.detail)
                break
            radius = min([mp.mpf(1)] + [mp.root(tol / abs(mp.make_mpf(c[-1])), _DEGREE)
                                        for c in (us, ps) if c[-1] != fzero]) / 2
            if radius < _MIN_STEP:
                event = DivergenceEvent("step_underflow", float(t), np.array((float(u), float(p))),
                                        f"Taylor step {mp.nstr(radius, 3)} below {_MIN_STEP:g}")
                break
            starts_f.append(float(t))
            starts.append(t._mpf_)
            steps.append(_fixed_point(us, ps, radius, fine_prec + _GUARD))
            t = t + radius
            u, p = (mp.make_mpf(_join(cs, radius._mpf_, fine_prec, rnd)) for cs in (us, ps))
            if t >= t1:
                break

        def state(x):
            i = _step_index(starts_f, starts, x)
            sign, hm, exp, _ = mpf_sub(from_float(x), starts[i], fine_prec, rnd)
            if sign:
                hm = -hm
            if exp > 0:
                hm, exp = hm << exp, 0
            scale, us, ps = steps[i]
            return _to_float(_horner(us, hm, -exp), scale), _to_float(_horner(ps, hm, -exp), scale)

    read = (lambda ts: [state(x) for x in ts.tolist()]) if steps else None
    return read, float(t) if event else t1, event
