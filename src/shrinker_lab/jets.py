"""Taylor-mode arithmetic: truncated power series built coefficient by coefficient.

A :class:`Tape` records every series derived from its inputs, in the order the
series were made.  ``advance(k)`` appends coefficient k to each of them, using
coefficients up to k of operands made earlier and coefficients below k of the
series itself.  Products, quotients and the elementary functions follow the
standard recurrences (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13; Jorba & Zou, *Exp. Math.* 14 (2005) 99-117), so degree d costs O(d^2)
multiplications at the current mpmath precision.  Feeding outputs back into
inputs (x_{k+1} = g_k / (k + 1) for x' = g(x)) yields the Taylor coefficients
of an ODE solution.  ``restart`` sets the inputs anew and clears every derived
series in place, so a recorded graph is swept again at new inputs; the first
node derived after a restart drops the old graph instead.

Coefficients are (man, exp) pairs of ints worth man 2^exp, man odd (or the
pair (0, 0)) as in a libmp tuple: ``Jet.c`` holds them, and each rule gives
what mpf operators and ``mp.fdot`` would give, at the precision the tape read
from the context when it was made, rounded to nearest as mpmath's public
context rounds (the kernel takes any libmp mode).  One kernel rounds each
operation as the libmp call it replaces: ``_round`` as ``normalize``,
``_add``, ``_mul`` and ``_div`` as ``mpf_add`` (its sticky shortcut
included), ``mpf_mul`` and ``mpf_div``, negation as ``mpf_neg``, and ``_dot``
as ``mpf_sum`` of ``mpf_mul`` products.  So a series is bit for bit what the
same recurrences give on mpf objects, with no mpf or libmp tuple made per
coefficient.  An input's coefficients enter exactly, whatever their
precision: ``Tape.input`` converts the ones it is given, and a caller appends
pairs after that.  Negating a derived series or multiplying it by 1 is exact,
so there ``a - b`` and ``c - a`` are one node and ``1 * a`` is ``a``.

:func:`log`, :func:`exp`, :func:`atan`, :func:`tan` and :func:`tanh` take a
:class:`Jet`; together with the operators they form the namespace in which
``tau`` evaluates its closed forms on series.

:func:`taylor_integrate` is ``numerics.integrate_ode``'s Taylor twin for
u'' = acc(t, u, u') with acc on jets: a degree-_DEGREE Taylor series method
(Jorba & Zou) whose steps are joined and read on the pairs.
"""

from __future__ import annotations

import bisect
import math

import mpmath as mp
import numpy as np
from mpmath.libmp import from_float, from_man_exp, mpf_gt, round_nearest, to_float

from .numerics import DivergenceEvent, InputError, RhsEvaluationError

__all__ = ["Tape", "Jet", "mpf", "log", "exp", "atan", "tan", "tanh", "taylor_integrate"]

_ZERO = (0, 0)


def _pair(x):
    """An mpf, int or float as its exact (man, exp) pair."""
    sign, man, exp, _ = mp.convert(x)._mpf_
    return -man if sign else man, exp


def mpf(c):
    """A coefficient pair as an mpf, exactly."""
    return mp.make_mpf(from_man_exp(*c))


def _round(man, exp, prec, rnd):
    """man 2^exp rounded to prec bits as libmp's ``normalize`` rounds it (half
    to even by a floor shift, right for either sign; other modes through
    ``from_man_exp``), man then made odd: ``_add`` and ``_dot`` compare
    exponents where libmp does, of odd mantissas.  Zero is (0, 0)."""
    n = man.bit_length() - prec
    if n > 0:
        if rnd != round_nearest:
            sign, man, exp, _ = from_man_exp(man, exp, prec, rnd)
            return -man if sign else man, exp
        t = man >> (n - 1)
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    elif not man:
        return _ZERO
    if not man & 1:
        z = (man & -man).bit_length() - 1
        man >>= z
        exp += z
    return man, exp


def _add(x, y, prec, rnd):
    """``mpf_add``: the exact sum rounded once, except that an operand more than
    100 bits below the other at its last bit and prec + 4 below it at its first
    enters as a unit of its sign prec + 4 bits below the other's last bit."""
    (xm, xe), (ym, ye) = x, y
    if not (xm and ym):
        return _round(xm or ym, xe if xm else ye, prec, rnd)
    if xe < ye:
        xm, xe, ym, ye = ym, ye, xm, xe
    offset = xe - ye
    if offset > 100 and xm.bit_length() + offset - ym.bit_length() > prec + 4:
        return _round((xm << (prec + 4)) + (1 if ym > 0 else -1), xe - prec - 4, prec, rnd)
    return _round((xm << offset) + ym, ye, prec, rnd)


def _mul(x, y, prec, rnd):
    return _round(x[0] * y[0], x[1] + y[1], prec, rnd)


def _div(x, y, prec, rnd):
    """``mpf_div``: a quotient of at least prec + 5 bits and a sticky bit,
    rounded once, whether y's mantissa is odd or not; a divisor of +-1 moves
    the exponent only."""
    (xm, xe), (ym, ye) = x, y
    if ym == 1 or ym == -1:
        return _round(xm * ym, xe - ye, prec, rnd)
    extra = prec - xm.bit_length() + ym.bit_length() + 5
    if extra < 5:
        extra = 5
    quot, rem = divmod(xm << extra, ym)  # a floor: the sticky bit is right for either sign
    if rem:
        quot, extra = (quot << 1) + 1, extra + 1
    return _round(quot, xe - ye - extra, prec, rnd)


def _dot(xs, ys, prec, rnd):
    """``mp.fdot``, i.e. ``mpf_sum(map(mpf_mul, xs, ys), prec, rnd)``, on pairs.

    Each exact product is a signed int on 2^exp, added to the running sum as
    ``mpf_sum`` adds it: aligned to the lower exponent, except that a product
    more than 2 prec bits below a nonzero sum is dropped and one that far
    above the sum replaces it.  The sum is rounded once.
    """
    man = exp = 0
    cap = 2 * prec
    for (xm, xe), (ym, ye) in zip(xs, ys):
        pman = xm * ym
        if pman:
            delta = xe + ye - exp
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
    return _round(man, exp, prec, rnd)


class Tape:
    """The series derived from some inputs, in evaluation order."""

    def __init__(self):
        self.nodes = []  # (append to a derived series, its rule)
        self.inputs, self.restarted = [], False
        self.prec, self.rnd = mp.mp.prec, round_nearest

    def input(self, coeffs):
        """A series whose coefficients the caller supplies as mpf values, ints or
        floats, converted exactly; the caller may append pairs (odd mantissas).
        It may carry bits past prec, so no fold rests on it."""
        jet = Jet(self, None, [_pair(v) for v in coeffs], rounded=False)
        self.inputs.append(jet)
        return jet

    def restart(self, *coeffs):
        """Each input's coefficients anew, as ``input`` converts them, in the
        order the inputs were made, and every derived series cleared."""
        for jet, cs in zip(self.inputs, coeffs):
            jet.c[:] = [_pair(v) for v in cs]
        for append, _ in self.nodes:
            append.__self__.clear()
        self.restarted = True

    def advance(self, k):
        for append, rule in self.nodes:
            append(rule(k))


class Jet:
    """Truncated power series; ``c[k]`` is the k-th Taylor coefficient as a
    (man, exp) pair.  ``rounded``: a derived series, every coefficient rounded
    at the tape's precision, so negating it or multiplying it by 1 is exact."""

    __slots__ = ("tape", "c", "rounded")

    def __init__(self, tape, rule, c=None, rounded=True):
        self.tape, self.rounded = tape, rounded
        self.c = [] if c is None else c
        if rule is not None:
            if tape.restarted:
                tape.nodes, tape.restarted = [], False
            tape.nodes.append((self.c.append, rule))

    def _derive(self, rule, rounded=True):
        return Jet(self.tape, rule, rounded=rounded)

    def __add__(self, other):
        a, prec, rnd = self.c, self.tape.prec, self.tape.rnd
        if isinstance(other, Jet):
            b = other.c
            return self._derive(lambda k: _add(a[k], b[k], prec, rnd))
        x = _pair(mp.mpf(other))
        return self._derive(lambda k: _add(a[k], x, prec, rnd) if k == 0 else a[k], self.rounded)

    __radd__ = __add__

    def __neg__(self):
        a, prec, rnd = self.c, self.tape.prec, self.tape.rnd
        return self._derive(lambda k: _round(-a[k][0], a[k][1], prec, rnd))

    def __sub__(self, other):
        if isinstance(other, Jet) and other.rounded:  # -b is exact: one node
            a, b, prec, rnd = self.c, other.c, self.tape.prec, self.tape.rnd
            return self._derive(lambda k: _add(a[k], (-b[k][0], b[k][1]), prec, rnd))
        return self + (-other)

    def __rsub__(self, other):
        if not self.rounded:
            return (-self) + other
        a, prec, rnd = self.c, self.tape.prec, self.tape.rnd
        x = _pair(mp.mpf(other))
        return self._derive(lambda k: _add((-a[0][0], a[0][1]), x, prec, rnd) if k == 0 else (-a[k][0], a[k][1]))

    def __mul__(self, other):
        a, prec, rnd = self.c, self.tape.prec, self.tape.rnd
        if isinstance(other, Jet):
            b = other.c

            def rule(k):
                if k < len(b):
                    return _dot(a[: k + 1], b[k::-1], prec, rnd)
                lo = k + 1 - len(b)  # past the end of a polynomial input b
                return _dot(a[lo : k + 1], b[::-1], prec, rnd)

            return self._derive(rule)
        x = _pair(mp.mpf(other))
        if x == (1, 0) and self.rounded:
            return self
        return self._derive(lambda k: _mul(a[k], x, prec, rnd))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return _quotient(self.c.__getitem__, other)
        a, prec, rnd = self.c, self.tape.prec, self.tape.rnd
        x = _pair(mp.mpf(other))
        return self._derive(lambda k: _div(a[k], x, prec, rnd))

    def __rtruediv__(self, other):
        x = _pair(mp.mpf(other))
        return _quotient(lambda k: x if k == 0 else _ZERO, self)


def _quotient(top, den):
    """w = top / den, ``top(k)`` giving the numerator's coefficients:
    w_k = (top_k - sum_{j=1..k} den_j w_{k-j}) / den_0."""
    b, prec, rnd = den.c, den.tape.prec, den.tape.rnd
    w = []

    def rule(k):
        man, exp = _dot(b[1 : k + 1], w[::-1], prec, rnd)
        return _div(_add(top(k), (-man, exp), prec, rnd), b[0], prec, rnd)

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
            da.clear()
            return _pair(w0(mpf(a[0])))
        man, exp = a[k]
        da.append(_round(man * k, exp, prec, rnd))
        return _div(_dot(da, v[k - 1 :: -1], prec, rnd), (k, 0), prec, rnd)

    node = x._derive(rule)
    v = v_of(node).c
    return node


def _quotient_chain(x, w0, v):
    """w with w' = x' / v and w_0 = w0, where v is built before w."""
    a, b, prec, rnd = x.c, v.c, x.tape.prec, x.tape.rnd
    dw = []  # j w_j, j = 1..k-1

    def rule(k):
        if k == 0:
            dw.clear()
            return _pair(w0(mpf(a[0])))
        man, exp = _div(_dot(dw, b[k - 1 : 0 : -1], prec, rnd), (k, 0), prec, rnd)
        wk = _div(_add(a[k], (-man, exp), prec, rnd), b[0], prec, rnd)
        dw.append(_round(wk[0] * k, wk[1], prec, rnd))
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


def _taylor_step(acc, t0, u0, p0, tape=None):
    """Degree-_DEGREE jets of (u, p) at t0 for u' = p, p' = acc(t, u, p), as
    pairs, each u_{k+1}, p_{k+1} rounded as ``mpf / int``.  t is the
    polynomial t0 + h, a jet of two coefficients, on ``tape`` restarted."""
    tape = tape or Tape()
    u, p, t = tape.inputs or [tape.input([]) for _ in "upt"]
    tape.restart([u0], [p0], [t0, 1])
    g = acc(t, u, p)
    prec, rnd = tape.prec, tape.rnd
    for k in range(_DEGREE):
        tape.advance(k)
        u.c.append(_div(p.c[k], (k + 1, 0), prec, rnd))
        p.c.append(_div(g.c[k], (k + 1, 0), prec, rnd))
    return u.c[:], p.c[:]


def _step_radius(us, ps, tol):
    """mpmath ``ode_taylor``'s step, min(1, (tol/|c_d|)^(1/d))/2 over both series;
    a quotient tol/|c_d| >= 2 takes no root, which would pass 1 by over 3 %."""
    qs = [tol / abs(mpf(cs[-1])) for cs in (us, ps) if cs[-1][0]]
    return min([mp.mpf(1)] + [mp.root(q, _DEGREE) for q in qs if q < 2]) / 2


def _step_index(starts_f, starts, t):
    """max(bisect.bisect(starts, t) - 1, 0) for the exact starts (libmp tuples)
    and a float t, from their floats ``starts_f``: the float of a start orders
    it against every float but itself, where the exact test settles it."""
    i = bisect.bisect(starts_f, t)
    while i > 0 and starts_f[i - 1] == t and mpf_gt(starts[i - 1], from_float(t)):
        i -= 1
    return max(i - 1, 0)


def _fixed_point(us, ps, radius, prec):
    """A step's two series (lowest first, pairs) as integers on one scale 2^-S,
    highest first, each cut toward zero: S = prec - M, M >= log2 max_j |c_j|
    radius^j over both."""
    _, _, exp, bc = radius._mpf_  # radius < 2^(exp + bc)
    top = max((e + man.bit_length() + j * (exp + bc) for cs in (us, ps) for j, (man, e) in enumerate(cs) if man),
              default=0)
    scale = prec - top

    def ints(cs):
        out = []
        for man, e in reversed(cs):
            v = abs(man) << (e + scale) if e + scale >= 0 else abs(man) >> -(e + scale)
            out.append(-v if man < 0 else v)
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
    """``mp.polyval`` of a series (lowest first, pairs) at the pair x under
    ``mp.workprec(prec)``: Horner from the top coefficient, unrounded, each
    step ``c + x * acc`` rounded twice as the mpf operators round it."""
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = _add(c, _mul(x, acc, prec, rnd), prec, rnd)
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
    converts).  ``acc`` takes jets and returns the jet of u''; t's jet is the
    polynomial t0 + h, which products and quotients read whole.  An
    RhsEvaluationError it raises is the stop; raised at the initial state,
    before any step, it reaches the caller, as does a span not finite and forward.

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
        rnd = round_nearest
        tol = mp.ldexp(1, -(int((dps - 10) * math.log2(10.0)) + 10))
        t, t1 = mp.mpf(t_span[0]), float(t_span[1])
        if not (mp.isfinite(t) and math.isfinite(t1) and t1 >= t):
            raise InputError(f"t_span must be finite and forward, got {t_span}")
        u, p = (mp.mpf(v) for v in y0)
        # per step: the start as a float and exactly, and (S, u and p on 2^-S)
        starts_f, starts, steps, event, tape = [], [], [], None, Tape()
        while True:
            try:
                us, ps = _taylor_step(acc, t, u, p, tape)
            except RhsEvaluationError as exc:
                if not steps:
                    raise
                event = DivergenceEvent(exc.label, float(t), np.array((float(u), float(p))), exc.detail)
                break
            radius = _step_radius(us, ps, tol)
            if radius < _MIN_STEP:
                event = DivergenceEvent("step_underflow", float(t), np.array((float(u), float(p))),
                                        f"Taylor step {mp.nstr(radius, 3)} below {_MIN_STEP:g}")
                break
            starts_f.append(float(t))
            starts.append(t._mpf_)
            steps.append(_fixed_point(us, ps, radius, fine_prec + _GUARD))
            t = t + radius
            u, p = (mpf(_join(cs, _pair(radius), fine_prec, rnd)) for cs in (us, ps))
            if t >= t1:
                break

        def state(x):
            i = _step_index(starts_f, starts, x)
            m, e = math.frexp(x)
            sign, man, exp, _ = starts[i]
            hm, exp = _add(_round(int(m * 2**53), e - 53, 53, rnd), (man if sign else -man, exp), fine_prec, rnd)
            if exp > 0:
                hm, exp = hm << exp, 0
            scale, us, ps = steps[i]
            return _to_float(_horner(us, hm, -exp), scale), _to_float(_horner(ps, hm, -exp), scale)

    read = (lambda ts: [state(x) for x in ts.tolist()]) if steps else None
    return read, float(t) if event else t1, event
