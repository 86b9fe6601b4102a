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
"""

from __future__ import annotations

import mpmath as mp
from mpmath.libmp import fzero, from_int, from_man_exp, mpf_add, mpf_div, mpf_mul, mpf_mul_int, mpf_neg, mpf_sub

__all__ = ["Tape", "Jet", "log", "exp", "atan", "tan", "tanh"]


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
