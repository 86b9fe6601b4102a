"""Taylor-mode jets on libmp tuples against the same recurrences on mpf operators.

``_RefTape`` and ``_RefJet`` below are the jets written with mpf objects:
every coefficient an ``mpf`` operator or an ``mp.fdot``, and
``_RefTape.taylor_step`` is a shooting Taylor step on them.  ``jets`` must
give every coefficient's libmp tuple bit for bit as they do, through ``tau``'s
closed forms and through one shooting Taylor step.
"""

from types import SimpleNamespace

import mpmath as mp
import pytest
from mpmath.libmp import fzero

from shrinker_lab import jets, shooting, tau
from shrinker_lab.tau import f_inverse_jet, f_inverse_mp, f_value_jet, f_value_mp

from conftest import branch_params

# an interior eigenvalue per branch
POINTS = {"MA": "0.6", "LOG": "0.3", "HARM": "0.2", "ATAN": "-0.3", "SLAG": "0.7", "NEG": "0.5"}
DEGREE = 20


class _RefTape:
    def __init__(self):
        self.nodes = []

    def input(self, coeffs):
        return _RefJet(self, None, list(coeffs))

    def advance(self, k):
        for node in self.nodes:
            node.c.append(node.rule(k))

    @classmethod
    def taylor_step(cls, tp, n, r0, u0, p0, f_s_frozen):
        """``shooting._taylor_step`` with mpf operators."""
        tape = cls()
        u, p = tape.input([u0]), tape.input([p0])
        r = tape.input([r0, 1] + [0] * (DEGREE - 1))
        f_s = f_s_frozen if f_s_frozen is not None else ref_f_value_jet(tp, p / r)
        g = ref_f_inverse_jet(tp, (-u + r * p / 2) - (n - 1) * f_s)
        for k in range(DEGREE):
            tape.advance(k)
            u.c.append(p.c[k] / (k + 1))
            p.c.append(g.c[k] / (k + 1))
        return u.c, p.c


class _RefJet:
    def __init__(self, tape, rule, c=None):
        self.tape = tape
        self.rule = rule
        self.c = [] if c is None else c
        if rule is not None:
            tape.nodes.append(self)

    def _derive(self, rule):
        return _RefJet(self.tape, rule)

    def __add__(self, other):
        a = self.c
        if isinstance(other, _RefJet):
            b = other.c
            return self._derive(lambda k: a[k] + b[k])
        x = mp.mpf(other)
        return self._derive(lambda k: a[k] + x if k == 0 else a[k])

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return self._derive(lambda k: -a[k])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a = self.c
        if isinstance(other, _RefJet):
            b = other.c
            return self._derive(lambda k: mp.fdot(a[: k + 1], b[k::-1]))
        x = mp.mpf(other)
        return self._derive(lambda k: a[k] * x)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RefJet):
            return _ref_quotient(self.c.__getitem__, other)
        x = mp.mpf(other)
        a = self.c
        return self._derive(lambda k: a[k] / x)

    def __rtruediv__(self, other):
        x = mp.mpf(other)
        return _ref_quotient(lambda k: x if k == 0 else 0, self)


def _ref_quotient(top, den):
    b = den.c
    w = []

    def rule(k):
        return (top(k) - mp.fdot(b[1 : k + 1], w[::-1])) / b[0]

    node = den._derive(rule)
    w = node.c
    return node


def _ref_chain(x, w0, v_of):
    a = x.c
    da = []
    v = []

    def rule(k):
        if k == 0:
            return w0(a[0])
        da.append(k * a[k])
        return mp.fdot(da, v[k - 1 :: -1]) / k

    node = x._derive(rule)
    v = v_of(node).c
    return node


def _ref_quotient_chain(x, w0, v):
    a, b = x.c, v.c
    dw = []

    def rule(k):
        if k == 0:
            return w0(a[0])
        wk = (a[k] - mp.fdot(dw, b[k - 1 : 0 : -1]) / k) / b[0]
        dw.append(k * wk)
        return wk

    return x._derive(rule)


REF = SimpleNamespace(
    Tape=_RefTape,
    exp=lambda x: _ref_chain(x, mp.exp, lambda w: w),
    tan=lambda x: _ref_chain(x, mp.tan, lambda w: 1 + w * w),
    tanh=lambda x: _ref_chain(x, mp.tanh, lambda w: 1 - w * w),
    log=lambda x: _ref_quotient_chain(x, mp.log, x),
    atan=lambda x: _ref_quotient_chain(x, mp.atan, 1 + x * x),
)
REF_OPS = tau._arithmetic(REF, mp.pi, tau._mp_consts)


def ref_f_value_jet(tp, lam):
    return tau._f_form(tp, REF_OPS)(lam)


def ref_f_inverse_jet(tp, y):
    return tau._f_inverse_form(tp, REF_OPS)(y)


def bits(coeffs):
    return [mp.convert(c)._mpf_ for c in coeffs]


def guarded(x):
    """x times (1 + 2^-prec / 3) at 40 bits past the working precision: a
    value whose low bits a rounding to working precision would lose."""
    prec = mp.mp.prec
    with mp.workprec(prec + 40):
        y = x * (1 + mp.ldexp(mp.mpf(1) / 3, -prec))
    assert y._mpf_[3] > prec
    return y


def series(module, fn, tp, x0, rest):
    tape = module.Tape()
    out = fn(tp, tape.input([x0] + rest))
    for k in range(DEGREE + 1):
        tape.advance(k)
    return out.c


class TestAgainstMpfOperators:
    @pytest.mark.parametrize("dps", [15, 30, 60])
    @pytest.mark.parametrize("branch", list(POINTS))
    def test_branch_jets_bit_for_bit(self, branch, dps):
        tp = branch_params()[branch]
        with mp.workdps(dps):
            lam = mp.mpf(POINTS[branch])
            y = f_value_mp(tp, lam)
            # the unit-slope series the shooting radius is, and one whose
            # coefficients all carry guard bits (the join values' precision)
            unit = [1] + [0] * (DEGREE - 1)
            full = [guarded(mp.mpf(1) / (j + 2)) * (-1) ** j for j in range(DEGREE)]
            for new, ref, x0 in ((f_value_jet, ref_f_value_jet, lam), (f_inverse_jet, ref_f_inverse_jet, y)):
                for x0_, rest in ((x0, unit), (guarded(x0), full)):
                    want = bits(series(REF, ref, tp, x0_, rest))
                    got = series(jets, new, tp, x0_, rest)
                    assert got == want, (new.__name__, dps)

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("branch", list(POINTS))
    def test_taylor_step_bit_for_bit(self, branch, frozen):
        tp = branch_params()[branch]
        with mp.workdps(30):
            c = mp.mpf(POINTS[branch])
            r0 = mp.mpf(shooting._R_START if frozen else 0.5)
            # a state near the quadratic with curvature c, at 40 guard bits
            u0 = guarded(c * r0 * r0 / 2 - 2 * f_value_mp(tp, c) + mp.mpf("1e-3"))
            p0 = guarded(c * r0 * (1 + mp.mpf("1e-3")))
            f_s = f_value_mp(tp, f_inverse_mp(tp, -u0 / 2)) if frozen else None
            got = shooting._taylor_step(tp, 2, r0, u0, p0, f_s)
            want = _RefTape.taylor_step(tp, 2, r0, u0, p0, f_s)
        assert len(got[0]) == len(got[1]) == DEGREE + 1
        assert got[0] == bits(want[0]) and got[1] == bits(want[1])

    def test_coefficients_are_libmp_tuples(self):
        # one step of the HARM constant profile (n = 1, u = sqrt(2)): every
        # coefficient past u_0 is an exact zero, held as a libmp tuple too
        tp = branch_params()["HARM"]
        with mp.workdps(30):
            steps = shooting._taylor_step(tp, 1, mp.mpf(0.5), -f_value_mp(tp, mp.mpf(0)), mp.mpf(0), None)
        us, ps = steps
        assert len(us) == len(ps) == DEGREE + 1
        assert us[1:] == [fzero] * DEGREE and ps == [fzero] * (DEGREE + 1)
        assert all(type(x) is tuple and len(x) == 4 for cs in steps for x in cs)
