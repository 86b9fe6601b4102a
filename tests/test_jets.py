"""Taylor-mode jets on (man, exp) pairs against the same recurrences on mpf operators.

``_RefTape`` and ``_RefJet`` below are the jets written with mpf objects:
every coefficient an ``mpf`` operator or an ``mp.fdot``, and
``_RefTape.taylor_step`` is a shooting Taylor step on them.  ``jets`` must
give every coefficient's pair bit for bit as they do, through ``tau``'s
closed forms and through one shooting Taylor step.  ``jets._dot`` itself must
give ``mpf_sum(map(mpf_mul, xs, ys), prec, rnd)`` bit for bit, and the
rounding kernel under it what the libmp call each operation replaces gives.
``jets.taylor_integrate`` keeps ``numerics.integrate_ode``'s contract on
equations other than the radial one.

A shot keeps one tape: each step restarts it, which sets the inputs anew and
clears every derived series (and each rule's scratch list) in place.  The
radial acc hands back the graph it recorded on that tape for its region; any
other acc's first derived node drops the old graph.  Every coefficient of a
shot must be the pair a fresh tape per step gives.  ``a - b``, ``c - a``,
``1 * a`` and ``a * 1`` fold to one node or none where the series negated or
multiplied is a derived one, rounded at the tape's precision, and nowhere else.
"""

import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_mul, mpf_neg, mpf_sum, round_ceiling, round_down, round_floor,
    round_nearest, round_up,
)

from shrinker_lab import TauParams, jets, shooting, tau
from shrinker_lab.numerics import InputError, RhsEvaluationError, integrate_ode
from shrinker_lab.tau import _JETS, _f_form, _f_inverse_form, f_inverse, f_inverse_mp, f_range, f_value, f_value_mp

from conftest import as_pair, branch_params

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
        """``jets._taylor_step`` with the radial acc ``shooting._jet_curvature``, on mpf operators."""
        tape = cls()
        u, p = tape.input([u0]), tape.input([p0])
        r = tape.input([r0, 1] + [0] * (DEGREE - 1))
        f_s = f_s_frozen if f_s_frozen is not None else ref_f(tp, p / r)
        g = ref_f_inverse(tp, (-u + r * p / 2) - (n - 1) * f_s)
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


def ref_f(tp, lam):
    return tau._f_form(tp, REF_OPS)(lam)


def ref_f_inverse(tp, y):
    return tau._f_inverse_form(tp, REF_OPS)(y)


def bits(coeffs):
    return [jets._pair(c) for c in coeffs]


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
            for form, ref, x0 in ((_f_form, ref_f, lam), (_f_inverse_form, ref_f_inverse, y)):
                for x0_, rest in ((x0, unit), (guarded(x0), full)):
                    want = bits(series(REF, ref, tp, x0_, rest))
                    got = series(jets, lambda tp, x: form(tp, _JETS)(x), tp, x0_, rest)
                    assert got == want, (form.__name__, dps)

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
            upp0 = f_inverse_mp(tp, -u0 / 2)
            got = jets._taylor_step(shooting._jet_curvature(tp, 2, upp0), r0, u0, p0)
            f_s = f_value_mp(tp, upp0) if frozen else None
            want = _RefTape.taylor_step(tp, 2, r0, u0, p0, f_s)
        assert len(got[0]) == len(got[1]) == DEGREE + 1
        assert got[0] == bits(want[0]) and got[1] == bits(want[1])

    def test_coefficients_are_pairs(self):
        # one step of the HARM constant profile (n = 1, u = sqrt(2)): every
        # coefficient past u_0 is an exact zero, held as the pair (0, 0)
        tp = branch_params()["HARM"]
        with mp.workdps(30):
            acc = shooting._jet_curvature(tp, 1, mp.mpf(0))
            steps = jets._taylor_step(acc, mp.mpf(0.5), -f_value_mp(tp, mp.mpf(0)), mp.mpf(0))
        us, ps = steps
        assert len(us) == len(ps) == DEGREE + 1
        assert us[1:] == [(0, 0)] * DEGREE and ps == [(0, 0)] * (DEGREE + 1)
        assert all(type(x) is tuple and len(x) == 2 and all(type(i) is int for i in x) for cs in steps for x in cs)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_time_is_a_polynomial_on_either_side(self, side):
        # t is t0 + h, two coefficients: a product with it on either side
        # and a quotient by it are bit for bit those of mpf operators on
        # the full series [t0, 1, 0, ..., 0]
        def acc(t, u, p):
            return (t * p if side == "left" else p * t) - u / t

        with mp.workdps(30):
            t0, u0, p0 = mp.mpf(0.75), mp.mpf("0.3"), mp.mpf("-1.1")
            got = jets._taylor_step(acc, t0, u0, p0)
            tape = _RefTape()
            u, p, t = tape.input([u0]), tape.input([p0]), tape.input([t0, 1] + [0] * (DEGREE - 1))
            g = acc(t, u, p)
            for k in range(DEGREE):
                tape.advance(k)
                u.c.append(p.c[k] / (k + 1))
                p.c.append(g.c[k] / (k + 1))
        assert got[0] == bits(u.c) and got[1] == bits(p.c)


# the shooting data of TestStepJoin: an interior curvature per branch
CURVATURES = {"MA": "0.6", "LOG": "0.4", "HARM": "0.3", "ATAN": "0.4", "SLAG": "0.5", "NEG": "1.2"}


class TestTapeRestart:
    """One tape a shot: each step restarts it, the radial acc sweeps the graph
    it recorded for its region again, and every coefficient stays the pair a
    fresh tape per step gives."""

    @pytest.mark.parametrize("du0", ["0", "0.01"])
    @pytest.mark.parametrize("dps", [15, 30, 45])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("branch", list(CURVATURES))
    def test_a_shot_is_a_fresh_tape_per_step(self, branch, n, dps, du0, monkeypatch):
        tp = branch_params()[branch]
        with mp.workdps(dps):
            u0 = -n * f_value_mp(tp, mp.mpf(CURVATURES[branch])) + mp.mpf(du0)
        _, acc, y0 = shooting._taylor_start(tp, n, u0, dps)
        _, fresh, _ = shooting._taylor_start(tp, n, u0, dps)  # its own acc, on a new tape each call
        steps, points = [], []
        taylor_step = jets._taylor_step

        def recording(acc, t0, u0, p0, tape):
            nodes, size = tape.nodes, len(tape.nodes)
            got = taylor_step(acc, t0, u0, p0, tape)
            derived = tape.nodes is not nodes or len(tape.nodes) != size  # the acc recorded nodes
            steps.append((t0, u0, p0, got, derived))
            return got

        def counted(r, u, p):
            points.append(r.c[0])
            return acc(r, u, p)

        monkeypatch.setattr(jets, "_taylor_step", recording)
        jets.taylor_integrate(counted, y0, (shooting._R_START, 10.0), dps)
        assert len(steps) >= 20
        assert points[: len(steps)] == [jets._pair(t0) for t0, *_ in steps] and len(points) <= len(steps) + 1
        assert 1 <= sum(derived for *_, derived in steps) <= 2
        with mp.workdps(dps):
            for t0, u0, p0, got, _ in steps:
                assert got == taylor_step(fresh, t0, u0, p0), float(t0)

    def test_a_restart_gives_a_fresh_tapes_series(self):
        # every rule with a scratch list (the chains' da, the quotient chains'
        # dw) restarts it, and a restart clears each derived series in place
        def graph(x, t):
            return jets.exp(x) * jets.tan(x) + jets.tanh(x) / t - jets.log(t * t) * jets.atan(x)

        def rest(x0):
            return [mp.mpf(x0) / (j + 2) for j in range(DEGREE)]

        with mp.workdps(30):
            tape = jets.Tape()
            x, t = tape.input([mp.mpf("0.3")] + rest("0.3")), tape.input([mp.mpf("0.75"), 1])
            g = graph(x, t)
            for k in range(DEGREE + 1):
                tape.advance(k)
            for x0, t0 in (("-0.2", "1.25"), ("0.45", "2.5")):
                tape.restart([mp.mpf(x0)] + rest(x0), [mp.mpf(t0), 1])
                for k in range(DEGREE + 1):
                    tape.advance(k)
                want = series(jets, lambda _, x: graph(x, x.tape.input([mp.mpf(t0), 1])), None, mp.mpf(x0), rest(x0))
                assert g.c == want and len(g.c) == DEGREE + 1

    def test_an_acc_that_derives_drops_the_old_graph(self):
        # after a restart the first derived node drops the graph recorded before:
        # 1/u, swept again at u = 0, would divide by zero
        with mp.workdps(30):
            tape = jets.Tape()
            first = jets._taylor_step(lambda t, u, p: 1 / u, mp.mpf(0), mp.mpf(1), mp.mpf(0), tape)
            second = jets._taylor_step(lambda t, u, p: -u, mp.mpf(1), mp.mpf(0), mp.mpf(1), tape)
            assert len(tape.nodes) == 1
            assert first == jets._taylor_step(lambda t, u, p: 1 / u, mp.mpf(0), mp.mpf(1), mp.mpf(0))
            assert second == jets._taylor_step(lambda t, u, p: -u, mp.mpf(1), mp.mpf(0), mp.mpf(1))


class TestFolds:
    """Negating a derived series or multiplying it by 1 is exact, its
    coefficients rounded at the tape's precision: there ``a - b`` and ``c - a``
    are one node and ``1 * a`` is a.  No fold rests on an input, which may
    carry bits past that precision (a guarded one does), and every coefficient
    is the mpf operators' either way."""

    FOLDS = {"a - b": lambda a, b: a - b, "c - a": lambda a, b: 2 - b, "1 * a": lambda a, b: 1 * b,
             "a * 1": lambda a, b: b * 1}
    # nodes each forms, folded and not
    NODES = {"a - b": (1, 2), "c - a": (1, 2), "1 * a": (0, 1), "a * 1": (0, 1)}

    @pytest.mark.parametrize("operand", ["derived", "short input", "guarded input"])
    @pytest.mark.parametrize("fold", list(FOLDS))
    def test_folds_only_on_rounded_series(self, fold, operand):
        with mp.workdps(30):
            a0 = [mp.mpf(1) / (j + 3) for j in range(DEGREE + 1)]
            b0 = [mp.mpf(2) / (j + 5) * (-1) ** j for j in range(DEGREE + 1)]
            if operand == "guarded input":
                b0 = [guarded(v) for v in b0]
            got = []
            for module in (jets, REF):
                tape = module.Tape()
                a, b = tape.input(a0), tape.input(b0)
                if operand == "derived":
                    b = b * a
                size = len(tape.nodes)
                out = self.FOLDS[fold](a, b)
                got.append((out, len(tape.nodes) - size, b))
                for k in range(DEGREE + 1):
                    tape.advance(k)
        (out, nodes, b), (ref, _, _) = got
        assert out.c == bits(ref.c)
        assert nodes == self.NODES[fold][operand != "derived"]
        assert (out is b) == ("1" in fold and operand == "derived")


class TestStepRadius:
    """min(1, (tol/|c_d|)^(1/d))/2 over both series' top coefficients: a
    quotient of 2 or more takes no root, whose value would pass 1."""

    @pytest.mark.parametrize("q", ["0.5", "0.75", "0.999", "1.001", "1.999999", "2.000001", "3"])
    def test_the_radius_is_the_capped_root(self, q):
        # just below 2 the root is taken and capped, just above it is skipped;
        # below 1 the root itself is the radius
        with mp.workdps(30):
            tol = mp.ldexp(1, -70)
            c = jets._pair(tol / mp.mpf(q))
            want = min(mp.mpf(1), mp.root(tol / abs(jets.mpf(c)), DEGREE)) / 2
            low = [(1, 0)] * DEGREE
            assert jets._step_radius(low + [c], low + [(0, 0)], tol) == want
            assert jets._step_radius(low + [(0, 0)], low + [(-c[0], c[1])], tol) == want
            assert jets._step_radius(low + [(0, 0)], low + [(0, 0)], tol) == mp.mpf(1) / 2


ROUNDINGS = [round_nearest, round_floor, round_ceiling, round_down, round_up]


def ref_dot(xs, ys, prec, rnd):
    return mpf_sum(map(mpf_mul, xs, ys), prec, rnd)


def dot(xs, ys, prec, rnd):
    """``jets._dot`` on the pairs of libmp tuples."""
    return jets._dot(list(map(as_pair, xs)), list(map(as_pair, ys)), prec, rnd)


def raw(man, exp):
    """man 2^exp as a libmp tuple."""
    return from_man_exp(man, exp)


class TestFusedDot:
    """``jets._dot`` against the ``mpf_sum`` of ``mpf_mul`` products it replaces."""

    # each case names the branch of mpf_sum's loop it reaches at prec <= 200,
    # where 2 prec <= 400 bits is the widest gap the sum keeps
    CASES = {
        "empty": ([], []),
        "zeros": ([fzero, raw(3, -2), fzero], [raw(5, 1), fzero, fzero]),
        "mixed signs": ([raw(3, -2), raw(-7, 5), raw(-11, -40)], [raw(-5, 1), raw(-9, -3), raw(13, 7)]),
        "cancels to zero": ([raw(3, -2), raw(3, -2)], [raw(5, 1), raw(-5, 1)]),
        "cancels, then far above": ([raw(3, -2), raw(3, -2), raw(1, 1000)], [raw(5, 1), raw(-5, 1), raw(7, 0)]),
        "cancels, then far below": ([raw(3, -2), raw(3, -2), raw(1, -1000)], [raw(5, 1), raw(-5, 1), raw(7, 0)]),
        "restart far above": ([raw(3, 0), raw(-5, 900), raw(7, 880)], [raw(1, 0), raw(1, 0), raw(-1, 0)]),
        "drop far below": ([raw(3, 900), raw(-5, 0), raw(7, 880)], [raw(1, 0), raw(1, 0), raw(1, 0)]),
        "start far below": ([raw(-3, -900), raw(5, -880)], [raw(1, 0), raw(1, 0)]),
        "gap at the edge": ([raw(1, 0), raw(1, -402), raw(1, 401)], [raw(1, 0), raw(1, 0), raw(-(2**200 - 1), 0)]),
        "long mantissas": ([raw(3**130, -300), raw(-(7**70), -100)], [raw(5**80, -90), raw(11**60, -250)]),
    }

    @pytest.mark.parametrize("rnd", ROUNDINGS)
    @pytest.mark.parametrize("prec", [43, 53, 113, 200])
    @pytest.mark.parametrize("case", list(CASES))
    def test_cases_bit_for_bit(self, case, prec, rnd):
        xs, ys = self.CASES[case]
        assert dot(xs, ys, prec, rnd) == as_pair(ref_dot(xs, ys, prec, rnd))

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    @pytest.mark.parametrize("rnd", ROUNDINGS)
    @pytest.mark.parametrize("prec", [43, 53, 113, 200])
    def test_gaps_at_2prec_bit_for_bit(self, prec, rnd, shift):
        # gaps one bit either side of 2 prec, where mpf_sum starts dropping
        # or restarting; a directed rounding shows a term kept or dropped
        gap, one = 2 * prec + shift, raw(1, 0)
        cases = [
            ([one, raw(1, -gap - 1)], [one, one]),  # a product below a sum of 1
            ([one, raw(3, -gap - 2)], [one, raw(-1, 0)]),
            ([raw(1, gap), raw(1, -5)], [one, one]),  # a product above the zero sum at 2^0, then one below
            ([one, raw(1, gap + 1)], [one, raw(-1, 0)]),  # a product above a sum of 1
        ]
        for xs, ys in cases:
            assert dot(xs, ys, prec, rnd) == as_pair(ref_dot(xs, ys, prec, rnd)), (xs, ys)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(
        pairs=st.lists(
            st.tuples(*[st.builds(raw, st.one_of(st.just(0), st.integers(-(2**220), 2**220)),
                                  st.one_of(st.integers(-40, 40), st.integers(-1500, 1500)))] * 2),
            max_size=24,
        ),
        prec=st.integers(43, 200),
        rnd=st.sampled_from(ROUNDINGS),
    )
    def test_random_sums_bit_for_bit(self, pairs, prec, rnd):
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        assert dot(xs, ys, prec, rnd) == as_pair(ref_dot(xs, ys, prec, rnd))


@st.composite
def operands(draw, prec, zero=True):
    """A pair as ``jets`` holds one (man odd, or (0, 0)) and its libmp tuple.
    Its mantissa has prec bits (a rounded value), prec + 1 (a tie at prec),
    prec + 40 (a joined value's guard bits), a few, or up to 250."""
    if zero and draw(st.integers(0, 15)) == 0:
        return (0, 0), fzero
    bits = draw(st.sampled_from([prec, prec + 1, prec + 40, draw(st.integers(1, 250))]))
    man = draw(st.integers(2 ** (bits - 1), 2**bits - 1)) | 1
    pair = (-man if draw(st.booleans()) else man, draw(st.integers(-1500, 1500)))
    return pair, from_man_exp(*pair)


def kernel(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


class TestKernel:
    """The rounding kernel on pairs against the libmp call each operation replaces."""

    @kernel(600)
    @given(data=st.data(), exp=st.integers(-1500, 1500), prec=st.integers(43, 200), rnd=st.sampled_from(ROUNDINGS))
    def test_round_is_from_man_exp(self, data, exp, prec, rnd):
        # any mantissa of up to 250 bits, odd or not, and ties at prec bits
        bits = data.draw(st.integers(0, 250))
        man = data.draw(st.integers(2**bits >> 1, 2**bits - 1)) * data.draw(st.sampled_from([1, -1]))
        n = man.bit_length() - prec
        if n > 0 and data.draw(st.booleans()):
            man = (man >> n << n) + (1 << (n - 1))
        assert jets._round(man, exp, prec, rnd) == as_pair(from_man_exp(man, exp, prec, rnd))

    @kernel(500)
    @given(data=st.data(), prec=st.integers(43, 200))
    def test_operations_are_the_libmp_calls(self, data, prec):
        (x, tx), (y, ty) = data.draw(operands(prec)), data.draw(operands(prec))
        if data.draw(st.booleans()):  # y near x, or past the sticky gap of 100 bits either way
            gap = data.draw(st.one_of(st.integers(-8, 8), st.integers(90, 400), st.integers(-400, -90)))
            y = (y[0], x[1] + gap)
            ty = from_man_exp(*y)
        n = round_nearest
        assert jets._add(x, y, prec, n) == as_pair(mpf_add(tx, ty, prec, n))
        assert jets._mul(x, y, prec, n) == as_pair(mpf_mul(tx, ty, prec, n))
        assert jets._round(-x[0], x[1], prec, n) == as_pair(mpf_neg(tx, prec, n))
        if y[0]:
            assert jets._div(x, y, prec, n) == as_pair(mpf_div(tx, ty, prec, n))

    @kernel(300)
    @given(data=st.data(), prec=st.integers(43, 200), gap=st.integers(101, 1500))
    def test_sticky_addend_keeps_its_sign(self, data, prec, gap):
        # an addend more than 100 bits below the other's last bit and
        # prec + 4 below its first enters as a unit of its own sign; against
        # a tie at prec (prec + 1 bits) the sign alone picks the rounding
        (x, _), (y, _) = data.draw(operands(prec, zero=False)), data.draw(operands(prec, zero=False))
        y = (y[0], x[1] - gap - max(y[0].bit_length() - x[0].bit_length(), 0) - prec)
        for a, b in ((x, y), (y, x)):
            want = as_pair(mpf_add(from_man_exp(*a), from_man_exp(*b), prec, round_nearest))
            assert jets._add(a, b, prec, round_nearest) == want

    @kernel(300)
    @given(data=st.data(), prec=st.integers(43, 200), k=st.sampled_from([1, -1, 2, 3, -3, 4, 7, 12, 16, 19, 20, 21]),
           shift=st.integers(-3, 3))
    def test_division_by_small_ints(self, data, prec, k, shift):
        # the Taylor recurrences divide by (k, 0) as it is, even or not;
        # +-1 (and so +-2^shift as a pair) moves the exponent only
        x, tx = data.draw(operands(prec))
        assert jets._div(x, (k, 0), prec, round_nearest) == as_pair(mpf_div(tx, from_int(k), prec, round_nearest))
        one = (k // abs(k), shift) if abs(k) == 1 else (k, shift)
        want = mpf_div(tx, from_man_exp(*one), prec, round_nearest)
        assert jets._div(x, one, prec, round_nearest) == as_pair(want)


class TestTaylorIntegrate:
    """``taylor_integrate(acc, y0, t_span, dps)`` on accs other than the radial one."""

    def test_harmonic_oscillator_to_the_last_bit(self):
        # u'' = -u from (0, 1): u = sin, u' = cos, each read within one ulp
        read, t_end, event = jets.taylor_integrate(lambda t, u, p: -u, (0, 1), (0.0, 10.0), 30)
        assert (t_end, event) == (10.0, None)
        xs = np.linspace(0.0, 10.0, 101)
        for x, (u, p) in zip(xs.tolist(), read(xs)):
            for got, want in ((u, float(mp.sin(x))), (p, float(mp.cos(x)))):
                assert abs(got - want) <= math.ulp(want), x

    def test_slag_datum_ends_at_its_singularity(self):
        # the 1-D SLAG datum u'' = f^-1(-u + x u'/2), lambda0 = 0.9,
        # u(0) = -f(lambda0), u'(0) = -1e-6: the Taylor step radius collapses
        # at the singularity near x = 5.768, where the float integrator's
        # target leaves the range of f; both agree short of it
        tp = TauParams.special_lagrangian()
        lo, hi = f_range(tp)
        y0, span = (-f_value(tp, 0.9), -1e-6), (0.0, 10.0)

        def jet_acc(x, u, p):  # the jet form is bound at each call, at the integrator's dps
            return _f_inverse_form(tp, _JETS)(-u + x * p / 2)

        read, t_end, event = jets.taylor_integrate(jet_acc, y0, span, 30)
        assert event.label == "step_underflow" and event.t == t_end and round(t_end, 3) == 5.768

        def float_acc(x, u, p):
            y = -u + x * p / 2
            if not lo < y < hi:
                raise RhsEvaluationError("inversion_failure", f"target {y}")
            return f_inverse(tp, y)

        traj = integrate_ode(float_acc, y0, span, 1e-12)
        assert traj.event.label == "inversion_failure" and round(traj.t_end, 7) == round(t_end, 7)
        xs = np.linspace(0.0, 4.5, 91)
        assert np.max(np.abs(np.array(read(xs)) - traj.evaluate(xs))) <= 1e-9

    def test_a_raise_past_the_start_is_the_stop(self):
        def walled(t, u, p):
            if jets.mpf(t.c[0]) > 2:
                raise RhsEvaluationError("wall", "past 2")
            return -u

        read, t_end, event = jets.taylor_integrate(walled, (0, 1), (0.0, 10.0), 30)
        assert (event.label, event.detail, event.t) == ("wall", "past 2", t_end) and 2.0 < t_end < 3.0
        assert read(np.array([t_end]))[0] == pytest.approx((math.sin(t_end), math.cos(t_end)), abs=1e-15)

    @pytest.mark.parametrize("t_span, match", [((0.0, math.nan), "finite"), ((math.nan, 1.0), "finite"),
                                                ((0.0, math.inf), "finite"), ((0.0, -10.0), "forward")])
    def test_a_bad_span_is_refused_before_any_call(self, t_span, match):
        # a nan end once stepped without end, and a backward one took one
        # forward step its reader then extrapolated
        def acc(t, u, p):
            raise AssertionError("acc called")

        with pytest.raises(InputError, match=match):
            jets.taylor_integrate(acc, (0, 1), t_span, 30)

    def test_a_refused_start_reaches_the_caller(self):
        def refusing(t, u, p):
            raise RhsEvaluationError("inversion_failure", "at the start")

        with pytest.raises(RhsEvaluationError, match="at the start"):
            jets.taylor_integrate(refusing, (0, 1), (0.0, 10.0), 30)
