import dataclasses
import inspect
import math
import re
import pickle

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shrinker_lab as sl
from shrinker_lab import (
    Branch,
    DomainError,
    InputError,
    TauParams,
    admissible,
    cone_spec,
    f_derivative,
    f_inverse,
    f_value,
    operator_value,
    phase,
)
from shrinker_lab import jets
from shrinker_lab.fields import QuadraticField, ScalarField
from shrinker_lab.tau import (
    _JETS,
    _eigenvalue,
    _first_outside,
    _forms,
    f_inverse_mp,
    f_value_mp,
    minkowski_residual,
    operator_gradient_matrix,
)
from shrinker_lab.quadratics import _eigenvalue_window, admissible_matrix, random_admissible_matrix
from conftest import CallableField, branch_params, same_bits, with_lower_cones

SQRT2 = math.sqrt(2.0)

# frozen oracle values (40-digit evaluation of the closed forms)
ATAN_PI3_F0 = -0.24030098317248836  # sqrt(2)*(atan(1/sqrt(2)) - pi/4)
LOG_PI6_F0 = -1.6209939789535075    # == -sqrt(2)*ln(sqrt(3)+sqrt(2))


class TestTauParams:
    def test_branch_classification(self):
        assert TauParams.from_tau(0.0).branch is Branch.MA
        assert TauParams.from_tau(math.pi / 4).branch is Branch.HARM
        assert TauParams.from_tau(math.pi / 2).branch is Branch.SLAG
        assert TauParams.from_tau(math.pi / 6).branch is Branch.LOG
        assert TauParams.from_tau(math.pi / 3).branch is Branch.ATAN
        assert TauParams.from_tau(-0.4).branch is Branch.NEG

    def test_out_of_range(self):
        for tau in (2.0, -math.pi / 4, -1.0, 3.2):
            with pytest.raises(InputError):
                TauParams.from_tau(tau)

    def test_from_cot(self):
        assert TauParams.from_cot(-2.0).branch is Branch.NEG
        assert TauParams.from_cot(2.0).branch is Branch.LOG
        assert TauParams.from_cot(0.5).branch is Branch.ATAN
        assert TauParams.from_cot(0.0).branch is Branch.SLAG
        assert TauParams.from_cot(1.0).branch is Branch.HARM
        with pytest.raises(InputError):
            TauParams.from_cot(-0.5)

    def test_constants_consistency(self):
        for name, tp in branch_params().items():
            if tp.branch is Branch.MA:
                continue
            assert abs(tp.a - 1.0 / math.tan(tp.tau)) < 1e-12 * (1 + abs(tp.a))
            assert abs(tp.a**2 + 1.0 - 1.0 / math.sin(tp.tau) ** 2) < 1e-12 * (1 + tp.a**2)
            s, c = tp.sin_cos
            assert abs(s - math.sin(tp.tau)) < 1e-12
            assert abs(c - math.cos(tp.tau)) < 1e-12

    def test_neg_interval(self):
        spec = cone_spec(TauParams.neg_branch(a=-2.0))
        assert spec.tag == "inside-interval"
        assert abs(spec.lo - (2.0 - math.sqrt(3.0))) < 1e-14
        assert abs(spec.hi - (2.0 + math.sqrt(3.0))) < 1e-14

    def test_neg_branch_takes_a_alone(self):
        # NEG has one cone component: either side builds the same one
        assert list(inspect.signature(TauParams.neg_branch).parameters) == ["a"]
        tp = TauParams.neg_branch(-2.0)
        assert tp == TauParams.from_cot(-2.0)
        assert tp.components == TauParams.from_cot(-2.0, "lower").components
        with pytest.raises(InputError, match="not in the NEG range"):
            TauParams.neg_branch(2.0)

    def test_cone_side_validated(self):
        with pytest.raises(InputError, match="cone_side"):
            TauParams(math.pi / 6, math.sqrt(3.0), math.sqrt(2.0), Branch.LOG, "middle")

    def test_inconsistent_constants_rejected(self):
        with pytest.raises(InputError):
            TauParams(math.pi / 6, 2.0, math.sqrt(2.0), Branch.LOG)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TauParams.from_cot(1e300),     # b = sqrt(a^2 - 1) = inf
            lambda: TauParams.from_cot(-1e300),
            lambda: TauParams.from_tau(1e-300),    # a = 1e300
            lambda: TauParams.from_tau(5e-324),    # a = 1/tan(tau) = inf
            lambda: TauParams.from_cot(math.nan),
            lambda: TauParams(math.nan, math.nan, math.nan, Branch.LOG),
        ],
    )
    def test_non_finite_constants_rejected(self, make):
        # inf - inf is NaN, and NaN fails every consistency check
        with pytest.raises(InputError, match="inconsistent"):
            make()

    @pytest.mark.parametrize("a", [-1e10, 1e10])
    def test_degenerate_cone_edge_rejected(self, a):
        # b = sqrt(a^2 - 1) rounds to |a|: the cone edge -(b + a) of NEG, or
        # -(a - b) of LOG, would be 0
        with pytest.raises(InputError, match="rounds b"):
            TauParams.from_cot(a)
        tp = TauParams.from_cot(a / 1e3)
        assert tp.b < abs(tp.a) and 0.0 not in (cone_spec(tp).lo, cone_spec(tp).hi)

    def test_from_cot_of_from_tau_a(self, rng):
        # off the seams both constructors form b from a alone: the same a,
        # b and branch, bit for bit, on NEG, LOG and ATAN
        branches = set()
        for tau in rng.uniform(-math.pi / 4, math.pi / 2, 3000).tolist():
            tp = TauParams.from_tau(tau)
            back = TauParams.from_cot(tp.a)
            assert same_bits((back.a, back.b), (tp.a, tp.b)) and back.branch is tp.branch, tau
            branches.add(tp.branch)
        assert branches == {Branch.NEG, Branch.LOG, Branch.ATAN}


class TestScalarFunction:
    def test_frozen_values(self, all_branches):
        assert f_value(all_branches["HARM"], 0.0) == -SQRT2
        assert f_value(all_branches["SLAG"], 1.0) == math.atan(1.0)
        assert abs(f_value(all_branches["ATAN"], 0.0) - ATAN_PI3_F0) < 1e-14
        assert abs(f_value(all_branches["LOG"], 0.0) - LOG_PI6_F0) < 1e-14

    def test_atan_smooth_vs_quotient_form(self, all_branches):
        # the two arctangent forms agree wherever lam + a + b > 0
        tp = all_branches["ATAN"]
        a, b, c = tp.a, tp.b, tp.sqrt_a2p1 / tp.b
        for lam in np.linspace(-(a + b) + 1e-6, 30.0, 500):
            raw = c * math.atan((lam + a - b) / (lam + a + b))
            assert abs(raw - f_value(tp, lam)) < 1e-12

    def test_derivative_frozen(self, all_branches):
        assert f_derivative(all_branches["HARM"], 0.0) == SQRT2
        assert f_derivative(all_branches["SLAG"], 0.0) == 1.0
        # (lam + a)^2 - b^2 at lam = 0 is a^2 - b^2 = 1 for a = sqrt3, b = sqrt2
        assert abs(f_derivative(all_branches["LOG"], 0.0) - 2.0) < 1e-14

    def test_derivative_positive_everywhere(self, all_branches, rng):
        for name, tp in all_branches.items():
            spec = cone_spec(tp)
            lo = spec.lo if math.isfinite(spec.lo) else -8.0
            hi = spec.hi if math.isfinite(spec.hi) else 8.0
            w = hi - lo
            for lam in lo + w * rng.uniform(0.001, 0.999, size=107):
                assert f_derivative(tp, lam) > 0.0

    def test_derivative_matches_fd(self, all_branches, rng):
        for name, tp in all_branches.items():
            spec = cone_spec(tp)
            lo = spec.lo if math.isfinite(spec.lo) else -4.0
            hi = spec.hi if math.isfinite(spec.hi) else 4.0
            w = hi - lo
            for lam in lo + w * rng.uniform(0.05, 0.95, size=25):
                h = 1e-6 * max(1.0, abs(lam))
                fd = (f_value(tp, lam + h) - f_value(tp, lam - h)) / (2 * h)
                assert abs(fd - f_derivative(tp, lam)) < 1e-6 * max(1.0, abs(fd))

    def test_domain_violations(self, all_branches):
        with pytest.raises(DomainError, match="admissibility"):
            f_value(all_branches["MA"], -0.5)
        with pytest.raises(DomainError, match="admissibility"):
            f_value(all_branches["HARM"], -1.0)
        with pytest.raises(DomainError, match="admissibility"):
            f_value(all_branches["NEG"], 4.0)
        with pytest.raises(DomainError, match="admissibility") as exc:
            f_value(all_branches["NEG"], 0.1)
        assert exc.value.value == 0.1


class TestInverse:
    def test_trivial_inverses(self, all_branches):
        assert abs(f_inverse(all_branches["HARM"], -SQRT2) - 0.0) < 1e-12
        assert abs(f_inverse(all_branches["MA"], 0.0) - 1.0) < 1e-12
        assert abs(f_inverse(all_branches["SLAG"], math.pi / 4) - 1.0) < 1e-12

    def test_roundtrip_all_branches(self, all_branches, rng):
        for name, tp in all_branches.items():
            spec = cone_spec(tp)
            lo = spec.lo if math.isfinite(spec.lo) else -6.0
            hi = spec.hi if math.isfinite(spec.hi) else 6.0
            w = hi - lo
            for lam in lo + w * rng.uniform(0.01, 0.99, size=200):
                back = f_inverse(tp, f_value(tp, lam))
                assert abs(back - lam) < 1e-10 * (1.0 + abs(lam))

    def test_roundtrip_lower_cones(self, rng):
        for tp in (TauParams.harmonic("lower"), TauParams.log_branch(math.pi / 6, "lower")):
            spec = cone_spec(tp)
            for lam in spec.hi - rng.uniform(0.05, 6.0, size=100):
                y = f_value(tp, lam)
                assert y > 0.0  # lower-component range
                assert abs(f_inverse(tp, y) - lam) < 1e-10 * (1 + abs(lam))

    def test_residual_contract(self, all_branches, rng):
        # sampled where the scalar function itself is double-evaluable at the
        # contract accuracy: close to a cone edge, f' * ulp(lam) exceeds any
        # representable-lambda residual and no double can satisfy the bound
        windows = {
            "MA": (-30.0, 30.0),
            "LOG": (-6.0, -1e-2),
            "HARM": (-6.0, -1e-2),
            "ATAN": None,
            "SLAG": (-math.pi / 2 + 0.05, math.pi / 2 - 0.05),
            "NEG": (-6.0, 6.0),
        }
        for name, tp in all_branches.items():
            w = windows[name]
            if w is None:
                lo, hi = sl.tau.f_range(tp)
                w = (lo + 0.05, hi - 0.05)
            for y in rng.uniform(w[0], w[1], size=50):
                lam = f_inverse(tp, y)
                assert abs(f_value(tp, lam) - y) <= 1e-12 * (1.0 + abs(y))

    # targets next to a finite cone edge and at an MA subnormal preimage,
    # where no double meets the polish's tolerance 1e-12 (1 + |y|)
    @pytest.mark.parametrize("name, y", [("NEG", 23.0763), ("NEG", -24.3715), ("MA", -372.5), ("LOG", -23.6188)])
    def test_polish_ends_where_no_double_meets_tol(self, name, y, all_branches):
        tp = all_branches[name]
        spec, f = cone_spec(tp), tp.forms[0]
        lam = f_inverse(tp, y)
        tol = 1e-12 * (1.0 + abs(y))
        doubles = [lam, math.nextafter(lam, -math.inf), math.nextafter(lam, math.inf)]
        assert spec.contains(lam)
        assert all(abs(f(x) - y) > tol for x in doubles if spec.contains(x))

    def test_range_error_reports_interval(self, all_branches):
        tp = all_branches["SLAG"]
        with pytest.raises(InputError, match="outside attainable range") as exc:
            f_inverse(tp, 2.0)
        assert sl.tau.f_range(tp) == (-math.pi / 2, math.pi / 2)
        assert str(sl.tau.f_range(tp)) in str(exc.value)
        with pytest.raises(InputError, match="outside attainable range"):
            f_inverse(all_branches["HARM"], 0.5)  # upper component range is (-inf, 0)

    @pytest.mark.parametrize("cone_side, y, end", [("upper", -5e-324, math.inf), ("lower", 5e-324, -math.inf)])
    def test_log_denormal_target_is_infinite_end(self, cone_side, y, end):
        # b y / sqrt(a^2 + 1) underflows to 0, and the closed form divides by tanh(0)
        assert f_inverse(TauParams.log_branch(math.pi / 6, cone_side), y) == end


class TestCachedForms:
    """The float closed forms and sqrt(a^2 + 1) are cached on each TauParams
    instance: a replaced instance reads its own, never its source's."""

    @pytest.mark.parametrize("branch", ["LOG", "HARM"])
    def test_lower_component_of_a_replaced_instance(self, branch, all_branches):
        upper = all_branches[branch]
        f_inverse(upper, f_value(upper, 0.5))  # fill the upper instance's caches
        lower = dataclasses.replace(upper, cone_side="lower")
        fresh = with_lower_cones()[f"{branch}-lower"]
        assert lower.components == fresh.components and lower.components[0].tag == "lower"
        edge = cone_spec(lower).hi
        for lam in (edge - 0.5, edge - 3.0):
            y = f_value(lower, lam)
            assert y > 0.0 and same_bits(y, f_value(fresh, lam))
            back = f_inverse(lower, y)
            assert back < edge and same_bits(back, f_inverse(fresh, y))
            with pytest.raises(InputError, match="outside attainable range"):
                f_inverse(upper, y)  # the upper component's range is (-inf, 0)

    def test_replaced_constants(self, all_branches):
        tp = all_branches["LOG"]
        before = [f_value(tp, 0.5), f_inverse(tp, -0.3), tp.sqrt_a2p1]
        other = TauParams.log_branch(0.4)
        moved = dataclasses.replace(tp, tau=other.tau, a=other.a, b=other.b)
        after = [f_value(moved, 0.5), f_inverse(moved, -0.3), moved.sqrt_a2p1]
        assert same_bits(after, [f_value(other, 0.5), f_inverse(other, -0.3), other.sqrt_a2p1])
        assert all(x != y for x, y in zip(before, after))

    def test_pickles_after_use(self, all_branches):
        for tp in all_branches.values():
            y = f_value(tp, 0.5)
            back = pickle.loads(pickle.dumps(tp))
            assert back == tp and same_bits(f_inverse(back, y), f_inverse(tp, y))


# f_value and f_inverse as they read before their guards were bound once per
# TauParams, kept verbatim as the references of TestBoundGuards: the inverse
# with its polish as a loop of four residual checks and Newton steps


def _reference_f_value(tp, lam):
    """The single-eigenvalue summand of the operator."""
    return tp.forms[0](_eigenvalue(tp, lam))


def _reference_f_inverse(tp, y):
    """Unique admissible lam with f(lam) = y on the selected cone component.

    A closed-form seed exists on every branch; a short guarded Newton polish
    enforces |f(lam) - y| <= 1e-12 * (1 + |y|).
    """
    y = float(y)
    spec = tp.components[0]
    if not (spec.f_lo < y < spec.f_hi):
        raise InputError(f"target {y} outside attainable range ({spec.f_lo}, {spec.f_hi})")
    try:
        lam = tp.forms[1](y)
    except (OverflowError, ZeroDivisionError):
        # MA's exp(2y) past double range, or LOG's tanh(b y / root) underflowing
        # to 0 at a denormal y: the preimage is the component's infinite end
        return spec.hi if spec.hi == math.inf else spec.lo
    # clamp into the open component: for extreme targets the closed form can
    # round onto (or past) a cone endpoint, where the nearest interior double
    # is the correctly rounded preimage
    if math.isfinite(spec.lo):
        lam = max(lam, math.nextafter(spec.lo, math.inf))
    if math.isfinite(spec.hi):
        lam = min(lam, math.nextafter(spec.hi, -math.inf))
    if not math.isfinite(lam):
        return lam
    # short guarded Newton polish
    tol, f = 1e-12 * (1.0 + abs(y)), tp.forms[0]
    for _ in range(4):
        r = f(_eigenvalue(tp, lam)) - y
        if not math.isfinite(r) or abs(r) <= tol:
            break
        step = r / f_derivative(tp, lam)
        if not math.isfinite(step):
            break
        cand = lam - step
        while not spec.contains(cand):
            step *= 0.5
            cand = lam - step
            if abs(step) < 1e-300:
                break
        lam = cand
    return lam


def _outcomes(fn, tp, xs):
    """fn(tp, x) for each x: the values (NaN where it raised) and, in order,
    the type and message of each error."""
    values, errors = [], []
    for x in xs:
        try:
            values.append(fn(tp, x))
        except (InputError, DomainError) as exc:
            values.append(math.nan)
            errors.append((type(exc), str(exc)))
    return values, errors


def _near_ends(lo, hi):
    """Points within 1e-12 (1 + |end|) of each finite end of (lo, hi), on both
    sides: the end, its neighbouring doubles and offsets of 1e-16 to 1e-12."""
    out = []
    for end in (lo, hi):
        if math.isfinite(end):
            out += [end, math.nextafter(end, math.inf), math.nextafter(end, -math.inf)]
            out += [end + sign * d * (1 + abs(end)) for d in (1e-16, 1e-15, 1e-14, 1e-13, 3e-13, 1e-12)
                    for sign in (-1.0, 1.0)]
    return out


def _spanning(rng, lo, hi, count, decades):
    """``count`` points spanning (lo, hi): uniform on a finite interval, and on
    an infinite side offsets from the finite end (or 0) of log-uniform
    magnitude 10^decades[0] to 10^decades[1]."""
    if math.isfinite(lo) and math.isfinite(hi):
        return rng.uniform(lo, hi, count).tolist()
    mags = 10.0 ** rng.uniform(*decades, count)
    if math.isfinite(lo):
        return (lo + mags).tolist()
    if math.isfinite(hi):
        return (hi - mags).tolist()
    return (mags * rng.choice([-1.0, 1.0], count)).tolist()


class TestBoundGuards:
    """f_value and f_inverse, their guards bound once per TauParams, equal the
    reference copies above bit for bit, errors and their messages included."""

    NAMES = list(with_lower_cones())

    def _check(self, tp, lams=(), targets=()):
        for new, ref, xs in ((f_value, _reference_f_value, lams), (f_inverse, _reference_f_inverse, targets)):
            (got, got_err), (want, want_err) = _outcomes(new, tp, xs), _outcomes(ref, tp, xs)
            assert same_bits(got, want) and got_err == want_err

    @pytest.mark.parametrize("name", NAMES)
    def test_targets_and_eigenvalues_spanning_each_range(self, name, rng):
        tp = with_lower_cones()[name]
        spec = tp.components[0]
        targets = _spanning(rng, spec.f_lo, spec.f_hi, 10_000, (-320, 3))
        lams = [lam for lam in map(lambda y: _reference_f_inverse(tp, y), targets) if math.isfinite(lam)]
        self._check(tp, lams + _spanning(rng, spec.lo, spec.hi, 2_000, (-12, 300)), targets)

    @pytest.mark.parametrize("name", NAMES)
    def test_within_1e12_of_every_finite_end(self, name):
        tp = with_lower_cones()[name]
        lams, targets = [], []
        for spec in tp.components:
            lams += _near_ends(spec.lo, spec.hi)
            targets += _near_ends(spec.f_lo, spec.f_hi)
        self._check(tp, lams, targets)

    @pytest.mark.parametrize("name", NAMES)
    def test_denormal_and_clamp_end_targets(self, name):
        # the first eight doubles inside each finite cone end are the images of
        # targets whose closed form rounds onto (or past) the end and is clamped
        tp = with_lower_cones()[name]
        spec = tp.components[0]
        targets = [sign * y for y in (5e-324, 1e-320, 1e-310, 2.2250738585072014e-308) for sign in (-1.0, 1.0)]
        clamp_ends = []
        for end, inward in ((spec.lo, math.inf), (spec.hi, -math.inf)):
            if math.isfinite(end):
                clamp_ends.append(math.nextafter(end, inward))
                lam = end
                for _ in range(8):
                    lam = math.nextafter(lam, inward)
                    targets.append(tp.forms[0](lam))
        self._check(tp, targets=targets)
        clamped = [y for y in targets if spec.f_lo < y < spec.f_hi and f_inverse(tp, y) in clamp_ends]
        assert len(clamped) >= len(clamp_ends)

    def test_ma_overflow_and_log_denormal_targets(self):
        ma, tps = TauParams.monge_ampere(), with_lower_cones()
        self._check(ma, targets=[354.0, 354.9, 355.0, 400.0, 1e300])
        assert f_inverse(ma, 355.0) == math.inf
        for name, y in (("LOG", -5e-324), ("LOG", -1e-320), ("LOG-lower", 5e-324), ("LOG-lower", 1e-320)):
            self._check(tps[name], targets=[y])
            assert math.isinf(f_inverse(tps[name], y))

    @pytest.mark.parametrize("name", ["LOG", "LOG-lower", "HARM", "HARM-lower"])
    def test_eigenvalue_in_the_other_component(self, name, rng):
        tp = with_lower_cones()[name]
        other = tp.components[1]
        lams = _spanning(rng, other.lo, other.hi, 1_000, (-12, 300))
        assert all(math.isfinite(f_value(tp, lam)) for lam in lams)
        self._check(tp, lams)

    @pytest.mark.parametrize("name", NAMES)
    def test_non_finite_and_out_of_range(self, name):
        tp = with_lower_cones()[name]
        spec = tp.components[0]
        non_finite = [math.nan, math.inf, -math.inf]
        lams = non_finite + [end + step for end, step in ((spec.lo, -1.0), (spec.hi, 1.0)) if math.isfinite(end)]
        targets = non_finite + [end + step for end, step in ((spec.f_lo, -1.0), (spec.f_hi, 1.0))
                                if math.isfinite(end)]
        self._check(tp, lams, targets)
        for lam in non_finite:
            with pytest.raises(DomainError, match="admissibility"):
                f_value(tp, lam)
        for y in targets:
            if not spec.f_lo < y < spec.f_hi:
                with pytest.raises(InputError, match="outside attainable range"):
                    f_inverse(tp, y)


class TestNonFiniteEigenvalues:
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", list(with_lower_cones()))
    def test_domain_error(self, name, lam):
        tp = with_lower_cones()[name]
        for fn in (f_value, f_derivative):
            with pytest.raises(DomainError, match="admissibility"):
                fn(tp, lam)
        interior = sum(_eigenvalue_window(tp)) / 2
        for spectrum in ([lam], [interior, lam]):
            with pytest.raises(DomainError, match="cone component"):
                operator_value(tp, spectrum)
        assert admissible(tp, [lam]) is None

    @pytest.mark.parametrize(
        "name, lam, other", [("HARM", 1e200, 0.5), ("HARM-lower", -1e200, -3.0), ("ATAN", 1e200, 0.5), ("ATAN", -1e200, 0.5)]
    )
    def test_overflowing_derivative_is_an_input_error(self, name, lam, other):
        # HARM's and ATAN's f' square a float with **, which raises OverflowError
        # past |lam| ~ 1.3e154: the eigenvalue is named, in a matrix or a stack
        tp = with_lower_cones()[name]
        named = f"f' overflows at eigenvalue {lam}"
        with pytest.raises(InputError, match=re.escape(named)):
            f_derivative(tp, lam)
        for H in ([[lam]], [[[other]], [[lam]]], np.diag([other, lam])):
            with pytest.raises(InputError, match=re.escape(named)):
                operator_gradient_matrix(tp, np.array(H))


class TestFloatAgainstHighPrecision:
    @pytest.mark.parametrize("name", list(with_lower_cones()))
    def test_f_and_inverse_match_closed_forms_at_50_digits(self, name, rng):
        tp = with_lower_cones()[name]
        lo, hi = _eigenvalue_window(tp)
        with mp.workdps(50):
            for lam in rng.uniform(lo, hi, size=300):
                y = f_value(tp, lam)
                ref = float(f_value_mp(tp, mp.mpf(lam)))
                assert abs(y - ref) <= 1e-13 * (1 + abs(ref))
                ref = float(f_inverse_mp(tp, mp.mpf(y)))
                assert abs(f_inverse(tp, y) - ref) <= 1e-13 * (1 + abs(ref))


class TestJets:
    # interior eigenvalue per branch; f^{-1} is expanded at f of that point
    POINTS = {"MA": "0.6", "LOG": "0.3", "HARM": "0.2", "ATAN": "-0.3", "SLAG": "0.7", "NEG": "0.5"}
    DEGREE = 12
    DPS = 40

    def _jet(self, form, tp, x0):
        tape = jets.Tape()
        x = tape.input([x0, 1] + [0] * (self.DEGREE - 1))
        out = _forms(tp, _JETS)[form](x)
        for k in range(self.DEGREE + 1):
            tape.advance(k)
        return [jets.mpf(c) for c in out.c]

    @pytest.mark.parametrize("branch", list(POINTS))
    def test_jets_match_numerical_taylor(self, branch, all_branches):
        tp = all_branches[branch]
        with mp.workdps(self.DPS):
            lam = mp.mpf(self.POINTS[branch])
            y = f_value_mp(tp, lam)
            for form, mp_fn, x0 in ((0, f_value_mp, lam), (1, f_inverse_mp, y)):
                got = self._jet(form, tp, x0)
                want = mp.taylor(lambda t: mp_fn(tp, t), x0, self.DEGREE)
                assert len(got) == len(want)
                for k, (g, w) in enumerate(zip(got, want)):
                    assert abs(g - w) <= mp.mpf(10) ** (5 - self.DPS) * (1 + abs(w)), (form, k)

    def test_constant_term_is_the_closed_form(self, all_branches):
        # order 0 of a jet is the mpmath closed form itself, bit for bit
        with mp.workdps(30):
            for name, tp in all_branches.items():
                lam = mp.mpf(self.POINTS[name])
                assert self._jet(0, tp, lam)[0] == f_value_mp(tp, lam)


class TestOperator:
    def test_sums(self, all_branches):
        assert abs(operator_value(all_branches["HARM"], [0.0, 0.0]) + 2 * SQRT2) < 1e-15
        assert operator_value(all_branches["MA"], [1.0, 1.0, 1.0]) == 0.0
        assert abs(operator_value(all_branches["SLAG"], [1.0, -1.0])) < 1e-15

    @given(perm=st.permutations(list(range(4))))
    @settings(max_examples=24, deadline=None)
    def test_permutation_symmetry(self, perm):
        tp = TauParams.special_lagrangian()
        lams = np.array([0.3, -1.2, 2.7, 0.01])
        assert operator_value(tp, lams) == pytest.approx(
            operator_value(tp, lams[list(perm)]), abs=1e-12
        )

    def test_mixed_components_rejected(self, all_branches):
        with pytest.raises(DomainError, match="cone component"):
            operator_value(all_branches["HARM"], [-3.0, 0.0])

    @pytest.mark.parametrize("name", list(with_lower_cones()))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stacked_spectra_equal_row_calls_bit_for_bit(self, name, n, rng):
        tp = with_lower_cones()[name]
        spectra = rng.uniform(*_eigenvalue_window(tp), size=(30, n))
        values = operator_value(tp, spectra)
        assert values.shape == (30,)
        assert same_bits(values, [operator_value(tp, row) for row in spectra])

    @pytest.mark.parametrize("name", list(with_lower_cones()))
    def test_one_inadmissible_row_rejects_the_stack(self, name, rng):
        tp = with_lower_cones()[name]
        spectra = rng.uniform(*_eigenvalue_window(tp), size=(20, 3))
        spectra[13, 1] = math.nan  # in no component on any branch
        spectra[17, 0] = math.nan
        with pytest.raises(DomainError, match="cone component") as err:
            operator_value(tp, spectra)
        # the offending eigenvalue of the first bad row, not its admissible first entry
        assert math.isnan(err.value.value)

    def test_value_is_the_eigenvalue_that_leaves_the_component(self):
        neg = TauParams.neg_branch(a=-2.0)  # the interval (0.268, 3.732)
        log = TauParams.log_branch(math.pi / 6)  # upper: lam > -0.30, lower: lam < -3.36
        for tp, row, bad in ((neg, [0.5, 10.0], 10.0), (neg, [0.5, 1.0, -1.0, 20.0], -1.0),
                             (neg, [10.0, 0.5, 20.0], 10.0), (neg, [10.0, 20.0], 10.0),
                             (log, [1.0, -5.0], -5.0), (log, [-5.0, 1.0], 1.0), (log, [-1.0, 2.0, -4.0], -1.0)):
            with pytest.raises(DomainError, match="cone component") as err:
                operator_value(tp, row)
            assert err.value.value == bad, (tp.branch, row)


    @pytest.mark.parametrize("name", list(with_lower_cones()))
    def test_stacked_check_raises_the_row_loops_error(self, name, rng):
        # the per-row loop the one comparison per component replaced, as written
        def first_error(tp, spectra):
            for row in spectra.tolist():
                if admissible(tp, row) is None:
                    return (f"spectrum {np.array(row)} inadmissible: not inside a single "
                            f"{tp.branch.value} cone component"), _first_outside(tp, row)

        tp = with_lower_cones()[name]
        drawn, other = tp.components[0], tp.components[-1]  # the spectra are drawn in the first
        for k in range(40):
            n = 1 + k % 4
            spectra = rng.uniform(*_eigenvalue_window(tp), size=(12, n))
            for row in rng.choice(12, size=1 + k % 3, replace=False):
                col = rng.integers(n)
                if k % 4 == 0:
                    spectra[row, col] = math.nan
                elif k % 4 == 1 and other is not drawn:  # LOG/HARM: a spectrum straddling both components
                    spectra[row, col] = other.lo + 1.0 if math.isfinite(other.lo) else other.hi - 1.0
                elif math.isfinite(drawn.lo):
                    spectra[row, col] = drawn.lo  # a cone edge: in no open component
                else:
                    spectra[row, col] = math.inf
            want = first_error(tp, spectra)
            with pytest.raises(DomainError) as err:
                operator_value(tp, spectra)
            assert str(err.value) == want[0], (name, k)
            assert same_bits(err.value.value, want[1]), (name, k)


class TestAdmissible:
    def test_tagged_components(self, all_branches):
        assert admissible(all_branches["HARM"], [0.5, 2.0]) == "upper"
        assert admissible(all_branches["HARM"], [-3.0, -2.0]) == "lower"
        assert admissible(all_branches["HARM"], [-3.0, 0.0]) is None
        assert admissible(all_branches["NEG"], [1.0]) == "inside-interval"
        assert admissible(all_branches["ATAN"], [-100.0, 100.0]) == "all"
        assert admissible(all_branches["MA"], [0.1, 5.0]) == "upper"
        assert admissible(all_branches["MA"], [0.0, 1.0]) is None

    def test_neg_endpoints_excluded(self, all_branches):
        tp = all_branches["NEG"]
        spec = cone_spec(tp)
        assert admissible(tp, [spec.lo]) is None
        assert admissible(tp, [spec.hi]) is None


class _TwoPieceField(ScalarField):
    """Quadratic ``neg`` where x_1 < 0 and ``pos`` elsewhere, row by row."""

    def __init__(self, neg, pos):
        self.neg, self.pos = neg, pos
        self.dim = neg.dim

    def _pick(self, method, x):
        lo, hi = getattr(self.neg, method)(x), getattr(self.pos, method)(x)
        return np.where((x[:, 0] < 0).reshape((-1,) + (1,) * (lo.ndim - 1)), lo, hi)

    def _value(self, x):
        return self._pick("value", x)

    def _gradient(self, x):
        return self._pick("gradient", x)


class TestResiduals:
    def test_ma_identity_hessian(self, rng):
        tp = TauParams.monge_ampere()
        field = QuadraticField(np.eye(3), 0.0)
        for _ in range(10):
            assert abs(sl.shrinker_residual(tp, field, rng.uniform(-3, 3, 3))) < 1e-13

    def test_harm_constant_solution(self, rng):
        tp = TauParams.harmonic()
        n = 3
        field = QuadraticField(np.zeros((n, n)), SQRT2 * n)
        for _ in range(10):
            assert abs(sl.shrinker_residual(tp, field, rng.uniform(-3, 3, n))) < 1e-13

    def test_slag_shifted_paraboloid(self, rng):
        tp = TauParams.special_lagrangian()
        n = 2
        field = QuadraticField(np.eye(n), -n * math.pi / 4)
        for _ in range(10):
            assert abs(sl.shrinker_residual(tp, field, rng.uniform(-3, 3, n))) < 1e-13

    def test_phase_euler_identity(self, rng):
        A = rng.standard_normal((3, 3))
        A = 0.5 * (A + A.T)
        c = 1.7
        field = QuadraticField(A, c)
        for _ in range(20):
            x = rng.uniform(-5, 5, 3)
            assert phase(field, x) == pytest.approx(-c, abs=1e-12 * (1 + abs(c)))

    def test_phase_constant_field(self):
        field = QuadraticField(np.zeros((2, 2)), 3.25)
        assert phase(field, np.array([1.0, -2.0])) == -3.25

    @given(
        branch=st.sampled_from(sorted(branch_params())),
        n=st.integers(1, 4),
        m=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_cloud_equals_points_bit_for_bit(self, branch, n, m, seed):
        # two quadratics in one cloud, each row read from its own piece
        tp = branch_params()[branch]
        rng = np.random.default_rng(seed)
        field = _TwoPieceField(
            *(QuadraticField(random_admissible_matrix(tp, n, rng), rng.standard_normal()) for _ in "ab")
        )
        X = rng.uniform(-3.0, 3.0, (m, n))
        assert same_bits(phase(field, X), [phase(field, x) for x in X])


class TestGrowthRatio:
    def test_quadratic_identity(self, rng):
        tp = TauParams.special_lagrangian()
        A = admissible_matrix(rng.uniform(-1.0, 1.0, size=3), rng.standard_normal((3, 3)))
        sol = sl.build_quadratic(tp, A)
        theta = rng.standard_normal(3)
        theta /= np.linalg.norm(theta)
        g = sl.growth_ratio(tp, sol, theta, 2.0)
        assert abs(g.defect) <= 1e-8
        assert g.q == pytest.approx((sol.value(2.0 * theta)) / 4.0)

    def test_slag_derivative_bound(self, rng):
        # spectra within [-1, 1]: |sum atan| <= n pi/4, so |dq/dr| <= (n pi/2)/r^3
        tp = TauParams.special_lagrangian()
        n = 3
        for _ in range(20):
            lams = rng.uniform(-0.95, 0.95, n)
            sol = sl.build_quadratic(tp, sl.quadratics.admissible_matrix(lams, rng.standard_normal((n, n))))
            theta = rng.standard_normal(n)
            theta /= np.linalg.norm(theta)
            r = float(rng.uniform(0.5, 5.0))
            g = sl.growth_ratio(tp, sol, theta, r)
            assert abs(g.dq_dr) <= (n * math.pi / 2.0) / r**3 + 1e-9

    def test_non_solution_control(self):
        tp = TauParams.monge_ampere()
        ctl = CallableField(
            2,
            lambda p: 0.5 * float(p @ p) + 0.1 * p[0] ** 3,
            grad=lambda p: p + np.array([0.3 * p[0] ** 2, 0.0]),
            hess=lambda p: np.eye(2) + np.array([[0.6 * p[0], 0.0], [0.0, 0.0]]),
        )
        g = sl.growth_ratio(tp, ctl, np.array([1.0, 0.0]), 1.0)
        assert abs(g.defect) > 0.1

    @pytest.mark.parametrize("r", [1e103, 1e-109, 1e-107])
    def test_non_finite_read_is_refused(self, r):
        # r^3 overflows at 1e103 and rounds to 0 at 1e-109; at 1e-107 the
        # defect 2 F / r^3 is not finite
        field = QuadraticField(0.5 * np.eye(2))
        with pytest.raises(InputError, match=re.escape(f"not finite at r = {r}")):
            sl.growth_ratio(TauParams.special_lagrangian(), field, np.array([1.0, 0.0]), r)

    def test_radius_validation(self):
        tp = TauParams.special_lagrangian()
        field = QuadraticField(np.eye(2), 0.0)
        with pytest.raises(InputError):
            sl.growth_ratio(tp, field, np.array([1.0, 0.0]), 0.0)
        with pytest.raises(InputError):
            sl.growth_ratio(tp, field, np.array([2.0, 0.0]), 1.0)


_UNIT = np.array([1.0, 0.0])
_STACK = QuadraticField(np.array([np.eye(2)] * 3), np.zeros(3))


@pytest.mark.parametrize("read", [
    lambda tp, f: sl.growth_ratio(tp, f, _UNIT, math.nan),
    lambda tp, f: sl.growth_ratio(tp, f, _UNIT, math.inf),
    lambda tp, f: sl.growth_ratio(tp, f, np.array([math.nan, 0.0]), 1.0),
    lambda tp, f: sl.self_similar_extension(tp, f, _UNIT, math.nan),
    lambda tp, f: sl.self_similar_extension(tp, f, _UNIT, -math.inf),
    lambda tp, f: sl.self_similar_extension(tp, _STACK, np.ones((3, 2)), [-1.0, math.nan, -2.0]),
], ids=["r-nan", "r-inf", "theta-nan", "t-nan", "t-minus-inf", "t-nan-in-a-stack"])
def test_non_finite_radius_direction_and_time_are_refused(read):
    # each range check is written so that NaN and inf fail it
    with pytest.raises(InputError):
        read(TauParams.special_lagrangian(), QuadraticField(np.eye(2), 0.0))


class TestMinkowskiResidual:
    def test_zero_field(self):
        field = QuadraticField(np.zeros((2, 2)), 0.0)
        assert minkowski_residual(field, np.array([1.0, 2.0])) == 0.0

    def test_linear_solutions(self, rng):
        for _ in range(10):
            c = float(rng.uniform(-0.9, 0.9))
            field = CallableField(
                1,
                lambda p, c=c: c * p[0],
                grad=lambda p, c=c: np.array([c]),
                hess=lambda p: np.zeros((1, 1)),
            )
            assert abs(minkowski_residual(field, np.array([2.0]))) < 1e-14

    def test_linear_solutions_multidimensional(self, rng):
        for _ in range(10):
            c = rng.uniform(-0.5, 0.5, 3)
            if float(c @ c) >= 1.0:
                continue
            field = CallableField(
                3,
                lambda p, c=c: float(c @ p),
                grad=lambda p, c=c: c.copy(),
                hess=lambda p: np.zeros((3, 3)),
            )
            assert abs(minkowski_residual(field, rng.uniform(-3, 3, 3))) < 1e-13

    def test_spacelike_violation(self):
        field = CallableField(
            1, lambda p: 1.5 * p[0], grad=lambda p: np.array([1.5]), hess=lambda p: np.zeros((1, 1))
        )
        with pytest.raises(DomainError, match="not spacelike"):
            minkowski_residual(field, np.array([0.0]))

    def test_cloud_equals_points_bit_for_bit(self, rng):
        for n in range(1, 5):
            for _ in range(10):
                A = 0.02 * rng.standard_normal((n, n))
                field = QuadraticField(A + A.T, float(rng.standard_normal()))
                X = rng.uniform(-1.0, 1.0, (60, n))
                assert same_bits(minkowski_residual(field, X), [minkowski_residual(field, x) for x in X])

    def test_cloud_reports_first_point_that_is_not_spacelike(self):
        field = QuadraticField(np.eye(2), 0.0)
        X = np.array([[0.1, 0.2], [2.0, 0.0], [0.0, 3.0]])
        with pytest.raises(DomainError, match=r"not spacelike: .* at x = \[2\. 0\.\]"):
            minkowski_residual(field, X)

    def test_supplied_complement_is_trusted(self):
        # |Df| rounds to 1, while the field's own 1 - |Df|^2 is positive
        for comp, spacelike in ((1e-300, True), (0.0, False), (-1e-300, False)):
            field = CallableField(
                1, lambda p: 0.0, grad=lambda p: np.array([1.0]), hess=lambda p: np.zeros((1, 1))
            )
            field.gradient_complement = lambda x, comp=comp: np.full(len(x), comp)
            if spacelike:
                assert minkowski_residual(field, np.array([0.0])) == 0.0
            else:
                with pytest.raises(DomainError, match="not spacelike"):
                    minkowski_residual(field, np.array([0.0]))


class TestSeamConsistency:
    def test_residuals_vanish_on_both_sides_of_harm(self, rng):
        # same quadratic coefficient matrix, tau slightly below / above pi/4
        A = np.diag([0.3, 1.4])
        for tau in (math.pi / 4 - 1e-3, math.pi / 4, math.pi / 4 + 1e-3):
            tp = TauParams.from_tau(tau)
            sol = sl.build_quadratic(tp, A)
            x = rng.uniform(-2, 2, 2)
            assert abs(sl.shrinker_residual(tp, sol, x)) < 1e-10


# The branch constants' sums a - b and a + b have one owner, TauParams.edge_sums
# (and tau._mp_consts_at in mpmath).  Each row below holds one quantity that
# reads them to the expression tau.py and transforms.py wrote inline before,
# bit for bit: a change to how the sums are formed moves exactly these rows.

CONSTANTS_CASES = {
    **with_lower_cones(),
    "a=-1e7": TauParams.from_cot(-1e7),
    "a=1e7": TauParams.from_cot(1e7),
    "a=-1-2^-52": TauParams.from_cot(-1.0 - 2.0**-52),
    "tau=pi/4-ulp": TauParams.from_tau(math.nextafter(math.pi / 4, 0.0)),
    "tau=-pi/4+ulp": TauParams.from_tau(math.nextafter(-math.pi / 4, 0.0)),
}


def _former_edges(tp):
    """Each component's (lo, hi) by tag, as ``TauParams.components`` wrote them."""
    a, b, br, inf = tp.a, tp.b, tp.branch, math.inf
    if br is Branch.NEG:
        return {"inside-interval": (-(b + a), b - a)}
    if br in (Branch.LOG, Branch.HARM):
        edge_upper, edge_lower = (-(a - b), -(a + b)) if br is Branch.LOG else (-1.0, -1.0)
        return {"upper": (edge_upper, inf), "lower": (-inf, edge_lower)}
    return {"upper": (0.0, inf)} if br is Branch.MA else {"all": (-inf, inf)}


def _former_forms(tp, m, a, b, root, sigmoid):
    """(f, f^-1, f') of ``tau._forms`` and ``f_derivative`` as written inline, in
    the module ``m`` (math or mpmath) on its constants."""
    br, quarter = tp.branch, m.pi / 4
    if br is Branch.MA:
        return lambda lam: m.log(lam) / 2, lambda y: m.exp(2 * y), lambda lam: 0.5 / lam
    if br is Branch.SLAG:
        return m.atan, m.tan, lambda lam: 1.0 / (1.0 + lam * lam)
    if br is Branch.HARM:
        return lambda lam: -root / (1 + lam), lambda y: -root / y - 1, lambda lam: SQRT2 / (1.0 + lam) ** 2
    if br is Branch.ATAN:
        return (lambda lam: root / b * (m.atan((lam + a) / b) - quarter),
                lambda y: -a + b * m.tan(y * b / root + quarter),
                lambda lam: root / ((lam + a) ** 2 + b * b))
    if br is Branch.LOG:
        return (lambda lam: root / (2 * b) * m.log((lam + (a - b)) / (lam + (a + b))),
                lambda y: -a - b / m.tanh(b * y / root),
                lambda lam: root / ((lam + (a - b)) * (lam + (a + b))))
    return (lambda lam: root / (2 * b) * m.log((lam + (b + a)) / ((b - a) - lam)),
            lambda y: -(a + b) + 2 * b * sigmoid(2 * b * y / root),
            lambda lam: root / ((lam + (b + a)) * ((b - a) - lam)))


def _three_eigenvalues(tp):
    """Three admissible eigenvalues of the selected component, two near its ends."""
    lo, hi = tp.components[0].lo, tp.components[0].hi
    if math.isinf(lo) and math.isinf(hi):
        return [-0.7, 0.2, 3.0]
    if math.isinf(hi):
        return [lo + 1e-3 * (1.0 + abs(lo)), lo + 0.5, lo + 3.0]
    if math.isinf(lo):
        return [hi - 3.0, hi - 0.5, hi - 1e-3 * (1.0 + abs(hi))]
    return [lo + 1e-3 * (hi - lo), 0.5 * (lo + hi), hi - 1e-3 * (hi - lo)]


class TestBranchConstantsTable:
    @pytest.mark.parametrize("case", list(CONSTANTS_CASES))
    def test_cone_edges(self, case):
        tp = CONSTANTS_CASES[case]
        got = {spec.tag: (spec.lo, spec.hi) for spec in tp.components}
        want = _former_edges(tp)
        assert got.keys() == want.keys() and all(same_bits(got[tag], want[tag]) for tag in want)

    @pytest.mark.parametrize("case", list(CONSTANTS_CASES))
    def test_shift_and_scaling(self, case):
        # convexify_shift's k on the upper LOG and HARM components; on NEG,
        # neg_scaling's (k, c2) and the normalization's quadratic term
        tp = CONSTANTS_CASES[case]
        a, b = tp.a, tp.b
        if tp.branch in (Branch.LOG, Branch.HARM) and tp.cone_side == "upper":
            k = sl.transforms.convexify_shift(tp, QuadraticField(np.eye(1))).quad
            assert same_bits(k, 1.0 if tp.branch is Branch.HARM else a - b)
        elif tp.branch is Branch.NEG:
            assert same_bits(tp.neg_scaling, (2.0 * b / tp.sqrt_a2p1, tp.sqrt_a2p1 ** 0.5 / (2.0 * b)))
            quad = sl.transforms.normalize_counterexample_branch(tp, QuadraticField(0.5 * np.eye(1))).quad
            assert same_bits(quad, -(a + b))
        else:
            with pytest.raises(InputError, match="NEG branch"):
                tp.neg_scaling

    @pytest.mark.parametrize("case", list(CONSTANTS_CASES))
    def test_float_forms(self, case):
        tp = CONSTANTS_CASES[case]
        f, f_inv, df = _former_forms(tp, math, tp.a, tp.b, tp.sqrt_a2p1, sl.tau._sigmoid)
        lams = _three_eigenvalues(tp)
        ys = [f(lam) for lam in lams]
        assert np.isfinite(ys).all()
        assert same_bits([f_value(tp, lam) for lam in lams], ys)
        assert same_bits([tp.forms[1](y) for y in ys], [f_inv(y) for y in ys])
        assert same_bits([f_derivative(tp, lam) for lam in lams], [df(lam) for lam in lams])

    @pytest.mark.parametrize("case", list(CONSTANTS_CASES))
    def test_mp_block_agrees_with_itself(self, case):
        # one branch's mp block at dps 30: f^-1 undoes f, and f' is f's derivative
        tp = CONSTANTS_CASES[case]
        tol = mp.mpf(10) ** -20
        with mp.workdps(30):
            f, f_inv, df = _forms(tp, sl.tau._MP)
            for lam in map(mp.mpf, _three_eigenvalues(tp)):
                assert abs(f_inv(f(lam)) - lam) <= tol * (1 + abs(lam)), lam
                assert abs(df(lam) - mp.diff(f, lam)) <= tol * df(lam), lam

    @pytest.mark.parametrize("case", list(CONSTANTS_CASES))
    def test_mp_forms(self, case):
        tp = CONSTANTS_CASES[case]
        lams = _three_eigenvalues(tp)
        ys = [f_value(tp, lam) for lam in lams]
        with mp.workdps(30):
            a, b = mp.mpf(repr(tp.a)), mp.mpf(repr(tp.b))
            f, f_inv, _ = _former_forms(tp, mp, a, b, mp.sqrt(a * a + 1), lambda s: 1 / (1 + mp.exp(-s)))
            for lam, y in zip(lams, ys):
                want_f, want_inv = f(lam), f_inv(y)
                assert mp.isfinite(want_f) and mp.isfinite(want_inv)
                assert f_value_mp(tp, lam) == want_f and f_inverse_mp(tp, y) == want_inv
