import bisect
import dataclasses
import math
import random

import mpmath as mp
import numpy as np
import pytest
from mpmath.libmp import from_man_exp, round_nearest

import shrinker_lab as sl
from shrinker_lab import InputError, TauParams, jets, shooting
from shrinker_lab.fields import ScalarField
from shrinker_lab.numerics import DivergenceEvent, RhsEvaluationError, read_span, row_dot
from shrinker_lab.shooting import _step_rule, radial_quadratic_reference, shoot_radial
from shrinker_lab.tau import _FLOAT, _JETS, _forms, cone_spec, f_inverse, f_range, f_value, f_value_mp

from conftest import as_pair, branch_params, same_bits

# the six default branches and the lower components of LOG and HARM
RULE_BRANCHES = {
    **branch_params(),
    "LOG-lower": TauParams.log_branch(math.pi / 6, "lower"),
    "HARM-lower": TauParams.harmonic("lower"),
}


def quad_initial_value(tp, n, c, dps):
    """u0 = -n f(c) carried at full working precision.

    The float64 rounding of u0 is itself the exact data of a nearby
    quadratic, but every shot is exponentially unstable: rounding errors grow
    like exp(r^2/(4 f'(c))), so a shot held to large radius needs data and
    arithmetic at the working precision.
    """
    with mp.workdps(dps):
        return -n * f_value_mp(tp, mp.mpf(repr(float(c))))


class TestReference:
    def test_ma_unit_curvature(self):
        prof = radial_quadratic_reference(TauParams.monge_ampere(), 2, 1.0, r_max=5.0)
        assert np.allclose(prof.us, 0.5 * prof.rs**2, atol=1e-14)

    def test_harm_flat(self):
        prof = radial_quadratic_reference(TauParams.harmonic(), 3, 0.0, r_max=5.0)
        assert np.allclose(prof.us, 3 * math.sqrt(2.0), atol=1e-14)
        assert np.all(prof.upps == 0.0)

    def test_inadmissible_curvature(self):
        with pytest.raises(sl.DomainError, match="outside the selected cone"):
            radial_quadratic_reference(TauParams.monge_ampere(), 2, -1.0)


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "branch,c",
        [("MA", 0.6), ("LOG", 0.3), ("HARM", 0.0), ("ATAN", -0.3), ("SLAG", 1.0), ("NEG", 0.5)],
    )
    def test_shot_matches_closed_form(self, branch, c, all_branches):
        tp = all_branches[branch]
        dps = 40
        u0 = quad_initial_value(tp, 2, c, dps)
        prof = shoot_radial(tp, 2, u0, r_max=10.0, dps=dps)
        ref = radial_quadratic_reference(tp, 2, c, r_max=10.0, n_samples=len(prof.rs))
        assert prof.event.completed
        assert np.max(np.abs(prof.us - ref.us)) <= 1e-6

    def test_initial_curvature_relation(self, all_branches):
        # u''(0) inverts -u0/n through the scalar branch function
        tp = all_branches["SLAG"]
        prof = shoot_radial(tp, 2, -math.pi / 2, r_max=0.5)
        assert prof.upps[0] == pytest.approx(1.0, abs=1e-12)
        assert prof.ups[0] == 0.0

    def test_harm_flat_profile_1d(self):
        # u0 = sqrt(2), n = 1: the constant-curvature profile u'' = 0, u = sqrt(2)
        tp = TauParams.harmonic()
        u0 = quad_initial_value(tp, 1, 0.0, 30)
        prof = shoot_radial(TauParams.harmonic(), 1, u0, r_max=10.0, dps=30)
        assert prof.event.completed
        assert np.max(np.abs(prof.us - math.sqrt(2.0))) <= 1e-6
        assert np.max(np.abs(prof.upps)) <= 1e-6


class TestEvents:
    def test_perturbed_slag_fails_before_rmax(self):
        tp = TauParams.special_lagrangian()
        prof = shoot_radial(tp, 2, -math.pi / 2 + 0.1, r_max=50.0)
        assert not prof.event.completed
        assert prof.event.kind in ("cone_exit", "blow_up", "inversion_failure")
        assert prof.event.r < 50.0

    def test_perturbed_slag_fails_before_rmax_high_precision(self):
        # the Taylor path ends in the same documented events as the float path
        # instead of running on toward the singularity ahead
        tp = TauParams.special_lagrangian()
        prof = shoot_radial(tp, 2, -math.pi / 2 + 0.1, r_max=50.0, dps=30)
        assert not prof.event.completed
        assert prof.event.kind in ("cone_exit", "blow_up", "inversion_failure")
        assert prof.event.r < 50.0

    def test_perturbed_harm_event_recorded(self):
        # downward value perturbations fail at finite radius; upward ones track
        # toward the (open) cone edge and are recorded as completed -- the
        # per-branch event menagerie is empirical
        tp = TauParams.harmonic()
        prof = shoot_radial(tp, 2, 2 * math.sqrt(2.0) - 0.2, r_max=50.0)
        assert not prof.event.completed
        assert prof.event.r < 50.0

    def test_events_are_data_not_errors(self):
        tp = TauParams.special_lagrangian()
        prof = shoot_radial(tp, 2, -math.pi / 2 + 0.1, r_max=50.0)
        assert len(prof.rs) > 10  # profile sampled up to the event

    @pytest.mark.parametrize("dps, kind", [(None, "blow_up"), (30, "cone_exit")])
    @pytest.mark.parametrize("r_max", [1e-9, 5e-324, 1.0])
    def test_a_refused_start_ends_at_the_shots_end(self, r_max, dps, kind):
        # u0 = 2e10 is past the blow-up bound: the step rule refuses the start on
        # either path, and the event sits where the shot ends, never past r_max
        prof = shoot_radial(TauParams.from_cot(-2.0), 2, 2e10, r_max=r_max, dps=dps)
        assert (prof.event.kind, prof.event.r) == (kind, min(r_max, shooting._R_START))
        assert len(prof.rs) == 0

    @pytest.mark.parametrize("dps, r_event", [(None, 3.4557), (30, 3.5000)])
    def test_blow_up_past_the_magnitude_bound(self, monkeypatch, dps, r_event):
        # quadratic data, whose |u| passes 5 near r = 3.46: the step rule names
        # the blow-up, the float path where the bound is crossed and the Taylor
        # path at the first expansion point past it; either profile holds only
        # samples the rule accepts
        monkeypatch.setattr(shooting, "_BLOW_UP_MAG", 5)
        tp = TauParams.monge_ampere()
        prof = shoot_radial(tp, 2, -2 * f_value(tp, 0.8), r_max=10.0, dps=dps)
        assert prof.event.kind == "blow_up" and round(prof.event.r, 4) == r_event
        assert np.all(np.abs(prof.us) <= 5) and np.all(np.abs(prof.ups) <= 5)
        if dps is None:
            assert len(prof.rs) == 401 and prof.rs[-1] == prof.event.r
            assert prof.us[-1] == pytest.approx(5, rel=1e-12)
        else:
            # the profile ends at the last sample the rule accepts: the next
            # sample of the grid to the event is past the bound
            grid = np.linspace(0.0, prof.event.r, 401)
            assert len(prof.rs) < 401 and prof.rs[-1] == grid[len(prof.rs) - 1]
            assert max(map(abs, prof.states(grid[len(prof.rs):][:1])[0])) > 5

    def test_completed_shot_ends_with_the_label_of_its_first_rejected_sample(self, monkeypatch):
        # the step rule accepts the whole float shot to r = 10, then rejects
        # its samples past r = 5 as inversion failures: the event takes that
        # rejection's label and detail
        integrated = []
        integrate_ode, step_rule = shooting.integrate_ode, shooting._step_rule

        def flagged(*args, **kwargs):
            traj = integrate_ode(*args, **kwargs)
            integrated.append(True)
            return traj

        def walled(tp, n, upp0, f=None):
            rule = step_rule(tp, n, upp0, f)

            def walled_rule(r, u, up):
                if integrated and r > 5:
                    raise RhsEvaluationError("inversion_failure", f"r = {r}")
                return rule(r, u, up)

            return walled_rule

        monkeypatch.setattr(shooting, "integrate_ode", flagged)
        monkeypatch.setattr(shooting, "_step_rule", walled)
        tp = TauParams.monge_ampere()
        prof = shoot_radial(tp, 2, -2 * f_value(tp, 0.8), r_max=10.0)
        assert prof.event.kind == "inversion_failure" and round(prof.event.r, 12) == 5.025
        assert prof.event.detail == f"r = {prof.event.r}"
        assert len(prof.rs) == 201

    def test_taylor_path_checks_each_expansion_point(self, monkeypatch):
        # the step rule fails on mpf states past r = 2: the shot ends at the
        # first expansion point there, 1e-8 plus four steps of 0.5
        step_rule = shooting._step_rule

        def walled(tp, n, upp0, f=None):
            rule = step_rule(tp, n, upp0, f)

            def walled_rule(r, u, up):
                if f is f_value_mp and r > 2:
                    raise RhsEvaluationError("inversion_failure", f"r = {r}")
                return rule(r, u, up)

            return walled_rule

        monkeypatch.setattr(shooting, "_step_rule", walled)
        tp = TauParams.special_lagrangian()
        prof = shoot_radial(tp, 2, -2 * f_value(tp, 1.0), r_max=10.0, dps=30)
        assert prof.event.kind == "inversion_failure" and prof.event.r == 2.00000001
        assert prof.rs[-1] == prof.event.r

    def test_unreachable_initial_value(self):
        # HARM upper component has range (-inf, 0): -u0/n must be negative
        with pytest.raises(InputError, match="outside attainable range"):
            shoot_radial(TauParams.harmonic(), 2, -1.0, r_max=5.0)

    @pytest.mark.parametrize("dps", [None, 20])
    @pytest.mark.parametrize("r_max", [-3.0, 0.0, math.nan, math.inf])
    def test_radius_not_finite_and_positive(self, r_max, dps):
        # refused as the CLI's --rmax is, on the float and the Taylor path
        tp = TauParams.special_lagrangian()
        with pytest.raises(InputError, match="r_max must be finite and positive"):
            shoot_radial(tp, 2, -2 * f_value(tp, 1.0), r_max=r_max, dps=dps)


class TestProfileStructure:
    def test_eigenvalue_continuity_rate(self, all_branches):
        # u'/r - u'' -> 0 as r -> 0 within an O(r^2) envelope on smooth
        # profiles (the equation actually forces the quartic Taylor
        # coefficient to vanish, so the true rate is even faster)
        tp = all_branches["NEG"]
        u0 = -3 * f_value(tp, 2.2) + 0.05
        prof = shoot_radial(tp, 3, u0, r_max=1.0, rel_tol=1e-12)
        assert prof.event.completed
        for r in (0.4, 0.2, 0.1, 0.05):
            H = prof.hessian([r, 0.0, 0.0])  # u'' along the ray, u'/r across it
            gap = abs(H[1, 1] - H[0, 0])
            assert gap <= 1e-8 * r * r + 1e-11

    def test_growth_ratio_along_completed_profile(self, all_branches):
        tp = all_branches["HARM"]
        u0 = quad_initial_value(tp, 2, 0.4, 35)
        prof = shoot_radial(tp, 2, u0, r_max=10.0, dps=35)
        theta = np.array([1.0, 0.0])
        for r in (1.0, 3.0, 7.0):
            g = sl.growth_ratio(tp, prof.field, theta, r)
            assert abs(g.defect) <= 1e-6

    def test_profile_holds_only_what_its_reads_use(self):
        names = [field.name for field in dataclasses.fields(sl.RadialProfile)]
        assert names == ["n", "rs", "us", "ups", "upps", "event", "states", "curvature"]
        assert not any(hasattr(sl.RadialProfile, name) for name in ("u", "du", "d2u"))

    def test_rows_shape(self):
        prof = radial_quadratic_reference(TauParams.special_lagrangian(), 2, 0.5, r_max=3.0)
        rows = prof.rows()
        assert rows.shape[1] == 4


# scripts/rigidity_events.py's curvatures: u0 = -2 f(c) + du0 is perturbed quadratic data
EVENT_CURVATURES = {"MA": 0.8, "LOG": 0.3, "HARM": 0.0, "ATAN": 0.0, "SLAG": 1.0, "NEG": 2.0}


def test_float_shot_calls_its_bound_forms(monkeypatch):
    # counting wrappers in a fresh TauParams' float forms, before their first
    # use: every integrator call and every sample of a float shot makes the
    # rule's f(s), one f^-1 and the polish's residual f, and no Newton step
    # runs, so f' is never called; the start f^-1(-u0/n) adds one f^-1 and one f
    calls = {"rhs": 0, "f": 0, "f_inverse": 0, "f_prime": 0}
    tp = TauParams.monge_ampere()
    u0 = -2 * f_value(TauParams.monge_ampere(), EVENT_CURVATURES["MA"]) + 0.05

    def counted(key, form):
        def wrapped(x):
            calls[key] += 1
            return form(x)

        return wrapped

    tp.__dict__["forms"] = tuple(map(counted, ("f", "f_inverse", "f_prime"), _forms(tp, _FLOAT)))
    built, step_rule, integrate_ode = [], shooting._step_rule, shooting.integrate_ode

    def counting_rule(*args, **kwargs):
        built.append(args)
        return step_rule(*args, **kwargs)

    def counting_integrate(acc, *args, **kwargs):
        def counted_rhs(r, u, up):
            calls["rhs"] += 1
            return acc(r, u, up)

        return integrate_ode(counted_rhs, *args, **kwargs)

    monkeypatch.setattr(shooting, "_step_rule", counting_rule)
    monkeypatch.setattr(shooting, "integrate_ode", counting_integrate)
    prof = shoot_radial(tp, 2, u0, r_max=10.0)
    assert prof.event.completed and len(prof.rs) == 401 and len(built) == 1
    reads = calls["rhs"] + len(prof.rs)
    assert calls["rhs"] > 100
    assert (calls["f"], calls["f_inverse"], calls["f_prime"]) == (2 * reads + 1, reads + 1, 0)


def _state_row(prof, r):
    """(r, u, u', u'') of one radius: the shot's ``states`` there and its ``curvature``."""
    u, up = prof.states(np.array([r]))[0]
    return r, u, up, prof.curvature(r, u, up)


class TestFloatSampler:
    """The float path samples its profile in one batched read of the
    trajectory; each row is the profile's own per-radius read, bit for bit."""

    @pytest.mark.parametrize("du0", [-0.05, 0.05])
    @pytest.mark.parametrize("branch", list(EVENT_CURVATURES))
    def test_rows_are_per_sample_reads(self, branch, du0, all_branches):
        tp = all_branches[branch]
        prof = shoot_radial(tp, 2, -2 * f_value(tp, EVENT_CURVATURES[branch]) + du0, r_max=50.0)
        if branch in ("LOG", "ATAN", "SLAG"):
            assert not prof.event.completed and len(prof.rs) == 401
        assert same_bits(prof.rows(), [_state_row(prof, r) for r in prof.rs])

    def test_samples_below_the_series_start(self, all_branches):
        # samples at 0.75e-8 and below come from the series, the rest from the trajectory
        tp = all_branches["LOG"]
        prof = shoot_radial(tp, 2, -2 * f_value(tp, 0.3) + 0.05, r_max=3e-8, n_samples=5)
        assert prof.event.completed and prof.rs[1] < shooting._R_START < prof.rs[2]
        assert same_bits(prof.rows(), [_state_row(prof, r) for r in prof.rs])

    @pytest.mark.parametrize("r_max", [1e-9, 5e-9, 1e-320])
    def test_a_span_short_of_the_series_start_is_the_series_to_r_max(self, r_max, monkeypatch):
        # r_max below _R_START: the float path, as the Taylor path, takes no
        # step and samples the series on [0, r_max], 401 distinct radii
        trajs, integrate_ode = [], shooting.integrate_ode
        monkeypatch.setattr(shooting, "integrate_ode", lambda *args: trajs.append(integrate_ode(*args)) or trajs[-1])
        tp = TauParams.special_lagrangian()
        shots = [shoot_radial(tp, 2, -1.2, r_max=r_max, dps=dps) for dps in (None, 30)]
        assert same_bits(shots[0].rs, shots[1].rs) and len(np.unique(shots[0].rs)) == 401
        for prof in shots:
            assert prof.rs[-1] == r_max and (prof.event.kind, prof.event.r) == ("completed", r_max)
        assert [(len(traj.ts), traj.n_steps, traj.n_rejected) for traj in trajs] == [(1, 0, 0)]


def _inside(spec):
    """An eigenvalue inside the open component ``spec``."""
    if math.isfinite(spec.lo) and math.isfinite(spec.hi):
        return 0.5 * (spec.lo + spec.hi)
    if math.isfinite(spec.lo):
        return spec.lo + 1.0
    return spec.hi - 1.0 if math.isfinite(spec.hi) else 0.0


def _outside(spec):
    """Eigenvalues one ulp beyond each finite edge of ``spec``, or +-inf for
    a component that is the whole line."""
    out = [math.nextafter(edge, step) for edge, step in ((spec.lo, -math.inf), (spec.hi, math.inf))
           if math.isfinite(edge)]
    return out or [math.inf, -math.inf]


class TestStepRule:
    """The rule ``_step_rule`` builds is the one check of a shot's state on both paths."""

    @pytest.mark.parametrize("name", sorted(RULE_BRANCHES))
    @pytest.mark.parametrize("precision", ["float", "mp"])
    def test_transverse_eigenvalue_outside_cone_is_cone_exit(self, name, precision):
        tp = RULE_BRANCHES[name]
        spec = cone_spec(tp)
        for s in _outside(spec):
            # r = 1 is past the series start, so s = u'/r = u'
            if precision == "float":
                args, upp0, f = (1.0, 0.0, s), _inside(spec), f_value
            else:
                args, upp0, f = (mp.mpf(1), mp.mpf(0), mp.mpf(s)), mp.mpf(_inside(spec)), f_value_mp
            with mp.workdps(30), pytest.raises(sl.DomainError) as exc:
                _step_rule(tp, 2, upp0, f=f)(*args)
            assert isinstance(exc.value, RhsEvaluationError)
            assert exc.value.label == "cone_exit"

    @pytest.mark.parametrize("name", sorted(RULE_BRANCHES))
    def test_target_at_or_beyond_range_end_is_inversion_failure(self, name):
        tp = RULE_BRANCHES[name]
        upp0 = _inside(cone_spec(tp))
        lo, hi = f_range(tp)
        targets = [lo, hi] + [end + step for end, step in ((lo, -1e-3), (hi, 1e-3)) if math.isfinite(end)]
        rule = _step_rule(tp, 1, upp0)
        for y in targets:
            # n = 1 and r = 0: the target is -u exactly
            with pytest.raises(sl.DomainError) as exc:
                rule(0.0, -y, 0.0)
            assert isinstance(exc.value, RhsEvaluationError)
            assert exc.value.label == "inversion_failure"
        assert rule(0.0, -f_value(tp, upp0), 0.0) == f_value(tp, upp0)

    def test_f_range_per_component(self):
        c = RULE_BRANCHES["ATAN"].sqrt_a2p1 / RULE_BRANCHES["ATAN"].b
        expected = {
            "MA": (-math.inf, math.inf),
            "LOG": (-math.inf, 0.0),
            "LOG-lower": (0.0, math.inf),
            "HARM": (-math.inf, 0.0),
            "HARM-lower": (0.0, math.inf),
            "ATAN": (-0.75 * math.pi * c, 0.25 * math.pi * c),
            "SLAG": (-math.pi / 2.0, math.pi / 2.0),
            "NEG": (-math.inf, math.inf),
        }
        assert {name: f_range(tp) for name, tp in RULE_BRANCHES.items()} == expected


def _parent_curvature(tp, n, upp0):
    """The acc composed as before the float forms were bound: the step rule
    calls ``f_value`` and the acc ``f_inverse``, module functions, at each call."""
    rule = _step_rule(tp, n, upp0, f=f_value)
    return lambda r, u, up: f_inverse(tp, rule(r, u, up))


# RULE_BRANCHES plus NEG at a = -1e3, whose cone (5e-4, 2000) has an edge
# next to 0; and the targets of tests/test_tau.py's
# TestInverse::test_polish_ends_where_no_double_meets_tol, where the polish runs
ACC_BRANCHES = {**RULE_BRANCHES, "NEG-1e3": TauParams.neg_branch(-1e3)}
POLISHED_TARGETS = {"MA": [-372.5], "LOG": [-23.6188], "NEG": [23.0763, -24.3715]}
POLISHING = {"MA", "LOG", "HARM", "NEG", "NEG-1e3"}  # a Newton step runs on some of their states


def _acc_states(tp, n, upp0, rng):
    """(r, u, u') states for a rule of ``tp`` in dimension n: seeded states
    inside the cone, transverse eigenvalues outside it, states past the
    blow-up bound, and targets past f's range, within 1e-6 of a finite range
    end, at f one to three ulps inside a finite cone edge and at
    POLISHED_TARGETS, each at seeded radii with s = u''(0), next to a finite
    cone edge and 1e-4 inside it."""
    spec, f, m = cone_spec(tp), tp.forms[0], n - 1
    lo, hi = f_range(tp)
    edges = [(edge, inward) for edge, inward in ((spec.lo, math.inf), (spec.hi, -math.inf)) if math.isfinite(edge)]
    s_in = [upp0] + [s for edge, inward in edges
                     for s in (math.nextafter(edge, inward), edge + math.copysign(1e-4, inward))]
    targets = [f(s) for s in s_in]
    for end, inward in ((lo, math.inf), (hi, -math.inf)):
        if math.isfinite(end):
            targets += [end, math.nextafter(end, -inward)]
            targets += [end + sign * d for d in (1e-12, 1e-9, 1e-6) for sign in (-1.0, 1.0)]
    for edge, inward in edges:
        for _ in range(3):
            edge = math.nextafter(edge, inward)
            targets.append(f(edge))
    targets += [y for name, ys in POLISHED_TARGETS.items() if tp.branch.value == name for y in ys]
    states = [(0.0, -y, 0.0) for y in targets] if n == 1 else []  # r = 0, n = 1: the target is -u
    for y in targets:
        for s in s_in:
            r = float(rng.uniform(1e-3, 20.0))
            states.append((r, 0.5 * r * (s * r) - m * f(s) - y, s * r))
    for _ in range(40):  # seeded states about the cone, in and out of it
        r = float(rng.choice([0.0, 1e-7, *rng.uniform(1e-6, 30.0, 3)]))
        states.append((r, float(rng.normal(0.0, 5.0)), float(r * (_inside(spec) + rng.normal(0.0, 2.0)))))
    for s in _outside(spec):
        states.append((1.0, 0.0, s))
    for s in s_in:  # |u| or |u'| at or past the blow-up bound
        states += [(1.0, u, s) for u in (1e10, 2e10, -2e10)] + [(1e11, 0.0, s * 1e11)]
    for y in targets[:len(s_in)]:  # r = 0: u' is not in the target, which is in f's range
        states += [(0.0, -y - m * f(upp0), up) for up in (1e10, 2e10, -2e10)]
    return states


def _bits_or_label(call):
    """The float bits of ``call()``, or the RhsEvaluationError's label and detail."""
    try:
        value = call()
    except RhsEvaluationError as exc:
        return exc.label, exc.detail
    assert isinstance(value, float)
    return np.float64(value).view(np.int64).item()


class TestCurvatureBits:
    """A float shot's acc calls the bound closed forms, bit for bit the
    composition through ``f_value`` and ``f_inverse`` it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ACC_BRANCHES))
    def test_acc_is_the_module_composition(self, name, n):
        rng = np.random.default_rng([20260809, n, sorted(ACC_BRANCHES).index(name)])
        tp = ACC_BRANCHES[name]
        polished = dataclasses.replace(tp)  # its own forms, f' counted: the polish runs
        newton = []
        f, f_inv, f_prime = _forms(polished, _FLOAT)
        polished.__dict__["forms"] = f, f_inv, lambda lam: newton.append(lam) or f_prime(lam)
        upp0 = _inside(cone_spec(tp))
        acc = shooting._curvature(polished, _step_rule(polished, n, upp0))
        parent = _parent_curvature(polished, n, upp0)
        outcomes = [(_bits_or_label(lambda: acc(*x)), _bits_or_label(lambda: parent(*x)))
                    for x in _acc_states(tp, n, upp0, rng)]
        assert all(got == want for got, want in outcomes), name
        kinds = {want[0] if isinstance(want, tuple) else "value" for _, want in outcomes}
        finite_range = any(map(math.isfinite, f_range(tp)))
        assert kinds == {"value", "cone_exit", "blow_up"} | ({"inversion_failure"} if finite_range else set())
        assert newton or name not in POLISHING, name

    # perturbed quadratic data u0 = -2 f(c) + du0, and (c None) the u0 of
    # test_lower_components_end_in_an_event_or_complete
    @pytest.mark.parametrize("name, c, du0", [("LOG-lower", -4.0, 0.05), ("LOG-lower", -4.0, -0.05),
                                              ("LOG-lower", None, -100.0), ("HARM-lower", -2.5, 0.05),
                                              ("HARM-lower", -2.5, -0.05), ("HARM-lower", None, -1000.0)])
    def test_lower_component_shots_are_the_module_composition(self, monkeypatch, name, c, du0):
        tp = RULE_BRANCHES[name]
        u0 = du0 if c is None else -2 * f_value(tp, c) + du0
        got = shoot_radial(tp, 2, u0, r_max=50.0)
        monkeypatch.setattr(shooting, "_step_rule", lambda tp, n, upp0, f=None: _step_rule(tp, n, upp0, f or f_value))
        monkeypatch.setattr(shooting, "_curvature", lambda tp, rule: lambda r, u, up: f_inverse(tp, rule(r, u, up)))
        want = shoot_radial(tp, 2, u0, r_max=50.0)
        assert got.event == want.event and same_bits(got.rows(), want.rows())


class TestReadsPastTheEnd:
    @pytest.mark.parametrize("dps, kind", [(None, "inversion_failure"), (15, "blow_up")])
    def test_profile_is_defined_up_to_the_event_only(self, dps, kind):
        tp = TauParams.special_lagrangian()
        prof = shoot_radial(tp, 2, -math.pi / 2 + 0.1, r_max=50.0, dps=dps)
        assert prof.event.kind == kind
        r_end = prof.event.r
        assert prof.rs[-1] == r_end
        assert prof.value([r_end, 0.0]) == prof.us[-1]
        past = [r_end + 1.0, 0.0]
        for read in (prof.value, prof.gradient, prof.hessian):
            with pytest.raises(InputError, match="past|outside"):
                read(past)

    def test_reads_end_at_the_last_accepted_sample(self, monkeypatch):
        # the Taylor blow-up profile's last sample, 3.4475, is short of its
        # event at 3.5000: the field reads up to that sample and refuses past
        # it and at NaN (its points rule refuses the NaN point first), where
        # the raw state still reads the shot
        monkeypatch.setattr(shooting, "_BLOW_UP_MAG", 5)
        tp = TauParams.monge_ampere()
        prof = shoot_radial(tp, 2, -2 * f_value(tp, 0.8), r_max=10.0, dps=30)
        end = prof.rs[-1]
        assert round(end, 4) == 3.4475 and round(prof.event.r, 4) == 3.5
        field = prof.field
        assert field.value([end, 0.0]) == prof.us[-1] and _state_row(prof, end)[2:] == (prof.ups[-1], prof.upps[-1])
        at_end = [field.value([end, 0.0]), *field.gradient([0.0, end]), *field.hessian([end, 0.0]).ravel()]
        assert np.isfinite(at_end).all()
        reads = (lambda r: field.value([r, 0.0]), lambda r: field.gradient([0.0, r]), lambda r: field.hessian([r, 0.0]))
        for r in (3.47, math.nan):
            for read in reads:
                with pytest.raises(InputError, match="points must be finite" if math.isnan(r) else "outside the span"):
                    read(r)
        assert prof.states(np.array([3.47]))[0, 0] == pytest.approx(5.04, abs=5e-3)

    @pytest.mark.parametrize("dps, kind", [(None, "blow_up"), (15, "cone_exit")])
    def test_profile_without_samples_refuses_every_read(self, dps, kind):
        # the step rule rejects this shot's initial state, at _R_START, on
        # either path; the kinds differ because f_inverse_mp(-1e10) rounds
        # onto NEG's cone edge where f_inverse stays inside the component
        prof = shoot_radial(TauParams.neg_branch(a=-2.0), 2, 2e10, r_max=1.0, dps=dps)
        assert (prof.event.kind, prof.event.r) == (kind, shooting._R_START)
        assert len(prof.rs) == 0
        for read in (prof.value, prof.gradient, prof.hessian):
            with pytest.raises(InputError, match="outside the span"):
                read([0.0, 0.0])


class TestStepJoin:
    """``jets._join`` against ``mp.polyval`` at fine_prec, the join it replaces."""

    @pytest.mark.parametrize("du0", ["0", "0.01"])
    @pytest.mark.parametrize("branch", list(branch_params()))
    def test_join_is_polyval_at_fine_prec(self, branch, du0, monkeypatch):
        # every step of a shot is joined as mp.polyval joins it at fine_prec:
        # on quadratic data, whose high coefficients are mostly exact zeros,
        # and on perturbed data, whose coefficients are not
        tp = branch_params()[branch]
        c = {"MA": 0.6, "LOG": 0.4, "HARM": 0.3, "ATAN": 0.4, "SLAG": 0.5, "NEG": 1.2}[branch]
        joins = []
        join = jets._join

        def recording(cs, x, prec, rnd):
            joins.append((cs, x, prec, rnd, join(cs, x, prec, rnd)))
            return joins[-1][-1]

        monkeypatch.setattr(jets, "_join", recording)
        with mp.workdps(30):
            fine = mp.mp.prec + 40
            u0 = quad_initial_value(tp, 2, c, 30) + mp.mpf(du0)
        shoot_radial(tp, 2, u0, r_max=10.0, dps=30)
        assert len(joins) >= 20
        for cs, x, prec, rnd, got in joins:
            assert (prec, rnd) == (fine, round_nearest)
            with mp.workprec(prec):
                want = mp.polyval([jets.mpf(a) for a in reversed(cs)], jets.mpf(x))
            assert got == jets._pair(want)

    def test_join_is_polyval_on_random_series(self):
        # terms of like size, where every rounding of Horner's rule shows
        rng = random.Random(27)
        for _ in range(300):
            prec = rng.randint(43, 300)
            cs = [from_man_exp(rng.randint(-(2**prec), 2**prec), rng.randint(-prec - 4, -prec + 4))
                  for _ in range(rng.randint(1, 21))]
            x = from_man_exp(rng.randint(-(2**prec), 2**prec), rng.randint(-prec - 2, -prec + 2))
            with mp.workprec(prec):
                want = mp.polyval([mp.make_mpf(a) for a in reversed(cs)], mp.make_mpf(x))
            assert jets._join([as_pair(a) for a in cs], as_pair(x), prec, round_nearest) == jets._pair(want)


class TestProfileReader:
    """The fixed-point reader of the Taylor path against the mpmath one: on
    the step ``bisect.bisect`` picks on the exact starts, each sample is
    ``float(mp.polyval(poly, h))`` at 40 bits past the working precision."""

    SLAG_BLOW_UP = (TauParams.special_lagrangian(), -1.4707963267948966, 50.0, 15)

    @staticmethod
    def _shot(monkeypatch, tp, u0, r_max, dps):
        """A Taylor shot's batched reader, its end, its stop, and the start and
        (u, u') polynomials (highest first) of each step, recorded as they are made."""
        steps = []
        taylor_step = jets._taylor_step

        def recording(*args):
            us, ps = taylor_step(*args)
            steps.append((args[1], [jets.mpf(c) for c in us[::-1]], [jets.mpf(c) for c in ps[::-1]]))
            return us, ps

        monkeypatch.setattr(jets, "_taylor_step", recording)
        _, acc, y0 = shooting._taylor_start(tp, 2, u0, dps)
        read, r_end, stop = jets.taylor_integrate(acc, y0, (shooting._R_START, r_max), dps)
        if stop is not None and stop.detail.startswith("Taylor step"):  # the last expansion was refused
            steps.pop()
        return read, r_end, stop, steps

    @staticmethod
    def _radii(starts, r_end):
        """shoot_radial's samples, each start's float and the floats either side."""
        rs = np.linspace(0.0, r_end, 401).tolist()
        for s in starts:
            f = float(s)
            rs += [math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)]
        return [r for r in rs if shooting._R_START <= r <= r_end]

    def _check(self, monkeypatch, tp, u0, r_max, dps):
        read, r_end, stop, steps = self._shot(monkeypatch, tp, u0, r_max, dps)
        starts = [s for s, _, _ in steps]
        with mp.workdps(dps):
            fine = mp.mp.prec + 40
        picked = set()
        for r in self._radii(starts, r_end):
            i = max(bisect.bisect(starts, r) - 1, 0)
            picked.add(i)
            with mp.workprec(fine):
                h = mp.mpf(r) - starts[i]
                want = float(mp.polyval(steps[i][1], h)), float(mp.polyval(steps[i][2], h))
            assert same_bits(read(np.array([r]))[0], want), r
            assert jets._step_index([float(s) for s in starts], [s._mpf_ for s in starts], r) == i, r
        assert picked == set(range(len(steps)))
        return stop

    @pytest.mark.parametrize("branch", list(branch_params()))
    def test_completed_shot(self, branch, monkeypatch):
        tp = branch_params()[branch]
        c = {"MA": 0.6, "LOG": 0.4, "HARM": 0.3, "ATAN": 0.4, "SLAG": 0.5, "NEG": 1.2}[branch]
        assert self._check(monkeypatch, tp, quad_initial_value(tp, 2, c, 30), 10.0, 30) is None

    def test_blow_up_shot(self, monkeypatch):
        # the step radius falls to ~1e-12 before the event, where bounding the
        # coefficients without the radius loses the low orders
        # the Taylor minimum step, which shoot_radial names a blow-up
        assert self._check(monkeypatch, *self.SLAG_BLOW_UP).label == "step_underflow"

    def test_step_index_settles_float_ties_exactly(self):
        with mp.workprec(113):
            starts = [mp.mpf(shooting._R_START), mp.mpf(0.5) - mp.ldexp(1, -80), mp.mpf(0.75) + mp.ldexp(1, -80)]
        floats, exact = [float(s) for s in starts], [s._mpf_ for s in starts]
        assert floats[1:] == [0.5, 0.75]  # one start rounds up to its float, one down
        for r in (1e-8, 0.25, 0.5, 0.6, 0.75, 0.9, math.nextafter(0.5, 0), math.nextafter(0.75, 1)):
            assert jets._step_index(floats, exact, r) == max(bisect.bisect(starts, r) - 1, 0), r

    def test_to_float_rounds_as_float_of_mpf(self):
        # ties to even; the last three are integers too large for a float, as
        # the fixed point's are above dps ~ 280
        for acc, scale in ((2**60 + 2**7, 60), (2**60 + 3 * 2**7, 60), (-(3**40), 70),
                           (3**700 + 1, 1100), (-(3**700), 1105), (2**1100 + 2**1047, 1100)):
            assert jets._to_float(acc, scale) == float(mp.ldexp(acc, -scale))

    def test_fixed_point_scale_skips_exact_zeros(self):
        # the zero pair (0, 0) is truthy; only 2^-100 may set M
        scale, us, ps = jets._fixed_point([(1, -100)] + [(0, 0)] * 20, [(0, 0)] * 21, mp.mpf(0.5), 200)
        assert scale == 200 - (-100 + 1)
        assert us == [0] * 20 + [1 << 199] and ps == [0] * 21


class FrozenRadialField(ScalarField):
    """The former ``fields.RadialProfileField``, kept as a reference: an n-D
    radial potential from three 1-D callables, each called on one float
    radius.  The Hessian is u'' along the ray and u'/r on the orthogonal
    complement; within r_origin of the origin both are u''(0)."""

    def __init__(self, n, u_fn, du_fn, d2u_fn, r_origin):
        self.dim, self._u, self._du, self._d2u, self._r0 = n, u_fn, du_fn, d2u_fn, r_origin

    def _radii(self, x):
        return np.sqrt(row_dot(x, x))

    def _tangent(self, r):
        return [float(self._d2u(0.0)) if v < self._r0 else float(self._du(v)) / v for v in r.tolist()]

    def _value(self, x):
        return np.array([float(self._u(v)) for v in self._radii(x).tolist()])

    def _gradient(self, x):
        return np.array(self._tangent(self._radii(x)))[:, None] * x

    def _hessian(self, x):
        r = self._radii(x)
        near = r < self._r0
        tangent = np.array(self._tangent(r))
        radial = np.array([float(self._d2u(v)) for v in np.where(near, 0.0, r).tolist()])
        xh = x / np.where(near, 1.0, r)[:, None]
        return (tangent[:, None, None] * np.eye(self.dim)
                + (radial - tangent)[:, None, None] * (xh[:, :, None] * xh[:, None, :]))


def _frozen_reads(prof, tp, n, u0, series, beyond):
    """u, du and d2u of the former ``RadialProfile``, one float radius a call:
    each radius read on [0, rs[-1]]; (u0, 0.0) at r = 0, the path's series
    (u0, u''(0)) below _R_START or, if the path took no step, everywhere;
    ``beyond(r)`` past it; d2u = f^-1 of the step rule there, whose u''(0) is
    the float f^-1(-u0/n) on either path."""
    su, supp = series
    rule = shooting._step_rule(tp, n, f_inverse(tp, -u0 / n))

    def read(r):
        r = read_span([r], 0.0, prof.rs[-1] if len(prof.rs) else math.nan)[0]
        if r == 0:
            return r, u0, 0.0
        if r < shooting._R_START or beyond is None:
            return r, su + 0.5 * supp * r * r, supp * r
        return (r, *beyond(r))

    def d2u(r):
        return f_inverse(tp, rule(*read(r)))

    return lambda r: read(r)[1], lambda r: read(r)[2], d2u


def _recorded_shot(monkeypatch, tp, n, u0, r_max, dps):
    """A shot and its frozen field, from frozen per-radius reads: the float
    path's trajectory and the Taylor path's steps recorded as they are made,
    each read as the former readers read them, with each path's own series
    constants."""
    made = []
    integrate, taylor_step = shooting.integrate_ode, jets._taylor_step

    def recording_integrate(*args, **kwargs):
        made.append(integrate(*args, **kwargs))
        return made[-1]

    def recording_step(*args):
        us, ps = taylor_step(*args)
        made.append((args[1], [jets.mpf(c) for c in us[::-1]], [jets.mpf(c) for c in ps[::-1]]))
        return us, ps

    monkeypatch.setattr(shooting, "integrate_ode", recording_integrate)
    monkeypatch.setattr(jets, "_taylor_step", recording_step)
    prof = shoot_radial(tp, n, u0, r_max=r_max, dps=dps)
    monkeypatch.undo()
    if dps is None:
        series = u0, f_inverse(tp, -u0 / n)
        beyond = (lambda r: tuple(made[0].evaluate([r])[0].tolist())) if made else None
    else:
        with mp.workdps(dps):
            series = u0, float(sl.tau.f_inverse_mp(tp, -mp.mpf(u0) / n))
            fine = mp.mp.prec + 40
        if prof.event.detail.startswith("Taylor step"):  # the last expansion was refused
            made.pop()
        starts = [s for s, _, _ in made]

        def polyval(r):
            start, us, ps = made[max(bisect.bisect(starts, r) - 1, 0)]
            with mp.workprec(fine):
                h = mp.mpf(r) - start
                return float(mp.polyval(us, h)), float(mp.polyval(ps, h))

        beyond = polyval if made else None
    return prof, FrozenRadialField(n, *_frozen_reads(prof, tp, n, u0, series, beyond), r_origin=shooting._R_SERIES)


def _outcome(call):
    try:
        return call()
    except sl.DomainError as exc:
        return str(exc)


class TestProfileAsField:
    """A radial profile reads a cloud's radii in one batched read through the
    shot's one reader, bit for bit the former per-radius reads and field."""

    @pytest.mark.parametrize("dps", [None, 20])
    @pytest.mark.parametrize("branch", list(EVENT_CURVATURES))
    def test_reads_are_the_former_reads(self, branch, dps, monkeypatch, rng):
        tp = branch_params()[branch]
        for n in (2, 3):
            u0 = -n * f_value(tp, EVENT_CURVATURES[branch]) + 0.05
            prof, frozen = _recorded_shot(monkeypatch, tp, n, u0, 6.0, dps)
            assert len(prof.rs) > 200
            radii = [0.0, 5e-9, shooting._R_START, 5e-7, 2e-6, prof.rs[len(prof.rs) // 2], prof.rs[-1]]
            for r in radii:
                x = r * np.eye(n)[0]
                for read in ("value", "gradient", "hessian"):
                    assert same_bits(getattr(prof, read)(x), getattr(frozen, read)(x)), (n, r, read)
            theta = rng.standard_normal(n)
            theta /= np.linalg.norm(theta)
            cloud = np.array(radii)[:, None] * np.vstack([theta, np.eye(n)[0]])[:, None, :]
            for x in (cloud.reshape(-1, n), cloud[0, 3]):
                for read in ("value", "gradient", "hessian"):
                    assert same_bits(getattr(prof.field, read)(x), getattr(frozen, read)(x)), (n, read)
            for r in (1.0, radii[5]):
                assert _outcome(lambda: sl.growth_ratio(tp, prof, theta, r)) == \
                    _outcome(lambda: sl.growth_ratio(tp, frozen, theta, r)), (n, r)

    def test_one_step_rule_serves_a_shot_and_its_reads(self, monkeypatch, rng):
        # the float right-hand side, the sampling and a 50-point field Hessian
        built = []
        step_rule = shooting._step_rule

        def counting(*args, **kwargs):
            built.append(args)
            return step_rule(*args, **kwargs)

        monkeypatch.setattr(shooting, "_step_rule", counting)
        tp = TauParams.monge_ampere()
        prof = shoot_radial(tp, 3, -3 * f_value(tp, 0.8), r_max=5.0)
        H = prof.field.hessian(rng.uniform(-2.0, 2.0, (50, 3)))
        assert H.shape == (50, 3, 3) and len(built) == 1

    @pytest.mark.parametrize("dps", [None, 20])
    def test_origin_row_is_u0_and_plus_zero(self, dps):
        # u''(0) = -0.5, so the series would give u'(0) = -0.5 * 0.0 = -0.0
        u0 = 0.9272952180016122
        prof = shoot_radial(TauParams.special_lagrangian(), 2, u0, r_max=2.0, dps=dps)
        assert prof.upps[0] == pytest.approx(-0.5, abs=1e-15)
        for row in (prof.rows()[0], [0.0, *prof.states(np.array([0.0]))[0], prof.upps[0]]):
            assert same_bits(row[:3], [0.0, u0, 0.0])
        assert same_bits(prof.value(np.zeros(2)), u0)


def test_float_step_underflow_is_named_blow_up():
    # the integrator's step size underflows; the float path names it blow_up,
    # as scripts/report_digest.py's MA shot in dimension 3 records
    prof = shoot_radial(TauParams.monge_ampere(), 3, 1.8559592064889043, r_max=50.0)
    assert (prof.event.kind, prof.event.r, prof.event.detail) == ("blow_up", 14.629827339389282, "step size underflow")
    assert len(prof.rs) == 401 and prof.rs[-1] == prof.event.r


def test_one_dimensional_taylor_shot_forms_no_transverse_term(monkeypatch):
    # at n = 1 the Taylor acc drops (n - 1) f(s), which is 0: the rows are
    # bit for bit those of the acc that formed f(p/r) and multiplied it by
    # n - 1, and no jet of f(s) is formed (the n = 2 shot forms them)
    tp = TauParams.monge_ampere()

    def multiplied_by_zero(tp, n, upp0):
        rule = _step_rule(tp, n, upp0, f=f_value_mp)

        def acc(r, u, p):
            r0 = jets.mpf(r.c[0])
            rule(r0, jets.mpf(u.c[0]), jets.mpf(p.c[0]))
            f_s = f_value_mp(tp, upp0) if r0 < shooting._R_SERIES else _forms(tp, _JETS)[0](p / r)
            return _forms(tp, _JETS)[1]((-u + r * p / 2) - (n - 1) * f_s)

        return acc

    def shot(n):
        return shoot_radial(tp, n, -n * f_value(tp, 0.6), r_max=10.0, dps=30)

    with monkeypatch.context() as patch:
        patch.setattr(shooting, "_jet_curvature", multiplied_by_zero)
        want = shot(1)
    calls = []
    forms = shooting._forms

    def counting(tp, ops):
        form, *rest = forms(tp, ops)
        return (lambda lam: calls.append(lam) or form(lam), *rest)

    monkeypatch.setattr(shooting, "_forms", counting)
    got = shot(1)
    assert got.event == want.event and same_bits(got.rows(), want.rows())
    assert calls == []
    shot(2)
    assert calls


def _wall_taylor_rule_past_2(monkeypatch):
    """The step rule fails on mpf states past r = 2 as an inversion failure."""
    step_rule = shooting._step_rule

    def walled(tp, n, upp0, f=None):
        rule = step_rule(tp, n, upp0, f)

        def walled_rule(r, u, up):
            if f is f_value_mp and r > 2:
                raise RhsEvaluationError("inversion_failure", f"r = {r}")
            return rule(r, u, up)

        return walled_rule

    monkeypatch.setattr(shooting, "_step_rule", walled)


def _stop_integrator_at_2_non_finite(monkeypatch):
    """The integrator stops at r = 2 with a non-finite state."""
    integrate_ode = shooting.integrate_ode

    def stopped(acc, y0, t_span, rel_tol):
        traj = integrate_ode(acc, y0, (t_span[0], 2.0), rel_tol)
        return dataclasses.replace(traj, event=DivergenceEvent("non_finite_state", traj.t_end, traj.ys[-1]))

    monkeypatch.setattr(shooting, "integrate_ode", stopped)


_LOG_LOWER = TauParams.log_branch(math.pi / 6, "lower")
_SLAG_QUADRATIC = -2 * f_value(TauParams.special_lagrangian(), 1.0)

# Every kind of stop on each path, and the event shoot_radial names for it:
# (branch, n, u0, r_max, dps, setup) -> (kind, radius).  A step rule's kind
# is kept, any other stop is a blow-up, and the radius is the path's end.
EVENT_TABLE = {
    "float-refused-start": ((TauParams.neg_branch(a=-2.0), 2, 2e10, 1.0, None, None), ("blow_up", 1e-08)),
    "float-cone-exit": ((_LOG_LOWER, 2, -1000.0, 30.0, None, None), ("cone_exit", 0.00039897731974178493)),
    "float-inversion-failure": ((branch_params()["LOG"], 2, 2.0, 30.0, None, None),
                                ("inversion_failure", 8.30915704747497)),
    "float-blow-up": ((TauParams.monge_ampere(), 1, -20.0, 30.0, None, None), ("blow_up", 2.528228564218655)),
    "float-step-underflow": ((TauParams.monge_ampere(), 3, 1.8559592064889043, 50.0, None, None),
                             ("blow_up", 14.629827339389282)),
    "float-non-finite-state": ((TauParams.special_lagrangian(), 2, _SLAG_QUADRATIC, 10.0, None,
                                _stop_integrator_at_2_non_finite), ("blow_up", 2.0)),
    "taylor-refused-start": ((TauParams.neg_branch(a=-2.0), 2, 2e10, 1.0, 15, None), ("cone_exit", 1e-08)),
    "taylor-cone-exit": ((TauParams.monge_ampere(), 2, 1000.0, 30.0, 15, None), ("cone_exit", 0.075)),
    "taylor-inversion-failure": ((TauParams.special_lagrangian(), 2, _SLAG_QUADRATIC, 10.0, 15,
                                  _wall_taylor_rule_past_2), ("inversion_failure", 2.00000001)),
    "taylor-blow-up": ((TauParams.monge_ampere(), 1, -20.0, 30.0, 15, None), ("blow_up", 0.50000001)),
    "taylor-minimum-step": ((TauParams.special_lagrangian(), 2, -1.4707963267948966, 50.0, 15, None),
                            ("blow_up", 9.603109008497341)),
    "taylor-lower-start": ((_LOG_LOWER, 2, -1000.0, 30.0, 15, None), ("cone_exit", 1e-08)),
}


@pytest.mark.parametrize("row", list(EVENT_TABLE))
def test_event_table(row, monkeypatch):
    (tp, n, u0, r_max, dps, setup), want = EVENT_TABLE[row]
    if setup is not None:
        setup(monkeypatch)
    event = shoot_radial(tp, n, u0, r_max=r_max, dps=dps).event
    assert (event.kind, event.r) == want


@pytest.mark.parametrize("dps", [None, 15, 30])
@pytest.mark.parametrize("name, u0, kind", [("LOG-lower", -1000.0, "cone_exit"), ("LOG-lower", -100.0, "cone_exit"),
                                            ("HARM-lower", -1000.0, "completed"), ("HARM-lower", -100.0, "completed")])
def test_lower_components_end_in_an_event_or_complete(name, u0, kind, dps):
    # u''(0) rounds onto or past LOG's lower cone edge at these u0: the step rule names
    # the cone exit before f(u''(0)) is formed, on either path
    assert shoot_radial(RULE_BRANCHES[name], 2, u0, r_max=30.0, dps=dps).event.kind == kind
