"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import ast
import io
import json
import math

import numpy as np
import pytest

import checks
import run
import tracing
import workloads
from shrinker_lab import tau
from workloads import Job, Outcome


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = workloads.cycle_jobs(name, 7, 3)
    again = workloads.cycle_jobs(name, 7, 3)
    other = workloads.cycle_jobs(name, 8, 3)
    assert [j.key for j in first] == [j.key for j in again]
    assert all(a.kind == b.kind and a.argv == b.argv and _same(a.inputs, b.inputs) for a, b in zip(first, again))
    assert [(j.argv, j.kind) for j in first] != [(j.argv, j.kind) for j in other]
    # the job mix is a property of the workload, not of the seed
    assert sorted(j.kind for j in first) == sorted(j.kind for j in other)
    assert len(first) == len(workloads.WORKLOADS[name].strata)


def test_traced_job_set_is_fixed_by_the_seed():
    for name, wl in workloads.WORKLOADS.items():
        jobs = run.fixed_cycles(name, 4)
        assert len(jobs) == wl.trace_cycles * len(wl.strata) >= 11
        assert [(j.key, j.argv) for j in jobs] == [(j.key, j.argv) for j in run.fixed_cycles(name, 4)]


def test_timed_job_set_is_fixed_by_the_seed_and_seconds():
    for name, wl in workloads.WORKLOADS.items():
        jobs = list(run.stream(name, 4, 12))
        assert len(jobs) == wl.run_cycles(12) * len(wl.strata)
        assert [j.key for j in jobs] == [(c, p) for c in range(wl.run_cycles(12)) for p in range(len(wl.strata))]
        assert wl.run_cycles(0.1) * len(wl.strata) >= workloads.MIN_RUN_JOBS > (wl.run_cycles(0.1) - 1) * len(wl.strata)


def test_every_cycle_sweeps_the_same_dimensions():
    dims = [sorted(j.argv[j.argv.index("--n") + 1] for j in workloads.cycle_jobs("quadratic-certify", 1, c)
                   if j.kind == "flow-check") for c in range(6)]
    assert all(d == dims[0] for d in dims)


def _gate_definitions():
    """CURVATURE_SAMPLES and _shot_digits as the acceptance gate defines them,
    read from its source without importing the test module."""
    tree = ast.parse((run.ROOT / "tests" / "test_acceptance.py").read_text())
    samples = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "CURVATURE_SAMPLES")
    digits = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_shot_digits")
    namespace = {"math": math, "f_derivative": tau.f_derivative}
    exec(compile(ast.Module([digits], type_ignores=[]), "test_acceptance.py", "exec"), namespace)  # noqa: S102
    return samples, namespace["_shot_digits"]


def test_shots_follow_the_acceptance_gate():
    samples, gate_digits = _gate_definitions()
    assert workloads.CURVATURE_RANGE == {b: (min(cs), max(cs)) for b, cs in samples.items()}
    for branch, (lo, hi) in workloads.CURVATURE_RANGE.items():
        tp = workloads.cli.BRANCH_DEFAULTS[branch]()
        for c in np.linspace(lo, hi, 9):
            assert workloads.shot_digits(tp, c) == gate_digits(tp, c)


def _drawn(jobs, kind, flag):
    return [abs(float(j.argv[j.argv.index(flag) + 1])) for j in jobs if j.kind == kind]


def test_known_construction_defect_stays_in_the_draws():
    a1 = [a for c in range(20) for a in _drawn(workloads.cycle_jobs("entire-construct", 1, c), "build", "--a1")]
    assert min(a1) < 1.25 and max(a1) > 1.6


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_cycle_holds_the_same_number_of_known_failures(seed):
    for c in range(6):
        jobs = workloads.cycle_jobs("entire-construct", seed, c)
        a1, phi0 = _drawn(jobs, "build", "--a1"), _drawn(jobs, "mss", "--phi0")
        # never inside the bands where the outcome depends on the other inputs
        assert all(a <= 1.1 or a >= 1.6 for a in a1) and all(p <= 1.5 or p >= 1.85 for p in phi0)
        failing = sum(a >= 1.6 for a in a1) + sum(p >= 1.85 for p in phi0)
        assert failing == workloads.FAILING_PER_CYCLE


def test_event_shots_start_inside_the_attainable_range():
    for c in range(5):
        for job in workloads.cycle_jobs("event-shoot", 3, c):
            tp = workloads.cli.BRANCH_DEFAULTS[job.argv[job.argv.index("--branch") + 1]]()
            lo, hi = tau.f_range(tp)
            assert lo < -float(job.argv[job.argv.index("--u0") + 1]) / workloads.SHOT_DIM < hi


def _report(results, passed=True):
    return {"command": "x", "config": {}, "results": results, "pass": passed, "version": "0.1.0"}


def _flow(value, passed=True, code=0):
    res = {"per_branch": {"MA": {"max_defect": value}}, "max_defect": value}
    return Outcome(0.1, code=code, report=_report(res, passed))


FLOW = Job((0, 0), "flow-check", ("flow-check",))


def test_quadratic_check_accepts_a_good_report_and_rejects_corruption():
    assert checks.check(FLOW, _flow(1e-14)).status == "pass"
    assert checks.check(FLOW, _flow(math.nan)).status == "wrong"
    assert checks.check(FLOW, _flow(1e-3)).status == "wrong"
    assert checks.check(FLOW, _flow(1e-14, passed=False)).status == "wrong"  # flipped pass, exit 0
    assert checks.check(FLOW, _flow(1e-3, passed=False, code=2)).status == "failed"
    assert checks.check(FLOW, Outcome(0.1, code=1)).status == "crashed"
    assert checks.check(FLOW, Outcome(0.1, error="ValueError: boom")).status == "crashed"


def test_legendre_check_uses_every_documented_tolerance():
    job = Job((0, 0), "legendre-check", ("legendre-check",))
    good = {k: tol / 10 for k, tol in checks.LEGENDRE_TOL.items()}
    assert checks.check(job, Outcome(0.1, code=0, report=_report(good))).ok
    for key in good:
        bad = dict(good, **{key: math.nan})
        assert checks.check(job, Outcome(0.1, code=0, report=_report(bad))).status == "wrong"


def _build(residual, margin, passed, code):
    res = {"residual_sup": residual, "cone_margin": margin, "passed": passed}
    return Outcome(1.0, code=code, report=_report(res, passed))


def test_construction_check():
    job = Job((0, 0), "build", ("build-counterexample",))
    assert checks.check(job, _build(1e-11, 1e-13, True, 0)).ok
    assert checks.check(job, _build(math.nan, 1e-13, True, 0)).status == "wrong"
    assert checks.check(job, _build(1e-11, 0.0, True, 0)).status == "wrong"
    failed = checks.check(job, _build(1e-11, 0.0, False, 3))
    assert failed.status == "failed" and "cone_margin=0.0" in failed.reason


def test_oracle_and_duality_checks():
    job = Job((0, 0), "oracle-shot")
    good = {"event": "completed", "oracle_deviation": 1e-14, "growth_defect": 1e-10}
    assert checks.check(job, Outcome(1.0, values=good)).ok
    assert checks.check(job, Outcome(1.0, values=dict(good, oracle_deviation=math.nan))).status == "wrong"
    assert checks.check(job, Outcome(1.0, values=dict(good, growth_defect=1e-3))).status == "wrong"
    assert checks.check(job, Outcome(1.0, values=dict(good, event="blow_up"))).status == "failed"
    dual = Job((0, 0), "duality")
    assert checks.check(dual, Outcome(0.1, values={"defects": [1e-15, 2e-15]})).ok
    assert checks.check(dual, Outcome(0.1, values={"defects": [1e-15, math.nan]})).status == "wrong"


def test_shot_check(tmp_path):
    job = Job((0, 0), "event-shot", ("shoot",))
    csv_path = tmp_path / "radial-profile.csv"
    csv_path.write_text("r,u,u_prime,u_second\r\n0.0,1.0,0.0,0.5\r\n")
    ok = Outcome(0.1, code=0, report=_report({"event": {"kind": "blow_up", "r": 3.0}}), csv_path=str(csv_path))
    assert checks.check(job, ok).ok
    odd = Outcome(0.1, code=0, report=_report({"event": {"kind": "vanished", "r": 3.0}}), csv_path=str(csv_path))
    assert checks.check(job, odd).status == "wrong"
    csv_path.write_text("r,u,u_prime,u_second\r\n0.0,nan,0.0,0.5\r\n")
    assert checks.check(job, ok).status == "wrong"


@pytest.mark.parametrize("name,kind", [("quadratic-certify", "flow-check"), ("quadratic-certify", "duality"),
                                       ("event-shoot", "event-shot")])
def test_checks_accept_real_output(tmp_path, name, kind):
    job = next(j for j in workloads.cycle_jobs(name, 5, 0) if j.kind == kind)
    verdict = checks.check(job, workloads.run_job(job, str(tmp_path)))
    assert verdict.ok, verdict.reason


def test_margin_decades():
    assert checks.margin_decades([(1e-12, 1e-10), (1e-9, 1e-6)]) == pytest.approx(2.0)
    assert checks.margin_decades([(0.0, 1e-10)]) == math.inf


def test_self_times_of_nested_spans():
    spans = [  # (job, span, parent, name, t0, t1)
        (0, 1, None, "a", 0.0, 10.0),
        (0, 2, 1, "b", 1.0, 4.0),
        (0, 3, 1, "c", 5.0, 9.0),
        (0, 4, 3, "b", 6.0, 7.0),
        (0, 5, None, "d", 11.0, 12.5),
    ]
    stats, root_s = tracing.self_times(spans)
    assert root_s == pytest.approx(11.5)
    assert stats["a"] == pytest.approx({"calls": 1, "self_s": 3.0, "total_s": 10.0})
    assert stats["b"] == pytest.approx({"calls": 2, "self_s": 4.0, "total_s": 4.0})
    assert stats["c"] == pytest.approx({"calls": 1, "self_s": 3.0, "total_s": 4.0})
    assert stats["d"] == pytest.approx({"calls": 1, "self_s": 1.5, "total_s": 1.5})


def test_tracing_records_job_spans_and_restores_the_program(tmp_path):
    original = tau.f_inverse
    tracer = tracing.Tracer()
    out = io.StringIO()
    with tracing.installed(tracer):
        assert tau.f_inverse is not original
        jobs = workloads.cycle_jobs("event-shoot", 2, 0)
        records, stats = run.measure(jobs, str(tmp_path), tracer=tracer, spans_out=out)
    assert tau.f_inverse is original
    assert stats["cli.main"]["calls"] == len(records)
    assert stats[tracing.INTEGRATE_RHS]["calls"] > 0 and stats["tau.f_inverse"]["calls"] > 0
    assert sum(tracer.counters[f"shooting.events.{k}"] for k in checks.EVENT_KINDS) == len(records)
    spans = [json.loads(line) for line in out.getvalue().splitlines()]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["job"] for s in roots] == list(range(len(records)))
    assert {s["name"] for s in roots} == {"cli.main"}
    ids = {s["span"] for s in spans}
    assert all(s["parent"] in ids for s in spans if s["parent"] is not None)


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |         numpy.linalg",
        "import time:       100 |        110 |       numpy",
        "import time:         5 |          5 |           numpy.testing",
        "import time:       200 |        205 |         scipy",
        "import time:        50 |        255 |       scipy.integrate",
        "import time:        20 |        385 |     shrinker_lab.numerics",
        "import time:        30 |        415 |   shrinker_lab",
        "import time:         7 |        422 | shrinker_lab.cli",
    ])
    got = tracing.parse_importtime(text)
    assert got == pytest.approx({"numpy": 110e-6, "scipy": 255e-6, "mpmath": 0.0, "shrinker_lab": 422e-6})


def test_times_are_scaled_to_nominal_host_speed():
    ref = run.REF_NOMINAL_S
    assert run.nominal(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)   # host at half speed
    assert run.nominal(1.0, 0.5 * ref, 1.5 * ref) == pytest.approx(1.0)  # the mean around the job


def test_tail_percentile():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail([float(i) for i in range(1, 41)])
    assert pct == 75.0 and value == 30.0


def test_benchmark_json_lists_what_the_runs_emit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
