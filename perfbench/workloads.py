"""Seeded job streams for the benchmark workloads, and the code that runs one job.

A job is one call into the entry point a user or the acceptance gate uses:
``shrinker_lab.cli.main(argv)`` in-process with ``--out`` set, or the library
call the gate makes where no CLI command exposes the check.

Each workload is a list of strata (a job kind plus its discrete parameters,
such as the branch or the tolerance).  The stream is made of cycles; a cycle
runs every stratum once, in a seeded order, with the continuous parameters
(seeds, curvatures, perturbations, phases) drawn from the seed.  Runs measure
whole cycles, so the job mix is the same on every run and every seed, and the
seed moves only the drawn values.  Job ``(cycle, position)`` depends only on
the workload seed and its key, never on how many jobs ran before it.  Both
kinds of run measure a fixed number of cycles (``run_cycles`` for a timed
run, ``trace_cycles`` for a traced one), so every job set is fixed by the
seed alone and never by the speed of the program or the host.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from shrinker_lab import cli, geometry, quadratics, shooting, tau

BRANCHES = ("MA", "LOG", "HARM", "ATAN", "SLAG", "NEG")

# Criterion 09's curvature samples span these ranges; shots draw c uniformly.
# test_perfbench checks them, and shot_digits, against tests/test_acceptance.py.
CURVATURE_RANGE = {
    "MA": (0.3, 1.0),
    "LOG": (-0.25, 0.8),
    "HARM": (-0.5, 0.7),
    "ATAN": (-1.2, 0.8),
    "SLAG": (-0.6, 1.0),
    "NEG": (0.6, 3.3),
}

# Shot cost climbs steeply with dps near the top of each curvature range, so
# shots are stratified by thirds of the range to keep the mix steady.
CURVATURE_BANDS = 3
DUALITY_BATCH = 100     # matrices per duality job, n cycling 1..4 as in criterion 02
# Twice the CLI defaults, so these sweeps cost about what a duality batch does
# and the median job falls inside that cluster rather than between two.
SWEEP_TRIALS = {"flow-check": ("--trials", "200"), "defect": ("--trials", "100")}
# Dimensions of one cycle's sweeps: the mean of 1..4, rotated over the branches
# from cycle to cycle, so every cycle asks for the same amount of work.
SWEEP_DIMS = (1, 2, 3, 4, 2, 3)
# tolerance 1e-8 twice for each construction: those jobs form the middle of
# the cost range, so the median job is drawn from many
BUILD_TOLS = ("1e-6", "1e-8", "1e-8", "1e-10")
MSS_TOLS = ("1e-8", "1e-8", "1e-10")
# Where the known construction defects set in depends on the other inputs:
# a build's cone_margin rounds to 0 (exit 3) from a1 = 1.2 at a0 = -1 up to
# a1 = 1.45 at a0 = 1, and --mss raises SpacelikeViolation from |phi0| = 1.6 at
# |s0| = 0.5 up to |phi0| = 1.75 at s0 = 0.  a1 and |phi0| are drawn from
# slices on either side of those bands, so every cycle holds the same number
# of failing jobs (the last slices: two builds and one --mss) whatever the seed.
BUILD_A1_SLICES = ((0.5, 0.8), (0.8, 1.1), (1.6, 1.8), (1.8, 2.0))
MSS_PHI0_SLICES = ((0.5, 1.0), (1.0, 1.5), (1.85, 2.0))
FAILING_PER_CYCLE = 3
SHOT_DIM = 2
ORACLE_RMAX = 10.0
ORACLE_SAMPLES = 201
EVENT_RMAX = 50.0
# A timed run measures at least this many jobs.  A workload's jobs fall into
# groups of like cost; with 14 entire-construct jobs the median job sat at the
# edge of a group, and its time spread 0.11 of its median over ten seeds.
MIN_RUN_JOBS = 20


@dataclass(frozen=True)
class Job:
    """One job of a stream.  CLI jobs carry ``argv`` (``--out`` is added when
    the job runs); library jobs carry their generated ``inputs``."""

    key: tuple
    kind: str
    argv: tuple = ()
    inputs: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one job returned, before it is checked."""

    seconds: float
    code: int | None = None        # CLI exit code
    report: dict | None = None     # CLI JSON report
    csv_path: str | None = None
    values: dict | None = None     # library results
    error: str | None = None       # exception that escaped the entry point


def shot_digits(tp, c):
    """Working precision as the acceptance gate sizes it (criterion 09)."""
    q = tau.f_derivative(tp, c)
    return max(30, int(math.ceil(25.0 / (q * math.log(10.0)))) + 12)


def _seed(rng):
    return str(int(rng.integers(0, 2**31 - 1)))


def _quadratic_certify(stratum, rng, cycle_key):
    kind, branch = stratum
    if kind == "duality":
        tp = cli.BRANCH_DEFAULTS[branch]()
        mats = [quadratics.random_admissible_matrix(tp, 1 + k % 4, rng) for k in range(DUALITY_BATCH)]
        return kind, (), {"branch": branch, "matrices": mats}
    if kind == "legendre-check":
        return kind, (kind, "--grid-step", f"{rng.uniform(0.005, 0.02):.5f}"), {}
    n = str(SWEEP_DIMS[(BRANCHES.index(branch) + cycle_key[1]) % len(SWEEP_DIMS)])
    return kind, (kind, "--branch", branch, "--n", n, "--seed", _seed(rng)) + SWEEP_TRIALS.get(kind, ()), {}


def _stratified(lo, hi, part, parts, u):
    """The point at ``u`` in [0, 1) of the ``part``-th of ``parts`` equal slices of [lo, hi]."""
    return lo + (part + u) / parts * (hi - lo)


def _entire_construct(stratum, rng, cycle_key):
    kind, tol, k = stratum
    slices = BUILD_A1_SLICES if kind == "build" else MSS_PHI0_SLICES
    # each job of a kind draws from its own slice, the slices rotating over
    # the tolerances from cycle to cycle
    lo, hi = slices[(k + cycle_key[1]) % len(slices)]
    if kind == "build":
        a0 = rng.uniform(-1.0, 1.0)
        a1 = rng.uniform(lo, hi)
        argv = ("build-counterexample", "--a0", f"{a0:.6f}", "--a1", f"{a1:.6f}",
                "--n", str(int(rng.integers(1, 5))), "--tol", tol, "--seed", _seed(rng))
    else:
        phi0 = rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi)
        argv = ("build-counterexample", "--mss", "--phi0", f"{phi0:.6f}",
                "--s0", f"{rng.uniform(-0.5, 0.5):.6f}", "--tol", tol)
    return kind, argv, {}


def _precision_shoot(stratum, rng, cycle_key):
    kind, branch, band = stratum
    tp = cli.BRANCH_DEFAULTS[branch]()
    lo, hi = CURVATURE_RANGE[branch]
    # Latin square across branches: within a band, each branch takes its own
    # sixth of the band, the sixths rotating from cycle to cycle, so each cycle
    # asks for the same costly shots whatever the seed; c is drawn from the
    # middle half of that sixth, since shot cost is steep in c and a run holds
    # one cycle
    offset = 2 * band + (3 if kind == "cli-dps-shot" else 0)
    slot = (BRANCHES.index(branch) + offset + cycle_key[1]) % len(BRANCHES)
    band_lo = lo + band / CURVATURE_BANDS * (hi - lo)
    c = float(_stratified(band_lo, band_lo + (hi - lo) / CURVATURE_BANDS, slot, len(BRANCHES),
                          rng.uniform(0.25, 0.75)))
    dps = shot_digits(tp, c)
    if kind == "oracle-shot":
        with mp.workdps(dps):
            u0 = -SHOT_DIM * tau.f_value_mp(tp, mp.mpf(repr(c)))
        return kind, (), {"branch": branch, "c": c, "dps": dps, "u0": u0}
    u0 = -SHOT_DIM * tau.f_value(tp, c)
    argv = ("shoot", "--branch", branch, "--n", str(SHOT_DIM), "--u0", repr(u0),
            "--rmax", repr(ORACLE_RMAX), "--dps", str(dps))
    return kind, argv, {}


def _event_shoot(stratum, rng, cycle_key):
    kind, branch, sign = stratum
    tp = cli.BRANCH_DEFAULTS[branch]()
    lo, hi = tau.f_range(tp)
    while True:  # redraw until -u0/n is attainable, as rigidity_events.py's data is
        c = float(rng.uniform(*CURVATURE_RANGE[branch]))
        u0 = -SHOT_DIM * tau.f_value(tp, c) + sign * rng.uniform(0.02, 0.25)
        if lo < -u0 / SHOT_DIM < hi:
            break
    argv = ("shoot", "--branch", branch, "--n", str(SHOT_DIM), "--u0", repr(u0),
            "--rmax", repr(EVENT_RMAX))
    return kind, argv, {}


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple
    make: object
    trace_cycles: int  # cycles the traced run replays: at least 11 jobs, so a tail exists
    cycle_s: float     # wall time of one cycle, checks included, at nominal host speed

    def run_cycles(self, seconds):
        """Cycles a timed run measures: as many as take ``seconds`` at nominal
        host speed, and enough for MIN_RUN_JOBS jobs."""
        return max(math.ceil(MIN_RUN_JOBS / len(self.strata)), round(seconds / self.cycle_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quadratic-certify",
            tuple((k, b) for k in ("verify-quadratic", "flow-check", "defect", "duality") for b in BRANCHES)
            + (("legendre-check", None),),
            _quadratic_certify,
            4,
            1.5,
        ),
        Workload(
            "entire-construct",
            tuple(("build", tol, k) for k, tol in enumerate(BUILD_TOLS))
            + tuple(("mss", tol, k) for k, tol in enumerate(MSS_TOLS)),
            _entire_construct,
            2,
            6.5,
        ),
        Workload(
            "precision-shoot",
            tuple(("oracle-shot", b, k) for b in BRANCHES for k in range(CURVATURE_BANDS))
            + tuple(("cli-dps-shot", b, 1) for b in BRANCHES),
            _precision_shoot,
            1,
            19.0,
        ),
        Workload(
            "event-shoot",
            tuple(("event-shot", b, s) for b in BRANCHES for s in (-1.0, 1.0)),
            _event_shoot,
            4,
            0.9,
        ),
    )
}


def cycle_jobs(name, seed, cycle):
    """The jobs of one cycle: every stratum once, in a seeded order."""
    wl = WORKLOADS[name]
    order = np.random.default_rng([seed, cycle]).permutation(len(wl.strata))
    jobs = []
    for pos, idx in enumerate(order):
        kind, argv, inputs = wl.make(wl.strata[idx], np.random.default_rng([seed, cycle, pos]), (seed, cycle))
        jobs.append(Job((cycle, pos), kind, argv, inputs))
    return jobs


def run_job(job, out_dir):
    """Run one job and time the entry-point call only."""
    if job.argv:
        return _run_cli(job, out_dir)
    return _run_library(job)


def _clear(out_dir):
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))


def _run_cli(job, out_dir):
    _clear(out_dir)
    argv = [*job.argv, "--out", out_dir]
    error = None
    code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit 64 through SystemExit
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is a counted outcome, not a benchmark error
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    report = None
    path = os.path.join(out_dir, f"{job.argv[0]}.json")
    if error is None and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    csvs = [n for n in os.listdir(out_dir) if n.endswith(".csv")]
    csv_path = os.path.join(out_dir, csvs[0]) if csvs else None
    return Outcome(seconds, code=code, report=report, csv_path=csv_path, error=error)


def _oracle_shot(inputs):
    tp = cli.BRANCH_DEFAULTS[inputs["branch"]]()
    prof = shooting.shoot_radial(tp, SHOT_DIM, inputs["u0"], r_max=ORACLE_RMAX,
                                 dps=inputs["dps"], n_samples=ORACLE_SAMPLES)
    ref = shooting.radial_quadratic_reference(tp, SHOT_DIM, inputs["c"], r_max=ORACLE_RMAX,
                                              n_samples=ORACLE_SAMPLES)
    values = {"event": prof.event.kind, "oracle_deviation": math.nan, "growth_defect": math.nan}
    if len(prof.us) == len(ref.us):
        values["oracle_deviation"] = float(np.max(np.abs(prof.us - ref.us)))
        g = tau.growth_ratio(tp, prof.field, np.array([1.0, 0.0]), 5.0)
        values["growth_defect"] = abs(g.defect)
    return values


def _duality(inputs):
    tp = cli.BRANCH_DEFAULTS[inputs["branch"]]()
    return {"defects": [geometry.metric_duality_defect(tp, H) for H in inputs["matrices"]]}


LIBRARY_CALLS = {"oracle-shot": _oracle_shot, "duality": _duality}


def _run_library(job):
    error = None
    values = None
    t0 = time.perf_counter()
    try:
        values = LIBRARY_CALLS[job.kind](job.inputs)
    except Exception as exc:  # noqa: BLE001 - a crash is a counted outcome
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - t0, values=values, error=error)
