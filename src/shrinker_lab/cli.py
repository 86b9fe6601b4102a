"""Command-line front end: verification sweeps, constructions, and experiments
with deterministic JSON reports and CSV data files.

Exit codes: 0 pass, 2 verification failure, 3 construction failure,
64 usage error, 65 parameter error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys

import numpy as np

from . import geometry, quadratics, reports, shooting, transforms
from .constructor import build_counterexample, build_mss_counterexample, profile_grid, profile_span
from .fields import QuadraticField
from .numerics import MAX_GRID_POINTS, ConstructionError, DomainError, InputError, as_count, as_positive
from .tau import TauParams

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 2
EXIT_CONSTRUCT_FAIL = 3
EXIT_USAGE = 64
EXIT_PARAMETER = 65

MAX_DIMENSION = 10  # the n <= 10 that numerics is written for
MAX_DPS = 100

BRANCH_DEFAULTS = {
    "MA": lambda: TauParams.monge_ampere(),
    "LOG": lambda: TauParams.log_branch(math.pi / 6),
    "HARM": lambda: TauParams.harmonic(),
    "ATAN": lambda: TauParams.atan_branch(math.pi / 3),
    "SLAG": lambda: TauParams.special_lagrangian(),
    "NEG": lambda: TauParams.neg_branch(a=-2.0),
}


class _Parser(argparse.ArgumentParser):
    """argparse with exit 64 on usage errors, and every negative float
    literal (``-1e-3``, ``-inf``, ``-nan``) read as a value, not as a flag:
    argparse's own matcher knows only ``-1`` and ``-1.5``."""

    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


class UsageError(Exception):
    """Flags that do not name a runnable command, such as a malformed --tau."""


# The one place that decides which failure exits with which code.  The library
# raises three families: a bad argument, a point that left the equation's
# domain, and a failed numerical stage.
EXIT_CODES = {
    UsageError: (EXIT_USAGE, "usage error"),
    InputError: (EXIT_PARAMETER, "parameter error"),
    DomainError: (EXIT_CONSTRUCT_FAIL, "construction failed"),
    ConstructionError: (EXIT_CONSTRUCT_FAIL, "construction failed"),
}


def _resolve_tp(args, fallback=None):
    """TauParams from --branch, --tau or --a (argparse lets at most one
    through); None means 'all branches'."""
    try:
        if args.tau is not None:
            return TauParams.from_tau(args.tau)
        if args.a is not None:
            return TauParams.from_cot(args.a)
        if args.branch is not None:
            return BRANCH_DEFAULTS[args.branch]()
        if fallback is not None:
            return BRANCH_DEFAULTS[fallback]()
        return None
    except InputError as exc:
        raise UsageError(str(exc)) from exc


def _out_path(args, name):
    return os.path.join(args.out or ".", name)


# build-counterexample's flags that one construction reads and the other
# refuses, with their defaults: the bounded build's, then --mss's
_BOUNDED_FLAGS = {"branch": None, "tau": None, "a": None, "n": 2, "a0": 0.0, "a1": 1.0, "seed": 0}
_MSS_FLAGS = {"phi0": 1.0, "s0": 0.0}


def _construction_flags(parser, args):
    """Refuse a build-counterexample flag that the construction --mss picks
    does not read, then give each flag not given (None) its default."""
    given = [f"--{name}" for name in (_BOUNDED_FLAGS if args.mss else _MSS_FLAGS) if getattr(args, name) is not None]
    if given:
        parser.error(f"build-counterexample {'with' if args.mss else 'without'} --mss does not read {', '.join(given)}")
    for name, default in {**_BOUNDED_FLAGS, **_MSS_FLAGS}.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _check_sizes(args):
    """Each flag is checked where the command has it.  --rmax, --grid-step,
    --span and --tol, where given, must be finite and positive; --seed must be
    at least 0.  The points --grid-step puts on a grid are counted where the
    grid's half-span is known.  Sizes past what the front end runs are usage
    errors: --n above MAX_DIMENSION, --dps above MAX_DPS, and --trials (times
    --points) above MAX_GRID_POINTS."""
    if getattr(args, "n", 1) > MAX_DIMENSION:
        raise UsageError(f"--n {args.n} is above {MAX_DIMENSION}, the largest dimension supported")
    dps = getattr(args, "dps", None)
    if dps is not None and dps > MAX_DPS:
        raise UsageError(f"--dps {dps} is above {MAX_DPS}")
    trials = getattr(args, "trials", 0)
    points = max(getattr(args, "points", 1), 1)  # --points below 1 is refused with the sweep's sizes
    if trials * points > MAX_GRID_POINTS:
        what = f"--trials {trials} x --points {points}" if hasattr(args, "points") else f"--trials {trials}"
        raise UsageError(f"{what} is above {MAX_GRID_POINTS}")
    for name in ("rmax", "grid_step", "span", "tol"):
        if (value := getattr(args, name, None)) is not None:
            as_positive(value, f"--{name.replace('_', '-')}")
    if getattr(args, "seed", 0) < 0:
        raise InputError(f"--seed must be at least 0, got {args.seed}")


def _emit(args, command, config, results, passed):
    text = reports.json_report(command, config, results, passed)
    reports.write_json(_out_path(args, f"{command}.json"), text)
    sys.stdout.write(text)


# trials drawn, then certified as stacks, a block at a time: memory stays flat in --trials
_SWEEP_BLOCK = 256


def _branch_sweep(args, command, default_tol, key, draw, measure, summarize, **extra_config):
    """Sweep random quadratic solutions, then write the report; returns the exit code.

    The sweep covers the branch chosen by --branch/--tau/--a, or all six in
    sorted order.  One RNG seeded by --seed draws everything, so reports are
    byte-stable per seed: for each branch, trial k draws a dimension n in
    [1, --n], its matrix's ``quadratics.admissible_draw``, then
    ``draw(k, n, rng)``, as unit uniforms that each block scales once per
    dimension (``quadratics.scaled_uniform``).  The sweep draws
    ``_SWEEP_BLOCK`` trials, then certifies them as stacks, one dimension at
    a time: one matrix stack, one ``build_quadratic``, and
    ``measure(tp, field, draws)``, a value per trial.
    ``summarize`` reads the values in trial order and returns the branch's
    results; the sweep passes iff the worst ``results[key]`` is <= tol.
    """
    sizes = {"n": args.n, "trials": args.trials, **extra_config}
    for name, value in sizes.items():
        as_count(value, f"--{name}")
    tp_single = _resolve_tp(args)
    tps = {tp_single.branch.value: tp_single} if tp_single else {
        name: make() for name, make in BRANCH_DEFAULTS.items()
    }
    rng = np.random.default_rng(args.seed)
    tol = args.tol if args.tol is not None else default_tol

    def values(tp):
        window = quadratics._eigenvalue_window(tp)
        for start in range(0, args.trials, _SWEEP_BLOCK):
            block = []
            for k in range(start, min(start + _SWEEP_BLOCK, args.trials)):
                n = int(rng.integers(1, args.n + 1))
                block.append((n, quadratics.admissible_draw(n, rng), draw(k, n, rng)))
            out = {}
            for n in sorted({trial[0] for trial in block}):
                idx = [i for i, trial in enumerate(block) if trial[0] == n]
                units, gaussians = (np.array(v) for v in zip(*(block[i][1] for i in idx)))
                spectra = quadratics.scaled_uniform(*window, units)
                field = quadratics.build_quadratic(tp, quadratics.admissible_matrix(spectra, gaussians))
                out.update(zip(idx, measure(tp, field, [block[i][2] for i in idx])))
            yield from (out[i] for i in range(len(block)))

    per_branch = {}
    worst = 0.0
    for name, tp in sorted(tps.items()):
        per_branch[name] = summarize(values(tp))
        worst = max(worst, per_branch[name][key])
    passed = worst <= tol
    config = {"branches": sorted(tps), **sizes, "tol": tol, "seed": args.seed}
    _emit(args, command, config, {"per_branch": per_branch, key: worst}, passed)
    return EXIT_PASS if passed else EXIT_VERIFY_FAIL


def _defects(tp, field, units):
    """The vector shrinker defect of each quadratic of a stack of k at its own
    point of [-2, 2)^n, scaled from its row of units, in one call, as a list."""
    xs = quadratics.scaled_uniform(-2.0, 2.0, np.array(units))
    return geometry.shrinker_defect(tp, field, xs[:, None])[:, 0].tolist()


def _max_defect(values):
    return {"max_defect": max(itertools.chain([0.0], values))}


def cmd_verify_quadratic(args):
    defect_every = max(1, args.trials // 5)

    def draw(k, n, rng):
        return rng.random((args.points, n)), rng.random(n) if k % defect_every == 0 else None

    def measure(tp, sol, draws):
        pts, xs = zip(*draws)
        clouds = quadratics.scaled_uniform(-3.0, 3.0, np.array(pts))
        residuals = quadratics.verify_quadratic(sol, clouds).tolist()
        idx = [i for i, x in enumerate(xs) if x is not None]
        defects = {}
        if idx:
            field = QuadraticField(sol.A[idx], sol.c[idx])
            defects = dict(zip(idx, _defects(tp, field, [xs[i] for i in idx])))
        return [(r, defects.get(i)) for i, r in enumerate(residuals)]

    def summarize(values):
        residuals, defects = zip(*values)
        defects = [d for d in defects if d is not None]
        return {"max_residual": max(residuals), "defect_max": max(defects), "defect_mean": float(np.mean(defects))}

    return _branch_sweep(args, "verify-quadratic", 1e-10, "max_residual", draw, measure, summarize,
                         points=args.points)


def cmd_build_counterexample(args):
    tol = args.tol if args.tol is not None else 1e-10
    tp = None if args.mss else _resolve_tp(args, fallback="NEG")
    xs = profile_grid(profile_span(tp, args.rmax, args.span), args.grid_step)  # refused before the build
    if args.mss:
        prof, cert = build_mss_counterexample(args.phi0, args.s0, T=args.span, rel_tol=tol, radius=args.rmax)
        name, header = "mss-profile.csv", ["x", "s", "phi", "f", "f_prime", "f_second"]
        config = {"mss": True, "phi0": args.phi0, "s0": args.s0}
    else:
        _, prof, cert = build_counterexample(tp, args.a0, args.a1, args.n, T=args.span, rel_tol=tol,
                                             radius=args.rmax, seed=args.seed)
        name, header = "counterexample-trajectory.csv", ["t", "phi", "phi_prime", "w1", "w1_prime", "w1_second"]
        config = {"a": tp.a, "a0": args.a0, "a1": args.a1, "n": args.n}
    rows = prof.rows(xs)
    reports.write_csv(_out_path(args, name), header, rows)
    config.update(span=args.span, tol=tol, rmax=args.rmax, seed=args.seed)
    _emit(args, "build-counterexample", config, cert.to_dict(), cert.passed)
    return EXIT_PASS if cert.passed else EXIT_CONSTRUCT_FAIL


def cmd_shoot(args):
    tp = _resolve_tp(args, fallback="SLAG")
    if args.u0 is None:
        raise UsageError("--u0 is required for shoot")
    prof = shooting.shoot_radial(
        tp, args.n, args.u0, r_max=args.rmax,
        rel_tol=args.tol if args.tol is not None else 1e-10,
        dps=args.dps,
    )
    reports.write_csv(
        _out_path(args, "radial-profile.csv"),
        ["r", "u", "u_prime", "u_second"],
        prof.rows(),
    )
    config = {"branch": tp.branch.value, "tau": tp.tau, "n": args.n, "u0": args.u0,
              "rmax": args.rmax, "tol": args.tol, "dps": args.dps}
    results = {
        "event": {"kind": prof.event.kind, "r": prof.event.r},
        "samples": int(len(prof.rs)),
        "u_end": float(prof.us[-1]) if len(prof.us) else None,
    }
    # events are data: recording one is a successful experiment
    _emit(args, "shoot", config, results, True)
    return EXIT_PASS


def cmd_flow_check(args):
    def draw(k, n, rng):
        return rng.random(n + 1)  # x's n units, then t's

    def measure(tp, field, draws):
        units = np.array(draws)
        xs = quadratics.scaled_uniform(-3.0, 3.0, units[:, :-1])
        ts = -quadratics.scaled_uniform(0.1, 10.0, units[:, -1])
        return np.abs(transforms.self_similar_extension(tp, field, xs, ts).defect).tolist()

    return _branch_sweep(args, "flow-check", 1e-10, "max_defect", draw, measure, _max_defect)


def cmd_legendre_check(args):
    step, span = args.grid_step, args.span
    results = {}

    tp = TauParams.harmonic()
    w = transforms.convexify_shift(tp, quadratics.build_quadratic(tp, np.array([[0.8]])))
    try:  # a grid of more than MAX_GRID_POINTS nodes, or too coarse for either check
        check = transforms.legendre_dual_residual(w, -span, span, grid_step=step)
    except InputError as exc:
        raise InputError(f"--grid-step {step} on --span {span}: {exc}") from exc
    results["self_dual_involution"] = check.transform.involution_defect
    results["dual_equation_sup"] = check.dual_equation_sup
    results["hessian_inverse_defect"] = check.hessian_inverse_defect
    results["phase_drift_sup"] = check.phase_drift_sup

    tol_inv = 1e-9
    passed = (
        results["self_dual_involution"] <= tol_inv
        and results["hessian_inverse_defect"] <= 1e-8
        and results["dual_equation_sup"] <= 1e-5
        and results["phase_drift_sup"] <= 1e-5
    )
    config = {"grid_step": step, "span": span}
    _emit(args, "legendre-check", config, results, passed)
    return EXIT_PASS if passed else EXIT_VERIFY_FAIL


def cmd_defect(args):
    return _branch_sweep(args, "defect", 1e-7, "max_defect", lambda k, n, rng: rng.random(n),
                         _defects, _max_defect)


def _add_common(p, tol_and_seed=True):
    branch = p.add_mutually_exclusive_group()  # each names the operator branch
    branch.add_argument("--branch", choices=sorted(BRANCH_DEFAULTS), help="operator branch")
    branch.add_argument("--tau", type=float, help="metric angle in (-pi/4, pi/2]")
    branch.add_argument("--a", type=float, help="cot(tau); a < -1 selects the bounded-cone branch")
    p.add_argument("--n", type=int, default=2, help="spatial dimension (default 2)")
    if tol_and_seed:
        p.add_argument("--tol", type=float, default=None, help="tolerance / integrator tolerance")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (reports are byte-stable per seed)")
    p.add_argument("--out", type=str, default=None, help="output directory (default .)")


@functools.cache  # built by the first main call, not at import, and reused by every later one
def build_parser():
    parser = _Parser(prog="shrinker-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-quadratic", help="random-matrix verification sweep per branch")
    _add_common(p)
    p.add_argument("--trials", type=int, default=100, help="matrices per branch")
    p.add_argument("--points", type=int, default=20, help="sample points per matrix")
    p.set_defaults(func=cmd_verify_quadratic)

    p = sub.add_parser("build-counterexample", help="construct and certify a non-quadratic entire solution")
    _add_common(p)
    p.add_argument("--a0", type=float, help="phase value at 0 (default 0)")
    p.add_argument("--a1", type=float, help="phase slope at 0 (> 0; default 1)")
    p.add_argument("--phi0", type=float, help="spacelike construction: phase at 0 (default 1)")
    p.add_argument("--s0", type=float, help="spacelike construction: slope parameter at 0 (default 0)")
    p.add_argument("--span", type=float, default=20.0, help="integration half-span T")
    p.add_argument("--rmax", type=float, default=10.0, help="certification radius")
    p.add_argument("--grid-step", type=float, default=0.01,
                   help="CSV sampling step, over the half-span the build tabulates its profile on")
    p.add_argument("--mss", action="store_true", help="build the spacelike graph profile instead")
    p.set_defaults(func=cmd_build_counterexample, n=None, seed=None)  # resolved by _construction_flags

    p = sub.add_parser("shoot", help="radial shooting experiment (events are data)")
    _add_common(p, tol_and_seed=False)
    p.add_argument("--u0", type=float, default=None, help="potential value at the origin")
    p.add_argument("--rmax", type=float, default=50.0, help="target radius")
    path = p.add_mutually_exclusive_group()  # --tol sets the float path, --dps the Taylor path
    path.add_argument("--tol", type=float, default=None, help="float integrator tolerance")
    path.add_argument("--dps", type=int, default=None, help="decimal digits for the high-precision path")
    p.set_defaults(func=cmd_shoot)

    p = sub.add_parser("flow-check", help="self-similar time extension defect sweep")
    _add_common(p)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_flow_check)

    p = sub.add_parser("legendre-check", help="dual-pipeline residuals on convex tests")
    p.add_argument("--out", type=str, default=None, help="output directory (default .)")
    p.add_argument("--grid-step", type=float, default=1e-2)
    p.add_argument("--span", type=float, default=2.0)
    p.set_defaults(func=cmd_legendre_check)

    p = sub.add_parser("defect", help="vector self-shrinker defect sweep on quadratics")
    _add_common(p)
    p.add_argument("--trials", type=int, default=50)
    p.set_defaults(func=cmd_defect)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "build-counterexample":
        _construction_flags(parser, args)
    try:
        _check_sizes(args)
        try:  # before the command runs, so an --out that cannot be a directory costs no work
            os.makedirs(args.out or ".", exist_ok=True)
        except OSError as exc:
            raise InputError(f"--out {args.out} cannot be made a directory: {exc.strerror or exc}") from exc
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code, label = next(v for cls, v in EXIT_CODES.items() if isinstance(exc, cls))
        print(f"shrinker-lab: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
