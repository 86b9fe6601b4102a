"""Span tracing from outside the program.

``installed(tracer)`` wraps the public functions of each shrinker_lab module
(and of ``mpmath.odefun``) for the duration of a ``with`` block.  Every call
records a span ``(job_id, span_id, parent_id, name, t0, t1)``; spans of one
job share its id.  Counters record what a span cannot: integrator steps and
rejections, Taylor right-hand-side calls, shot events by kind, CSV bytes.
``self_times`` turns a job's spans into per-name calls, self time and
inclusive time; a name's self time is its spans' durations minus the part of
each covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

import mpmath

from shrinker_lab import cli, constructor, fields, geometry, numerics, quadratics, reports, shooting, tau, transforms

# (module, attribute, span name): the wrapped functions, named <module>.<function>
FUNCTIONS = [
    (numerics, "eig_sym", "numerics.eig_sym"),
    (numerics, "eig_sym_full", "numerics.eig_sym_full"),
    (numerics, "fd_gradient", "numerics.fd"),
    (numerics, "fd_hessian", "numerics.fd"),
    (numerics, "invert_monotone", "numerics.invert_monotone"),
    (tau, "f_value", "tau.f_value"),
    (tau, "f_inverse", "tau.f_inverse"),
    (tau, "f_value_mp", "tau.f_value_mp"),
    (tau, "f_inverse_mp", "tau.f_inverse_mp"),
    (tau, "operator_value", "tau.operator_value"),
    (tau, "operator_gradient_matrix", "tau.operator_gradient_matrix"),
    (tau, "shrinker_residual", "tau.shrinker_residual"),
    (tau, "phase", "tau.phase"),
    (tau, "minkowski_residual", "tau.minkowski_residual"),
    (tau, "growth_ratio", "tau.growth_ratio"),
    (geometry, "metric_duality_defect", "geometry.metric_duality_defect"),
    (geometry, "shrinker_defect", "geometry.shrinker_defect"),
    (geometry, "normal_project", "geometry.normal_project"),
    (quadratics, "build_quadratic", "quadratics.build_quadratic"),
    (transforms, "self_similar_extension", "transforms.self_similar_extension"),
    (transforms, "legendre_1d", "transforms.legendre"),
    (transforms, "legendre_dual_residual", "transforms.legendre"),
    (constructor, "solve_phase_ode", "constructor.solve_phase_ode"),
    (constructor, "assemble_w1", "constructor.assemble_w1"),
    (constructor, "build_counterexample", "constructor.certify"),
    (constructor, "build_mss_counterexample", "constructor.certify"),
    (constructor, "cumulative_simpson", "constructor.quadrature"),
    (reports, "json_report", "reports.json_report"),
    (cli, "main", "cli.main"),
]

# (class, method, span name)
METHODS = [
    (numerics.Trajectory, "__call__", "numerics.Trajectory.eval"),
    (constructor.PhaseTrajectory, "phi_pair", "constructor.PhaseTrajectory.eval"),
    (constructor.PhaseTrajectory, "phi_array", "constructor.PhaseTrajectory.eval"),
    (constructor.W1Profile, "rows", "constructor.W1Profile.rows"),
]

INTEGRATE = "numerics.integrate_ode"
INTEGRATE_RHS = "numerics.integrate_ode.rhs"
SHOOT = "shooting.shoot_radial"
TAYLOR = "shooting.taylor"
WRITE_CSV = "reports.write_csv"
FIELD_EVAL = "fields.eval"


class Tracer:
    """In-memory span recorder for one process; one job at a time."""

    def __init__(self):
        self.job_id = None
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._next_id = 0

    def begin_job(self, job_id):
        # spans recorded between jobs (input generation) are dropped here
        self.job_id = job_id
        self.spans = []

    def end_job(self):
        spans, self.spans = self.spans, []
        return spans

    def open(self, name):
        self._stack.append((self._next_id, self._stack[-1][0] if self._stack else None, name,
                            time.perf_counter()))
        self._next_id += 1

    def close(self):
        span_id, parent, name, t0 = self._stack.pop()
        self.spans.append((self.job_id, span_id, parent, name, t0, time.perf_counter()))


def self_times(spans):
    """Per-name {calls, self_s, total_s} and the time covered by root spans."""
    covered = Counter()
    for _, _, parent, _, t0, t1 in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    stats = {}
    root_s = 0.0
    for _, span_id, parent, name, t0, t1 in spans:
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (t1 - t0) - covered[span_id]
        s["total_s"] += t1 - t0
        if parent is None:
            root_s += t1 - t0
    return stats, root_s


def _span(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()

    return traced


def _traced_integrate_ode(tracer, fn):
    spanned = _span(tracer, INTEGRATE, fn)

    @functools.wraps(fn)
    def traced(rhs, *args, **kwargs):
        traj = spanned(_span(tracer, INTEGRATE_RHS, rhs), *args, **kwargs)
        tracer.counters[INTEGRATE + ".steps"] += traj.n_steps
        tracer.counters[INTEGRATE + ".rejected"] += traj.n_rejected
        return traj

    return traced


def _traced_shoot(tracer, fn):
    spanned = _span(tracer, SHOOT, fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        prof = spanned(*args, **kwargs)
        tracer.counters["shooting.events." + prof.event.kind] += 1
        return prof

    return traced


def _traced_write_csv(tracer, fn):
    spanned = _span(tracer, WRITE_CSV, fn)

    @functools.wraps(fn)
    def traced(path, *args, **kwargs):
        spanned(path, *args, **kwargs)
        tracer.counters[WRITE_CSV + ".bytes"] += os.path.getsize(path)

    return traced


def _traced_odefun(tracer, fn):
    """The Taylor table is built by odefun and, lazily, by each call of the
    interpolant it returns; both count as Taylor time."""

    @functools.wraps(fn)
    def traced(F, *args, **kwargs):
        def counted(x, y):
            tracer.counters[TAYLOR + ".rhs_calls"] += 1
            return F(x, y)

        return _span(tracer, TAYLOR, _span(tracer, TAYLOR, fn)(counted, *args, **kwargs))

    return traced


def _field_classes():
    todo, seen = [fields.ScalarField], []
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


@contextlib.contextmanager
def installed(tracer):
    """Wrap every traced function in every shrinker_lab namespace that holds it."""
    namespaces = [m.__dict__ for name, m in sorted(sys.modules.items())
                  if name == "shrinker_lab" or name.startswith("shrinker_lab.")]
    targets = [(getattr(mod, attr), _span(tracer, name, getattr(mod, attr))) for mod, attr, name in FUNCTIONS]
    targets.append((numerics.integrate_ode, _traced_integrate_ode(tracer, numerics.integrate_ode)))
    targets.append((shooting.shoot_radial, _traced_shoot(tracer, shooting.shoot_radial)))
    targets.append((reports.write_csv, _traced_write_csv(tracer, reports.write_csv)))
    undo = []
    for original, wrapper in targets:
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is original:
                    undo.append((ns, key, value))
                    ns[key] = wrapper
    methods = list(METHODS)
    methods += [(cls, meth, FIELD_EVAL) for cls in _field_classes()
                for meth in ("value", "gradient", "hessian") if meth in cls.__dict__]
    for cls, meth, name in methods:
        original = cls.__dict__[meth]
        undo.append((cls, meth, original))
        setattr(cls, meth, _span(tracer, name, original))
    undo.append((mpmath, "odefun", mpmath.odefun))
    mpmath.odefun = _traced_odefun(tracer, mpmath.odefun)
    try:
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def parse_importtime(stderr_text):
    """Seconds spent importing numpy, scipy, mpmath and shrinker_lab.

    ``python -X importtime`` prints one line per module after its children,
    indented by nesting depth.  A dependency's time is the cumulative time of
    its entries that no dependency's entry encloses, so a numpy module that
    scipy pulls in counts for scipy; ``shrinker_lab`` is the whole package
    import, dependencies included.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # header line
        stripped = name.lstrip()
        entries.append(((len(name) - len(stripped) - 1) // 2, stripped.strip(), int(cumulative) * 1e-6))
    deps = ("numpy", "scipy", "mpmath")
    out = dict.fromkeys(deps + ("shrinker_lab",), 0.0)
    stack = []  # top-level package names of the ancestors, walking parents first
    for depth, name, cumulative in reversed(entries):
        del stack[depth:]
        top = name.split(".")[0]
        enclosing = deps if top in deps else (top,)
        if top in out and not any(a in enclosing for a in stack):
            out[top] += cumulative
        stack.append(top)
    return out
