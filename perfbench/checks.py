"""Per-job correctness checks.

Every check returns a :class:`Verdict` with one of four statuses:

``pass``     the program claimed success and every checked value holds;
``failed``   the program declared the failure itself: a documented non-zero
             exit code, a report with ``pass`` false, or a shot event other
             than ``completed`` where the oracle needs one;
``crashed``  an exception escaped the entry point, or the exit code is not one
             of the documented codes;
``wrong``    the program claimed success but a checked value is out of its
             documented tolerance, non-finite, or of an undocumented kind.

Only ``wrong`` makes a run incorrect; ``failed`` and ``crashed`` are counted in
the failure ratio.  ``margins`` holds (value, tolerance) pairs of the
certified values behind ``cert_margin_decades``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

DOCUMENTED_EXIT = (0, 2, 3, 64, 65)
EVENT_KINDS = ("completed", "cone_exit", "inversion_failure", "blow_up")

# Documented default tolerances of the CLI commands (the benchmark passes no --tol).
QUADRATIC_TOL = {"verify-quadratic": 1e-10, "flow-check": 1e-10, "defect": 1e-7}
LEGENDRE_TOL = {
    "self_dual_involution": 1e-9,
    "hessian_inverse_defect": 1e-8,
    "dual_equation_sup": 1e-5,
    "phase_drift_sup": 1e-5,
}
DUALITY_TOL = 1e-9            # criterion 02
CONSTRUCTION_TOL = 1e-6       # residual_target of both constructions (criteria 05, 06)
ORACLE_TOL = 1e-6             # criterion 09: oracle deviation and growth defect


@dataclass
class Verdict:
    status: str
    reason: str = ""
    margins: list = field(default_factory=list)

    @property
    def ok(self):
        return self.status == "pass"


def margin_decades(margins):
    """Minimum over (value, tol) of log10(tol / value); exact zeros bound nothing."""
    finite = [math.log10(tol / v) for v, tol in margins if v > 0]
    return min(finite) if finite else math.inf


def _judge(claimed_ok, values, declared_reason):
    """values: (name, value, tol) triples; NaN fails every comparison."""
    bad = [f"{name}={value!r} > {tol:g}" for name, value, tol in values if not value <= tol]
    margins = [(value, tol) for _, value, tol in values if math.isfinite(tol) and value <= tol]
    if claimed_ok and not bad:
        return Verdict("pass", margins=margins)
    if claimed_ok:
        return Verdict("wrong", "claimed success but " + "; ".join(bad), margins)
    return Verdict("failed", declared_reason, margins)


def _cli_precheck(outcome):
    if outcome.error is not None:
        return Verdict("crashed", outcome.error)
    if outcome.code not in DOCUMENTED_EXIT:
        return Verdict("crashed", f"undocumented exit code {outcome.code}")
    if outcome.report is None:
        return Verdict("crashed" if outcome.code == 0 else "failed", f"exit {outcome.code}, no report")
    if (outcome.code == 0) != (outcome.report.get("pass") is True):
        return Verdict("wrong", f"exit {outcome.code} disagrees with pass={outcome.report.get('pass')!r}")
    return None


def _number(x):
    return float(x) if isinstance(x, (int, float)) else math.nan


def check_quadratic(job, outcome):
    early = _cli_precheck(outcome)
    if early:
        return early
    res = outcome.report["results"]
    if job.kind == "legendre-check":
        values = [(k, _number(res.get(k)), tol) for k, tol in LEGENDRE_TOL.items()]
    else:
        tol = QUADRATIC_TOL[job.kind]
        key = "max_residual" if job.kind == "verify-quadratic" else "max_defect"
        values = [(key, _number(res.get(key)), tol)]
        for branch, entry in sorted(res.get("per_branch", {}).items()):
            values.append((f"{branch}.{key}", _number(entry.get(key)), tol))
            for extra in ("defect_max", "defect_mean"):  # reported without a tolerance
                if extra in entry:
                    values.append((f"{branch}.{extra}", _number(entry[extra]), math.inf))
    return _judge(outcome.code == 0, values, f"exit {outcome.code}")


def check_duality(job, outcome):
    if outcome.error is not None:
        return Verdict("crashed", outcome.error)
    defects = outcome.values["defects"]
    values = [(f"defect[{i}]", _number(d), DUALITY_TOL) for i, d in enumerate(defects)]
    return _judge(True, values, "")


def check_construction(job, outcome):
    early = _cli_precheck(outcome)
    if early:
        return early
    res = outcome.report["results"]
    values = [("residual_sup", _number(res.get("residual_sup")), CONSTRUCTION_TOL)]
    verdict = _judge(outcome.code == 0, values,
                     f"exit {outcome.code}: cone_margin={res.get('cone_margin')!r}, "
                     f"residual_sup={res.get('residual_sup')!r}")
    if verdict.ok and not (_number(res.get("cone_margin")) > 0.0 and res.get("passed") is True):
        return Verdict("wrong", f"claimed success with cone_margin={res.get('cone_margin')!r}", verdict.margins)
    return verdict


def check_oracle_shot(job, outcome):
    if outcome.error is not None:
        return Verdict("crashed", outcome.error)
    v = outcome.values
    values = [("oracle_deviation", _number(v["oracle_deviation"]), ORACLE_TOL),
              ("growth_defect", _number(v["growth_defect"]), ORACLE_TOL)]
    return _judge(v["event"] == "completed", values, f"event {v['event']}")


def _csv_finite(path):
    if path is None:
        return False
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    try:
        return all(math.isfinite(float(x)) for row in rows for x in row)
    except ValueError:
        return False


def check_shot(job, outcome):
    """CLI ``shoot``: events are data, so any documented kind with a finite CSV passes."""
    early = _cli_precheck(outcome)
    if early:
        return early
    kind = outcome.report["results"].get("event", {}).get("kind")
    if kind not in EVENT_KINDS:
        return Verdict("wrong", f"undocumented event kind {kind!r}")
    if not _csv_finite(outcome.csv_path):
        return Verdict("wrong", "radial profile CSV missing or not finite")
    return Verdict("pass")


CHECKS = {
    "verify-quadratic": check_quadratic,
    "flow-check": check_quadratic,
    "defect": check_quadratic,
    "legendre-check": check_quadratic,
    "duality": check_duality,
    "build": check_construction,
    "mss": check_construction,
    "oracle-shot": check_oracle_shot,
    "cli-dps-shot": check_shot,
    "event-shot": check_shot,
}


def check(job, outcome):
    return CHECKS[job.kind](job, outcome)
