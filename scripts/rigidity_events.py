#!/usr/bin/env python3
"""Event menagerie: shift the radial initial value of a quadratic on every
branch by du0 and record what ends each float64 shot.

A shifted u0 is not perturbed data: it is the exact data of the quadratic
with curvature lambda = f^{-1}(-u0/n), true for every du0 here.  Its
trajectory is exponentially unstable, so each recorded event (inversion
failure, cone exit, blow-up, or a slow slide toward the open cone edge that
outlasts r_max) marks where the working precision runs out: r^2 grows by
about 4 f'(lambda) ln 10 per decimal digit.  The events are the
experiment's output, not errors.
"""

import argparse
import sys

from shrinker_lab.cli import BRANCH_DEFAULTS
from shrinker_lab.reports import write_csv
from shrinker_lab.shooting import shoot_radial
from shrinker_lab.tau import f_value

# the quadratic's curvature on each branch of cli.BRANCH_DEFAULTS, in its order
BRANCHES = {"MA": 0.8, "LOG": 0.3, "HARM": 0.0, "ATAN": 0.0, "SLAG": 1.0, "NEG": 2.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--rmax", type=float, default=50.0)
    ap.add_argument("--out", type=str, default="rigidity_events.csv")
    args = ap.parse_args(argv)

    rows = []
    for name, c in BRANCHES.items():
        tp = BRANCH_DEFAULTS[name]()
        base = -args.n * f_value(tp, c)
        for du0 in (-0.2, -0.05, 0.05, 0.2):
            prof = shoot_radial(tp, args.n, base + du0, r_max=args.rmax)
            rows.append([name, c, du0, prof.event.kind, prof.event.r])
            print(
                f"{name:5s} c={c:+.2f} du0={du0:+.2f}: {prof.event.kind:18s} "
                f"r={prof.event.r:8.3f}"
            )
    write_csv(args.out, ["branch", "curvature", "du0", "event", "r"], rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
