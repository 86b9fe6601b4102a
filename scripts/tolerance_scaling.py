#!/usr/bin/env python3
"""Convergence study: certified residual of the entire non-quadratic
construction versus integrator tolerance.

The composite error (adaptive steps at ``constructor.ODE_TOL_PER_TOL`` times
the tolerance, quintic dense output of the integrator's order, Gauss-Legendre
quadrature of the profile on the integrator's own steps) should track the
tolerance roughly linearly down to about 2e-13 at tolerance 1e-10, where
``constructor.ODE_TOL_FLOOR`` holds the steps; the acceptance gate demands a
factor >= 5 per decade from 1e-6 to 1e-7.  Writes a CSV and prints the
observed decade ratios.
"""

import argparse
import sys

from shrinker_lab import TauParams
from shrinker_lab.constructor import build_counterexample
from shrinker_lab.reports import write_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=-2.0)
    ap.add_argument("--a0", type=float, default=0.0)
    ap.add_argument("--a1", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--span", type=float, default=20.0)
    ap.add_argument("--decades", type=int, default=6, help="from 1e-5 downwards")
    ap.add_argument("--out", type=str, default="tolerance_scaling.csv")
    args = ap.parse_args(argv)

    tp = TauParams.neg_branch(a=args.a)
    rows = []
    prev = None
    for k in range(args.decades):
        rel = 10.0 ** -(5 + k)
        _, _, cert = build_counterexample(
            tp, args.a0, args.a1, args.n, T=args.span, rel_tol=rel, seed=0
        )
        ratio = prev / cert.residual_sup if prev else float("nan")
        rows.append([rel, cert.residual_sup, cert.bounds["identity_defect"], ratio])
        print(
            f"rel_tol={rel:.0e}  residual_sup={cert.residual_sup:.3e}  "
            f"identity={cert.bounds['identity_defect']:.3e}  decade-ratio={ratio:.2f}"
        )
        prev = cert.residual_sup
    write_csv(args.out, ["rel_tol", "residual_sup", "identity_defect", "decade_ratio"], rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
