#!/usr/bin/env python3
"""SHA-256 of every JSON report and CSV written by a fixed list of CLI commands.

Each command runs in-process into its own temporary directory; the script
prints the exit code (or the exception that escaped ``main``) and the digest
of each file written.  Reports are byte-identical for a given config and
seed, so two checkouts print the same lines unless a change moved a reported
value, a CSV cell or an exit code:

    python3 scripts/report_digest.py > after.txt
    python3 scripts/report_digest.py --src /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

The list covers every subcommand, two sweeps at their default sizes, one
sweep each on a branch chosen by ``--tau`` and by ``--a``, three Legendre
checks (grid steps 0.02, the default 0.01, and 0.005 on a span of 1, each
reading the dual table across its clamped end windows), thirteen shots
(six float shots from perturbed quadratic data, one on each branch, four
ending in an event and two complete, so every branch's float f, f^-1 and
profile sampler is seen; and seven Taylor shots: one on each branch, five
complete and one ending in ``blow_up``, so the Taylor path's naming and
placing of an event is seen, and a second ``blow_up`` at a working precision
below a double's), and ten builds:
three tolerances, two spacelike (``--mss``) profiles, two whose cone margins
are below the rounding of ``1 - x`` (taken from the log-odds and from s, they
stay positive and both builds exit 0), one whose certificate reach is below
``--span``, at a tolerance the integrator's floor caps, one in dimension 1,
whose generic-route cross-check reads the largest inner cloud, and one whose
cross-check meets the cone edge and reports null sups.  The script
exits 1, after printing every line, if any command raised.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

COMMANDS = [
    ["verify-quadratic", "--n", "3", "--trials", "20", "--points", "5", "--seed", "1"],
    ["flow-check", "--n", "3", "--trials", "20", "--seed", "2"],
    ["defect", "--n", "3", "--trials", "10", "--seed", "3"],
    ["verify-quadratic", "--n", "4", "--seed", "3"],  # default sizes: 2,000 points a branch
    ["defect", "--n", "4", "--seed", "4"],
    ["verify-quadratic", "--tau", "0.5", "--n", "3", "--trials", "10", "--points", "5", "--seed", "8"],  # TauParams.from_tau
    ["defect", "--a", "-3", "--n", "3", "--trials", "10", "--seed", "9"],  # TauParams.from_cot
    ["legendre-check", "--grid-step", "0.02"],
    ["legendre-check"],  # the default step, 0.01
    ["legendre-check", "--span", "1", "--grid-step", "0.005"],
    ["shoot", "--branch", "SLAG", "--n", "2", "--u0", "-1.4707963267948966"],
    # float shots from perturbed quadratic data on the other branches: u0 =
    # -2 f(c) + du0 with scripts/rigidity_events.py's (tp, c, du0)
    ["shoot", "--branch", "MA", "--n", "2", "--u0", "0.4231435513142097", "--rmax", "50"],  # du0 = +0.2
    ["shoot", "--branch", "LOG", "--n", "2", "--u0", "2.4807800636465043", "--rmax", "50"],  # +0.05, event
    ["shoot", "--branch", "HARM", "--n", "2", "--u0", "2.62842712474619", "--rmax", "50"],  # -0.2, event
    ["shoot", "--branch", "ATAN", "--n", "2", "--u0", "0.4306019663449764", "--rmax", "50"],  # -0.05, event
    ["shoot", "--branch", "NEG", "--n", "2", "--u0", "0.2", "--rmax", "50"],  # +0.2
    ["shoot", "--branch", "MA", "--n", "2", "--u0", "0", "--rmax", "2", "--dps", "30"],
    ["shoot", "--branch", "SLAG", "--n", "2", "--u0", "-1.4707963267948966", "--dps", "15"],  # Taylor blow_up
    # dps 12: the Taylor path at 43 bits, below a double's 53
    ["shoot", "--branch", "SLAG", "--n", "2", "--u0", "-1.6207963267948966", "--rmax", "20", "--dps", "12"],
    # Taylor shots to r = 10 on the other branches: u0 = -2 f(c) at the top of
    # criterion 09's curvature range, dps as that criterion sizes it
    ["shoot", "--branch", "LOG", "--n", "2", "--u0", "1.7838516734293206", "--rmax", "10", "--dps", "36"],  # c = 0.8
    ["shoot", "--branch", "HARM", "--n", "2", "--u0", "1.663780661615406", "--rmax", "10", "--dps", "35"],  # c = 0.7
    ["shoot", "--branch", "ATAN", "--n", "2", "--u0", "-0.7079208192920894", "--rmax", "10", "--dps", "37"],  # c = 0.8
    ["shoot", "--branch", "NEG", "--n", "2", "--u0", "-2.5154398278034003", "--rmax", "10", "--dps", "30"],  # c = 3.3
    ["build-counterexample", "--a0", "0.3", "--a1", "0.7", "--n", "2", "--tol", "1e-6", "--seed", "5"],
    ["build-counterexample", "--a0", "-0.4", "--a1", "0.9", "--n", "3", "--tol", "1e-8", "--seed", "6"],
    ["build-counterexample", "--a0", "0.3", "--a1", "0.7", "--n", "4", "--tol", "1e-10", "--seed", "7"],
    ["build-counterexample", "--a0", "0.0", "--a1", "1.9", "--n", "2", "--tol", "1e-8"],  # 1 - sigmoid(phi_max) rounds to 0
    # n = 1: 392 inner points, the largest cloud the generic-route cross-check reads
    ["build-counterexample", "--a0", "0.1", "--a1", "0.6", "--n", "1", "--tol", "1e-10", "--seed", "9"],
    ["build-counterexample", "--a1", "5", "--n", "2", "--tol", "1e-8", "--seed", "1"],  # null cross-check sups
    # reach 8.09 below --span: the CSV grid covers the reach; --tol 1e-12 meets the integrator's floor
    ["build-counterexample", "--a0", "0.2", "--a1", "0.8", "--n", "2", "--tol", "1e-12", "--rmax", "3",
     "--grid-step", "0.05", "--seed", "8"],
    ["build-counterexample", "--mss", "--phi0", "1.2", "--s0", "0.1", "--tol", "1e-8"],
    ["build-counterexample", "--mss", "--phi0", "-0.7", "--s0", "0.2", "--tol", "1e-10"],
    ["build-counterexample", "--mss", "--phi0", "1.9", "--s0", "0.2", "--tol", "1e-8"],  # |f'| rounds to 1
]


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main(argv=None):
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                    help="directory holding the shrinker_lab package (default: this checkout's src/)")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from shrinker_lab.cli import main as cli_main

    raised = False
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as out:
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    status = f"exit {cli_main([*command, '--out', out])}"
            except Exception as exc:  # noqa: BLE001 - an escaped exception is a result here
                status = f"raised {type(exc).__name__}"
                raised = True
            print(f"{status}  {' '.join(command)}")
            for name in sorted(os.listdir(out)):
                print(f"  {digest(os.path.join(out, name))}  {name}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
