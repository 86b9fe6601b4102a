#!/usr/bin/env python3
"""Compare the digests of two checkouts against a committed list of moves.

``report_digest.py`` prints one status line a run (a CLI command or an
experiment script) and one digest line a file the run writes.  A change that
moves a report on purpose names what it moves in ``.github/report-moves.txt``,
one key a line (``#`` starts a comment):

    <run> :: <file>    the digest line of a file, such as
                       rigidity_events.py :: rigidity_events.csv
    <run>              the run's status line (its exit code)

The check fails if a key that is not listed differs, and also if a listed key
does not or neither digest has it, so a list left over from an earlier change
fails too.  Exits 1 with one line a fault, 0 otherwise:

    python3 scripts/check_moves.py base-digest.txt head-digest.txt
"""

import argparse
import os
import sys

MOVES = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, ".github", "report-moves.txt")


def read_moves(path):
    with open(path) as fh:
        lines = (line.split("#", 1)[0].strip() for line in fh)
        return {line for line in lines if line}


def digest_entries(path):
    """{key: value} of one ``report_digest.py`` output: a run's status line
    under the run, each file's SHA-256 under "run :: file"."""
    entries = {}
    run = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("  "):
                sha, name = line.split()
                entries[f"{run} :: {name}"] = sha
            elif line:
                status, run = line.split("  ", 1)
                entries[run] = status
    return entries


def faults(base, head, moves):
    """Every unlisted key that differs, every listed key that does not, and
    every listed key that neither side produced."""
    out = []
    for key in sorted(base.keys() | head.keys()):
        moved = base.get(key) != head.get(key)
        if moved and key not in moves:
            out.append(f"moved, not listed: {key}")
        elif not moved and key in moves:
            out.append(f"listed, not moved: {key}")
    return out + [f"listed, not produced: {key}" for key in sorted(moves - base.keys() - head.keys())]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", help="report_digest.py output of the base commit")
    ap.add_argument("head", help="report_digest.py output of this checkout")
    args = ap.parse_args(argv)
    found = faults(digest_entries(args.base), digest_entries(args.head), read_moves(MOVES))
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
