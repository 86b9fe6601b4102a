#!/usr/bin/env python3
"""Compare the reports of two checkouts against a committed list of moves.

A change that moves a report on purpose names what it moves in
``.github/report-moves.txt``, one key a line (``#`` starts a comment):

    <command> :: <file>    the digest line of a file the command writes
    <command>              the command's status line (its exit code)
    <name>.csv             an experiment CSV

The check fails if a key that is not listed differs, and also if a listed key
does not, so a list left over from an earlier change fails too:

    python3 scripts/check_moves.py digest base-digest.txt head-digest.txt
    python3 scripts/check_moves.py csv base-dir head-dir rigidity_events.csv tolerance_scaling.csv

``digest`` compares two outputs of ``report_digest.py`` and ``csv`` the named
files of two directories, byte for byte.  A key of the other kind is left to
the other comparison.  Exits 1 with one line a fault, 0 otherwise.
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
    """{key: value} of one ``report_digest.py`` output: a command's status
    line under the command, each file's SHA-256 under "command :: file"."""
    entries = {}
    command = None
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("  "):
                sha, name = line.split()
                entries[f"{command} :: {name}"] = sha
            elif line:
                status, command = line.split("  ", 1)
                entries[command] = status
    return entries


def csv_entries(directory, names):
    entries = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            entries[name] = fh.read()
    return entries


def faults(base, head, moves):
    """Every unlisted key that differs and every listed key of this
    comparison that does not."""
    out = []
    for key in sorted(base.keys() | head.keys()):
        moved = base.get(key) != head.get(key)
        if moved and key not in moves:
            out.append(f"moved, not listed: {key}")
        elif not moved and key in moves:
            out.append(f"listed, not moved: {key}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="kind", required=True)
    dig = sub.add_parser("digest")
    dig.add_argument("base")
    dig.add_argument("head")
    csv = sub.add_parser("csv")
    csv.add_argument("base")
    csv.add_argument("head")
    csv.add_argument("names", nargs="+")
    args = ap.parse_args(argv)

    moves = read_moves(MOVES)
    if args.kind == "digest":
        base, head = digest_entries(args.base), digest_entries(args.head)
        own = {key for key in moves if not key.endswith(".csv") or " :: " in key}
    else:
        base, head = csv_entries(args.base, args.names), csv_entries(args.head, args.names)
        own = {key for key in moves if key.endswith(".csv") and " :: " not in key}
    found = faults(base, head, moves)
    found += [f"listed, not produced: {key}" for key in sorted(own - base.keys() - head.keys())]
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
