#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarised in ``BENCH_<pr>.json``.

    python3 scripts/bench_pairs.py REF --workload event-shoot precision-shoot --seeds 1-10 --pr 32

REF (a commit, branch or tag) is the parent.  It is exported with
``git archive`` into a temporary directory.  The change is this checkout:
its tracked files with their uncommitted edits, and its untracked files that
``.gitignore`` does not exclude, copied into a second temporary directory, so
that both sides run from the same kind of place.  ``change.tree_sha256`` in
the file is the SHA-256 of the copied files (``tree_hash``).  For each seed
and each workload the script runs
one pair of ``perfbench/run.py --workload W --seed S --seconds 8 --trace 0``,
one run on each side, the side that goes first swapping from one pair of a
workload to the next.
Each run leaves its record in its side's
``.perfbench-work/results/W-seedS-trace0.json``; the script reads them all
and writes ``BENCH_<pr>.json`` at the root of this checkout with sorted keys.

Per workload and end-to-end metric of ``BENCHMARK.json`` the file holds each
side's runs, median and quartiles, the pairs the change won (ties count for
neither), whether a gain would hold (won at least nine tenths of the pairs,
medians apart by more than the parent's interquartile range) and whether the
change's median is worse than the parent's by more than the metric's bound.
Per workload it also holds the jobs attempted and failed in each run and each
side's median reference-kernel time over every job (``ref_s``), the host's
speed while the runs were made.  After all the pairs, the script times
SETUP_PROBES alternating ``run.py --setup-probe`` runs of each workload on
each side, as ``run.py``'s ``setup_seconds`` times one, and records each
side's best and all its runs as ``setup_probe_s``, beside ``setup_s``.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_ARGS = ("--seconds", "8", "--trace", "0")
SIDES = ("parent", "change")
SETUP_PROBES = 6  # per side and workload


def parse_seeds(text):
    """'1-10' or '3,5,8' (or a mix, '1-3,7') as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def spread(values):
    """Median and quartiles (inclusive method) of a side's runs."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": list(values)}


def summarize(pairs, end_to_end):
    """The summary of one workload's pairs.

    ``pairs`` is a list of (parent, change) run records, each as
    ``perfbench/run.py`` writes it; ``end_to_end`` is ``BENCHMARK.json``'s list
    of end-to-end metrics, each with ``name``, ``better`` and ``bound``."""
    sides = {side: [pair[i] for pair in pairs] for i, side in enumerate(SIDES)}
    out = {
        "pairs": len(pairs),
        "seeds": [rec["seed"] for rec, _ in pairs],
        "attempted": {side: [rec["result"]["attempted"] for rec in recs] for side, recs in sides.items()},
        "failed": {side: [rec["result"]["failed"] for rec in recs] for side, recs in sides.items()},
        "correct": {side: all(rec["result"]["correct"] for rec in recs) for side, recs in sides.items()},
        "ref_s": {side: statistics.median(job["ref_s"] for rec in recs for job in rec["jobs"])
                  for side, recs in sides.items()},
        "metrics": {},
    }
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [rec["result"]["metrics"][name]["value"] for rec in recs] for side, recs in sides.items()}
        parent, change = spread(values["parent"]), spread(values["change"])
        wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        gap = (parent["median"] - change["median"]) * (1 if lower else -1)  # > 0: the change is better
        out["metrics"][name] = {
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "relative_change": change["median"] / parent["median"] - 1.0,
            "gain_holds": 10 * wins >= 9 * len(pairs) and gap > parent["q3"] - parent["q1"],
            "worse_than_bound": -gap > metric["bound"] * abs(parent["median"]),
        }
    return out


def probe_summary(probes):
    """Each side's best setup probe and all its probes, from ``probes``, a map
    of each side to its probe times in seconds."""
    return {side: {"best": min(probes[side]), "runs": list(probes[side])} for side in SIDES}


def run_side(root, workload, seed):
    """One ``run.py`` run in checkout ``root``; its result record."""
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), *RUN_ARGS],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    with open(Path(root) / ".perfbench-work" / "results" / f"{workload}-seed{seed}-trace0.json") as fh:
        return json.load(fh)


def setup_probe(root, workload, seed):
    """Seconds from spawning ``run.py --setup-probe`` in checkout ``root`` until
    its first job is ready, as ``run.py``'s ``setup_seconds`` times one probe."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--setup-probe"], cwd=root, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - t0


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def export(ref, dest):
    """The files of commit ``ref`` in ``dest``, through ``git archive``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", ref], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {ref} failed")


def export_checkout(root, dest):
    """The files of the checkout ``root`` as they are on disk, in ``dest``: the
    tracked ones, uncommitted edits included (a deleted one is left out), and
    the untracked ones that ``.gitignore`` does not exclude.  Returns their
    ``tree_hash``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=root).split("\0")
    paths = sorted({p for p in listed if p and (Path(root) / p).is_file()})
    for rel in paths:
        target = Path(dest) / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(Path(root) / rel, target)
    return tree_hash(dest, paths)


def tree_hash(root, paths):
    """SHA-256 over the files ``paths`` (relative, sorted) of ``root``: each
    path, its length in bytes and its bytes, so a renamed, moved or edited
    file changes it."""
    h = hashlib.sha256()
    for rel in paths:
        data = (Path(root) / rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("ref", help="the parent commit")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10")
    ap.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    parent_commit = git("rev-parse", f"{args.ref}^{{commit}}")
    records = {w: [] for w in args.workload}
    roots = {side: tempfile.mkdtemp(prefix=f"bench-{side}-") for side in SIDES}
    try:
        export(parent_commit, roots["parent"])
        change_hash = export_checkout(ROOT, roots["change"])
        for seed in args.seeds:
            for workload in args.workload:
                order = SIDES if len(records[workload]) % 2 == 0 else SIDES[::-1]
                pair = {side: run_side(roots[side], workload, seed) for side in order}
                records[workload].append((pair["parent"], pair["change"]))
                print(f"{workload} seed {seed} ({order[0]} first): job_s.p50 "
                      + " -> ".join(f"{pair[s]['result']['metrics']['job_s.p50']['value']:.5f}" for s in SIDES),
                      flush=True)
        probes = {w: {side: [] for side in SIDES} for w in args.workload}
        for workload in args.workload:
            for i in range(SETUP_PROBES):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    probes[workload][side].append(setup_probe(roots[side], workload, args.seeds[0]))
            print(f"{workload} setup probes: best "
                  + " -> ".join(f"{min(probes[workload][s]):.4f}" for s in SIDES), flush=True)
    finally:
        for root in roots.values():
            shutil.rmtree(root, ignore_errors=True)

    first = records[args.workload[0]][0][1]
    bench = {
        "pr": args.pr,
        "parent": parent_commit,
        "change": {"head": git("rev-parse", "HEAD"), "uncommitted_edits": bool(git("status", "--porcelain")),
                   "tree_sha256": change_hash},
        "command": "python3 perfbench/run.py --workload W --seed S " + " ".join(RUN_ARGS),
        "environment": first["environment"],
        "ref_nominal_s": first["ref_nominal_s"],
        "workloads": {w: {**summarize(pairs, end_to_end), "setup_probe_s": probe_summary(probes[w])}
                      for w, pairs in records.items()},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
