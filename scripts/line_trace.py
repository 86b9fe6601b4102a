#!/usr/bin/env python3
"""Statements of shrinker_lab that no run reaches, found by a line trace.

Three sets of runs go in one process under ``sys.settrace``, which records
line events in the package's own modules only:

- every run of ``scripts/report_digest.py`` (its CLI commands and both
  experiment scripts);
- the acceptance gate, ``tests/test_acceptance.py``, under pytest;
- the jobs of ``perfbench/run.py --workload all --seed 1 --seconds 1``,
  each run and checked in-process as the benchmark runs and checks it.

Then each statement inside a function body (docstrings excluded) that no
run executed is printed as ``module.py:LINE [function] source``, and their
count last.  A statement is executed when a line event falls on one of its
own lines: all of a simple statement's, or a compound statement's header.
Each set's outcome goes to stderr, and the script exits 1 unless all three
succeeded: a failed run stops short, and what it did not reach only looks
dead.  Traced, the runs take about fifteen times as long as the digest alone
(21 s against 1.4 s on a 2-core host), so no CI step runs it:

    python3 scripts/line_trace.py
"""

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def trace_lines(call, package_dir):
    """``call()``'s result and the (path, line) of each line event it caused
    in the files under ``package_dir``."""
    prefix = os.path.join(os.path.abspath(package_dir), "")
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def scope(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(scope)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, executed


def _child_bodies(node):
    """The statement lists directly inside a statement: bodies, else and
    finally blocks, and each handler's or case's body."""
    for _, value in ast.iter_fields(node):
        if isinstance(value, list) and value:
            if isinstance(value[0], ast.stmt):
                yield value
            elif isinstance(value[0], (ast.excepthandler, ast.match_case)):
                yield from (item.body for item in value)


def function_statements(path):
    """(line, own lines, function, source) of each statement inside a function
    body of the module at ``path``, docstrings, ``global`` and ``nonlocal``
    excluded; a nested function or class is its own scope."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    source = text.splitlines()
    found = []

    def visit(body, scope, in_function):
        for k, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{node.name}" if scope else node.name
                visit(node.body, inner, not isinstance(node, ast.ClassDef))
                continue
            docstring = k == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str)
            children = list(_child_bodies(node))
            if in_function and not docstring and not isinstance(node, (ast.Global, ast.Nonlocal)):
                last = max(node.lineno, children[0][0].lineno - 1) if children else node.end_lineno
                found.append((node.lineno, range(node.lineno, last + 1), scope, source[node.lineno - 1].strip()))
            for child in children:
                visit(child, scope, in_function)

    visit(ast.parse(text, path).body, "", False)
    return found


def untraced(executed, package_dir):
    """``module.py:LINE [function] source`` for each function-body statement
    under ``package_dir`` on none of whose own lines a line event fell."""
    lines = []
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            path = os.path.join(os.path.abspath(package_dir), name)
            for line, own, scope, text in function_statements(path):
                if not any((path, k) in executed for k in own):
                    lines.append(f"{name}:{line} [{scope}] {text}")
    return lines


# each run returns (succeeded, outcome)
def run_digest():
    with contextlib.redirect_stdout(io.StringIO()):
        code = runpy.run_path(os.path.join(HERE, "report_digest.py"))["main"]([])
    return code == 0, f"exit {code}"


def run_gate():
    import pytest

    args = [os.path.join(ROOT, "tests", "test_acceptance.py"), "-q", "-p", "no:cacheprovider", "--rootdir", ROOT]
    with contextlib.redirect_stdout(io.StringIO()):
        code = int(pytest.main(args))
    return code == 0, f"exit {code}"


def run_perfbench():
    import checks
    import workloads

    statuses = []
    with tempfile.TemporaryDirectory() as out:
        for name, workload in workloads.WORKLOADS.items():
            for cycle in range(workload.run_cycles(1.0)):
                for job in workloads.cycle_jobs(name, 1, cycle):
                    statuses.append(checks.check(job, workloads.run_job(job, out)).status)
    failed = sum(s != "pass" for s in statuses)
    return failed == 0, f"{len(statuses)} jobs, {failed} not passed"


def main(argv=None):
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import shrinker_lab

    package = os.path.dirname(os.path.abspath(shrinker_lab.__file__))
    executed, succeeded = set(), True
    for label, run in (("digest", run_digest), ("gate", run_gate), ("perfbench", run_perfbench)):
        (ok, outcome), lines = trace_lines(run, package)
        executed |= lines
        succeeded &= ok
        print(f"{label}: {outcome}", file=sys.stderr)
    missed = untraced(executed, package)
    print("\n".join(missed))
    print(f"{len(missed)} statements in function bodies that no run executes")
    return 0 if succeeded else 1


if __name__ == "__main__":
    sys.exit(main())
