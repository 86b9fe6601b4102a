import importlib.util
import sys
from pathlib import Path

import pytest

from shrinker_lab import cli


def _line_trace():
    path = Path(__file__).resolve().parents[1] / "scripts" / "line_trace.py"
    spec = importlib.util.spec_from_file_location("line_trace", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_a_defect_run_leaves_the_dimension_refusal_untraced(tmp_path):
    # one in-process defect sweep at the default n = 2: the --n refusal is a
    # statement no line event reaches, and every statement of cmd_defect runs
    script = _line_trace()
    package = Path(cli.__file__).resolve().parent
    code, executed = script.trace_lines(lambda: cli.main(["defect", "--trials", "3", "--out", str(tmp_path)]), package)
    assert code == 0
    missed = script.untraced(executed, package)
    assert len([line for line in missed if line.startswith("cli.py:")
                and '[_check_sizes] raise UsageError(f"--n {args.n} is above' in line]) == 1
    body = [s for s in script.function_statements(str(package / "cli.py")) if s[2] == "cmd_defect"]
    assert body and not [line for line in missed if "[cmd_defect]" in line]


@pytest.mark.parametrize("failing", [None, "digest", "gate", "perfbench"])
def test_exits_1_unless_every_run_succeeded(failing, monkeypatch, capsys):
    # the runs stubbed: the untraced list is still printed, then a failed run gives exit 1
    script = _line_trace()
    monkeypatch.setattr(sys, "path", list(sys.path))
    for label in ("digest", "gate", "perfbench"):
        monkeypatch.setattr(script, f"run_{label}", lambda ok=label != failing: (ok, "stubbed"))
    assert script.main([]) == (0 if failing is None else 1)
    assert capsys.readouterr().out.endswith("statements in function bodies that no run executes\n")
