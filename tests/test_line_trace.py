import importlib.util
from pathlib import Path

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
