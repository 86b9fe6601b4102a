import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_moves.py"

BASE = """exit 0  verify-quadratic --n 3
  aaaa  verify-quadratic.json
exit 0  legendre-check --grid-step 0.02
  bbbb  legendre-check.json
"""


@pytest.fixture
def check_moves():
    spec = importlib.util.spec_from_file_location("check_moves", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture
def compare(tmp_path, check_moves, monkeypatch, capsys):
    """Exit code and printed faults of ``check_moves.py digest`` on two
    digests, with the given keys listed as moves."""

    def run(base, head, *moves):
        (tmp_path / "moves.txt").write_text("# moves\n" + "".join(f"{key}  # why\n" for key in moves))
        monkeypatch.setattr(check_moves, "MOVES", str(tmp_path / "moves.txt"))
        (tmp_path / "base.txt").write_text(base)
        (tmp_path / "head.txt").write_text(head)
        code = check_moves.main(["digest", str(tmp_path / "base.txt"), str(tmp_path / "head.txt")])
        return code, capsys.readouterr().out.splitlines()

    return run


MOVED = BASE.replace("bbbb", "cccc")
KEY = "legendre-check --grid-step 0.02 :: legendre-check.json"


def test_clean_comparison_passes(compare):
    assert compare(BASE, BASE) == (0, [])


def test_listed_move_passes(compare):
    assert compare(BASE, MOVED, KEY) == (0, [])


def test_unlisted_move_fails(compare):
    assert compare(BASE, MOVED) == (1, [f"moved, not listed: {KEY}"])


def test_unlisted_status_move_fails(compare):
    head = BASE.replace("exit 0  legendre-check", "exit 2  legendre-check")
    assert compare(BASE, head) == (1, ["moved, not listed: legendre-check --grid-step 0.02"])


def test_listed_key_that_did_not_move_fails(compare):
    assert compare(BASE, BASE, KEY) == (1, [f"listed, not moved: {KEY}"])


def test_listed_key_that_neither_side_produced_fails(compare):
    key = "shoot --u0 1 :: radial-profile.csv"
    code, out = compare(BASE, MOVED, KEY, key)
    assert (code, out) == (1, [f"listed, not produced: {key}"])


def test_csv_mode_ignores_digest_keys(tmp_path, check_moves, monkeypatch, capsys):
    (tmp_path / "moves.txt").write_text(f"{KEY}\nrigidity_events.csv\n")
    monkeypatch.setattr(check_moves, "MOVES", str(tmp_path / "moves.txt"))
    for side, events in (("base", b"r\r\n1\r\n"), ("head", b"r\r\n2\r\n")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "rigidity_events.csv").write_bytes(events)
        (tmp_path / side / "tolerance_scaling.csv").write_bytes(b"tol\r\n")
    argv = ["csv", str(tmp_path / "base"), str(tmp_path / "head"), "rigidity_events.csv", "tolerance_scaling.csv"]
    assert check_moves.main(argv) == 0
    assert capsys.readouterr().out == ""
    (tmp_path / "head" / "tolerance_scaling.csv").write_bytes(b"tol\r\n1\r\n")
    assert check_moves.main(argv) == 1
    assert capsys.readouterr().out.splitlines() == ["moved, not listed: tolerance_scaling.csv"]
