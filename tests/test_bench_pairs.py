import functools
import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
END_TO_END = [
    {"name": "job_s.p50", "better": "lower", "bound": 0.25},
    {"name": "jobs_per_s", "better": "higher", "bound": 0.25},
]


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def record(seed, p50, per_s, ref_s=(0.007, 0.009), failed=0):
    """A run record as perfbench/run.py writes it, reduced to what the summary reads."""
    metrics = {"job_s.p50": {"value": p50, "unit": "s"}, "jobs_per_s": {"value": per_s, "unit": "1/s"}}
    return {"seed": seed, "result": {"correct": True, "attempted": 12, "failed": failed, "metrics": metrics},
            "jobs": [{"ref_s": r} for r in ref_s]}


def test_parse_seeds(bench_pairs):
    assert bench_pairs.parse_seeds("1-4") == [1, 2, 3, 4]
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_pairs.parse_seeds("5") == [5]


def test_summary_of_a_gain(bench_pairs):
    # the change is faster in 9 of 10 pairs and its median 20 % lower, far
    # past the parent's interquartile range
    parent_p50 = [0.0150, 0.0152, 0.0154, 0.0156, 0.0158, 0.0160, 0.0162, 0.0164, 0.0166, 0.0168]
    change_p50 = [0.0120, 0.0122, 0.0124, 0.0126, 0.0128, 0.0130, 0.0132, 0.0134, 0.0136, 0.0170]
    pairs = [(record(s, p, 1 / p, ref_s=(0.008, 0.010)), record(s, c, 1 / p, failed=s == 3))
             for s, p, c in zip(range(1, 11), parent_p50, change_p50)]
    out = bench_pairs.summarize(pairs, END_TO_END)
    assert out["pairs"] == 10 and out["seeds"] == list(range(1, 11))
    assert out["attempted"] == {"parent": [12] * 10, "change": [12] * 10}
    assert out["failed"]["parent"] == [0] * 10 and out["failed"]["change"][2] == 1
    assert out["ref_s"] == pytest.approx({"parent": 0.009, "change": 0.008})
    p50 = out["metrics"]["job_s.p50"]
    assert p50["parent"]["median"] == pytest.approx(0.0159) and p50["change"]["median"] == pytest.approx(0.0129)
    assert p50["parent"]["q1"] == pytest.approx(0.01545) and p50["parent"]["q3"] == pytest.approx(0.01635)
    assert p50["parent"]["runs"] == parent_p50
    assert p50["change_wins"] == 9 and p50["gain_holds"] and not p50["worse_than_bound"]
    assert p50["relative_change"] == pytest.approx(0.0129 / 0.0159 - 1)
    # equal throughput on both sides: no pair won, no gain, not worse
    per_s = out["metrics"]["jobs_per_s"]
    assert per_s["change_wins"] == 0 and not per_s["gain_holds"] and not per_s["worse_than_bound"]


def test_summary_of_a_regression(bench_pairs):
    # jobs_per_s 30 % lower: worse than its 25 % bound; 8 of 10 wins on
    # job_s.p50 fall short of nine tenths
    pairs = [(record(s, 0.02, 50.0), record(s, 0.019 if s < 8 else 0.021, 35.0)) for s in range(10)]
    out = bench_pairs.summarize(pairs, END_TO_END)
    assert out["metrics"]["job_s.p50"]["change_wins"] == 8 and not out["metrics"]["job_s.p50"]["gain_holds"]
    assert out["metrics"]["jobs_per_s"]["worse_than_bound"]
    assert out["metrics"]["jobs_per_s"]["change"] == {"median": 35.0, "q1": 35.0, "q3": 35.0, "runs": [35.0] * 10}


def test_summary_of_one_pair(bench_pairs):
    out = bench_pairs.summarize([(record(1, 0.02, 50.0), record(1, 0.01, 100.0))], END_TO_END)
    assert out["metrics"]["job_s.p50"]["parent"] == {"median": 0.02, "q1": 0.02, "q3": 0.02, "runs": [0.02]}
    assert out["metrics"]["jobs_per_s"]["change_wins"] == 1 and out["metrics"]["jobs_per_s"]["gain_holds"]


def test_setup_probe_summary(bench_pairs):
    # each side keeps its best probe and every probe, in the order run
    parent, change = [0.91, 0.88, 0.95, 0.90, 0.89, 0.93], [0.87, 0.92, 0.86, 0.94, 0.90, 0.88]
    out = bench_pairs.probe_summary({"parent": parent, "change": change})
    assert out == {"parent": {"best": 0.88, "runs": parent}, "change": {"best": 0.86, "runs": change}}


def test_the_change_is_exported_as_it_is_on_disk(bench_pairs, tmp_path):
    # tracked files with their uncommitted edits and untracked files that
    # .gitignore does not exclude; one changed byte changes the tree hash
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "a.py").write_text("A = 1\n")
    (repo / "gone.py").write_text("")
    (repo / ".gitignore").write_text("/ignored/\n")
    git = functools.partial(subprocess.run, cwd=repo, check=True, capture_output=True)
    git(["git", "init", "-q"])
    git(["git", "add", "-A"])
    git(["git", "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "seed"])
    (repo / "src" / "a.py").write_text("A = 2\n")
    (repo / "src" / "new.py").write_text("B = 3\n")
    (repo / "gone.py").unlink()
    (repo / "ignored").mkdir()
    (repo / "ignored" / "run.json").write_text("{}")

    first, second = tmp_path / "first", tmp_path / "second"
    for dest in (first, second):
        dest.mkdir()
    digest = bench_pairs.export_checkout(repo, first)
    files = sorted(str(p.relative_to(first)) for p in first.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/a.py", "src/new.py"]
    assert (first / "src" / "a.py").read_text() == "A = 2\n"
    assert digest == bench_pairs.tree_hash(first, files) and len(digest) == 64

    (repo / "src" / "new.py").write_text("B = 4\n")
    assert bench_pairs.export_checkout(repo, second) != digest
