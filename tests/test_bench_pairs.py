"""tools/bench_pairs.py with the benchmark runs replaced by canned results."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _checkout(root: Path, name: str, source: str) -> Path:
    path = root / name
    (path / "src" / "mmwcluster").mkdir(parents=True)
    (path / "src" / "mmwcluster" / "engine.py").write_text(source)
    (path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7}))
    return path


def test_rounds_append_with_alternating_order(bench_pairs, tmp_path, monkeypatch):
    parent = _checkout(tmp_path, "parent", "slow = True\nwork = 2\n")
    change = _checkout(tmp_path, "change", "slow = False\n")
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        wall = 2.0 if checkout == parent else 1.0 + seed / 100.0
        return {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"setup_s": {"value": 0.5}, "wall_s": {"value": wall},
                            "peak_rss_mb": {"value": 90.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    for seed in (1, 11):
        argv = [str(parent), str(change), "--workload", "w", "--pairs", "3",
                "--seed", str(seed), "--out", str(out)]
        assert bench_pairs.main(argv) == 0

    # the run length comes from the parent's BENCHMARK.json
    assert [c[0] for c in calls[:6]] == ["parent", "change", "change", "parent",
                                         "parent", "change"]
    assert {c[3] for c in calls} == {7}
    rounds = json.loads(out.read_text())["workloads"]["w"]
    assert [r["first_seed"] for r in rounds] == [1, 11]
    assert rounds[0]["parent"]["source_sha256"] != rounds[0]["change"]["source_sha256"]
    # the package's line count, as `cat src/mmwcluster/*.py | wc -l` gives it
    assert [(r["parent"]["source_lines"], r["change"]["source_lines"])
            for r in rounds] == [(2, 1), (2, 1)]
    wall = rounds[1]["summary"]["wall_s"]
    assert wall["change"]["median"] == pytest.approx(1.12)
    assert (wall["change_wins"], wall["parent_wins"]) == (3, 0)
    assert rounds[1]["summary"]["setup_s"]["change_wins"] == 0


def test_failed_check_writes_nothing(bench_pairs, tmp_path, monkeypatch):
    parent = _checkout(tmp_path, "parent", "")
    change = _checkout(tmp_path, "change", "")

    def failing_run(checkout, workload, seed, seconds):
        raise RuntimeError("a check failed")

    monkeypatch.setattr(bench_pairs, "run_once", failing_run)
    out = tmp_path / "BENCH.json"
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert not out.exists()
