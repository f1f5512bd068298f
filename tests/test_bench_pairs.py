"""``scripts/bench_pairs.py``: the summary it writes and the pair order.

The script runs perfbench in two checkouts; here ``run_once``, or the
``subprocess.run`` it calls, is replaced by a stub, so no benchmark
process starts.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(ops_per_s, tail, attempted=10, failed=0):
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_s_tail": {"value": tail, "unit": "s"},
        },
    }


def test_summarise_medians_extremes_ratio_and_ops(bench_pairs):
    runs = {
        "parent": [run(10, 0.0, 12), run(30, 0.0, 8), run(20, 0.0, 10, 1)],
        "change": [run(40, 0.5, 20), run(20, 0.25, 11), run(25, 1.0, 9, 2)],
    }
    summary = bench_pairs.summarise(runs, {"ops_per_s": "higher"})
    assert summary["pairs"] == 3
    assert summary["ops"] == {
        "parent": {"attempted": 30, "failed": 1},
        "change": {"attempted": 40, "failed": 2},
    }
    ops = summary["metrics"]["ops_per_s"]
    assert ops["unit"] == "1/s"
    assert ops["parent"] == {"median": 20, "min": 10, "max": 30, "runs": [10, 30, 20]}
    assert ops["change"] == {"median": 25, "min": 20, "max": 40, "runs": [40, 20, 25]}
    assert ops["change_over_parent"] == pytest.approx(1.25)
    assert ops["change_wins"] == 2
    tail = summary["metrics"]["op_s_tail"]
    assert tail["change"]["median"] == 0.5
    # a zero parent median has no ratio, a metric without a direction no wins
    assert tail["change_over_parent"] is None
    assert tail["change_wins"] is None
    lower = bench_pairs.summarise(runs, {"op_s_tail": "lower"})["metrics"]["op_s_tail"]
    assert lower["change_wins"] == 0


def test_wins_follow_the_direction_and_ties_count_for_neither(bench_pairs):
    parent, change = [1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]
    assert bench_pairs.wins(parent, change, "higher") == 1
    assert bench_pairs.wins(parent, change, "lower") == 1
    assert bench_pairs.wins(parent, [2.0, 3.0, 4.0, 5.0], "higher") == 4


def test_main_alternates_the_first_side_and_writes_the_record(
    bench_pairs, monkeypatch, tmp_path, capsys
):
    calls = []
    caches = {}

    def fake_run_once(checkout, workload, seed, seconds, pycache):
        calls.append((checkout.name, workload, seed, seconds))
        caches.setdefault(checkout.name, set()).add(pycache)
        assert pycache.parent.is_dir()
        return run(100.0 if checkout.name == "new" else 50.0, 0.1)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    # the parent's benchmark gives the directions
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher"},
                           {"name": "op_s_tail", "better": "lower"}]}
    (tmp_path / "old" / "BENCHMARK.json").write_text(json.dumps(spec))
    argv = ["old", "new", "--pr", "9", "--workloads", "w1,w2",
            "--seeds", "1", "2", "3", "--seconds", "0.5"]
    assert bench_pairs.main(argv) == 0
    firsts = [calls[i][0] for i in range(0, len(calls), 2)]
    assert firsts == ["old", "new", "old", "new", "old", "new"]
    assert {c[1:] for c in calls[:6]} == {("w1", s, 0.5) for s in (1, 2, 3)}
    for i in range(0, len(calls), 2):
        assert {calls[i][0], calls[i + 1][0]} == {"old", "new"}
        assert calls[i][1:] == calls[i + 1][1:]
    record = json.loads((tmp_path / "BENCH_9.json").read_text())
    assert record["seeds"] == [1, 2, 3]
    assert set(record["workloads"]) == {"w1", "w2"}
    ops = record["workloads"]["w2"]["metrics"]["ops_per_s"]
    assert ops["change_over_parent"] == 2.0
    assert ops["change_wins"] == 3
    assert record["workloads"]["w2"]["metrics"]["op_s_tail"]["change_wins"] == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "w1: ops_per_s 2.000 (3/3 won), op_s_tail 1.000 (0/3 won)",
        "w2: ops_per_s 2.000 (3/3 won), op_s_tail 1.000 (0/3 won)",
    ]
    assert record["workloads"]["w1"]["ops"]["parent"] == {"attempted": 30, "failed": 0}
    # one bytecode cache per side, the same for all its runs, removed after
    assert all(len(paths) == 1 for paths in caches.values())
    (old_cache,), (new_cache,) = caches["old"], caches["new"]
    assert old_cache != new_cache and old_cache.parent == new_cache.parent
    assert not old_cache.parent.exists()


def test_run_once_uses_its_own_bytecode_cache(bench_pairs, monkeypatch, tmp_path):
    seen = {}

    def fake_run(cmd, cwd, env, **kwargs):
        seen.update(cmd=cmd, cwd=cwd, env=env)
        line = json.dumps(run(1.0, 0.1))
        return subprocess.CompletedProcess(cmd, 0, stdout=f"log\n{line}\n", stderr="")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", "/elsewhere")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    result = bench_pairs.run_once(tmp_path, "w1", 3, 0.5, tmp_path / "cache")
    assert result["metrics"]["ops_per_s"]["value"] == 1.0
    assert seen["cwd"] == tmp_path
    assert seen["cmd"][1:] == ["perfbench/run.py", "--workload", "w1", "--seed", "3",
                              "--seconds", "0.5", "--trace", "0"]
    assert seen["env"]["PYTHONPYCACHEPREFIX"] == str(tmp_path / "cache")
    assert "PYTHONDONTWRITEBYTECODE" not in seen["env"]
