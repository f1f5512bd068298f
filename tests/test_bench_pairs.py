"""``scripts/bench_pairs.py``: the summary it writes and the pair order.

The script runs perfbench in two checkouts; here ``run_once`` is
replaced by a stub, so no benchmark process starts.
"""

import importlib.util
import json
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
    summary = bench_pairs.summarise(runs)
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
    tail = summary["metrics"]["op_s_tail"]
    assert tail["change"]["median"] == 0.5
    # a zero parent median has no ratio
    assert tail["change_over_parent"] is None


def test_main_alternates_the_first_side_and_writes_the_record(
    bench_pairs, monkeypatch, tmp_path
):
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return run(100.0 if checkout.name == "new" else 50.0, 0.1)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
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
    assert record["workloads"]["w1"]["ops"]["parent"] == {"attempted": 30, "failed": 0}
