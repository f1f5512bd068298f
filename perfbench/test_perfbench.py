"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
from pathlib import Path

import pytest

import check
import run
import speed
import tracer
import workloads
from pgsolve import ParityGame, Solution, merge_strategy, solve_short, split_top

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_tiny_run_has_no_failures(workload):
    result = run.run_workload(workload, seed=1, seconds=0.05, trace=False, scale="tiny")
    assert result["correct"], result["reasons"]
    assert result["failed"] == 0 and result["attempted"] > 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result = run.run_workload(workload, seed=1, seconds=0.05, trace=True, scale="tiny")
    assert result["correct"], result["reasons"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])


def chain_game():
    """u(pr 3) -> v(pr 4) -> w(pr 1, self-loop), all owned by P0.

    Naive splitting parks u on v's copy and calls it a P0 win; in the
    real game every play ends in priority 1, so P1 wins everywhere.
    """
    return ParityGame.from_vertices([(0, 3, (1,), "u"), (0, 4, (2,), "v"), (0, 1, (2,), "w")])


def naive_split_solution(game):
    """Split the top priority, solve, map back without any bumping."""
    split = split_top(game, max(game.priorities))
    inner = solve_short(split.plus)
    n = game.n
    return Solution(
        frozenset(v for v in inner.w0 if v < n),
        frozenset(v for v in inner.w1 if v < n),
        merge_strategy(split, inner.sigma),
        merge_strategy(split, inner.tau),
    )


def test_check_rejects_the_naive_split_of_the_chain_game():
    game = chain_game()
    naive = naive_split_solution(game)
    assert naive.w0 == {0}  # the bump trap: u parks on v's copy
    assert check.check_solution(game, naive) is not None
    assert check.check_solution(game, solve_short(game)) is None


def test_check_lasso_rejects_a_cycle_the_strategy_never_takes():
    game = workloads.cycle(4)
    # P1 owns vertex 1 and 3; every move is forced, so the only cycle is
    # 0-1-2-3 with top priority 3, which refutes a P0 claim but not P1's.
    assert check.check_lasso(game, 0, {0}, {}, [], [0, 1, 2, 3], 3) is None
    assert check.check_lasso(game, 1, {1}, {}, [], [1, 2, 3, 0], 3) is not None
    assert check.check_lasso(game, 0, {0}, {}, [], [0, 2], 2) is not None


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_inputs_follow_the_seed(workload, tmp_path):
    def inputs(seed, name):
        feed = workloads.make_feed(workload, seed, "tiny", tmp_path / name)
        try:
            return feed.inputs(3)
        finally:
            feed.close()

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first != inputs(8, "c")


@pytest.mark.parametrize("workload", ("short_random", "short_deep", "constructive"))
def test_warm_up_is_the_same_for_every_seed(workload):
    first, second = (
        workloads.make_feed(workload, seed, "tiny", Path("unused")).warm_up() for seed in (7, 8)
    )
    assert first.label == second.label
    assert first.call() == second.call()


def test_tracer_restores_every_patched_name():
    before = tracer.bindings()
    feed = workloads.make_feed("constructive", 1, "tiny", Path("unused"))
    with tracer.Tracer() as spans:
        during = tracer.bindings()
        for op in feed.round(0):
            with spans.op(0, op.label):
                assert op.check(op.call()) is None
    after = tracer.bindings()
    changed = {key for key in before if during.get(key) is not before[key]}
    assert ("pgsolve.solver_short", "solve_short") in changed
    assert ("pgsolve.game", "ParityGame.__post_init__") in changed
    assert spans.calls()["solver_constructive.compose_tau"] > 0
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_speed_scales_by_the_reference_jobs_around_a_span(monkeypatch):
    ref_times = iter([0.02, 0.03, 0.01])
    monkeypatch.setattr(speed, "reference_s", lambda: next(ref_times))
    clock = speed.Speed()
    # At twice and then at 1.5 times the reference time: the spans took
    # 2.5 and 2 times as long as at the reference speed.
    assert clock.scale(1.0) == pytest.approx(1.0 / 2.5)
    assert clock.scale(1.0) == pytest.approx(1.0 / 2)
    assert clock.factor() == pytest.approx(0.9 / 2)
