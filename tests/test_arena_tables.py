"""Per-arena vertex tables and the Player coercions around them.

``ParityGame`` computes the class of every vertex, its relevant
priorities and its distinct predecessors once per arena.  Each table
must equal a from-scratch computation, on generated arenas and on the
arenas the transforms derive from them.
"""

from dataclasses import replace

import pytest

from pgsolve import (
    ParityGame,
    PartialSolution,
    Player,
    Strategy,
    VertexClass,
    bump_priorities,
    classify,
    relevant_priorities,
    restrict,
    shift_and_swap,
    split_top,
)
from pgsolve.transforms import RestrictionError
from games import random_corpus


def scratch_class(game: ParityGame, v: int) -> VertexClass:
    targets = set(game.successors[v])
    if targets == {v}:
        return VertexClass.ABSORBING
    if not any(v in succ for succ in game.successors):
        return VertexClass.VANISHING
    return VertexClass.RELEVANT


def assert_tables(game: ParityGame):
    classes = [scratch_class(game, v) for v in game.vertices]
    assert list(game._classes) == classes
    assert [classify(game, v) for v in game.vertices] == classes
    assert relevant_priorities(game) == frozenset(
        game.priorities[v]
        for v in game.vertices
        if classes[v] is VertexClass.RELEVANT
    )
    assert game._predecessors == tuple(
        tuple(w for w in game.vertices if v in game.successors[w])
        for v in game.vertices
    )


def derived(game: ParityGame):
    """Arenas the solvers build from ``game``."""
    yield shift_and_swap(game)
    try:
        yield restrict(game, [v for v in game.vertices if v % 3]).game
    except RestrictionError:
        pass
    relevant = relevant_priorities(game)
    if relevant:
        split = split_top(game, max(relevant))
        yield split.plus
        bumped = replace(
            split.plus, priorities=bump_priorities(split, split.split_set)
        )
        assert bumped.priorities != split.plus.priorities
        yield bumped


DUPLICATES = ParityGame.from_vertices(
    [(0, 1, (0, 0)), (1, 2, (0, 1, 1, 0)), (0, 3, (1, 1)), (1, 4, (2, 3, 2))]
)


def test_tables_match_scratch_computation():
    for game in [DUPLICATES, *random_corpus(200, 10)]:
        assert_tables(game)
        for arena in derived(game):
            assert_tables(arena)


def test_classify_rejects_a_negative_vertex():
    # The class table is a tuple, so v = -1 would index it silently.
    with pytest.raises(IndexError):
        classify(DUPLICATES, -1)


def test_opponent_is_the_other_member():
    assert Player.P0.opponent is Player.P1
    assert Player.P1.opponent is Player.P0


def test_int_owners_come_back_as_players():
    game = ParityGame.from_vertices([(0, 1, (1,)), (1, 2, (0,)), (True, 0, (0,))])
    assert all(type(o) is Player for o in game.owners)
    assert game.owners == (Player.P0, Player.P1, Player.P1)
    assert shift_and_swap(game).owners == (Player.P1, Player.P0, Player.P0)


def test_invalid_owner_still_raises():
    with pytest.raises(ValueError):
        ParityGame.from_vertices([(2, 1, (0,))])
    with pytest.raises(ValueError):
        ParityGame.from_vertices([(-1, 1, (0,))])


def test_strategy_and_partial_coerce_players():
    strategy = Strategy(1, {})
    assert strategy.player is Player.P1
    with pytest.raises(ValueError):
        Strategy(2, {})
    partial = PartialSolution(
        frozenset({0}), frozenset({1}), Strategy(0, {}), strategy
    )
    assert partial.region(0) == {0} and partial.region(1) == {1}
    assert partial.strategy(1) is strategy
    with pytest.raises(ValueError):
        partial.region(2)
    with pytest.raises(ValueError):
        partial.strategy(2)
