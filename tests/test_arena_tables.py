"""Per-arena vertex tables and the Player coercions around them.

``ParityGame`` computes its relevant vertices and priorities and its
distinct predecessors once per arena.  Each table must equal a
from-scratch computation, on generated arenas and on the arenas the
transforms derive from them.
"""

import operator
from dataclasses import replace

import pytest

from pgsolve import (
    CertificationError,
    GameError,
    ParityGame,
    PartialSolution,
    Player,
    Strategy,
    restrict,
    shift_and_swap,
    solve_constructive,
    split_top,
)
from pgsolve.game import _relevant_vertices, relevant_priorities
from pgsolve.solver_constructive import _Depth, fixpoint_solve, preprocess
from pgsolve import solver_constructive
from pgsolve.transforms import RestrictionError
from games import cycle, ladder_game, random_corpus, scratch_class
from reference_fixpoint import bumped


def assert_tables(game: ParityGame):
    classes = [scratch_class(game, v) for v in game.vertices]
    assert _relevant_vertices(game) == [
        v for v in game.vertices if classes[v] == "relevant"
    ]
    assert relevant_priorities(game) == frozenset(
        game.priorities[v]
        for v in game.vertices
        if classes[v] == "relevant"
    )
    assert game._predecessors == tuple(
        tuple(w for w in game.vertices if v in game.successors[w])
        for v in game.vertices
    )


def derived(game: ParityGame):
    """Arenas the solvers build from ``game``."""
    yield shift_and_swap(game)
    keep = [v for v in game.vertices if v % 3]
    try:
        if keep:  # an empty restriction is no game
            yield restrict(game, keep).game
    except RestrictionError:
        pass
    relevant = relevant_priorities(game)
    if relevant:
        split = split_top(game, max(relevant))
        yield split.plus
        bumped_plus = replace(split.plus, priorities=bumped(split, split.split_set))
        assert bumped_plus.priorities != split.plus.priorities
        yield bumped_plus


DUPLICATES = ParityGame.from_vertices(
    [(0, 1, (0, 0)), (1, 2, (0, 1, 1, 0)), (0, 3, (1, 1)), (1, 4, (2, 3, 2))]
)


def test_tables_match_scratch_computation():
    for game in [DUPLICATES, *random_corpus(200, 10)]:
        assert_tables(game)
        for arena in derived(game):
            assert_tables(arena)


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


# Tables that depend on the edges alone.  Every arena computes its own,
# lazily, at most once; arenas that only relabel owners or priorities
# keep their parent's successors and names.
EDGE_TABLES = ("_choices", "_predecessors", "_mixed_loops")


def assert_edge_tables(game: ParityGame):
    assert_tables(game)
    assert game._choices == tuple(
        tuple(dict.fromkeys(succ)) for succ in game.successors
    )
    assert game._mixed_loops == tuple(
        v
        for v in game.vertices
        if v in game.successors[v] and set(game.successors[v]) != {v}
    )


def assert_keeps_edges(derived: ParityGame, parent: ParityGame):
    assert derived.successors is parent.successors
    assert derived.names is parent.names
    for table in EDGE_TABLES:
        assert getattr(derived, table) == getattr(parent, table), table
    assert_edge_tables(derived)


def test_shift_and_swap_shares_the_edge_tables():
    for game in [DUPLICATES, *random_corpus(120, 10)]:
        assert_keeps_edges(shift_and_swap(game), game)


def test_sharing_does_not_depend_on_which_arena_asks_first():
    # shift_and_swap computes no table, on its argument or its result
    for game in random_corpus(40, 10):
        fresh = ParityGame(game.owners, game.priorities, game.successors)
        shifted = shift_and_swap(fresh)
        twice = shift_and_swap(shifted)
        for arena in (fresh, shifted, twice):
            assert not set(EDGE_TABLES) & set(vars(arena))
        assert twice.owners == fresh.owners
        assert_keeps_edges(twice, fresh)
        assert_keeps_edges(shifted, fresh)


def test_debug_relabelled_arenas_compute_no_edge_table(monkeypatch):
    # Debug mode relabels the stack's arenas for its per-round checks; no
    # such arena reads its edge tables, so none is worth sharing with a
    # parent.  Should a later check read them, sharing may pay again.
    built: list[ParityGame] = []
    real_relabelled = ParityGame._relabelled

    def recording(self, *args, **kwargs):
        built.append(real_relabelled(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ParityGame, "_relabelled", recording)
    for game in (*random_corpus(30, 8), cycle(10), ladder_game(6)):
        solve_constructive(game, debug=True)
    assert built
    for arena in built:
        assert not {"_choices", "_predecessors"} & set(vars(arena))


def test_bumped_split_games_share_the_split_games_tables():
    for game in random_corpus(60, 10):
        relevant = relevant_priorities(game)
        if not relevant:
            continue
        split = split_top(game, max(relevant))
        bumped_plus = split.plus._relabelled(priorities=bumped(split, split.split_set))
        assert bumped_plus == replace(split.plus, priorities=bumped(split, split.split_set))
        assert_keeps_edges(bumped_plus, split.plus)


def test_fixpoint_rounds_reuse_the_split_games_tables(monkeypatch):
    # a round writes its bumps into the call's one stack, whose tables
    # every visit of every depth reads in place
    visits: list = []
    real_fixpoint = solver_constructive._fixpoint

    def recording_fixpoint(stack, debug, depth, history):
        tables = (stack.owners, stack._choices, stack._predecessors)
        # a visit reads what the depths above write: the first n slots of
        # a split depth, the whole stack at the bottom
        n = depth.n if depth.__class__ is _Depth else stack.n
        visits.append((stack, depth, tuple(stack.priorities[:n]), tables))
        return real_fixpoint(stack, debug, depth, history)

    monkeypatch.setattr(solver_constructive, "_fixpoint", recording_fixpoint)
    bumped = 0
    for game in (cycle(7), ladder_game(3)):
        visits.clear()
        solve_constructive(game)
        first = visits[0][0]
        tables = (first.owners, first._choices, first._predecessors)
        seen: dict = {}  # the priorities each depth first read, by its depth
        for stack, depth, priorities, held in visits:
            assert stack is first
            assert all(map(operator.is_, held, tables))
            bumped += seen.setdefault(id(depth), priorities) != priorities
    assert bumped > 0


def test_restrict_to_every_vertex_is_the_game_itself():
    for game in [DUPLICATES, *random_corpus(60, 10)]:
        sub = restrict(game, reversed(game.vertices))
        assert sub.game is game
        assert sub.to_old == tuple(game.vertices)
        assert sub.to_new == {v: v for v in game.vertices}


def test_restrict_still_rejects_out_of_range_vertices():
    for keep in ([0, 4], [-1, 0, 1, 2, 3], [0, 1, 2, 3, 4]):
        with pytest.raises(GameError, match="out of range"):
            restrict(DUPLICATES, keep)


def test_relabel_shares_the_edges_and_equals_its_rebuild():
    # relabelling checks nothing: every caller passes labels derived
    # from a valid arena, so the test passes valid ones
    game = DUPLICATES
    owners = (Player.P1, Player.P1, Player.P0, Player.P0)
    relabelled = game._relabelled(owners=owners, priorities=(5, 6, 7, 8))
    assert_keeps_edges(relabelled, game)
    assert relabelled == ParityGame(owners, (5, 6, 7, 8), game.successors, game.names)


def test_fixpoint_solve_still_rejects_a_mixed_self_loop():
    game = ParityGame.from_vertices(
        [(0, 1, (1,)), (0, 2, (2,)), (1, 3, (0, 2, 2)), (0, 0, (2,))]
    )
    assert game._mixed_loops == (2,)
    with pytest.raises(GameError, match="vertex 2 has a self-loop"):
        fixpoint_solve(game)
    assert preprocess(game).reduced._mixed_loops == ()


def test_preprocess_still_guards_its_own_output(monkeypatch):
    game = ParityGame.from_vertices([(0, 1, (0, 1)), (1, 2, (1,))])
    monkeypatch.setattr(
        solver_constructive, "_normalized", lambda g, *wins: (g, frozenset())
    )
    with pytest.raises(CertificationError, match="vertex 0 kept a self-loop"):
        preprocess(game)
