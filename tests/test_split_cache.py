"""The fixpoint splits each recursion depth once per call.

Within one ``solve_constructive`` call every visit of a given recursion
depth of ``_fixpoint`` has the same edges and split set: a bump changes
only the priorities of absorbing copies.  So ``_fixpoint`` builds the
split of a depth once, with ``split_top`` at the top relevant priority
of the depth's first arena, and hands each later visit only its
priority tuple.  Read with those priorities, the depth's split must
equal, field by field, the one ``split_top`` builds from scratch on a
fresh arena of the same content; and no split outlives the call on the
caller's game.
"""

from pgsolve import ParityGame, Player, gen_random, solve_constructive, solve_short, split_top
from pgsolve import solver_constructive, transforms
from pgsolve.game import relevant_priorities
from pgsolve.solver_constructive import _Depth
from games import cycle, ladder_game, random_corpus

EDGE_TABLES = {"successors", "choices", "predecessors", "mixed_loops"}


def fresh_split(game: ParityGame, k: int | None):
    """The split of a new arena equal to ``game``, sharing no table, at k
    or, when k is None, at the top relevant priority."""
    fresh = ParityGame(game.owners, game.priorities, game.successors, game.names)
    return split_top(fresh, max(relevant_priorities(fresh)) if k is None else k)


def assert_same_split(split, game: ParityGame, k: int):
    expected = fresh_split(game, k)
    assert split.base is game
    assert split.k == expected.k == k
    assert split.split_set == expected.split_set
    assert split.copy_of == expected.copy_of
    assert split.copy_for == expected.copy_for
    assert split.plus.successors == expected.plus.successors
    assert split.plus.owners == expected.plus.owners
    assert split.plus.priorities == expected.plus.priorities
    assert split.plus.names == expected.plus.names


def assert_same_visit(arena: ParityGame, priorities, depth) -> None:
    """The split ``depth`` holds, read with ``priorities``, is the fresh
    split of the arena those priorities relabel."""
    split = depth.split
    assert arena is split.base  # every visit is handed the first arena
    game = arena._relabelled(priorities=priorities)
    expected = fresh_split(game, None)
    k = depth.k
    assert split.k == expected.k == k
    assert split.split_set == expected.split_set
    assert depth.order == tuple(sorted(expected.split_set))
    assert depth.loser is Player(1 - k % 2)
    assert depth.n == game.n and depth.vertices == frozenset(game.vertices)
    assert split.copy_of == expected.copy_of
    assert split.copy_for == expected.copy_for
    assert split.plus.successors == expected.plus.successors
    assert split.plus.owners == expected.plus.owners
    assert (*priorities, *[k] * len(depth.order)) == expected.plus.priorities
    assert split.plus.names == expected.plus.names


def fixpoint_visits(games, monkeypatch):
    """Every (arena, priorities, depth) of a visit ``_fixpoint`` makes to
    a depth with a split, and every split ``split_top`` built for it."""
    visits, built = [], []
    real_fixpoint = solver_constructive._fixpoint

    def building(game, k):
        built.append(split_top(game, k))
        return built[-1]

    def visiting(arena, priorities, debug, tower, history_out):
        answer = real_fixpoint(arena, priorities, debug, tower, history_out)
        if tower[0].__class__ is _Depth:
            visits.append((arena, priorities, tower[0]))
        return answer

    monkeypatch.setattr(solver_constructive, "split_top", building)
    monkeypatch.setattr(solver_constructive, "_fixpoint", visiting)
    for game in games:
        solve_constructive(game)
    monkeypatch.undo()
    return visits, built


def test_cached_splits_match_fresh_splits(monkeypatch):
    games = [
        *random_corpus(150, 8),
        *(cycle(n) for n in range(2, 13)),
        *(ladder_game(m) for m in range(2, 11)),
    ]
    visits, built = fixpoint_visits(games, monkeypatch)
    for arena, priorities, depth in visits:
        assert_same_visit(arena, priorities, depth)
    assert {id(depth.split) for _, _, depth in visits} == set(map(id, built))
    assert len(built) < len(visits) // 2  # most visits reused their depth's split


def test_same_top_priority_on_other_vertices_is_a_new_split():
    game = cycle(6)
    ends = game._relabelled(priorities=(0, 1, 2, 3, 4, 4))
    starts = game._relabelled(priorities=(4, 1, 2, 3, 4, 0))
    assert ends._edges is starts._edges
    first, second = split_top(ends, 4), split_top(starts, 4)
    assert first.split_set == {4, 5} and second.split_set == {0, 4}
    assert second.plus._edges is not first.plus._edges
    assert_same_split(first, ends, 4)
    assert_same_split(second, starts, 4)


def test_one_split_arena_per_edge_table_and_split_set(monkeypatch):
    for game in (cycle(10), ladder_game(14)):
        built = []
        real_induced = transforms._induced

        def counting(*args):
            built.append(real_induced(*args))
            return built[-1]

        monkeypatch.setattr(transforms, "_induced", counting)
        visits, _ = fixpoint_visits([game], monkeypatch)
        first: dict = {}  # (edge tables, split vertices) -> first split arena
        for arena, _, depth in visits:
            key = (arena._edges, depth.order)
            if key in first:
                assert depth.split.plus._edges is first[key]._edges
            else:
                first[key] = depth.split.plus
        assert len(built) == len(first) < len(visits)


def test_no_split_outlives_a_call():
    short, constructive, split = gen_random(400, 8, 3, 1), cycle(10), cycle(6)
    assert not constructive._mixed_loops
    solve_short(short)
    solve_constructive(constructive)
    split_top(split, 4)
    for game in (short, constructive, split):
        assert set(vars(game._edges)) <= EDGE_TABLES
