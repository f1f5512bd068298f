"""Splits of every vertex build one split arena per edge table and split set.

The structure of a split game depends on the edges and the split set
alone, so ``_split_rest``, called on every vertex (as ``_fixpoint`` and
``split_top`` call it), stores the first split arena it builds on an
edge table under its split vertices and answers a later split of the
same set on the same edge table (a bumped fixpoint round, a
``shift_and_swap`` image) by relabelling the stored arena.  Each split
it returns must equal, field by field, the one ``_split_rest`` builds
from scratch on a fresh arena of the same content.
"""

from pgsolve import ParityGame, shift_and_swap, solve_constructive, split_top
from pgsolve import solver_constructive, transforms
from pgsolve.transforms import _split_rest
from games import cycle, ladder_game, random_corpus


def fresh_split(game: ParityGame, k: int):
    """The split of a new arena equal to ``game``, sharing no table."""
    fresh = ParityGame(game.owners, game.priorities, game.successors, game.names)
    return _split_rest(fresh, fresh.vertices, k)


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


def fixpoint_splits(games, monkeypatch):
    """Every (game, k, split) ``_fixpoint`` gets from ``_split_rest``."""
    splits = []

    def recording(game, keep, k=None):
        split = _split_rest(game, keep, k)
        if split is not None:
            splits.append((game, split.k, split))
        return split

    monkeypatch.setattr(solver_constructive, "_split_rest", recording)
    for game in games:
        solve_constructive(game)
    monkeypatch.undo()
    return splits


def test_cached_splits_match_fresh_splits(monkeypatch):
    games = [
        *random_corpus(150, 8),
        *(cycle(n) for n in range(2, 13)),
        *(ladder_game(m) for m in range(2, 11)),
    ]
    splits = fixpoint_splits(games, monkeypatch)
    for game, k, split in splits:
        assert_same_split(split, game, k)
    tables = {id(split.plus._edges) for _, _, split in splits}
    assert len(tables) < len(splits) // 2  # most of them were relabelled


def test_shift_and_swap_pair_relabels_one_split():
    game = cycle(6)
    shifted = shift_and_swap(game)
    first, second = split_top(game, 4), split_top(shifted, 5)
    assert second.plus._edges is first.plus._edges
    assert second.plus.owners != first.plus.owners
    assert_same_split(first, game, 4)
    assert_same_split(second, shifted, 5)


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
        splits = fixpoint_splits([game], monkeypatch)
        first: dict = {}  # (edge tables, split vertices) -> first split arena
        for arena, _, split in splits:
            key = (arena._edges, tuple(sorted(split.split_set)))
            if key in first:
                assert split.plus._edges is first[key]._edges
            else:
                first[key] = split.plus
        assert len(built) == len(first) < len(splits)
