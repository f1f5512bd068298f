"""The fixpoint splits each recursion depth once per call, in place.

Within one ``solve_constructive`` call every visit of a given recursion
depth of ``_fixpoint`` has the same edges and split set: a bump changes
only the priorities of absorbing copies.  So ``_tower`` splits every
depth once, top down, on the call's one stack, before the first round,
at the top relevant priority the depth's first visit reads, and leaves
the splits there; each visit reads its priorities from that stack.  The
stack after a depth's split must equal, field by field, the split
``split_top`` builds from scratch on a fresh copy of the depth's first
arena, and every visit's priorities must split that arena the same way;
and no split outlives the call on the caller's game.
"""

import gc
import tracemalloc

from pgsolve import ParityGame, Player, gen_random, solve_constructive, solve_short, split_top
from pgsolve import solver_constructive, transforms
from pgsolve.game import relevant_priorities
from pgsolve.solver_constructive import _Bottom, _Depth
from pgsolve.transforms import _Stack
from games import cycle, ladder_game, random_corpus

# An arena's fields and the edge tables it may compute; no solve stores
# anything else on its caller's game.
ARENA_ATTRIBUTES = {
    "owners", "priorities", "successors", "names", "_choices", "_predecessors", "_mixed_loops"
}


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


def assert_same_in_place_split(record) -> None:
    """The stack after a depth's split is the fresh split of the stack
    before it, read with the priorities of the depth's first visit."""
    priorities, before, split, k, after = record
    assert before.priorities == priorities  # the depth's first visit reads the split's priorities
    expected = fresh_split(before, None)
    assert expected.k == k
    assert split == tuple(sorted(expected.split_set))
    assert after.n == expected.plus.n == before.n + len(split)
    assert after.owners == expected.plus.owners
    assert after.priorities == expected.plus.priorities
    assert after.successors == expected.plus._choices
    assert after._predecessors == expected.plus._predecessors
    assert dict(zip(range(before.n, after.n), split)) == expected.copy_of


def assert_same_visit(priorities, depth, record) -> None:
    """The depth's first arena, relabelled with a later visit's
    ``priorities``, splits as the first visit did."""
    _, before, split, k, after = record
    game = before._relabelled(priorities=priorities)
    expected = fresh_split(game, None)
    assert depth.k == expected.k == k
    assert depth.order == split == tuple(sorted(expected.split_set))
    assert depth.loser is Player(1 - k % 2)
    assert depth.n == game.n
    assert after.successors == expected.plus._choices
    assert after.owners == expected.plus.owners
    assert (*priorities, *[k] * len(depth.order)) == expected.plus.priorities


def tower_depths(top) -> list:
    """The ``_Depth``s of a tower, top down, through their ``below`` links."""
    depths = []
    while top.__class__ is _Depth:
        depths.append(top)
        top = top.below
    assert top.__class__ is _Bottom
    return depths


def fixpoint_visits(games, monkeypatch):
    """Every (stack, priorities, depth, split) of a visit ``_fixpoint``
    makes to a depth with a split, and every in-place split of a stack:
    the priorities of the depth's first visit, the stack as an arena
    before and after, the split set and k."""
    visits, splits = [], []
    owned = {}  # id of a depth -> its split
    real_fixpoint, real_split, real_tower = (
        solver_constructive._fixpoint, _Stack.split, solver_constructive._tower
    )

    def splitting(stack, split, k):
        before = stack.snapshot()
        log = real_split(stack, split, k)
        splits.append([None, before, tuple(split), k, stack.snapshot()])
        return log

    def planning(stack, debug):
        made = len(splits)
        top = real_tower(stack, debug)
        depths = tower_depths(top)
        assert len(depths) == len(splits) - made  # one split per depth, top down
        owned.update((id(depth), splits[made + i]) for i, depth in enumerate(depths))
        return top

    def visiting(stack, debug, depth, history):
        priorities = tuple(stack.priorities)
        if depth.__class__ is _Depth:
            record = owned[id(depth)]
            if record[0] is None:  # the depth's first visit
                record[0] = priorities[: depth.n]
        answer = real_fixpoint(stack, debug, depth, history)
        if depth.__class__ is _Depth:  # its visit reads the first n priorities
            visits.append((stack, priorities[: depth.n], depth, owned[id(depth)]))
        return answer

    monkeypatch.setattr(_Stack, "split", splitting)
    monkeypatch.setattr(solver_constructive, "_tower", planning)
    monkeypatch.setattr(solver_constructive, "_fixpoint", visiting)
    for game in games:
        solve_constructive(game)
    monkeypatch.undo()
    return visits, splits


def test_cached_splits_match_fresh_splits(monkeypatch):
    games = [
        *random_corpus(150, 8),
        *(cycle(n) for n in range(2, 13)),
        *(ladder_game(m) for m in range(2, 11)),
    ]
    visits, splits = fixpoint_visits(games, monkeypatch)
    for record in splits:
        assert_same_in_place_split(record)
    for _, priorities, depth, record in visits:
        assert_same_visit(priorities, depth, record)
    assert {id(record) for *_, record in visits} == set(map(id, splits))
    assert len(splits) < len(visits) // 2  # most visits reused their depth's split


def test_same_top_priority_on_other_vertices_is_a_new_split():
    game = cycle(6)
    ends = game._relabelled(priorities=(0, 1, 2, 3, 4, 4))
    starts = game._relabelled(priorities=(4, 1, 2, 3, 4, 0))
    assert ends.successors is starts.successors
    first, second = split_top(ends, 4), split_top(starts, 4)
    assert first.split_set == {4, 5} and second.split_set == {0, 4}
    assert_same_split(first, ends, 4)
    assert_same_split(second, starts, 4)


def test_one_in_place_split_per_depth_per_call(monkeypatch):
    for game in (cycle(10), ladder_game(14)):
        built = []
        real_induced = transforms._induced

        def counting(*args):
            built.append(real_induced(*args))
            return built[-1]

        monkeypatch.setattr(transforms, "_induced", counting)
        visits, splits = fixpoint_visits([game], monkeypatch)
        depths = {id(depth) for _, _, depth, _ in visits}
        assert len(splits) == len(depths) < len(visits)
        assert len({id(stack) for stack, *_ in visits}) == 1  # one stack per call
        # no split is taken off: each finds the stack as the last one left it
        for (_, _, _, _, after), (_, before, _, _, _) in zip(splits, splits[1:]):
            assert before == after
        assert len({(before.successors, split) for _, before, split, _, _ in splits}) == len(splits)
        assert built == []


def test_no_split_outlives_a_call():
    short, constructive, split = gen_random(400, 8, 3, 1), cycle(10), cycle(6)
    assert not constructive._mixed_loops
    solve_short(short)
    solve_constructive(constructive)
    split_top(split, 4)
    for game in (short, constructive, split):
        assert set(vars(game)) <= ARENA_ATTRIBUTES


def test_the_tower_holds_no_vertex_set_per_depth():
    # The even cycle with n vertices has n depths; a range(n) set kept
    # per depth held O(n^2) ints, a tracemalloc peak of about 12 MB at
    # n = 300, where the tower's own tables peak under 0.5 MB.
    n = 300
    game = ParityGame.from_vertices([(v % 2, 2 * v, ((v + 1) % n,)) for v in range(n)])
    gc.collect()
    tracemalloc.start()
    try:
        solve_constructive(game)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, f"solve_constructive peaked at {peak} bytes"


def test_the_tower_is_split_before_the_first_round(monkeypatch):
    # Every split of a call runs in ``_tower``, before the first
    # ``_fixpoint`` call, one per depth; in debug mode adjacent depths
    # share the snapshot between their splits.
    real_fixpoint, real_split, real_tower = (
        solver_constructive._fixpoint, _Stack.split, solver_constructive._tower
    )
    events, towers = [], []

    def splitting(stack, split, k):
        events.append("split")
        return real_split(stack, split, k)

    def visiting(*args):
        events.append("visit")
        return real_fixpoint(*args)

    def planning(stack, debug):
        towers.append(real_tower(stack, debug))
        return towers[-1]

    monkeypatch.setattr(_Stack, "split", splitting)
    monkeypatch.setattr(solver_constructive, "_fixpoint", visiting)
    monkeypatch.setattr(solver_constructive, "_tower", planning)
    checked = 0
    for debug in (False, True):
        for game in (cycle(7), ladder_game(5), gen_random(40, 8, 3, 1), gen_random(40, 8, 3, 2)):
            events.clear()
            towers.clear()
            solve_constructive(game, debug=debug)
            (top,) = towers
            depths = tower_depths(top)
            assert len(depths) > 1
            assert events.index("visit") == events.count("split") == len(depths)
            for above, below in zip(depths, depths[1:]):
                if debug:
                    assert below.arenas[0] is above.arenas[1]
                    checked += 1
                else:
                    assert above.arenas is None
    assert checked > 4
