import pytest

from pgsolve import (
    GameError,
    ParityGame,
    PartialSolution,
    Player,
    RestrictionError,
    Strategy,
    StrategyError,
    brute_force_solve,
    closure,
    merge_strategy,
    remove_unfair_win,
    remove_useless_self_loops,
    restrict,
    shift_and_swap,
    split_top,
)
from pgsolve.game import relevant_priorities
from games import chain_game, scratch_class, two_cycle_game


def test_split_chain_at_top():
    split = split_top(chain_game(), 4)
    plus = split.plus
    assert plus.n == 4
    assert plus.successors == ((3,), (2,), (2,), (3,))
    assert plus.priorities == (3, 4, 1, 4)
    assert plus.owners == (Player.P0,) * 4
    assert plus.names == ("u", "v", "w", "v~")
    assert split.split_set == {1}
    assert split.copy_of == {3: 1} and split.copy_for == {1: 3}


def test_split_classifies_copies_and_originals():
    split = split_top(chain_game(), 4)
    assert scratch_class(split.plus, 1) == "vanishing"
    assert scratch_class(split.plus, 3) == "absorbing"


def test_split_redirects_self_loop_of_split_vertex():
    game = ParityGame.from_vertices([(0, 2, (0, 1)), (1, 1, (0,))])
    split = split_top(game, 2)
    # the old loop (0,0) now enters the copy
    assert split.plus.successors[0] == (2, 1)
    assert split.plus.successors[2] == (2,)


def test_split_drops_exactly_the_top_priority():
    for game in (chain_game(), two_cycle_game()):
        k = max(relevant_priorities(game))
        split = split_top(game, k)
        assert relevant_priorities(split.plus) == relevant_priorities(game) - {k}


def test_split_requires_relevant_priority():
    with pytest.raises(GameError):
        split_top(chain_game(), 1)  # carried only by the absorbing sink


def test_merge_strategy_maps_copies_back():
    split = split_top(chain_game(), 4)
    merged = merge_strategy(split, Strategy(Player.P0, {0: 3, 3: 3}))
    assert merged.choices == {0: 1}


def test_merge_strategy_keeps_plain_choices():
    game = two_cycle_game(owner=0)
    split = split_top(game, 2)
    # in the split game u moves to the copy of v; merged back it moves to v
    merged = merge_strategy(split, Strategy(Player.P0, {0: 2, 1: 0}))
    assert merged.choices == {0: 1, 1: 0}


def test_merge_strategy_identity_without_copies_in_range():
    split = split_top(chain_game(), 4)
    merged = merge_strategy(split, Strategy(Player.P1, {}))
    assert merged.choices == {}


def test_remove_unfair_win_absorbs():
    game = ParityGame.from_vertices([(0, 2, (0, 1), "v"), (0, 1, (1,), "w")])
    reduced, changed = remove_unfair_win(game)
    assert changed == {0}
    assert reduced.successors[0] == (0,)
    assert scratch_class(reduced, 0) == "absorbing"


def test_remove_unfair_win_respects_owner_parity():
    # P1 owns the vertex and its priority is even: looping loses, keep edges
    game = ParityGame.from_vertices([(1, 2, (0, 1)), (0, 1, (1,))])
    reduced, changed = remove_unfair_win(game)
    assert changed == frozenset()
    assert reduced.successors[0] == (0, 1)


def test_remove_unfair_win_ignores_absorbing():
    game = ParityGame.from_vertices([(0, 2, (0,))])
    reduced, changed = remove_unfair_win(game)
    assert changed == frozenset()
    assert reduced == game


def test_remove_useless_self_loops_drops_loop():
    game = ParityGame.from_vertices([(0, 1, (0, 1)), (0, 0, (1,))])
    reduced, changed = remove_useless_self_loops(game)
    assert changed == {0}
    assert reduced.successors[0] == (1,)


def test_remove_useless_self_loops_keeps_favourable_loop():
    game = ParityGame.from_vertices([(0, 2, (0, 1)), (0, 0, (1,))])
    reduced, changed = remove_useless_self_loops(game)
    assert changed == frozenset()


def test_loop_normalizations_preserve_regions():
    from games import random_corpus

    for game in random_corpus(120, 6):
        reference = brute_force_solve(game)
        for transform in (remove_unfair_win, remove_useless_self_loops):
            reduced, _ = transform(game)
            solved = brute_force_solve(reduced)
            assert (solved.w0, solved.w1) == (reference.w0, reference.w1)


def test_shift_and_swap_chain():
    shifted = shift_and_swap(chain_game())
    assert shifted.priorities == (4, 5, 2)
    assert shifted.owners == (Player.P1,) * 3
    assert shifted.successors == chain_game().successors


def test_shift_and_swap_swaps_winners():
    for game in (chain_game(), two_cycle_game()):
        solved = brute_force_solve(game)
        swapped = brute_force_solve(shift_and_swap(game))
        assert solved.w0 == swapped.w1
        assert solved.w1 == swapped.w0


def test_restrict_chain_tail():
    sub = restrict(chain_game(), {1, 2})
    assert sub.game.successors == ((1,), (1,))
    assert sub.to_old == (1, 2)
    assert sub.to_new == {1: 0, 2: 1}
    assert sub.game.names == ("v", "w")


def test_restrict_rejects_starved_vertex():
    with pytest.raises(RestrictionError) as err:
        restrict(chain_game(), {0, 2})  # u's only edge leaves the set
    assert err.value.vertex == 0


@pytest.mark.parametrize(
    "keep, bad",
    [([0.0, 1], "0.0"), (["a"], "'a'"), ([1, True], "True"), ([2, [1]], "[1]")],
)
def test_restrict_rejects_a_vertex_that_is_not_an_int(keep, bad):
    with pytest.raises(GameError) as caught:
        restrict(chain_game(), keep)
    assert str(caught.value) == f"vertex {bad} is not an int"


def test_restrict_everything_is_identity_up_to_indices():
    game = chain_game()
    sub = restrict(game, game.vertices)
    assert sub.game == game


def test_closure_rule_b_pulls_vertex_into_opponent_region():
    game = chain_game()
    partial = PartialSolution(
        frozenset(),
        frozenset({1, 2}),
        Strategy(Player.P0, {}),
        Strategy(Player.P1, {}),
    )
    closed = closure(game, partial)
    # u is P0's but every move lands in w1
    assert closed.w1 == {0, 1, 2}
    assert closed.w0 == frozenset()
    assert closed.sigma.choices == {}


def test_merge_strategy_rejects_a_target_that_is_not_an_int():
    split = split_top(chain_game(), 4)
    with pytest.raises(StrategyError, match=r"^choice \(0, 1\.0\) names a vertex"):
        merge_strategy(split, Strategy(Player.P0, {0: 1.0}))


def test_closure_rule_a_records_least_target():
    game = ParityGame.from_vertices(
        [
            (0, 1, (1, 2, 3)),  # a: edges into w0 (b) and undecided (c, d)
            (0, 0, (1,)),       # b: absorbing, already won by P0
            (0, 1, (2,)),       # c
            (0, 0, (3,)),       # d
        ]
    )
    partial = PartialSolution(
        frozenset({1}),
        frozenset(),
        Strategy(Player.P0, {}),
        Strategy(Player.P1, {}),
    )
    closed = closure(game, partial)
    assert 0 in closed.w0
    assert closed.sigma.choices[0] == 1


def test_closure_postcondition():
    game = ParityGame.from_vertices(
        [
            (0, 1, (1, 2)),
            (1, 2, (0, 2)),
            (0, 0, (2,)),
            (1, 3, (3, 0)),
        ]
    )
    partial = PartialSolution(
        frozenset({2}),
        frozenset(),
        Strategy(Player.P0, {}),
        Strategy(Player.P1, {}),
    )
    closed = closure(game, partial)
    undecided = set(game.vertices) - closed.w0 - closed.w1
    for v in undecided:
        owner = game.owners[v]
        assert not any(u in closed.region(owner) for u in game.choices_at(v))
        assert any(u in undecided for u in game.choices_at(v))


def test_closure_is_monotone_and_idempotent():
    game = chain_game()
    partial = PartialSolution(
        frozenset(),
        frozenset({2}),
        Strategy(Player.P0, {}),
        Strategy(Player.P1, {}),
    )
    once = closure(game, partial)
    assert partial.w1 <= once.w1
    twice = closure(game, once)
    assert (twice.w0, twice.w1) == (once.w0, once.w1)


def test_closure_rejects_region_vertices_the_game_lacks():
    game = ParityGame.from_vertices([(0, 0, (0,)), (1, 1, (0,))])
    for stray in (2, -1, 1.0, True, "a"):  # 1.0 and True equal vertex 1
        partial = PartialSolution(
            frozenset(), frozenset({stray}), Strategy(Player.P0, {}), Strategy(Player.P1, {})
        )
        with pytest.raises(GameError, match="the game does not have"):
            closure(game, partial)


def test_closure_leaves_its_input_alone():
    game = ParityGame.from_vertices(
        [
            (0, 1, (1, 2, 3)),  # rule (a) for P0, moving to 1
            (0, 0, (1,)),
            (1, 1, (2, 4)),
            (1, 3, (2, 3)),     # rule (a) for P1, moving to 2
            (0, 0, (2,)),       # rule (b): every move lands in w1
            (0, 0, (5, 1)),
        ]
    )
    partial = PartialSolution(
        frozenset({1, 5}),
        frozenset({2}),
        Strategy(Player.P0, {5: 5}),
        Strategy(Player.P1, {2: 2}),
    )
    before = (set(partial.w0), set(partial.w1), dict(partial.sigma.choices),
              dict(partial.tau.choices))
    closed = closure(game, partial)
    assert (closed.w0, closed.w1) == ({0, 1, 5}, {2, 3, 4})
    assert closed.sigma.choices == {5: 5, 0: 1}
    assert closed.tau.choices == {2: 2, 3: 2}
    assert (partial.w0, partial.w1, partial.sigma.choices, partial.tau.choices) == before


def test_merged_strategy_agrees_with_plus_on_runs_avoiding_split_set():
    """A short run over original vertices that dodges the split set after
    its first vertex is compatible with a split-game strategy exactly when
    it is compatible with the merged strategy in the base game."""
    import itertools

    from games import random_corpus

    def runs_avoiding(game, avoid, length):
        runs = [(v,) for v in game.vertices]
        out = list(runs)
        for _ in range(length - 1):
            runs = [
                (*run, u)
                for run in runs
                for u in game.choices_at(run[-1])
                if u not in avoid
            ]
            out.extend(runs)
        return out

    def compatible(moves, run):
        return all(moves.get(v, u) == u for v, u in zip(run, run[1:]))

    for game in random_corpus(30, 4):
        relevant = relevant_priorities(game)
        if not relevant:
            continue
        split = split_top(game, max(relevant))
        runs = runs_avoiding(game, split.split_set, 4)
        for player in (Player.P0, Player.P1):
            owned = [
                v for v in split.plus.vertices
                if split.plus.owners[v] is player
                and len(split.plus.choices_at(v)) > 1
            ]
            for picks in itertools.product(
                *(split.plus.choices_at(v) for v in owned)
            ):
                plus_strategy = Strategy(player, dict(zip(owned, picks)))
                merged = merge_strategy(split, plus_strategy)
                in_plus = {
                    v: plus_strategy.move_at(split.plus, v)
                    for v in game.vertices
                    if split.plus.owners[v] is player
                }
                in_base = {
                    v: merged.move_at(game, v)
                    for v in game.vertices
                    if game.owners[v] is player
                }
                for run in runs:
                    assert compatible(in_plus, run) == compatible(in_base, run)
