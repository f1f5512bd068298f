import pytest

from pgsolve import (
    CertificationError,
    GameError,
    ParityGame,
    Player,
    Strategy,
    brute_force_solve,
    gen_random,
    check_solution,
    shift_and_swap,
    solve_short,
    verify_strategy,
)
from pgsolve import game as game_module, solver_short, transforms
from pgsolve.game import relevant_priorities
from pgsolve.solver_short import base_case_solve, combine_strategies, nonempty_step
from games import chain_game, cycle, ladder_game, random_corpus, two_cycle_game


def test_base_case_absorbing_split_by_parity():
    game = ParityGame.from_vertices([(0, 2, (0,)), (1, 1, (1,))])
    solved = base_case_solve(game)
    assert solved.w0 == {0}
    assert solved.w1 == {1}


def test_base_case_vanishing_picks_least_good_successor():
    # s sees two absorbing successors; only t0 has its owner's parity
    game = ParityGame.from_vertices(
        [
            (0, 1, (1, 2), "s"),
            (0, 2, (1,), "t0"),
            (0, 1, (2,), "t1"),
        ]
    )
    solved = base_case_solve(game)
    assert solved.w0 == {0, 1}
    assert solved.w1 == {2}
    assert solved.sigma.choices == {0: 1}


def test_base_case_vanishing_without_good_successor_loses():
    game = ParityGame.from_vertices(
        [(0, 2, (1,), "s"), (1, 1, (1,), "t")]
    )
    solved = base_case_solve(game)
    assert solved.w0 == frozenset()
    assert solved.w1 == {0, 1}
    assert solved.sigma.choices == {}
    assert solved.tau.choices == {}


def test_base_case_rejects_relevant_vertices():
    with pytest.raises(GameError):
        base_case_solve(two_cycle_game())


def test_combine_single_part_is_identity():
    game = ParityGame.from_vertices([(0, 0, (0,), "a")])
    strategy, region = combine_strategies(
        game, Player.P0, [(Strategy(Player.P0, {}), frozenset({0}))]
    )
    assert strategy.choices == {}
    assert region == {0}


def test_combine_earlier_part_takes_precedence():
    # both parts win on c; the combined choice comes from the first
    game = ParityGame.from_vertices(
        [(0, 0, (0,), "a"), (0, 2, (1,), "b"), (0, 1, (0, 1), "c")]
    )
    parts = [
        (Strategy(Player.P0, {2: 0}), frozenset({0, 2})),
        (Strategy(Player.P0, {2: 1}), frozenset({1, 2})),
    ]
    strategy, region = combine_strategies(game, Player.P0, parts)
    assert region == {0, 1, 2}
    assert strategy.choices[2] == 0


def test_combine_forced_vertices_stay_implicit():
    game = ParityGame.from_vertices(
        [(0, 0, (0,), "a"), (0, 1, (0, 2), "c"), (0, 3, (2,), "d")]
    )
    parts = [
        (Strategy(Player.P0, {}), frozenset({0})),
        (Strategy(Player.P0, {1: 0}), frozenset({0, 1})),
    ]
    strategy, region = combine_strategies(game, Player.P0, parts)
    assert strategy.choices == {1: 0}
    assert region == {0, 1}


def test_combine_rejects_losing_part():
    game = chain_game()
    with pytest.raises(CertificationError):
        combine_strategies(
            game, Player.P0, [(Strategy(Player.P0, {}), frozenset({0}))]
        )


def test_combine_names_the_rank_of_a_malformed_part():
    # the part's choice sits at b, which P0 does not own
    game = ParityGame.from_vertices([(0, 0, (0,), "a"), (1, 1, (0, 1), "b")])
    parts = [(Strategy(Player.P0, {1: 0}), frozenset({0}))]
    with pytest.raises(CertificationError, match="^part 0 is not winning on its region"):
        combine_strategies(game, Player.P0, parts)


def test_combined_strategy_wins_on_union():
    for game in random_corpus(60, 6):
        reference = brute_force_solve(game)
        for player, region in ((Player.P0, reference.w0), (Player.P1, reference.w1)):
            strategy = reference.sigma if player is Player.P0 else reference.tau
            if not region:
                continue
            parts = [(strategy, frozenset({v})) for v in sorted(region)]
            fused, union = combine_strategies(game, player, parts)
            assert union == region
            assert verify_strategy(game, player, fused, union) is None


def test_nonempty_step_chain_yields_p1_core():
    player, region, _ = nonempty_step(chain_game())
    assert player is Player.P1
    assert region == {1, 2}


def test_nonempty_step_two_cycle_yields_whole_game():
    player, region, _ = nonempty_step(two_cycle_game())
    assert player is Player.P0
    assert region == {0, 1}


def test_nonempty_step_odd_top_priority_flips():
    # single relevant priority 1: odd, so the step favours P1, who wins
    # the whole split game and with it the whole game
    game = ParityGame.from_vertices(
        [(0, 1, (1,), "u"), (1, 1, (0,), "v")]
    )
    player, region, _ = nonempty_step(game)
    assert player is Player.P1
    assert region == {0, 1}


def test_nonempty_step_requires_relevant_vertex():
    game = ParityGame.from_vertices([(0, 0, (0,))])
    with pytest.raises(GameError):
        nonempty_step(game)


def test_solve_short_chain():
    solved = solve_short(chain_game())
    assert solved.w0 == frozenset()
    assert solved.w1 == {0, 1, 2}
    assert check_solution(chain_game(), solved) is None


def test_solve_short_two_cycle():
    solved = solve_short(two_cycle_game())
    assert solved.w0 == {0, 1}
    assert solved.w1 == frozenset()


def test_solve_short_mixed_ownership():
    # P1 can bail out of the even cycle into an odd sink
    game = ParityGame.from_vertices(
        [
            (1, 1, (1, 2), "u"),
            (0, 2, (0,), "v"),
            (1, 1, (2,), "w"),
        ]
    )
    solved = solve_short(game)
    assert solved.w1 == {0, 1, 2}
    assert solved.tau.choices[0] == 2


def test_solve_short_matches_oracle():
    for game in random_corpus(150, 6):
        solved = solve_short(game)
        reference = brute_force_solve(game)
        assert (solved.w0, solved.w1) == (reference.w0, reference.w1)
        assert check_solution(game, solved) is None


def test_nonempty_step_commutes_with_shift_and_swap():
    # the step reads the favoured player off the top priority's parity,
    # so shifting and swapping the game only swaps the core's player
    checked = 0
    for game in random_corpus(300, 8):
        if not relevant_priorities(game):
            continue
        player, region, strategy = nonempty_step(game)
        swapped_player, swapped_region, swapped = nonempty_step(shift_and_swap(game))
        assert swapped_player is player.opponent
        assert swapped.player is swapped_player
        assert swapped_region == region
        assert swapped.choices == strategy.choices
        checked += 1
    assert checked > 200


def test_solve_short_deep_cycle_within_default_recursion_limit():
    # one split per distinct priority: 400 nested steps
    game = cycle(400)
    solved = solve_short(game)
    assert check_solution(game, solved) is None
    assert solved.w1 == frozenset(game.vertices)


def test_default_mode_builds_no_arena_and_calls_no_restrict(monkeypatch):
    # a core step splits the undecided rest in place on the call's one
    # stack; only debug mode builds arenas, to certify on
    games = [*random_corpus(200, 8), cycle(48)]
    steps = []
    core = solver_short._core

    def counting_core(*args):
        steps.append(args)
        return core(*args)

    def forbidden(*args):
        raise AssertionError("an arena was built in default mode")

    for module, name in (
        (game_module, "_arena"),
        (transforms, "_arena"),
        (transforms, "_induced"),
        (transforms, "restrict"),
        (solver_short, "restrict"),
    ):
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(solver_short, "_core", counting_core)
    for game in games:
        solve_short(game)
    assert len(steps) > 200


def test_every_step_reads_the_closures_own_undecided_mask(monkeypatch):
    # Every level hands its closure state's undecided list itself to the
    # relevance filter and the base case, and its move counts to the base
    # case: no step copies the mask or the counts, and every level reads
    # the one stack of its call.  Only the whole game's first scan goes
    # unmasked.
    states, masks, counts = [], [], []
    closure, relevant, decide = (
        solver_short._Closure,
        solver_short._relevant_vertices,
        solver_short._decide,
    )

    def tracked(game, *args):
        states.append(closure(game, *args))
        return states[-1]

    def scanning(game, inside=None, among=None):
        if inside is not None:
            masks.append((game, inside))
        return relevant(game, inside, among)

    def deciding(game, keep, regions, chosen, inside=None, moves=None):
        masks.append((game, inside))
        counts.append((inside, moves))
        return decide(game, keep, regions, chosen, inside, moves)

    monkeypatch.setattr(solver_short, "_Closure", tracked)
    monkeypatch.setattr(solver_short, "_relevant_vertices", scanning)
    monkeypatch.setattr(solver_short, "_decide", deciding)
    for game in [*random_corpus(60, 8), cycle(9)]:
        solve_short(game)
    solve_short(cycle(6), debug=True)
    assert len(masks) > 200
    for game, mask in masks:
        assert any(mask is state.undecided and game is state.game for state in states)
    assert counts
    for mask, moves in counts:
        assert any(mask is state.undecided and moves is state.outside for state in states)
    assert len({id(state.game) for state in states}) == 62


def test_base_cases_get_each_undecided_vertexs_moves_inside_the_subarena(monkeypatch):
    # _decide filters a vertex's targets only where the closure's count
    # differs from its number of choices, so at every base case the count
    # must be exact: a close keeps it for the vertices it leaves undecided,
    # copies start at 1 and a split only redirects moves onto copies.
    decide, seen = solver_short._decide, []

    def checking(stack, keep, regions, chosen, inside, moves):
        for v in keep:
            assert moves[v] == sum(inside[u] for u in stack._choices[v])
        seen.append(len(keep))
        return decide(stack, keep, regions, chosen, inside, moves)

    monkeypatch.setattr(solver_short, "_decide", checking)
    for game in [*random_corpus(300, 8), cycle(12), ladder_game(6)]:
        solve_short(game)
    assert len(seen) > 300 and sum(seen) > 1000


def test_debug_mode_names_a_vertex_the_relevance_filter_dropped(monkeypatch):
    # the filtered list loses one vertex once; the fresh scan of the next
    # step has it, and debug mode names it
    relevant, dropped = solver_short._relevant_vertices, []

    def dropping(game, inside=None, among=None):
        found = relevant(game, inside, among)
        if among is not None and len(found) > 1 and not dropped:
            dropped.append(found.pop(len(found) // 2))
        return found

    monkeypatch.setattr(solver_short, "_relevant_vertices", dropping)
    with pytest.raises(CertificationError) as caught:
        solve_short(gen_random(60, 10, 3, 1), debug=True)
    assert str(caught.value) == f"relevant list differs from a fresh scan at vertex {dropped[0]}"


def test_each_step_leaves_the_stack_as_it_found_it(monkeypatch):
    core, steps = solver_short._core, []

    def wrapped(stack, state, relevant, debug):
        tables = (stack.owners, stack.priorities, stack._choices, stack._predecessors)
        before = [list(table) for table in tables]
        result = core(stack, state, relevant, debug)
        assert [list(table) for table in tables] == before
        steps.append(result)
        return result

    monkeypatch.setattr(solver_short, "_core", wrapped)
    for game in [*random_corpus(100, 8), cycle(12), gen_random(60, 10, 3, 1)]:
        solve_short(game)
    assert len(steps) > 200


def test_solve_short_leaves_the_games_tables_alone():
    for game in [*random_corpus(60, 8), cycle(12)]:
        choices, predecessors = game._choices, game._predecessors
        copies = (list(choices), list(predecessors))
        solve_short(game)
        assert game._choices is choices and game._predecessors is predecessors
        assert (list(choices), list(predecessors)) == copies
