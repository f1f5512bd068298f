import pytest

from pgsolve import (
    CertificationError,
    FixpointState,
    GameError,
    ParityGame,
    Player,
    Strategy,
    brute_force_solve,
    check_solution,
    remove_unfair_win,
    remove_useless_self_loops,
    solve_constructive,
    solve_short,
)
from pgsolve import game as game_module
from pgsolve import pgfile, solver_constructive, transforms
from pgsolve.game import relevant_priorities
from pgsolve.solver_constructive import (
    _Bottom,
    compose_tau,
    fixpoint_solve,
    preprocess,
)
from games import chain_game, cycle, ladder_game, random_corpus, two_cycle_game


def mixed_loops_game():
    # 0 parks on its even self-loop, 1's odd self-loop is dead weight
    return ParityGame.from_vertices(
        [
            (0, 2, (0, 1), "p"),
            (0, 1, (1, 0), "q"),
        ]
    )


def test_preprocess_golden():
    record = preprocess(mixed_loops_game())
    # 0 keeps only its loop, 1 loses its loop
    assert record.normalized == {0, 1}
    assert record.reduced.successors == ((0,), (0,))


def test_preprocess_keeps_normalized_games():
    record = preprocess(chain_game())
    assert record.reduced == chain_game()
    assert record.normalized == frozenset()


def test_one_pass_preprocess_equals_the_two_normalizations():
    both = 0
    for game in random_corpus(400, 10):
        if not game._mixed_loops:
            continue
        halfway, absorbed = remove_unfair_win(game)
        reduced, delooped = remove_useless_self_loops(halfway)
        record = preprocess(game)
        assert record.reduced == reduced
        assert record.normalized == absorbed | delooped
        both += bool(absorbed) and bool(delooped)
    assert both > 10  # games with both kinds of mixed self-loop


def test_preprocess_postcondition():
    for game in random_corpus(80, 6):
        reduced = preprocess(game).reduced
        for v in reduced.vertices:
            options = reduced.choices_at(v)
            assert v not in options or len(options) == 1


def test_solve_constructive_unfair_win_game():
    # v's even self-loop wins for its owner, so v never uses the edge to w
    game = ParityGame.from_vertices(
        [(0, 2, (0, 1), "v"), (0, 1, (1,), "w")]
    )
    solved = solve_constructive(game)
    assert solved.w0 == {0}
    assert solved.w1 == {1}
    assert solved.sigma.choices == {0: 0}


def test_lift_materializes_choice_forced_only_in_reduced():
    # 0's self-loop wins for its owner, so the reduction absorbs it;
    # the lifted strategy must spell out staying put
    game = ParityGame.from_vertices(
        [(1, 1, (0, 1), "u"), (0, 0, (1,), "t")]
    )
    solved = solve_constructive(game)
    assert solved.w1 == {0}
    assert solved.w0 == {1}
    assert solved.tau.choices == {0: 0}


def test_compose_tau_keeps_earliest_choice():
    # three rounds, each composed from the previous one's tau and region
    tau, settled = {}, frozenset()
    for w1, fresh in (({1}, {1: 5}), ({1, 2}, {1: 6, 2: 7}), ({1, 2, 3}, {1: 9, 2: 9, 3: 8})):
        tau, settled = compose_tau(tau, settled, frozenset(w1), fresh), frozenset(w1)
    assert tau == {1: 5, 2: 7, 3: 8}


def test_compose_tau_skips_forced_vertices():
    tau = compose_tau({}, frozenset(), frozenset({0, 1}), {1: 0})
    assert tau == {1: 0}


def test_fixpoint_history_on_chain():
    history = []
    solved = fixpoint_solve(chain_game(), history_out=history)
    assert solved.w1 == {0, 1, 2}
    assert [s.alpha for s in history] == [0, 1, 2]
    assert [s.x for s in history] == [
        frozenset(),
        frozenset({1, 2}),
        frozenset({0, 1, 2, 3}),
    ]
    # the copy of the top vertex starts at 4 and is bumped to 5 as soon
    # as its original is losing
    assert [s.pi[3] for s in history] == [4, 5, 5]
    assert [s.w1 for s in history] == [
        frozenset({1, 2}),
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1, 2, 3}),
    ]
    # no P1 vertices anywhere, so every round's strategy is empty
    assert all(s.tau.choices == {} for s in history)


def test_fixpoint_stops_immediately_when_nothing_is_losing():
    history = []
    solved = fixpoint_solve(two_cycle_game(), history_out=history)
    assert solved.w0 == {0, 1}
    assert history[-1].alpha == 0


def test_fixpoint_rejects_unnormalized_input():
    game = ParityGame.from_vertices([(0, 2, (0, 1)), (1, 1, (0,))])
    with pytest.raises(GameError):
        fixpoint_solve(game)


def test_fixpoint_base_case():
    game = ParityGame.from_vertices([(0, 2, (0,)), (1, 1, (1,))])
    solved = fixpoint_solve(game)
    assert solved.w0 == {0}
    assert solved.w1 == {1}


def test_odd_top_priority_rounds_describe_the_game_itself():
    game = ParityGame.from_vertices([(0, 1, (1,)), (1, 1, (0,))])
    history = []
    solved = fixpoint_solve(game, history_out=history)
    assert solved.w1 == {0, 1}
    # the rounds split the game's own priority 1, which disfavours P0,
    # so they hold P0's region and strategy
    assert all(p == 1 for p in history[0].pi)
    assert all(s.tau.player is Player.P0 for s in history)
    assert history[-1].w1 == frozenset()


def test_constructive_never_shifts_and_swaps(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the fixpoint shifted and swapped a game")

    for name in ("shift_and_swap", "swap_solution"):
        monkeypatch.setattr(solver_constructive, name, forbidden, raising=False)
    games = [*random_corpus(200, 8), *(cycle(n) for n in range(2, 13))]
    assert any(max(relevant_priorities(g), default=0) % 2 for g in games)
    for game in games:
        solved = solve_constructive(game)
        assert check_solution(game, solved) is None
        normalized = preprocess(game).reduced
        assert check_solution(normalized, fixpoint_solve(normalized)) is None


def test_constructive_matches_oracle_with_debug_checks():
    for game in random_corpus(80, 6):
        solved = solve_constructive(game, debug=True)
        reference = brute_force_solve(game)
        assert (solved.w0, solved.w1) == (reference.w0, reference.w1)
        assert check_solution(game, solved) is None


def test_debug_mode_names_a_wrongly_redecided_vertex(monkeypatch):
    # In debug mode a fresh, certified base case checks every answer of
    # a split-free depth, so one vertex flipped by the incremental path
    # is named.
    redecide, flipped = _Bottom.redecide, []

    def flipping(self):
        redecide(self)
        if not flipped:  # the answer is the bottom's own sets and dicts
            v = max(self.stack.vertices)
            winner = int(v in self.regions[1])
            self.regions[winner].discard(v)
            self.regions[1 - winner].add(v)
            self.chosen[winner].pop(v, None)
            flipped.append(v)

    monkeypatch.setattr(_Bottom, "redecide", flipping)
    with pytest.raises(CertificationError, match="incremental base case") as caught:
        solve_constructive(cycle(8), debug=True)
    assert str(caught.value).endswith(f"at vertex {flipped[0]}")


def test_constructive_matches_short_on_larger_games():
    for game in random_corpus(120, 10):
        solved = solve_constructive(game)
        other = solve_short(game)
        assert (solved.w0, solved.w1) == (other.w0, other.w1)
        assert check_solution(game, solved) is None


def test_default_mode_builds_one_arena_per_call(monkeypatch):
    # A round writes its bumps into the call's one stack, where every
    # depth splits in place and the split-free depth decides too: only
    # loop normalization builds an arena.
    built, induced = [], []
    arena, real_induced = game_module._arena, transforms._induced

    def counting(*args):
        built.append(args)
        return arena(*args)

    def inducing(*args):
        induced.append(args)
        return real_induced(*args)

    for module in (game_module, transforms, pgfile):
        monkeypatch.setattr(module, "_arena", counting)
    monkeypatch.setattr(transforms, "_induced", inducing)
    # cycle(11) has 12 depths: one arena per round would be 607 arenas
    for game in [cycle(11), ladder_game(14), *random_corpus(100, 10)]:
        built.clear()
        solve_constructive(game)
        assert len(built) <= 1
    assert induced == []


def test_default_mode_builds_no_strategy_per_inner_round(monkeypatch):
    # Every round composes plain choice dicts; only a round record for
    # history_out wraps its tau in a Strategy, and the boundary lifts two.
    built = []
    post_init = Strategy.__post_init__

    def counting(self):
        built.append(self.player)
        post_init(self)

    monkeypatch.setattr(Strategy, "__post_init__", counting)
    # cycle(11) runs 601 rounds over all its depths, one of them on top
    for game in (cycle(11), ladder_game(14)):
        built.clear()
        history = []
        solve_constructive(game, history_out=history)
        assert len(built) <= len(history) + 2


def test_default_mode_builds_no_round_records(monkeypatch):
    # Without history_out no round becomes a FixpointState or a Strategy:
    # the only Strategy objects are the two of the lifted solution.
    records, strategies = [], []
    init, post_init = FixpointState.__init__, Strategy.__post_init__

    def recording(self, *args, **kwargs):
        records.append(args)
        init(self, *args, **kwargs)

    def counting(self):
        strategies.append(self.player)
        post_init(self)

    monkeypatch.setattr(FixpointState, "__init__", recording)
    monkeypatch.setattr(Strategy, "__post_init__", counting)
    for game in (cycle(11), ladder_game(14)):
        records.clear()
        strategies.clear()
        solve_constructive(game)
        assert records == []
        assert sorted(strategies) == [Player.P0, Player.P1]
