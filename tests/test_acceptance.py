"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s`` or ``-rA``) and fails loudly otherwise.  Corpora are seeded,
so every run checks the exact same games.
"""

import itertools
from contextlib import contextmanager
from functools import lru_cache

from pgsolve import (
    Player,
    Strategy,
    brute_force_solve,
    check_solution,
    emit_game,
    parse_game,
    remove_unfair_win,
    remove_useless_self_loops,
    shift_and_swap,
    solve_constructive,
    solve_short,
    verify_strategy,
)
from pgsolve.oracle import _profile_count
from pgsolve.solver_short import combine_strategies
from games import chain_game, ladder_game, random_corpus


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {summary}")


@lru_cache(maxsize=None)
def small_corpus():
    return tuple(random_corpus(500, 6))


@lru_cache(maxsize=None)
def large_corpus():
    return tuple(random_corpus(500, 10))


def test_criterion_1_chain_game_regions_and_bump_trace():
    game = chain_game()
    with criterion(1, "chain game: w1 = {u,v,w}, copy bumped 4->5, fixpoint at round 2"):
        for solve in (solve_short, solve_constructive):
            solved = solve(game)
            assert solved.w1 == {0, 1, 2}
            assert solved.w0 == frozenset()
            assert verify_strategy(game, Player.P1, solved.tau, solved.w1) is None
        history = []
        solve_constructive(game, history_out=history)
        copy = 3  # the split copy of v, appended after the originals
        assert history[0].pi[copy] == 4
        assert history[1].pi[copy] == 5
        assert history[-1].alpha == 2


def test_criterion_2_determinacy_partition_on_large_corpus():
    corpus = large_corpus()
    with criterion(2, f"{len(corpus)} games (n<=10): both solvers partition V, certified"):
        for game in corpus:
            for solve in (solve_short, solve_constructive):
                solved = solve(game)
                assert solved.w0 | solved.w1 == set(game.vertices)
                assert not solved.w0 & solved.w1
                assert check_solution(game, solved) is None


def test_criterion_3_oracle_equivalence_on_small_corpus():
    corpus = small_corpus()
    with criterion(3, f"{len(corpus)} games (n<=6): short == constructive == oracle"):
        for game in corpus:
            reference = brute_force_solve(game)
            for solve in (solve_short, solve_constructive):
                solved = solve(game)
                assert (solved.w0, solved.w1) == (reference.w0, reference.w1)


def test_criterion_4_loop_normalization_preserves_regions():
    corpus = small_corpus()
    with criterion(4, f"{len(corpus)} games: deloop and unfair-win absorb keep regions (oracle)"):
        for game in corpus:
            reference = brute_force_solve(game)
            for transform in (remove_useless_self_loops, remove_unfair_win):
                transformed, _ = transform(game)
                solved = brute_force_solve(transformed)
                assert (solved.w0, solved.w1) == (reference.w0, reference.w1)


def test_criterion_5_duality_under_shift_and_swap():
    corpus = small_corpus()
    with criterion(5, f"{len(corpus)} games: w0(G) == w1(shifted+swapped G) and vice versa"):
        for game in corpus:
            solved = brute_force_solve(game)
            swapped = brute_force_solve(shift_and_swap(game))
            assert solved.w0 == swapped.w1
            assert solved.w1 == swapped.w0


def _profiles(game, player):
    owned = [
        v for v in game.vertices
        if game.owners[v] is player and len(game.choices_at(v)) > 1
    ]
    for combo in itertools.product(*(game.choices_at(v) for v in owned)):
        yield Strategy(player, dict(zip(owned, combo)))


def _first_winning_from(game, player, v):
    for candidate in _profiles(game, player):
        if verify_strategy(game, player, candidate, frozenset({v})) is None:
            return candidate
    raise AssertionError(f"no winning strategy from {v} for {player}")


def test_criterion_6_per_vertex_strategies_combine_over_the_union():
    corpus = small_corpus()
    with criterion(6, f"{len(corpus)} games: per-vertex winners fuse into one certified strategy"):
        for game in corpus:
            reference = brute_force_solve(game)
            for player in (Player.P0, Player.P1):
                region = reference.region(player)
                if not region:
                    continue
                parts = [
                    (_first_winning_from(game, player, v), frozenset({v}))
                    for v in sorted(region)
                ]
                fused, union = combine_strategies(game, player, parts)
                assert union == region
                assert verify_strategy(game, player, fused, union) is None


def test_criterion_7_fixpoint_invariants_in_debug_mode():
    corpus = small_corpus()
    with criterion(7, f"{len(corpus)} games: per-round growth, stability, certification, equivalence"):
        for game in corpus:
            # debug mode asserts every per-round invariant internally and
            # the final equivalence between bumped copies and lost originals
            solved = solve_constructive(game, debug=True)
            assert check_solution(game, solved) is None


def _ladder_alpha0(m):
    history = []
    solve_constructive(ladder_game(m), history_out=history)
    return history[-1].alpha if history else 0


def test_criterion_8_ladder_family_rounds_and_agreement():
    alphas = []
    with criterion(8, "ladders m=1..6: solvers agree, round counts 0,2,3,4,5,6"):
        for m in range(1, 7):
            game = ladder_game(m)
            solved = solve_constructive(game)
            assert (solved.w0, solved.w1) == (frozenset(), frozenset(game.vertices))
            other = solve_short(game)
            assert (solved.w0, solved.w1) == (other.w0, other.w1)
            assert _profile_count(game) <= 10**7
            reference = brute_force_solve(game)
            assert (solved.w0, solved.w1) == (reference.w0, reference.w1)
            alphas.append(_ladder_alpha0(m))
        assert alphas == [0, 2, 3, 4, 5, 6]
        assert all(a <= b for a, b in zip(alphas, alphas[1:]))
        assert all(a >= 2 for a in alphas[1:])


def test_criterion_9_parse_emit_round_trip_is_byte_exact():
    games = [*small_corpus(), *large_corpus(), chain_game()]
    games += [ladder_game(m) for m in range(1, 7)]
    with criterion(9, f"{len(games)} games: emit -> parse -> emit is the identity"):
        for game in games:
            text = emit_game(game)
            assert parse_game(text) == game
            assert emit_game(parse_game(text)) == text
