import itertools

import pytest

from pgsolve import (
    BudgetExceededError,
    ParityGame,
    Player,
    Strategy,
    brute_force_solve,
    check_solution,
    play,
    verify_strategy,
)
from pgsolve.oracle import _profile_count
from games import chain_game, random_corpus, two_cycle_game


def test_oracle_chain():
    solved = brute_force_solve(chain_game())
    assert solved.w0 == frozenset()
    assert solved.w1 == {0, 1, 2}


def test_oracle_two_cycle():
    solved = brute_force_solve(two_cycle_game())
    assert solved.w0 == {0, 1}  # the only cycle has maximum 2
    assert solved.w1 == frozenset()


def test_oracle_single_choice_decides_game():
    # P0 picks between an even and an odd sink
    game = ParityGame.from_vertices(
        [(0, 1, (1, 2)), (0, 2, (1,)), (0, 1, (2,))]
    )
    solved = brute_force_solve(game)
    assert solved.w0 == {0, 1}
    assert solved.w1 == {2}
    assert solved.sigma.choices[0] == 1


def test_oracle_witnesses_are_certified():
    for game in random_corpus(80, 6):
        solved = brute_force_solve(game)
        assert check_solution(game, solved) is None


def test_oracle_witness_is_lexicographically_least():
    # both successors of vertex 0 win for P0; list order (2, 1) makes the
    # first enumerated winning choice 2, not the smaller index
    game = ParityGame.from_vertices(
        [(0, 2, (2, 1)), (0, 0, (1,)), (0, 4, (2,))]
    )
    solved = brute_force_solve(game)
    assert solved.w0 == {0, 1, 2}
    assert solved.sigma.choices[0] == 2


def test_oracle_beats_every_adversary_profile():
    for game in random_corpus(40, 5):
        solved = brute_force_solve(game)
        for player, strategy, region in (
            (Player.P0, solved.sigma, solved.w0),
            (Player.P1, solved.tau, solved.w1),
        ):
            others = [v for v in game.vertices if game.owners[v] is not player]
            for moves in itertools.product(*(game.choices_at(v) for v in others)):
                adversary = Strategy(Player(player).opponent, dict(zip(others, moves)))
                for start in region:
                    if player is Player.P0:
                        lasso = play(game, strategy, adversary, start)
                    else:
                        lasso = play(game, adversary, strategy, start)
                    assert lasso.winner is Player(player)


def test_profile_count_multiplies_distinct_choices():
    game = ParityGame.from_vertices(
        [(0, 1, (0, 1, 1)), (1, 2, (0, 1))]
    )
    assert _profile_count(game) == 4  # duplicate successor does not count


def test_budget_error():
    game = ParityGame.from_vertices(
        [(v % 2, v, tuple(range(8))) for v in range(8)]
    )
    assert _profile_count(game) == 8**8
    with pytest.raises(BudgetExceededError) as err:
        brute_force_solve(game)
    assert err.value.profiles == 8**8


def test_budget_is_checked_before_any_work():
    game = two_cycle_game()
    with pytest.raises(BudgetExceededError):
        brute_force_solve(game, budget=0)
    solved = brute_force_solve(game, budget=_profile_count(game))
    assert check_solution(game, solved) is None


def test_verified_claims_stay_inside_oracle_regions():
    # soundness of the certifier: any strategy it accepts from a vertex
    # proves membership in that player's brute-force region
    for game in random_corpus(30, 4):
        reference = brute_force_solve(game)
        for player in (Player.P0, Player.P1):
            owned = [
                v for v in game.vertices
                if game.owners[v] is player and len(game.choices_at(v)) > 1
            ]
            for picks in itertools.product(*(game.choices_at(v) for v in owned)):
                candidate = Strategy(player, dict(zip(owned, picks)))
                for v in game.vertices:
                    if verify_strategy(game, player, candidate, frozenset({v})) is None:
                        assert v in reference.region(player)
