"""``solve_constructive`` on one stack against the arena-per-round solver.

The solver writes each round's bumps into one stack of priorities and
keeps one split per depth; the reference in ``reference_fixpoint`` built a
relabelled arena and a re-based split for every round.  Both must emit
the same bytes and record the same top-level rounds: the same alpha,
region in, bumped priorities, strategy and region out.
"""

from hypothesis import given, settings

from pgsolve import ParityGame, emit_solution, solve_constructive
from games import cycle, ladder_game
from reference_fixpoint import reference_solve_constructive
from test_closure_reference import arenas
from test_solve_short_reference import multigraph


def assert_same_bytes_and_rounds(game: ParityGame) -> None:
    expected_history, history = [], []
    expected = emit_solution(game, reference_solve_constructive(game, expected_history))
    assert emit_solution(game, solve_constructive(game, history_out=history)) == expected
    assert history == expected_history


@settings(max_examples=300, deadline=None)
@given(arenas())
def test_solver_matches_the_reference_on_multigraphs(game):
    assert_same_bytes_and_rounds(game)


def test_solver_matches_the_reference_on_a_seeded_corpus():
    for seed in range(1000):
        assert_same_bytes_and_rounds(multigraph(seed))


def test_solver_matches_the_reference_on_nested_fixpoints():
    for game in (*map(cycle, range(2, 15)), *map(ladder_game, range(1, 13))):
        assert_same_bytes_and_rounds(game)
