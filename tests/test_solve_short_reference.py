"""``solve_short`` on one stack against the arena-per-step solver it replaced.

The stack solver splits in place and undoes on return; the reference in
``reference_solve_short`` built a new split arena at every step.  The
regions are unique but the strategies are not, so both must emit the
same bytes: on hypothesis arenas with duplicate edges and self-loops,
and on a seeded corpus of small random multigraphs.
"""

import random

from hypothesis import given, settings

from pgsolve import ParityGame, emit_solution, gen_random, solve_short
from games import cycle
from reference_solve_short import reference_solve_short
from test_closure_reference import arenas


def multigraph(seed: int) -> ParityGame:
    """Up to 12 vertices, priorities 0..7, one to four edges each, drawn
    with repeats, so duplicate edges and self-loops next to proper edges
    are common."""
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    return ParityGame.from_vertices(
        (
            rng.randrange(2),
            rng.randrange(8),
            tuple(rng.randrange(n) for _ in range(rng.randint(1, 4))),
        )
        for _ in range(n)
    )


def assert_same_bytes(game: ParityGame) -> None:
    expected = emit_solution(game, reference_solve_short(game))
    assert emit_solution(game, solve_short(game)) == expected


@settings(max_examples=300, deadline=None)
@given(arenas())
def test_stack_solver_matches_the_reference_on_multigraphs(game):
    assert_same_bytes(game)


def test_stack_solver_matches_the_reference_on_a_seeded_corpus():
    for seed in range(3000):
        assert_same_bytes(multigraph(seed))


def test_stack_solver_matches_the_reference_on_deep_games():
    # many nested levels: copies of copies, each undone on return
    for game in (gen_random(120, 14, 3, 1), gen_random(150, 10, 2, 2), cycle(60)):
        assert_same_bytes(game)
