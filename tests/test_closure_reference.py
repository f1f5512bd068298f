"""The worklist ``closure`` against the ascending sweep it replaced.

``sweep_closure`` is the original implementation: rescan every
undecided vertex in index order, pass after pass.  The worklist must
give the same regions and the same strategy entries on any arena and
any disjoint partial solution, certified or not, because the solvers'
strategies, and so their output bytes, depend on the exact choices.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pgsolve import ParityGame, PartialSolution, Player, Strategy, closure, gen_random
from games import random_corpus


def sweep_closure(game: ParityGame, partial: PartialSolution) -> PartialSolution:
    regions = {Player.P0: set(partial.w0), Player.P1: set(partial.w1)}
    chosen = {
        Player.P0: dict(partial.sigma.choices),
        Player.P1: dict(partial.tau.choices),
    }
    undecided = set(game.vertices) - regions[Player.P0] - regions[Player.P1]
    changed = True
    while changed:
        changed = False
        grabbing = True
        while grabbing:
            grabbing = False
            for v in sorted(undecided):
                owner = game.owners[v]
                into_own = [u for u in game.choices_at(v) if u in regions[owner]]
                if into_own:
                    regions[owner].add(v)
                    chosen[owner][v] = min(into_own)
                    undecided.discard(v)
                    grabbing = changed = True
        for v in sorted(undecided):
            owner = game.owners[v]
            other = regions[owner.opponent]
            if all(u in other for u in game.choices_at(v)):
                other.add(v)
                undecided.discard(v)
                changed = True
    return PartialSolution(
        frozenset(regions[Player.P0]),
        frozenset(regions[Player.P1]),
        Strategy(Player.P0, chosen[Player.P0]),
        Strategy(Player.P1, chosen[Player.P1]),
    )


def assert_same_closure(game, partial):
    want = sweep_closure(game, partial)
    got = closure(game, partial)
    assert got.w0 == want.w0
    assert got.w1 == want.w1
    assert got.sigma.choices == want.sigma.choices
    assert got.tau.choices == want.tau.choices


def random_partial(game: ParityGame, rng: random.Random) -> PartialSolution:
    """Disjoint regions of random density, strategy entries anywhere."""
    density = rng.random()
    w0, w1 = set(), set()
    choices = ({}, {})
    for v in game.vertices:
        if rng.random() < density:
            (w0 if rng.random() < 0.5 else w1).add(v)
        if rng.random() < 0.3:
            choices[rng.randrange(2)][v] = rng.choice(game.successors[v])
    return PartialSolution(
        frozenset(w0),
        frozenset(w1),
        Strategy(Player.P0, choices[0]),
        Strategy(Player.P1, choices[1]),
    )


@st.composite
def games_and_partials(draw, max_n=12):
    """Arenas with duplicate edges and self-loops, plus a disjoint partial."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    game = ParityGame.from_vertices(
        (
            draw(st.integers(0, 1)),
            draw(st.integers(0, 5)),
            tuple(draw(st.lists(vertex, min_size=1, max_size=4))),
        )
        for _ in range(n)
    )
    side = draw(st.lists(st.sampled_from((None, 0, 1)), min_size=n, max_size=n))
    choices = ({}, {})
    for v in draw(st.lists(vertex, max_size=n)):
        choices[draw(st.integers(0, 1))][v] = draw(st.sampled_from(game.successors[v]))
    partial = PartialSolution(
        frozenset(v for v, s in enumerate(side) if s == 0),
        frozenset(v for v, s in enumerate(side) if s == 1),
        Strategy(Player.P0, choices[0]),
        Strategy(Player.P1, choices[1]),
    )
    return game, partial


@settings(max_examples=300, deadline=None)
@given(games_and_partials())
def test_closure_matches_sweep_on_drawn_games(bundle):
    assert_same_closure(*bundle)


def test_closure_matches_sweep_on_random_corpus():
    rng = random.Random(7)
    corpus = [*random_corpus(300, 12)]
    corpus += [gen_random(40 + s, 1 + s % 6, 1 + s % 4, s) for s in range(40)]
    for game in corpus:
        for _ in range(5):
            assert_same_closure(game, random_partial(game, rng))


def test_closure_matches_sweep_on_long_chains():
    # Chains into a region at one end: pointing down, every grab makes
    # the next vertex eligible within the same pass; pointing up, only a
    # lower-index vertex, so the sweep needs one pass (rule (a)) or one
    # round (rule (b)) per vertex.  Owner 1 grabs by rule (a), owner 0
    # falls to P1 by rule (b).
    n = 30
    for owner in (0, 1):
        up = ParityGame.from_vertices(
            [(owner, 2, (v + 1,) if v + 1 < n else (v,)) for v in range(n)]
        )
        down = ParityGame.from_vertices(
            [(owner, 2, (v - 1,) if v else (v,)) for v in range(n)]
        )
        for game, end in ((up, n - 1), (down, 0)):
            partial = PartialSolution(
                frozenset(),
                frozenset({end}),
                Strategy(Player.P0, {}),
                Strategy(Player.P1, {}),
            )
            closed = closure(game, partial)
            assert closed.w1 == frozenset(game.vertices)
            assert_same_closure(game, partial)
