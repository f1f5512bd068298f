"""The worklist ``closure`` against the ascending sweep it replaced.

``sweep_closure`` is the original implementation: rescan every
undecided vertex in index order, pass after pass.  The worklist must
give the same regions and the same strategy entries on any arena and
any disjoint partial solution, certified or not, whose strategies are
well formed (``closure`` rejects an entry that is not an edge of a
vertex its player owns), because the solvers' strategies, and so their
output bytes, depend on the exact choices.
The closure state ``solve_short`` keeps for a whole call is checked
the same way after every core it is given.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pgsolve import ParityGame, PartialSolution, Player, Strategy, closure, gen_random
from pgsolve import transforms
from pgsolve.transforms import _Closure
from games import cycle, random_corpus


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
    before = (dict(partial.sigma.choices), dict(partial.tau.choices))
    want = sweep_closure(game, partial)
    got = closure(game, partial)
    assert got.w0 == want.w0
    assert got.w1 == want.w1
    assert got.sigma.choices == want.sigma.choices
    assert got.tau.choices == want.tau.choices
    assert (partial.sigma.choices, partial.tau.choices) == before


def assert_state_matches_sweep(game, cores):
    """Feed ``cores`` to one closure state, closing after each, as
    ``solve_short`` does, and compare every step with the sweep run from
    scratch on the accumulated partial.  A core is a player, a region
    and choices; its vertices still undecided are the ones added."""
    state = _Closure(game)
    want = PartialSolution(
        frozenset(), frozenset(), Strategy(Player.P0, {}), Strategy(Player.P1, {})
    )
    for player, region, choices in cores:
        region = frozenset(region) - want.w0 - want.w1
        if not region:
            continue
        grown = [set(want.w0), set(want.w1)]
        chosen = [dict(want.sigma.choices), dict(want.tau.choices)]
        grown[player] |= region
        chosen[player].update(choices)
        want = sweep_closure(
            game,
            PartialSolution(
                *grown, Strategy(Player.P0, chosen[0]), Strategy(Player.P1, chosen[1])
            ),
        )
        state.add(player, region, choices)
        state.close()
        assert state.regions == (want.w0, want.w1)
        assert state.chosen == (want.sigma.choices, want.tau.choices)
        assert state.undecided == [v not in want.w0 and v not in want.w1 for v in game.vertices]


def random_partial(game: ParityGame, rng: random.Random) -> PartialSolution:
    """Disjoint regions of random density, owners' strategy entries anywhere."""
    density = rng.random()
    w0, w1 = set(), set()
    choices = ({}, {})
    for v in game.vertices:
        if rng.random() < density:
            (w0 if rng.random() < 0.5 else w1).add(v)
        if rng.random() < 0.3:
            choices[game.owners[v]][v] = rng.choice(game.successors[v])
    return PartialSolution(
        frozenset(w0),
        frozenset(w1),
        Strategy(Player.P0, choices[0]),
        Strategy(Player.P1, choices[1]),
    )


@st.composite
def arenas(draw, max_n=12):
    """Arenas with duplicate edges and self-loops."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    return ParityGame.from_vertices(
        (
            draw(st.integers(0, 1)),
            draw(st.integers(0, 5)),
            tuple(draw(st.lists(vertex, min_size=1, max_size=4))),
        )
        for _ in range(n)
    )


@st.composite
def games_and_partials(draw):
    """Arenas plus a disjoint partial."""
    game = draw(arenas())
    n, vertex = game.n, st.integers(0, game.n - 1)
    side = draw(st.lists(st.sampled_from((None, 0, 1)), min_size=n, max_size=n))
    choices = ({}, {})
    for v in draw(st.lists(vertex, max_size=n)):
        choices[game.owners[v]][v] = draw(st.sampled_from(game.successors[v]))
    partial = PartialSolution(
        frozenset(v for v, s in enumerate(side) if s == 0),
        frozenset(v for v, s in enumerate(side) if s == 1),
        Strategy(Player.P0, choices[0]),
        Strategy(Player.P1, choices[1]),
    )
    return game, partial


def random_cores(game: ParityGame, rng: random.Random) -> list:
    """A few small cores of random players, with choices on some vertices."""
    cores = []
    for _ in range(rng.randrange(1, 6)):
        region = rng.sample(game.vertices, rng.randrange(1, 1 + max(1, game.n // 3)))
        choices = {v: rng.choice(game.successors[v]) for v in region if rng.random() < 0.5}
        cores.append((rng.randrange(2), region, choices))
    return cores


@st.composite
def games_and_cores(draw):
    """Arenas plus a sequence of cores, possibly overlapping."""
    game = draw(arenas())
    vertex = st.integers(0, game.n - 1)
    cores = []
    for region in draw(st.lists(st.lists(vertex, min_size=1, max_size=4), max_size=5)):
        moves = {v: draw(st.sampled_from(game.successors[v])) for v in region}
        cores.append((draw(st.integers(0, 1)), region, moves))
    return game, cores


@settings(max_examples=300, deadline=None)
@given(games_and_partials())
def test_closure_matches_sweep_on_drawn_games(bundle):
    assert_same_closure(*bundle)


@settings(max_examples=200, deadline=None)
@given(games_and_cores())
def test_state_matches_sweep_after_every_core_on_drawn_games(bundle):
    assert_state_matches_sweep(*bundle)


def test_state_matches_sweep_after_every_core_on_random_corpus():
    rng = random.Random(11)
    corpus = [*random_corpus(200, 12)]
    corpus += [gen_random(40 + s, 1 + s % 6, 1 + s % 4, s) for s in range(20)]
    for game in corpus:
        for _ in range(3):
            assert_state_matches_sweep(game, random_cores(game, rng))


def test_closure_marks_both_regions_before_queueing_predecessors():
    # Vertex 1 is P0's and lies in w1, with a move into w0.  Walked
    # before w1 is marked decided, it would be queued for rule (a) and
    # join w0 as well.  Vertex 3 is P0's and lies in w0, with its only
    # move into w1: walked before w0 is marked, it would join w1 by
    # rule (b).
    game = ParityGame.from_vertices(
        [(0, 0, (0,)), (0, 1, (0, 1)), (1, 1, (2,)), (0, 0, (2,))]
    )
    partial = PartialSolution(
        frozenset({0, 3}),
        frozenset({1, 2}),
        Strategy(Player.P0, {}),
        Strategy(Player.P1, {}),
    )
    closed = closure(game, partial)
    assert (closed.w0, closed.w1) == ({0, 3}, {1, 2})
    assert closed.sigma.choices == {} and closed.tau.choices == {}
    assert_same_closure(game, partial)


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


def shuffled(game: ParityGame, rng: random.Random) -> ParityGame:
    """The same game under a random permutation of vertex ids."""
    perm = list(game.vertices)
    rng.shuffle(perm)
    rows = [None] * game.n
    for v in game.vertices:
        targets = tuple(map(perm.__getitem__, game.successors[v]))
        rows[perm[v]] = (game.owners[v], game.priorities[v], targets)
    return ParityGame.from_vertices(rows)


def test_closure_matches_sweep_when_the_rules_alternate(monkeypatch):
    # The pattern of solve_short on cycles: owners alternate along a chain
    # into a region, so every join makes the next vertex eligible for the
    # other rule, and every pass holds one vertex, rule (a) and rule (b)
    # in turn, whichever way the chain points.  Id-shuffled cycles mix
    # that with next vertices above and below the joining one.
    sizes = []

    def recording(heap):
        sizes.append(len(heap))
        heapify(heap)

    heapify = transforms.heapify
    monkeypatch.setattr(transforms, "heapify", recording)
    n = 30
    for first in (0, 1):
        up = ParityGame.from_vertices(
            [((v + first) % 2, 2, (v + 1,) if v + 1 < n else (v,)) for v in range(n)]
        )
        down = ParityGame.from_vertices(
            [((v + first) % 2, 2, (v - 1,) if v else (v,)) for v in range(n)]
        )
        for game, end in ((up, n - 1), (down, 0)):
            for player in (0, 1):
                regions = [frozenset(), frozenset()]
                regions[player] = frozenset({end})
                partial = PartialSolution(
                    *regions, Strategy(Player.P0, {}), Strategy(Player.P1, {})
                )
                sizes.clear()
                closed = closure(game, partial)
                assert sizes == [1] * (n - 1)
                assert (closed.w0, closed.w1)[player] == frozenset(game.vertices)
                assert_same_closure(game, partial)
    rng = random.Random(5)
    for size in (2, 3, 9, 16, 41):
        game = shuffled(cycle(size), rng)
        for v in game.vertices:
            regions = [frozenset(), frozenset()]
            regions[rng.randrange(2)] = frozenset({v})
            assert_same_closure(
                game, PartialSolution(*regions, Strategy(Player.P0, {}), Strategy(Player.P1, {}))
            )
        for _ in range(5):
            assert_same_closure(game, random_partial(game, rng))
