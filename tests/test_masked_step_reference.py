"""The masked core step of ``solve_short`` against the two-arena path it
replaced.

``solve_short`` splits the undecided rest of a game straight from the
parent arena and the undecided vertex list.  The path it replaced first
built the undecided subarena with a restriction, split and solved that,
merged the split strategy back to the subarena and lifted the core to
the parent, materializing every move forced in the subarena where the
parent branches; the base case likewise ran on the subarena and was
lifted.  That path is kept here, whole, as the reference.  On every
undecided set the solve loop reaches, both must give the same split
arena, the same player, the same region and the same strategy entries,
because the solver's output bytes depend on the exact choices.
"""

from itertools import compress

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgsolve import ParityGame, Player, Strategy, gen_random, solve_short
from pgsolve import solver_short
from pgsolve.game import VertexClass, _relevant_vertices, classify, relevant_priorities
from pgsolve.solver_short import _base_case, _nonempty_step
from pgsolve.transforms import RestrictionError, _split_rest
from games import cycle, random_corpus
from test_closure_reference import arenas


def reference_restrict(game: ParityGame, keep: list[int]):
    """The subarena on ``keep`` (ascending) and its new -> old map."""
    to_new = {v: i for i, v in enumerate(keep)}
    sub = ParityGame(
        tuple(game.owners[v] for v in keep),
        tuple(game.priorities[v] for v in keep),
        tuple(
            tuple(to_new[u] for u in game.successors[v] if u in to_new)
            for v in keep
        ),
        tuple(game.names[v] for v in keep),
    )
    return sub, keep


def reference_split_top(game: ParityGame, k: int):
    """The split game and its copy -> original map, copies appended."""
    split = [
        v
        for v, p in enumerate(game.priorities)
        if p == k and classify(game, v) is VertexClass.RELEVANT
    ]
    copy_for = {v: game.n + i for i, v in enumerate(split)}
    plus = ParityGame(
        (*game.owners, *(game.owners[v] for v in split)),
        (*game.priorities, *(k for _ in split)),
        (
            *(
                tuple(copy_for.get(u, u) for u in game.successors[v])
                for v in game.vertices
            ),
            *((copy_for[v],) for v in split),
        ),
        (
            *game.names,
            *(f"{game.names[v]}~" if game.names[v] is not None else None for v in split),
        ),
    )
    return plus, {c: v for v, c in copy_for.items()}


def reference_lift(sub, to_old, parent, strategy, domain):
    """The old ``Subgame.lift_strategy``: forced moves made explicit."""
    choices = {}
    for v in domain:
        if sub.owners[v] is not strategy.player:
            continue
        move = strategy.choices.get(v)
        if move is None:
            options = sub.choices_at(v)
            if len(options) == 1 and len(parent.choices_at(to_old[v])) > 1:
                move = options[0]
        if move is not None:
            choices[to_old[v]] = to_old[move]
    return Strategy(strategy.player, choices)


def reference_core(game, keep):
    """Player, region and strategy of the core, through the subarena."""
    sub, to_old = reference_restrict(game, keep)
    k = max(relevant_priorities(sub))
    plus, copy_of = reference_split_top(sub, k)
    inner = solver_short._solve_short(plus, False)
    favoured = Player(k % 2)
    lost = inner.region(favoured.opponent)
    player = favoured.opponent if lost else favoured
    region = lost if lost else frozenset(sub.vertices)
    merged = Strategy(
        player,
        {
            v: copy_of.get(u, u)
            for v, u in inner.strategy(player).choices.items()
            if v < sub.n
        },
    )
    lifted = reference_lift(sub, to_old, game, merged, region)
    return plus, player, frozenset(to_old[v] for v in region), lifted


def reference_base_case(game, keep):
    """Both (region, strategy) pairs of the base case, through the subarena."""
    sub, to_old = reference_restrict(game, keep)
    assert not relevant_priorities(sub)
    regions = {Player.P0: set(), Player.P1: set()}
    chosen = {Player.P0: {}, Player.P1: {}}
    for v in sub.vertices:
        if classify(sub, v) is VertexClass.ABSORBING:
            regions[Player(sub.priorities[v] % 2)].add(v)
            continue
        owner = sub.owners[v]
        good = [u for u in sub.choices_at(v) if owner.favours(sub.priorities[u])]
        if good:
            regions[owner].add(v)
            if len(sub.choices_at(v)) > 1:
                chosen[owner][v] = min(good)
        else:
            regions[owner.opponent].add(v)
    return {
        player: (
            frozenset(to_old[v] for v in regions[player]),
            reference_lift(
                sub, to_old, game, Strategy(player, chosen[player]), regions[player]
            ),
        )
        for player in (Player.P0, Player.P1)
    }


def reached_rests(games, monkeypatch):
    """Every (game, undecided mask) pair the solve loop splits or
    finishes; the solve goes on to change its mask, so a copy is kept."""
    reached = []

    def recording(game, inside=None, k=None):
        reached.append((game, list(inside)))
        return _split_rest(game, inside, k)

    monkeypatch.setattr(solver_short, "_split_rest", recording)
    for game in games:
        solve_short(game)
    monkeypatch.undo()
    return reached


def assert_masked_step_matches_reference(games, monkeypatch):
    reached = reached_rests(games, monkeypatch)
    # Both paths solve the same split arenas, many of them again and
    # again; the solver is deterministic, so each is solved once.
    solved = {}
    solve = solver_short._solve_short

    def memoized(game, debug):
        if game not in solved:
            solved[game] = solve(game, debug)
        return solved[game]

    monkeypatch.setattr(solver_short, "_solve_short", memoized)
    cores = bases = masked = 0
    for game, inside in reached:
        masked += not all(inside)
        rest = list(compress(game.vertices, inside))
        split = _split_rest(game, inside)
        if split is None:
            base = _base_case(game, False, inside)
            for player, (region, strategy) in reference_base_case(game, rest).items():
                assert base.region(player) == region
                assert base.strategy(player).choices == strategy.choices
            bases += 1
            continue
        plus, player, region, strategy = reference_core(game, rest)
        assert split.plus == plus
        core = _nonempty_step(split, False)
        assert core.player is player
        assert core.region == region
        assert core.strategy.player is player
        assert core.strategy.choices == strategy.choices
        cores += 1
    assert masked > len(reached) // 5
    return cores, bases


def test_masked_step_matches_reference_on_random_corpus(monkeypatch):
    cores, bases = assert_masked_step_matches_reference(
        [*random_corpus(300, 8), cycle(12)], monkeypatch
    )
    assert cores > 300 and bases > 300


def test_masked_step_matches_reference_on_larger_games(monkeypatch):
    games = [gen_random(200, 12, 3, seed) for seed in (1, 2, 3)]
    cores, bases = assert_masked_step_matches_reference(games, monkeypatch)
    assert cores > 100 and bases > 10


@st.composite
def arenas_and_masks(draw):
    """Arenas with duplicate edges and self-loops, each with any mask.

    A drawn number of rounds unmarks the marked vertices left without a
    marked successor, so that many masks mark a subarena that is a game."""
    game = draw(arenas())
    inside = draw(st.lists(st.booleans(), min_size=game.n, max_size=game.n))
    while draw(st.booleans()):
        stuck = [
            v
            for v in compress(game.vertices, inside)
            if not any(inside[u] for u in game.successors[v])
        ]
        if not stuck:
            break
        for v in stuck:
            inside[v] = False
    return game, inside


# Vertex 0's only marked successor is itself, vertex 1's only marked
# predecessor is itself; neither is so with every vertex marked.
SELF_ONLY = ParityGame.from_vertices(
    [(0, 2, (0, 3)), (1, 1, (1, 2)), (0, 2, (0, 1)), (1, 3, (1,))]
)


def test_relevance_where_a_vertex_sees_only_itself():
    assert _relevant_vertices(SELF_ONLY) == [0, 1, 2, 3]
    assert _relevant_vertices(SELF_ONLY, [True, True, True, False]) == [1, 2]
    assert _split_rest(SELF_ONLY, [True, True, True, False]).split_set == {2}


@settings(max_examples=400, deadline=None)
@given(arenas_and_masks())
@example((SELF_ONLY, [True, True, True, False]))
@example((SELF_ONLY, [True] * 4))
def test_relevance_and_split_match_the_subarena_on_any_mask(bundle):
    game, inside = bundle
    marked = set(compress(game.vertices, inside))
    assert _relevant_vertices(game, inside) == [
        v
        for v in sorted(marked)
        if any(v in game.successors[w] for w in marked)
        and set(game.successors[v]) & marked - {v}
    ]
    assert _relevant_vertices(game, [True] * game.n) == _relevant_vertices(game)
    keep = sorted(marked)
    if not keep:
        assert _split_rest(game, inside) is None
        return
    stuck = [v for v in keep if not set(game.successors[v]) & marked]
    if stuck:
        # Not a game: a split, when there is one, stops at the first
        # marked vertex without a marked successor.
        try:
            split = _split_rest(game, inside)
        except RestrictionError as exc:
            assert exc.vertex == stuck[0]
        else:
            assert split is None
        return
    sub, to_old = reference_restrict(game, keep)
    relevant = [v for v in sub.vertices if classify(sub, v) is VertexClass.RELEVANT]
    assert _relevant_vertices(game, inside) == [to_old[v] for v in relevant]
    top = max(relevant_priorities(sub), default=None)
    for k in (None, *sorted(set(sub.priorities))):
        split = _split_rest(game, inside, k)
        k = top if k is None else k
        if k not in relevant_priorities(sub):
            assert split is None
            continue
        plus, copy_of = reference_split_top(sub, k)
        assert split.k == k
        assert split.plus == plus
        assert list(split._kept) == keep
        assert split.copy_of == {c: to_old[v] for c, v in copy_of.items()}
        assert split.split_set == {to_old[v] for v in copy_of.values()}
