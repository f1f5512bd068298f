"""The stack core step of ``solve_short`` against the two-arena path it
replaced.

``solve_short`` splits the undecided rest of a game in place, on one
stack of the game's tables, and takes the split off again on return.
The path before it first built the undecided subarena with a
restriction, split and solved that, merged the split strategy back to
the subarena and lifted the core to the parent, materializing every
move forced in the subarena where the parent branches; the base case
likewise ran on the subarena and was lifted.  That path is kept here,
whole, as the reference.  On every undecided set the solve loop
reaches, both must give the same player, the same region and the same
strategy entries, because the solver's output bytes depend on the exact
choices; and the stack's split subarena of any mask must equal the
reference split of the subarena.
"""

from itertools import compress

from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgsolve import ParityGame, Player, Strategy, gen_random, restrict, solve_short
from pgsolve import solver_short
from pgsolve.game import _relevant_vertices, relevant_priorities
from pgsolve.transforms import _Stack
from games import cycle, random_corpus, scratch_class
import reference_solve_short as reference
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
        if p == k and scratch_class(game, v) == "relevant"
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
    inner = reference.reference_solve_short(plus)
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
    return player, frozenset(to_old[v] for v in region), lifted


def reference_base_case(game, keep):
    """Both (region, strategy) pairs of the base case, through the subarena."""
    sub, to_old = reference_restrict(game, keep)
    assert not relevant_priorities(sub)
    regions = {Player.P0: set(), Player.P1: set()}
    chosen = {Player.P0: {}, Player.P1: {}}
    for v in sub.vertices:
        if scratch_class(sub, v) == "absorbing":
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


def reached_steps(games, monkeypatch):
    """Every core step and every base case the solve loop takes: its
    stack as an arena, the undecided rest, and the answer."""
    cores, bases = [], []
    core, decide = solver_short._core, solver_short._decide

    def stepping(stack, state, relevant, debug):
        game, rest = stack.snapshot(), [*compress(stack.vertices, state.undecided)]
        answer = core(stack, state, relevant, debug)
        cores.append((game, rest, answer))
        return answer

    def deciding(stack, keep, regions, chosen, inside, moves):
        decide(stack, keep, regions, chosen, inside, moves)
        bases.append((stack.snapshot(), keep, (regions, chosen)))

    monkeypatch.setattr(solver_short, "_core", stepping)
    monkeypatch.setattr(solver_short, "_decide", deciding)
    for game in games:
        solve_short(game)
    monkeypatch.undo()
    return cores, bases


def assert_masked_step_matches_reference(games, monkeypatch):
    cores, bases = reached_steps(games, monkeypatch)
    # The reference solves the same split arenas again and again; it is
    # deterministic, so each is solved once.
    solved = {}
    solve = reference.reference_solve_short

    def memoized(game):
        if game not in solved:
            solved[game] = solve(game)
        return solved[game]

    monkeypatch.setattr(reference, "reference_solve_short", memoized)
    for game, rest, (player, region, choices) in cores:
        want_player, want_region, strategy = reference_core(game, rest)
        assert player is want_player
        assert region == want_region
        assert choices == strategy.choices
    for game, rest, (regions, chosen) in bases:
        for player, (region, strategy) in reference_base_case(game, rest).items():
            assert regions[player] == region
            assert chosen[player] == strategy.choices
    reached = [*cores, *bases]
    assert sum(len(rest) < game.n for game, rest, _ in reached) > len(reached) // 5
    return len(cores), len(bases)


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


def split_on_stack(game: ParityGame, inside, k: int):
    """The split set and the split subarena the stack makes of the mask
    ``inside`` at priority k, checking that the stack's tables are the
    game's again after the split."""
    split = [v for v in _relevant_vertices(game, inside) if game.priorities[v] == k]
    stack = _Stack(game)
    log = stack.split(split, k)
    keep = [*compress(game.vertices, inside), *range(game.n, stack.n)]
    sub = restrict(stack.snapshot(), keep)
    stack.unsplit(game.n, log)
    assert (stack.owners, stack.priorities) == (list(game.owners), list(game.priorities))
    assert (stack._choices, stack._predecessors) == (list(game._choices), list(game._predecessors))
    return split, sub.game


def test_relevance_where_a_vertex_sees_only_itself():
    assert _relevant_vertices(SELF_ONLY) == [0, 1, 2, 3]
    assert _relevant_vertices(SELF_ONLY, [True, True, True, False]) == [1, 2]
    assert split_on_stack(SELF_ONLY, [True, True, True, False], 2)[0] == [2]


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
    if not keep or any(not set(game.successors[v]) & marked for v in keep):
        return  # not a game, so the solver never splits it
    sub, to_old = reference_restrict(game, keep)
    relevant = [v for v in sub.vertices if scratch_class(sub, v) == "relevant"]
    assert _relevant_vertices(game, inside) == [to_old[v] for v in relevant]
    for k in sorted(relevant_priorities(sub)):
        split, arena = split_on_stack(game, inside, k)
        plus, copy_of = reference_split_top(sub, k)
        assert split == [to_old[v] for v in copy_of.values()]
        assert arena.owners == plus.owners
        assert arena.priorities == plus.priorities
        assert arena.successors == plus._choices
