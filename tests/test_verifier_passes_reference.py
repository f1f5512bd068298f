"""The nested SCC decomposition against the one-pass-per-priority verifier.

``verify_strategy`` finds the largest bad cycle top with one nested
strongly-connected-component decomposition and builds its witness with
one more pass.  The reference below is the verifier it replaced: a full
Tarjan pass over the capped reachable set for every adversary-parity
priority, from the top down, stopping at the first cyclic component
with a vertex of that priority.  It keeps its own reachability walk,
which builds a dict of the reached vertices' restricted edges and sorts
its keys, and shares only the cycle and path helpers, which read one
edge tuple per vertex from either form.  Both must give field-for-field
equal witnesses, errors and ``check_solution`` diagnostics.
"""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgsolve.verification as verification
from pgsolve import (
    GameError,
    ParityGame,
    Player,
    Solution,
    Strategy,
    StrategyError,
    check_solution,
    solve_short,
    verify_strategy,
)
from games import cycle, ladder_game, random_corpus, union_claim


def reference_sccs(vertices, edges):
    keep = set(vertices)
    index, low = {}, {}
    on_stack = set()
    stack, components = [], []
    counter = 0
    for root in vertices:
        if root in index:
            continue
        work = [(root, iter([u for u in edges[root] if u in keep]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, children = work[-1]
            advanced = False
            for u in children:
                if u not in index:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter([w for w in edges[u] if w in keep])))
                    advanced = True
                    break
                if u in on_stack:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                components.append(component)
    return components


def test_passes_on_one_shared_table_match_fresh_tarjan_runs():
    """Marks that earlier passes leave on the table never leak into a later one.

    Each pass is a subset of the previous one, a list disjoint from it
    or a fresh sample, in shuffled order, and most lists have edges
    that leave them.  A pass returns the cyclic components only (two or
    more vertices, or one with a self-loop), in the reference's order.
    """
    rng = random.Random(18)
    passes = leaving = dropped = looped = 0
    for _ in range(60):
        n = rng.randint(1, 40)
        edges = [
            tuple(rng.randrange(n) for _ in range(rng.randint(1, 3))) for _ in range(n)
        ]
        tables = [n] * n, [0] * n
        vertices = list(range(n))
        for _ in range(25):
            kind = rng.randrange(3)
            if kind == 0 and len(vertices) > 1:
                vertices = rng.sample(vertices, rng.randint(1, len(vertices) - 1))
            elif kind == 1 and len(vertices) < n:
                previous = set(vertices)
                vertices = [v for v in range(n) if v not in previous]
                rng.shuffle(vertices)
            else:
                vertices = rng.sample(range(n), rng.randint(1, n))
            got = verification._sccs(vertices, edges, tables)
            every = reference_sccs(vertices, edges)
            cyclic = [c for c in every if len(c) > 1 or c[0] in edges[c[0]]]
            assert got == cyclic
            dropped += len(every) - len(cyclic)
            looped += sum(len(c) == 1 for c in cyclic)
            members = set(vertices)
            leaving += any(u not in members for v in vertices for u in edges[v])
            passes += 1
    assert passes == 1500
    assert leaving > 500
    assert dropped > 5000 and looped > 500


def reference_reachable(game, player, strategy, region):
    """Restricted edges of every vertex reached from the ascending region."""
    owners, options, moves = game.owners, game._choices, strategy.choices
    edges = {}
    queue = deque(region)
    seen = set(region)
    while queue:
        v = queue.popleft()
        out = options[v]
        if owners[v] is player and len(out) > 1:
            move = moves.get(v)
            if move is None:
                raise StrategyError(f"strategy has no choice at reachable vertex {v}", v)
            out = (move,)
        edges[v] = out
        for u in out:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return edges


def reference_verify_strategy(game, player, strategy, region):
    """One Tarjan pass per adversary-parity priority, largest first."""
    player = Player(player)
    strategy.validate(game)
    region = sorted(set(region))
    for v in region:
        if not 0 <= v < game.n:
            raise GameError(f"region vertex {v} out of range 0..{game.n - 1}")
    if not region:
        return None
    edges = reference_reachable(game, player, strategy, region)
    reached = sorted(edges)
    bad_priorities = sorted(
        {game.priorities[v] for v in reached if not player.favours(game.priorities[v])},
        reverse=True,
    )
    for p in bad_priorities:
        capped = [v for v in reached if game.priorities[v] <= p]
        for component in reference_sccs(capped, edges):
            members = set(component)
            cyclic = len(component) > 1 or any(v in edges[v] for v in component)
            if not cyclic:
                continue
            carriers = sorted(v for v in component if game.priorities[v] == p)
            if not carriers:
                continue
            cycle_ = verification._shortest_cycle(carriers[0], members, edges)
            path = verification._path_to(cycle_[0], region, edges)
            return verification.BadCycleWitness(path, cycle_, p)
    return None


def outcome(verify, game, player, strategy, region):
    try:
        return verify(game, player, strategy, region)
    except (StrategyError, GameError) as exc:
        return type(exc).__name__, str(exc)


def reference_check_solution(game, solution):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verification, "verify_strategy", reference_verify_strategy)
        return check_solution(game, solution)


def assert_same_verdicts(game, player, strategy, region):
    """Equal results of both verifiers; the result, for counting."""
    got = outcome(verify_strategy, game, player, strategy, region)
    assert got == outcome(reference_verify_strategy, game, player, strategy, region)
    return got


def assert_same_diagnostic(game, solution):
    got = check_solution(game, solution)
    want = reference_check_solution(game, solution)
    assert got == want
    assert str(got) == str(want)
    return got


def random_strategy(rng, game, player, decided=0.9):
    choices = {}
    for v in game.vertices:
        if game.owners[v] is player and rng.random() < decided:
            choices[v] = rng.choice(game.successors[v])
    return Strategy(player, choices)


def test_random_strategies_and_regions_match_the_reference():
    rng = random.Random(7)
    witnesses = 0
    for game in random_corpus(400, 14):
        for player in Player:
            strategy = random_strategy(rng, game, player)
            region = {v for v in game.vertices if rng.random() < 0.4}
            got = assert_same_verdicts(game, player, strategy, region)
            witnesses += isinstance(got, verification.BadCycleWitness)
        w0 = frozenset(v for v in game.vertices if rng.random() < 0.5)
        solution = Solution(
            w0,
            frozenset(game.vertices) - w0,
            random_strategy(rng, game, Player.P0, 1),
            random_strategy(rng, game, Player.P1, 1),
        )
        assert_same_diagnostic(game, solution)
    assert witnesses > 100


def test_bad_regions_and_strategies_raise_the_same_errors():
    game = ParityGame.from_vertices([(0, 1, (1, 0)), (1, 2, (0,)), (0, 3, (2, 1))])
    claims = [
        (Player.P0, Strategy(Player.P0, {}), {0}),
        (Player.P0, Strategy(Player.P0, {1: 0}), {0}),
        (Player.P0, Strategy(Player.P0, {0: 2}), {0}),
        (Player.P0, Strategy(Player.P0, {7: 0}), {0}),
        (Player.P0, Strategy(Player.P0, {0: 1, 2: 2}), {0, 5, -1, 9}),
        (Player.P1, Strategy(Player.P1, {}), {3}),
    ]
    for player, strategy, region in claims:
        assert isinstance(assert_same_verdicts(game, player, strategy, region), tuple)


@st.composite
def multigraph_claims(draw):
    """Arenas with duplicate edges and self-loops, and a claim on them."""
    n = draw(st.integers(1, 7))
    rows = []
    for v in range(n):
        succ = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        if draw(st.booleans()):
            succ.insert(draw(st.integers(0, len(succ))), v)
        rows.append((draw(st.integers(0, 1)), draw(st.integers(0, 6)), tuple(succ)))
    game = ParityGame.from_vertices(rows)
    player = draw(st.sampled_from(list(Player)))
    choices = {}
    for v in game.vertices:
        if game.owners[v] is player and draw(st.integers(0, 9)) > 0:
            choices[v] = draw(st.sampled_from(game.successors[v]))
    region = draw(st.sets(st.integers(0, n - 1)))
    return game, player, Strategy(player, choices), region


@settings(max_examples=300, deadline=None)
@given(multigraph_claims())
def test_multigraph_claims_match_the_reference(claim):
    game, player, strategy, region = claim
    assert_same_verdicts(game, player, strategy, region)
    w = frozenset(region)
    sigma = strategy if player is Player.P0 else Strategy(Player.P0, {})
    tau = strategy if player is Player.P1 else Strategy(Player.P1, {})
    assert_same_diagnostic(game, Solution(w, frozenset(game.vertices) - w, sigma, tau))


def perturbed(solution, v):
    """The claim with vertex v moved to the other region."""
    flip = frozenset({v})
    return Solution(solution.w0 ^ flip, solution.w1 ^ flip, solution.sigma, solution.tau)


def test_solved_and_perturbed_family_claims_match_the_reference():
    refuted = 0
    for game in [*map(cycle, range(2, 61)), *map(ladder_game, range(2, 13))]:
        solution = solve_short(game)
        assert assert_same_diagnostic(game, solution) is None
        for v in game.vertices:
            diagnostic = assert_same_diagnostic(game, perturbed(solution, v))
            refuted += diagnostic is not None and diagnostic.witness is not None
    assert refuted > 1000


def test_union_arena_claims_match_the_reference():
    refuted = 0
    for seed in range(3):
        arena, solution = union_claim(40, seed)
        assert assert_same_diagnostic(arena, solution) is None
        for v in random.Random(seed).sample(list(arena.vertices), 60):
            diagnostic = assert_same_diagnostic(arena, perturbed(solution, v))
            assert diagnostic is not None
            refuted += diagnostic.witness is not None
    assert refuted > 100
