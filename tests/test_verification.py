from collections import Counter

import networkx as nx
import pytest

import pgsolve.verification as verification
from pgsolve import (
    BadCycleWitness,
    Diagnostic,
    GameError,
    ParityGame,
    Player,
    Solution,
    Strategy,
    StrategyError,
    check_solution,
    play,
    solve_short,
    verify_strategy,
)
from pgsolve.pgfile import emit_game, emit_solution, parse_game, parse_solution
from games import chain_game, cycle, two_cycle_game, union_claim


def adversary_from_witness(game, player, witness):
    """Adversary strategy that walks the witness path and then its cycle."""
    adversary = Player(player).opponent
    choices = {}
    cycle = witness.cycle
    on_cycle = set(cycle)
    for i, v in enumerate(cycle):
        if game.owners[v] is adversary:
            choices[v] = cycle[(i + 1) % len(cycle)]
    trail = list(witness.path) + [cycle[0]]
    for a, b in zip(trail, trail[1:]):
        if game.owners[a] is adversary and a not in on_cycle:
            choices[a] = b
    return Strategy(adversary, choices)


def test_verify_accepts_absorbing_even_vertex():
    game = ParityGame.from_vertices([(0, 0, (0,), "a")])
    assert verify_strategy(game, Player.P0, Strategy(Player.P0, {}), {0}) is None


def test_verify_refutes_forced_chain_for_p0():
    game = chain_game()
    witness = verify_strategy(game, Player.P0, Strategy(Player.P0, {}), {0})
    assert witness == BadCycleWitness(path=(0, 1), cycle=(2,), max_priority=1)


def test_verify_accepts_tau_on_chain():
    game = chain_game()
    assert verify_strategy(game, Player.P1, Strategy(Player.P1, {}), {0, 1, 2}) is None


def test_verify_requires_choice_at_reachable_branching_vertex():
    game = ParityGame.from_vertices([(0, 2, (0, 1)), (0, 1, (1,))])
    with pytest.raises(StrategyError) as err:
        verify_strategy(game, Player.P0, Strategy(Player.P0, {}), {0})
    assert err.value.vertex == 0


def test_verify_ignores_unreachable_trouble():
    # the losing sink is not reachable once sigma pins the self-loop
    game = ParityGame.from_vertices([(0, 2, (0, 1)), (0, 1, (1,))])
    sigma = Strategy(Player.P0, {0: 0})
    assert verify_strategy(game, Player.P0, sigma, {0}) is None


def test_verify_adversary_keeps_all_edges():
    # P1 owns a branching vertex; one branch is bad for P0
    game = ParityGame.from_vertices([(1, 2, (0, 1)), (0, 1, (1,))])
    witness = verify_strategy(game, Player.P0, Strategy(Player.P0, {}), {0})
    assert witness is not None
    assert witness.cycle == (1,)
    assert witness.max_priority == 1


def test_witness_replays_as_losing_lasso():
    cases = [
        (chain_game(), Player.P0, Strategy(Player.P0, {}), {0}),
        (
            ParityGame.from_vertices([(1, 2, (0, 1)), (0, 1, (1,))]),
            Player.P0,
            Strategy(Player.P0, {}),
            {0},
        ),
        (
            two_cycle_game(owner=0),
            Player.P1,
            Strategy(Player.P1, {}),
            {0, 1},
        ),
    ]
    for game, player, strategy, region in cases:
        witness = verify_strategy(game, player, strategy, region)
        assert witness is not None
        adversary = adversary_from_witness(game, player, witness)
        start = witness.path[0] if witness.path else witness.cycle[0]
        if player is Player.P0:
            lasso = play(game, strategy, adversary, start)
        else:
            lasso = play(game, adversary, strategy, start)
        assert lasso.winner is Player(player).opponent
        assert max(game.priorities[v] for v in lasso.cycle) == witness.max_priority


def test_witness_is_edge_respecting():
    game = chain_game()
    witness = verify_strategy(game, Player.P0, Strategy(Player.P0, {}), {0})
    trail = list(witness.path) + list(witness.cycle)
    for a, b in zip(trail, trail[1:]):
        assert b in game.successors[a]
    assert witness.cycle[0] in game.successors[witness.cycle[-1]]


def test_check_solution_accepts_certified_partition():
    game = chain_game()
    solution = Solution(
        frozenset(),
        frozenset({0, 1, 2}),
        Strategy(Player.P0, {}),
        Strategy(Player.P1, {}),
    )
    assert check_solution(game, solution) is None


def test_check_solution_rejects_overlap():
    game = chain_game()
    solution = Solution.__new__(Solution)
    object.__setattr__(solution, "w0", frozenset({0}))
    object.__setattr__(solution, "w1", frozenset({0, 1, 2}))
    object.__setattr__(solution, "sigma", Strategy(Player.P0, {}))
    object.__setattr__(solution, "tau", Strategy(Player.P1, {}))
    diagnostic = check_solution(game, solution)
    assert diagnostic is not None
    assert "intersect" in diagnostic.clause


def test_check_solution_rejects_gap():
    game = chain_game()
    solution = Solution(
        frozenset(),
        frozenset({1, 2}),
        Strategy(Player.P0, {}),
        Strategy(Player.P1, {}),
    )
    diagnostic = check_solution(game, solution)
    assert diagnostic is not None
    assert "cover" in diagnostic.clause


def test_check_solution_rejects_unknown_vertices():
    game = chain_game()
    no_moves = Strategy(Player.P0, {}), Strategy(Player.P1, {})
    solution = Solution(frozenset({0, 3}), frozenset({-1, 1, 2}), *no_moves)
    assert check_solution(game, solution) == Diagnostic(
        "regions mention unknown vertices [-1, 3]"
    )


@pytest.mark.parametrize(
    "w1, strays",
    [
        ({0, 1.0, 2}, "[1.0]"),
        ({0, True, 2}, "[True]"),
        ({0, 1, 2, 0.5}, "[0.5]"),
        ({0, 1, 2, "a"}, "['a']"),
        ({-1, 0, 1, 2, "a"}, "['a']"),
    ],
)
def test_check_solution_reports_a_region_member_that_is_not_an_int(w1, strays):
    # 1.0 and True equal vertex 1, so only the type test tells them apart
    no_moves = Strategy(Player.P0, {}), Strategy(Player.P1, {})
    solution = Solution(frozenset(), frozenset(w1), *no_moves)
    assert check_solution(chain_game(), solution) == Diagnostic(
        f"regions mention unknown vertices {strays}"
    )


@pytest.mark.parametrize(
    "region, bad",
    [
        ([0.5], "0.5"),
        ([1.0], "1.0"),
        (["a"], "'a'"),
        ([0, "1"], "'1'"),
        ([True], "True"),
        ([[1]], "[1]"),  # unhashable: no set can hold it
        ([0, [1], "a"], "'a'"),
    ],
)
def test_verify_strategy_rejects_a_region_member_that_is_not_an_int(region, bad):
    with pytest.raises(GameError) as caught:
        verify_strategy(chain_game(), Player.P0, Strategy(Player.P0, {}), region)
    assert str(caught.value) == f"region vertex {bad} is not an int"


BRANCHING = ParityGame.from_vertices([(0, 0, (1, 2)), (1, 2, (0,)), (0, 1, (2,))])


@pytest.mark.parametrize(
    "choices, entry, vertex",
    [
        ({0: 1.0}, "(0, 1.0)", 0),
        ({0.0: 1}, "(0.0, 1)", 0.0),
        ({0: True}, "(0, True)", 0),
        ({0: 2, 2.0: 2}, "(2.0, 2)", 2.0),
        ({"0": 1}, "('0', 1)", "0"),
    ],
)
def test_a_choice_that_is_not_an_int_is_a_strategy_error(choices, entry, vertex):
    # 1.0 and True equal vertex 1, so only the type test tells them apart
    strategy = Strategy(Player.P0, choices)
    message = f"choice {entry} names a vertex that is not an int"
    with pytest.raises(StrategyError) as caught:
        strategy.validate(BRANCHING)
    assert str(caught.value) == message
    assert type(caught.value.vertex) is type(vertex) and caught.value.vertex == vertex
    with pytest.raises(StrategyError, match=r"^choice \("):
        verify_strategy(BRANCHING, Player.P0, strategy, [0])
    solution = Solution(frozenset({0, 2}), frozenset({1}), strategy, Strategy(Player.P1, {}))
    assert check_solution(BRANCHING, solution) == Diagnostic(f"sigma on w0: {message}")


def test_check_solution_reports_a_gap_before_an_unknown_vertex():
    game = chain_game()
    no_moves = Strategy(Player.P0, {}), Strategy(Player.P1, {})
    solution = Solution(frozenset({0, 3}), frozenset({1}), *no_moves)
    assert check_solution(game, solution) == Diagnostic(
        "regions do not cover vertices [2]"
    )


def test_check_solution_refutes_false_claim_with_witness():
    game = chain_game()
    solution = Solution(
        frozenset({0, 1, 2}),
        frozenset(),
        Strategy(Player.P0, {}),
        Strategy(Player.P1, {}),
    )
    diagnostic = check_solution(game, solution)
    assert diagnostic is not None
    # the sink itself is in the claimed region, so the path is empty
    assert diagnostic.witness == BadCycleWitness((), (2,), 1)


def spy_on_scc_passes(monkeypatch):
    """Every vertex list ``verification._sccs`` is called on, in order."""
    passes = []
    sccs = verification._sccs

    def spy(vertices, edges, tables):
        passes.append(list(vertices))
        return sccs(vertices, edges, tables)

    monkeypatch.setattr(verification, "_sccs", spy)
    return passes


def test_cycle_certificate_takes_at_most_three_scc_passes(monkeypatch):
    # One adversary-parity priority per two vertices: a pass per priority
    # would make 200 passes here.
    game = cycle(400)
    solution = solve_short(game)
    passes = spy_on_scc_passes(monkeypatch)
    assert check_solution(game, solution) is None
    assert len(passes) <= 3


def test_no_vertex_enters_more_passes_than_its_scc_has_priorities(monkeypatch):
    arena, solution = union_claim(60, 11)
    passes = spy_on_scc_passes(monkeypatch)
    for player in Player:
        passes.clear()
        strategy, region = solution.strategy(player), solution.region(player)
        assert verify_strategy(arena, player, strategy, region) is None
        entered = Counter(v for vertices in passes for v in vertices)
        restricted = nx.DiGraph()
        restricted.add_nodes_from(arena.vertices)
        for v in arena.vertices:
            if arena.owners[v] is player:
                targets = (strategy.move_at(arena, v),)
            else:
                targets = arena.choices_at(v)
            restricted.add_edges_from((v, u) for u in targets)
        reached = set(region)
        for v in region:
            reached |= nx.descendants(restricted, v)
        for component in nx.strongly_connected_components(restricted.subgraph(reached)):
            priorities = {arena.priorities[v] for v in component}
            assert max(entered[v] for v in component) <= len(priorities)
        assert set(entered) == reached


def test_check_solution_walks_the_parsed_successors_and_builds_no_choice_table():
    # A vertex whose successors repeat one target is forced and needs no
    # choice; one with two targets does.  The verifier reads the successor
    # tuples as parsed, so a check builds no de-duplicated edge tables.
    claim = Solution(
        frozenset({0, 1, 2}), frozenset(), Strategy(Player.P0, {}), Strategy(Player.P1, {})
    )
    forced = parse_game("parity 2;\n0 2 0 1,1;\n1 2 0 2;\n2 2 0 2;\n")
    assert check_solution(forced, claim) is None
    branching = parse_game("parity 2;\n0 2 0 1,2;\n1 2 0 2;\n2 2 0 2;\n")
    assert str(check_solution(branching, claim)) == (
        "sigma on w0: strategy has no choice at reachable vertex 0"
    )
    arena, solution = union_claim(20, 3)
    parsed = parse_game(emit_game(arena))
    assert check_solution(parsed, parse_solution(emit_solution(arena, solution), parsed)) is None
    for game in (forced, branching, parsed):
        assert not {"_choices", "_predecessors"} & set(vars(game))
