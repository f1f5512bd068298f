"""The verifier against two references that share none of its code.

Both solvers certify their answer once, at the public boundary, so the
verifier carries all the trust.  Here its verdict on random strategies
and regions is compared with (a) replaying every memoryless adversary
reply through ``play`` and (b) a networkx strongly-connected-component
test of the strategy-restricted graph.  Every refutation it returns is
replayed as a lasso that the adversary can force.
"""

import itertools
import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsolve import Player, Strategy, StrategyError, play, verify_strategy
from games import random_corpus
from test_properties import games
from test_verification import adversary_from_witness

WINS, LOSES, MALFORMED = "wins", "loses", "malformed"


def verdict(game, player, strategy, region):
    try:
        witness = verify_strategy(game, player, strategy, region)
    except StrategyError:
        return MALFORMED, None
    return (WINS if witness is None else LOSES), witness


def by_enumeration(game, player, strategy, region):
    """Play every start against every memoryless adversary profile.

    Against a fixed memoryless strategy the adversary has a memoryless
    best reply, so this decides the claim exactly.
    """
    adversary = player.opponent
    owned = [
        v for v in game.vertices
        if game.owners[v] is adversary and len(game.choices_at(v)) > 1
    ]
    result = WINS
    for combo in itertools.product(*(game.choices_at(v) for v in owned)):
        reply = Strategy(adversary, dict(zip(owned, combo)))
        sigma, tau = (strategy, reply) if player is Player.P0 else (reply, strategy)
        for start in region:
            try:
                lasso = play(game, sigma, tau, start)
            except StrategyError:
                return MALFORMED
            if lasso.winner is not player:
                result = LOSES
    return result


def restricted_graph(game, player, strategy):
    """The player's vertices keep their chosen edge (none when undecided)."""
    graph = nx.DiGraph()
    graph.add_nodes_from(game.vertices)
    for v in game.vertices:
        if game.owners[v] is player:
            move = strategy.move_at(game, v)
            targets = () if move is None else (move,)
        else:
            targets = game.choices_at(v)
        graph.add_edges_from((v, u) for u in targets)
    return graph


def by_networkx(game, player, strategy, region):
    """A reachable vertex of adversary parity p on a cycle of priorities <= p."""
    graph = restricted_graph(game, player, strategy)
    reached = set(region)
    for v in region:
        reached |= nx.descendants(graph, v)
    for v in reached:
        if game.owners[v] is player and strategy.move_at(game, v) is None:
            return MALFORMED
    for v in reached:
        p = game.priorities[v]
        if player.favours(p):
            continue
        capped = graph.subgraph(u for u in reached if game.priorities[u] <= p)
        for component in nx.strongly_connected_components(capped):
            if v in component and (len(component) > 1 or capped.has_edge(v, v)):
                return LOSES
    return WINS


def assert_replays(game, player, strategy, region, witness):
    """The witness is a lasso of the restricted graph the adversary forces."""
    start = witness.path[0] if witness.path else witness.cycle[0]
    assert start in region
    assert len(set(witness.cycle)) == len(witness.cycle)
    graph = restricted_graph(game, player, strategy)
    walk = (*witness.path, *witness.cycle, witness.cycle[0])
    for v, u in zip(walk, walk[1:]):
        assert graph.has_edge(v, u), (v, u)
    top = max(game.priorities[v] for v in witness.cycle)
    assert top == witness.max_priority
    assert not player.favours(top)
    reply = adversary_from_witness(game, player, witness)
    sigma, tau = (strategy, reply) if player is Player.P0 else (reply, strategy)
    lasso = play(game, sigma, tau, start)
    assert lasso.winner is player.opponent
    assert max(game.priorities[v] for v in lasso.cycle) == witness.max_priority


def check_against_references(game, player, strategy, region):
    found, witness = verdict(game, player, strategy, region)
    assert found == by_enumeration(game, player, strategy, region)
    assert found == by_networkx(game, player, strategy, region)
    if witness is not None:
        assert_replays(game, player, strategy, region, witness)
    return found


def random_claim(game, rng):
    """A random player, a strategy that may skip choices, and a region."""
    player = Player(rng.randrange(2))
    choices = {}
    for v in game.vertices:
        if game.owners[v] is player and rng.random() < 0.9:
            choices[v] = rng.choice(game.choices_at(v))
    region = frozenset(v for v in game.vertices if rng.random() < 0.5)
    return player, Strategy(player, choices), region


def test_verifier_matches_references_on_random_corpus():
    rng = random.Random(2018)
    seen = set()
    for game in random_corpus(300, 6):
        for _ in range(4):
            seen.add(check_against_references(game, *random_claim(game, rng)))
    assert seen == {WINS, LOSES, MALFORMED}


@st.composite
def claims(draw):
    game = draw(games())
    player = Player(draw(st.integers(0, 1)))
    choices = {}
    for v in game.vertices:
        if game.owners[v] is player:
            move = draw(st.none() | st.sampled_from(game.choices_at(v)))
            if move is not None:
                choices[v] = move
    region = draw(st.frozensets(st.sampled_from(game.vertices)))
    return game, player, Strategy(player, choices), region


@settings(deadline=None, max_examples=300)
@given(claims())
def test_verifier_matches_references_on_drawn_claims(claim):
    check_against_references(*claim)
