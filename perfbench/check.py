"""Output checks that share no code with ``pgsolve.verification``.

A solution is correct when its regions partition the vertices and each
player's strategy wins everywhere on its region.  Winning is checked on
the strategy-restricted graph of the region: the player's vertices keep
only the chosen edge, the opponent's keep every edge.  No edge may leave
the region (in a correct partition a winning play never leaves its
winning region), and no cycle may have a top priority of the opponent's
parity.  The cycle test decomposes into strongly connected components
with networkx: a component with a good top priority is searched again
without its top-priority vertices.  Because a certified partition is
unique, passing both players' checks proves the whole answer right.
"""

from __future__ import annotations

import networkx as nx


def _move(game, player: int, moves, v: int) -> int | None:
    """The player's move at v: explicit choice, else the forced move."""
    move = moves.get(v)
    if move is not None:
        return move
    targets = set(game.successors[v])
    return next(iter(targets)) if len(targets) == 1 else None


def check_region(game, player: int, region: set[int], moves) -> str | None:
    """None when ``moves`` wins for ``player`` from every region vertex."""
    graph = nx.DiGraph()
    graph.add_nodes_from(region)
    for v in region:
        if int(game.owners[v]) == player:
            move = _move(game, player, moves, v)
            if move is None:
                return f"P{player} has no move at {v}"
            if move not in game.successors[v]:
                return f"P{player} moves along a non-edge ({v}, {move})"
            targets = (move,)
        else:
            targets = game.successors[v]
        for u in targets:
            if u not in region:
                return f"P{player}'s play leaves its region along ({v}, {u})"
            graph.add_edge(v, u)
    pending = [graph]
    while pending:
        part = pending.pop()
        for component in nx.strongly_connected_components(part):
            if len(component) == 1:
                (v,) = component
                if not part.has_edge(v, v):
                    continue
            top = max(game.priorities[v] for v in component)
            if top % 2 != player:
                return f"P{player} lets a cycle with top priority {top} through"
            rest = [v for v in component if game.priorities[v] != top]
            if rest:
                pending.append(part.subgraph(rest))
    return None


def check_solution(game, solution) -> str | None:
    """None when ``solution`` is the certified solution of ``game``."""
    w0, w1 = set(solution.w0), set(solution.w1)
    if w0 & w1:
        return f"regions overlap on {sorted(w0 & w1)[:10]}"
    if w0 | w1 != set(range(game.n)):
        return "regions do not cover the vertices exactly"
    for player, region, strategy in ((0, w0, solution.sigma), (1, w1, solution.tau)):
        reason = check_region(game, player, region, strategy.choices)
        if reason is not None:
            return reason
    return None


def check_lasso(game, player: int, region, moves, path, cycle, top: int) -> str | None:
    """None when path + cycle refutes ``moves`` as a win for ``player``.

    The lasso must start in the region, follow the strategy-restricted
    graph edge by edge, close its cycle, and have the opponent's parity
    as the cycle's top priority, which must equal ``top``.
    """
    if not cycle:
        return "witness has an empty cycle"
    walk = [*path, *cycle, cycle[0]]
    if walk[0] not in region:
        return f"witness starts at {walk[0]}, outside the claimed region"
    for v, u in zip(walk, walk[1:]):
        if u not in game.successors[v]:
            return f"witness uses a non-edge ({v}, {u})"
        if int(game.owners[v]) == player and _move(game, player, moves, v) != u:
            return f"witness leaves the claimed strategy at {v}"
    actual = max(game.priorities[v] for v in cycle)
    if actual != top or actual % 2 == player:
        return f"witness cycle has top priority {actual}, reported {top}"
    return None
