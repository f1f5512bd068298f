"""Polynomial certification of memoryless strategies.

A strategy for one player is checked on a claimed region by restricting
the graph: the player's vertices keep only the chosen edge, adversary
vertices keep everything.  The strategy wins from the region iff every
cycle reachable from the region in that restricted graph has a maximum
priority of the player's parity.  Refutations come back as a replayable
path plus cycle.

The cycle test is one nested decomposition into strongly connected
components.  The reachable subgraph is split into SCCs; a pass returns
only the cyclic ones.  One whose top priority has the adversary's parity
holds a bad cycle with that top, and one whose top favours the player
is split again without its top-priority vertices.  An SCC whose top is
at most the best bad top found so far is pruned.  Only a refuted claim
runs one more SCC pass, on the vertices of priority at most the largest
bad top p, to build the witness through a priority-p vertex.  The worst
case stays O(d * (n + m)) for d distinct priorities, but a typical
claim costs a constant number of passes.  Each call keeps the
restricted graph as one list of edge tuples indexed by vertex, and its
passes share one pair of Tarjan tables over all vertices, so a pass
allocates no set or dict.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .game import (
    GameError,
    ParityGame,
    Player,
    Solution,
    Strategy,
    StrategyError,
    _not_ints,
)


@dataclass(frozen=True)
class BadCycleWitness:
    """A losing cycle reachable from the claimed region.

    ``path`` leads from a region vertex to the cycle entry and is empty
    when the region vertex already lies on the cycle; path then cycle is
    edge-respecting in the strategy-restricted graph.  ``max_priority``
    is the maximum priority on the cycle and has the adversary's parity.
    """

    path: tuple[int, ...]
    cycle: tuple[int, ...]
    max_priority: int


def _reachable(
    game: ParityGame, player: Player, strategy: Strategy, region: list[int]
) -> tuple[list[tuple[int, ...]], list[int]]:
    """Restricted adjacency, and the ascending vertices reached from the region.

    The adjacency is indexed by vertex.  A reached vertex of the player
    keeps only the chosen edge, an adversary vertex keeps every edge;
    an unreached entry is the vertex's successor tuple and is never
    read.  The walk is FIFO from the ascending region and raises
    StrategyError at the first reached branching player vertex with no
    choice; successors that repeat one target are forced.  The strategy
    is validated, so a choice at a forced vertex is its one successor.
    """
    owners, moves = game.owners, strategy.choices
    edges = list(game.successors)
    seen = bytearray(game.n)
    for v in region:
        seen[v] = 1
    queue = list(region)
    for v in queue:
        out = edges[v]
        if owners[v] is player and len(out) > 1:
            if v not in moves and len(set(out)) > 1:
                raise StrategyError(f"strategy has no choice at reachable vertex {v}", v)
            out = edges[v] = (moves.get(v, out[0]),)
        for u in out:
            if not seen[u]:
                seen[u] = 1
                queue.append(u)
    return edges, list(compress(range(game.n), seen))


def _sccs(
    vertices: list[int],
    edges: list[tuple[int, ...]],
    tables: tuple[list[int], list[int]],
) -> list[list[int]]:
    """Iterative Tarjan over the induced subgraph on ``vertices``.

    Only cyclic components come out: a single vertex without a self-loop
    is dropped as it is popped.  They come in Tarjan's order, each
    listed from its last stacked vertex back to its root.  ``tables`` is
    the pair of ``index`` and ``low`` lists over all n vertices that
    every pass of one ``verify_strategy`` call shares.  ``index`` is -1
    at a vertex of this pass not yet visited and n at every vertex off
    the Tarjan stack, which includes the vertices outside the pass.  A
    pass ends with every index back at n, so the next one needs no reset
    and no membership set.
    """
    index, low = tables
    done = len(index)
    for v in vertices:
        index[v] = -1
    counter = 0
    stack: list[int] = []
    components: list[list[int]] = []
    for root in vertices:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(edges[root]))]
        while work:
            v, children = work[-1]
            for u in children:
                at = index[u]
                if at < 0:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    work.append((u, iter(edges[u])))
                    break
                if at < low[v]:
                    low[v] = at
            else:
                work.pop()
                if low[v] == index[v]:
                    w = stack.pop()
                    index[w] = done
                    if w == v and v not in edges[v]:
                        continue  # acyclic: one vertex without a self-loop
                    component = [w]
                    while w != v:
                        w = stack.pop()
                        index[w] = done
                        component.append(w)
                    components.append(component)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return components


def _shortest_cycle(
    start: int, members: set[int], edges: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """Shortest closed walk from ``start`` back to itself inside an SCC."""
    return (start, *_path_to(start, [u for u in edges[start] if u in members], edges, members))


def _path_to(
    target: int, sources: list[int], edges: list[tuple[int, ...]], inside: set[int] | None = None
) -> tuple[int, ...]:
    """Shortest path from the ``sources``, searched in order, to ``target``,
    without it, through vertices ``inside`` only when that is given."""
    parent: dict[int, int | None] = dict.fromkeys(sources)
    if target in parent:
        return ()
    queue = deque(parent)
    while queue:
        v = queue.popleft()
        for u in edges[v]:
            if u not in parent and (inside is None or u in inside):
                parent[u] = v
                if u == target:
                    queue.clear()
                    break
                queue.append(u)
    path = []
    v = parent[target]
    while v is not None:
        path.append(v)
        v = parent[v]
    path.reverse()
    return tuple(path)


def _worst_top(
    player: Player,
    priorities: tuple[int, ...],
    reached: list[int],
    edges: list[tuple[int, ...]],
    tables: tuple[list[int], list[int]],
) -> int | None:
    """Largest adversary-parity priority topping a cycle, or None.

    Every cycle lies inside one SCC.  In an SCC whose top priority p
    favours the adversary some cycle is topped by p and none by more; in
    one whose top favours the player, every bad cycle avoids the
    top-priority vertices, so the rest is decomposed again.
    """
    best = -1
    pending = [reached]
    while pending:
        for component in _sccs(pending.pop(), edges, tables):
            top = max(map(priorities.__getitem__, component))
            if top <= best:
                continue
            if player.favours(top):
                rest = [v for v in component if priorities[v] < top]
                if rest:
                    pending.append(rest)
            else:
                best = top
    return best if best >= 0 else None


def verify_strategy(
    game: ParityGame, player: Player, strategy: Strategy, region: Iterable[int]
) -> BadCycleWitness | None:
    """Certify that ``strategy`` wins for ``player`` from every region vertex.

    Returns None on success and a BadCycleWitness otherwise.  Raises
    StrategyError when the strategy is malformed or has no move at some
    reachable branching vertex of the player.
    """
    player = Player(player)
    strategy.validate(game)
    region = list(region)  # a set could not take an unhashable member
    strays = _not_ints(region)
    if strays:
        raise GameError(f"region vertex {strays[0]!r} is not an int")
    region = sorted(set(region))
    if not region:
        return None
    n = game.n
    if not (0 <= region[0] and region[-1] < n):
        bad = next(v for v in region if not 0 <= v < n)
        raise GameError(f"region vertex {bad} out of range 0..{n - 1}")
    edges, reached = _reachable(game, player, strategy, region)
    tables, priorities = ([n] * n, [0] * n), game.priorities
    p = _worst_top(player, priorities, reached, edges, tables)
    if p is None:
        return None
    # The witness: among the vertices of priority at most p, the first SCC
    # with a priority-p vertex holds the shortest cycle through its least
    # one, reached by a shortest path from the region.
    for component in _sccs([v for v in reached if priorities[v] <= p], edges, tables):
        carriers = [v for v in component if priorities[v] == p]
        if carriers:
            cycle = _shortest_cycle(min(carriers), set(component), edges)
            return BadCycleWitness(_path_to(cycle[0], region, edges), cycle, p)
    raise AssertionError(f"no reachable cycle is topped by priority {p}")


@dataclass(frozen=True)
class Diagnostic:
    """First violated clause of a solution check, with witness if any."""

    clause: str
    witness: BadCycleWitness | None = None

    def __str__(self) -> str:
        if self.witness is None:
            return self.clause
        w = self.witness
        return (
            f"{self.clause}: path {list(w.path)} reaches cycle {list(w.cycle)}"
            f" with maximum priority {w.max_priority}"
        )


def check_solution(game: ParityGame, solution: Solution) -> Diagnostic | None:
    """Check the partition and certify both strategies on their regions."""
    overlap = solution.w0 & solution.w1
    if overlap:
        return Diagnostic(f"regions intersect: {sorted(overlap)}")
    vertices = set(game.vertices)
    missing = vertices - solution.w0 - solution.w1
    if missing:
        return Diagnostic(f"regions do not cover vertices {sorted(missing)}")
    members = solution.w0 | solution.w1
    stray = _not_ints(members) or sorted(members - vertices)
    if stray:
        return Diagnostic(f"regions mention unknown vertices {stray}")
    if solution.sigma.player is not Player.P0:
        return Diagnostic("sigma is not a P0 strategy")
    if solution.tau.player is not Player.P1:
        return Diagnostic("tau is not a P1 strategy")
    for player, strategy, region, label in (
        (Player.P0, solution.sigma, solution.w0, "sigma on w0"),
        (Player.P1, solution.tau, solution.w1, "tau on w1"),
    ):
        try:
            witness = verify_strategy(game, player, strategy, region)
        except StrategyError as exc:
            return Diagnostic(f"{label}: {exc}")
        if witness is not None:
            return Diagnostic(f"{label} loses", witness)
    return None
