"""Polynomial certification of memoryless strategies.

A strategy for one player is checked on a claimed region by restricting
the graph: the player's vertices keep only the chosen edge, adversary
vertices keep everything.  The strategy wins from the region iff every
cycle reachable from the region in that restricted graph has a maximum
priority of the player's parity.  Refutations come back as a replayable
path plus cycle.

The cycle test runs once per adversary-parity priority p: inside the
reachable subgraph keep only vertices of priority at most p and look
for a cycle through a priority-p vertex with a strongly connected
component pass.  Any bad cycle with maximum m shows up at p = m.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .game import (
    GameError,
    ParityGame,
    Player,
    Solution,
    Strategy,
    StrategyError,
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
    game: ParityGame, player: Player, strategy: Strategy, region: Iterable[int]
) -> dict[int, tuple[int, ...]]:
    """Restricted adjacency of everything reachable from the region.

    The player's vertices keep only the chosen edge, adversary vertices
    keep every edge.  Raises StrategyError at a reached branching player
    vertex with no choice.
    """
    edges: dict[int, tuple[int, ...]] = {}
    queue = deque(sorted(set(region)))
    seen = set(queue)
    while queue:
        v = queue.popleft()
        if game.owners[v] is player:
            move = strategy.move_at(game, v)
            if move is None:
                raise StrategyError(
                    f"strategy has no choice at reachable vertex {v}", v
                )
            edges[v] = (move,)
        else:
            edges[v] = game.choices_at(v)
        for u in edges[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return edges


def _sccs(vertices: list[int], edges: dict[int, tuple[int, ...]]) -> list[list[int]]:
    """Iterative Tarjan over the induced subgraph on ``vertices``."""
    keep = set(vertices)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    components: list[list[int]] = []
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


def _shortest_cycle(
    start: int, members: set[int], edges: dict[int, tuple[int, ...]]
) -> tuple[int, ...]:
    """Shortest closed walk from ``start`` back to itself inside an SCC."""
    if start in edges[start]:
        return (start,)
    parent: dict[int, int] = {}
    queue = deque()
    for u in edges[start]:
        if u in members and u not in parent:
            parent[u] = start
            queue.append(u)
    while start not in parent:
        v = queue.popleft()
        for u in edges[v]:
            if u in members and u not in parent:
                parent[u] = v
                queue.append(u)
    tail = []
    v = parent[start]
    while v != start:
        tail.append(v)
        v = parent[v]
    return (start, *reversed(tail))


def _path_to(
    target: int, region: Iterable[int], edges: dict[int, tuple[int, ...]]
) -> tuple[int, ...]:
    """Shortest path from any region vertex to ``target``, without it."""
    starts = sorted(set(region))
    if target in starts:
        return ()
    parent: dict[int, int | None] = {v: None for v in starts}
    queue = deque(starts)
    while queue:
        v = queue.popleft()
        for u in edges[v]:
            if u not in parent:
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
    region = sorted(set(region))
    for v in region:
        if not 0 <= v < game.n:
            raise GameError(f"region vertex {v} out of range 0..{game.n - 1}")
    if not region:
        return None
    edges = _reachable(game, player, strategy, region)
    reached = sorted(edges)
    bad_priorities = sorted(
        {game.priorities[v] for v in reached if not player.favours(game.priorities[v])},
        reverse=True,
    )
    for p in bad_priorities:
        capped = [v for v in reached if game.priorities[v] <= p]
        for component in _sccs(capped, edges):
            members = set(component)
            cyclic = len(component) > 1 or any(
                v in edges[v] for v in component
            )
            if not cyclic:
                continue
            carriers = sorted(
                v for v in component if game.priorities[v] == p
            )
            if not carriers:
                continue
            cycle = _shortest_cycle(carriers[0], members, edges)
            path = _path_to(cycle[0], region, edges)
            return BadCycleWitness(path, cycle, p)
    return None


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
    missing = set(game.vertices) - solution.w0 - solution.w1
    if missing:
        return Diagnostic(f"regions do not cover vertices {sorted(missing)}")
    stray = (solution.w0 | solution.w1) - set(game.vertices)
    if stray:
        return Diagnostic(f"regions mention unknown vertices {sorted(stray)}")
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
