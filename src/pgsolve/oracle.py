"""Brute-force reference solver by full strategy enumeration.

Deliberately naive and independent of the real solvers: a vertex is won
by a player iff some total strategy of that player beats every total
adversary strategy, judged by replaying the resulting lassos.  Feasible
only while the product of out-degrees stays within the profile budget.
"""

from __future__ import annotations

import itertools
from math import prod

from .game import ParityGame, Player, Solution, Strategy
from .solver_short import combine_strategies

_DEFAULT_PROFILE_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The strategy profile space is too large to enumerate."""

    def __init__(self, profiles: int, budget: int):
        super().__init__(
            f"{profiles} strategy profiles exceed the budget of {budget}"
        )
        self.profiles = profiles
        self.budget = budget


def _profile_count(game: ParityGame) -> int:
    """Number of total strategy pairs: product of distinct out-degrees."""
    return prod(len(game.choices_at(v)) for v in game.vertices)


def _winners(game: ParityGame, move: list[int]) -> list[Player]:
    """Winner from every start under one total move vector.

    The move vector induces a functional graph, so every walk ends in a
    cycle whose maximum priority decides every vertex on the walk.
    """
    winner: list[Player | None] = [None] * game.n
    for start in game.vertices:
        if winner[start] is not None:
            continue
        trail = []
        position = {}
        v = start
        while winner[v] is None and v not in position:
            position[v] = len(trail)
            trail.append(v)
            v = move[v]
        if winner[v] is None:
            cycle = trail[position[v]:]
            top = max(game.priorities[u] for u in cycle)
            verdict = Player(top % 2)
        else:
            verdict = winner[v]
        for u in trail:
            winner[u] = verdict
    return winner  # type: ignore[return-value]


def _solve_for(game: ParityGame, player: Player) -> tuple[frozenset[int], Strategy]:
    """Vertices this player can win from, with a combined witness.

    Candidate strategies are enumerated lexicographically, choices in
    successor list order over ascending vertices.  For every vertex the
    first winning candidate is kept, each with its full winning set, and
    the per-vertex witnesses are fused by the combining rule.
    """
    own = [v for v in game.vertices if game.owners[v] is player]
    other = [v for v in game.vertices if game.owners[v] is not player]
    witness_of: dict[int, int] = {}
    parts: list[tuple[Strategy, frozenset[int]]] = []
    for own_moves in itertools.product(*(game.choices_at(v) for v in own)):
        base = [0] * game.n
        for v, u in zip(own, own_moves):
            base[v] = u
        alive = set(game.vertices)
        for other_moves in itertools.product(*(game.choices_at(v) for v in other)):
            move = list(base)
            for v, u in zip(other, other_moves):
                move[v] = u
            winners = _winners(game, move)
            alive = {v for v in alive if winners[v] is player}
            if not alive:
                break
        fresh = sorted(v for v in alive if v not in witness_of)
        if fresh:
            strategy = Strategy(player, dict(zip(own, own_moves)))
            parts.append((strategy, frozenset(alive)))
            for v in fresh:
                witness_of[v] = len(parts) - 1
        if len(witness_of) == game.n:
            break
    region = frozenset(witness_of)
    ordered = []
    for v in sorted(region):
        part = parts[witness_of[v]]
        if not ordered or ordered[-1] is not part:
            ordered.append(part)
    if not ordered:
        return frozenset(), Strategy(player, {})
    strategy, _ = combine_strategies(game, player, ordered)
    return region, strategy


def brute_force_solve(game: ParityGame, budget: int | None = None) -> Solution:
    """Solve by enumerating both players' total strategies.

    Raises BudgetExceededError before doing any work when the profile
    space is larger than ``budget`` (default 10**7 profiles).
    """
    if budget is None:
        budget = _DEFAULT_PROFILE_BUDGET
    profiles = _profile_count(game)
    if profiles > budget:
        raise BudgetExceededError(profiles, budget)
    w0, sigma = _solve_for(game, Player.P0)
    w1, tau = _solve_for(game, Player.P1)
    if w0 | w1 != set(game.vertices) or w0 & w1:
        raise RuntimeError(
            f"enumeration did not partition the vertices: w0={sorted(w0)}, "
            f"w1={sorted(w1)}"
        )
    return Solution(w0, w1, sigma, tau)
