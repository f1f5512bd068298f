"""The constructive solver as it was when every round built an arena.

Each visit of a fixpoint depth re-based the depth's split onto the
arena it was handed, each round relabelled the split arena with the
bumped priorities and recursed on it, and every answer was a
``Solution`` of two ``Strategy`` objects.  A split-free depth kept its
last answer and re-decided only the predecessors of the vertices whose
priority changed.  It is kept here, without its checks, as the
reference the solver must match byte for byte and round for round.
Loop normalization, the split builder and the per-vertex base-case rule
are the package's own; the round composition is its own fold.
"""

from __future__ import annotations

from itertools import compress
from operator import ne
from typing import Sequence

from pgsolve import FixpointState, ParityGame, Player, Solution, Strategy
from pgsolve.game import _PLAYERS, relevant_priorities
from pgsolve.solver_constructive import preprocess
from pgsolve.solver_short import _decide
from pgsolve.transforms import SplitGame, split_top


def compose_tau(
    history: Sequence[FixpointState], w1: frozenset[int], tau_plus: Strategy
) -> Strategy:
    """``tau_plus.player``'s strategy for the current round.

    On a vertex seen in an earlier round's region, the choice of the
    earliest such round; on the newly won rest, the fresh strategy;
    undefined elsewhere.
    """
    choices, settled = {}, frozenset()
    for region, fresh in [*((state.w1, state.tau) for state in history), (w1, tau_plus)]:
        entered = {v: u for v, u in fresh.choices.items() if v in region and v not in settled}
        choices, settled = {**choices, **entered}, settled | region
    return Strategy(tau_plus.player, choices)


def rebased(split: SplitGame, game: ParityGame) -> SplitGame:
    """``split`` moved onto ``game``, a relabelling of its base."""
    copies = map(game.priorities.__getitem__, split.copy_of.values())
    plus = split.plus._relabelled(priorities=(*game.priorities, *copies))
    return SplitGame(game, plus, split.k, split.split_set, split.copy_of, split.copy_for)


def bumped(split: SplitGame, x: frozenset[int]) -> tuple[int, ...]:
    priorities = list(split.plus.priorities)
    for v in split.split_set & x:
        priorities[split.copy_for[v]] = split.k + 1
    return tuple(priorities)


def merged(split: SplitGame, strategy: Strategy) -> Strategy:
    n, copy_of = split.base.n, split.copy_of
    choices = {v: copy_of.get(u, u) for v, u in strategy.choices.items() if v < n}
    return Strategy(strategy.player, choices)


class Bottom:
    """The last answer of a split-free depth, re-decided where a bump moved."""

    def __init__(self) -> None:
        self.successors = self.owners = self.priorities = self.solution = None

    def solve(self, game: ParityGame) -> Solution:
        if game.successors is not self.successors or game.owners is not self.owners:
            self.successors, self.owners = game.successors, game.owners
            self.predecessors = game._predecessors
            self.regions: tuple[set[int], set[int]] = (set(), set())
            self.chosen: tuple[dict[int, int], dict[int, int]] = ({}, {})
            _decide(game, game.vertices, self.regions, self.chosen)
            self.settle(game)
        elif game.priorities is not self.priorities:
            changed = compress(game.vertices, map(ne, self.priorities, game.priorities))
            redo = {w for v in changed for w in self.predecessors[v]}
            if redo:
                for region in self.regions:
                    region.difference_update(redo)
                for v in redo:
                    self.chosen[0].pop(v, None)
                    self.chosen[1].pop(v, None)
                _decide(game, redo, self.regions, self.chosen)
                self.settle(game)
            self.priorities = game.priorities
        return self.solution

    def settle(self, game: ParityGame) -> None:
        regions, chosen = self.regions, self.chosen
        self.priorities = game.priorities
        self.solution = Solution(
            frozenset(regions[0]),
            frozenset(regions[1]),
            Strategy(Player.P0, chosen[0]),
            Strategy(Player.P1, chosen[1]),
        )


def fixpoint(game: ParityGame, tower: list, history_out: list | None) -> Solution:
    if not tower:
        relevant = relevant_priorities(game)
        tower += split_top(game, max(relevant)) if relevant else Bottom(), []
    entry = tower[0]
    if entry.__class__ is Bottom:
        return entry.solve(game)
    split = entry if entry.base is game else rebased(entry, game)
    loser = _PLAYERS[1 - split.k % 2]
    history: list[FixpointState] = []
    solved: dict[tuple[int, ...], Solution] = {}
    x: frozenset[int] = frozenset()
    while True:
        pi = bumped(split, x)
        inner = solved.get(pi)
        if inner is None:
            arena = split.plus._relabelled(priorities=pi)
            inner = solved[pi] = fixpoint(arena, tower[1], None)
        lost = inner.region(loser)
        tau = compose_tau(history[-1:], lost, inner.strategy(loser))
        history.append(FixpointState(len(history), x, pi, tau, lost))
        if lost == x:
            break
        x = lost
    final = history[-1]
    lost = final.w1.intersection(game.vertices)
    won = frozenset(game.vertices) - lost
    favoured = merged(split, inner.strategy(loser.opponent))
    disfavoured = merged(split, final.tau)
    if history_out is not None:
        history_out.extend(history)
    if loser is Player.P1:
        return Solution(won, lost, favoured, disfavoured)
    return Solution(lost, won, disfavoured, favoured)


def reference_solve_constructive(
    game: ParityGame, history_out: list[FixpointState] | None = None
) -> Solution:
    """Normalize loops, run the arena-per-round fixpoint, lift back."""
    record = preprocess(game)
    original, reduced = record.original, record.reduced
    solution = fixpoint(reduced, [], history_out)
    strategies = {}
    for player in _PLAYERS:
        choices = dict(solution.strategy(player).choices)
        for v in sorted(record.normalized & solution.region(player)):
            if original.owners[v] is player and v not in choices:
                if len(reduced.choices_at(v)) == 1:
                    choices[v] = reduced.choices_at(v)[0]
        strategies[player] = Strategy(player, choices)
    return Solution(solution.w0, solution.w1, strategies[Player.P0], strategies[Player.P1])
