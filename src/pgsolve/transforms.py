"""Arena surgery: splitting, merging, loop normalization, restriction.

The central transform splits every relevant vertex of the top relevant
priority k into two: the original keeps its outgoing edges and becomes
vanishing, a fresh absorbing copy takes over the incoming edges and
loops on itself with priority k.  Solving the split game and mapping the
copies back is what both solvers are built on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from .game import (
    GameError,
    ParityGame,
    PartialSolution,
    Player,
    Solution,
    Strategy,
    VertexClass,
)


@dataclass(frozen=True)
class SplitGame:
    """A game, its split version, and the correspondence between them.

    Copies are appended after the original vertices in ascending order
    of their originals, so every original keeps its index.
    """

    base: ParityGame
    plus: ParityGame
    k: int
    split_set: frozenset[int]
    copy_of: Mapping[int, int]  # copy index -> original index
    copy_for: Mapping[int, int]  # original index -> copy index

    def merge(self, v: int) -> int:
        """The merge map: identity on originals, copy back to original."""
        return self.copy_of.get(v, v)


def split_top(game: ParityGame, k: int) -> SplitGame:
    """Split every relevant vertex of priority k.

    Each copy gets exactly one outgoing edge, its own self-loop, and
    inherits owner and priority.  Edges into a split vertex are
    redirected to its copy, including self-loops of the original.
    Raises GameError when no relevant vertex carries priority k.
    """
    classes = game._classes
    split = [
        v
        for v, p in enumerate(game.priorities)
        if p == k and classes[v] is VertexClass.RELEVANT
    ]
    if not split:
        raise GameError(f"priority {k} is carried by no relevant vertex")
    n = game.n
    copy_for = {v: n + i for i, v in enumerate(split)}
    copy_of = {c: v for v, c in copy_for.items()}
    in_split = set(split)
    successors = [
        tuple(copy_for[u] if u in in_split else u for u in game.successors[v])
        for v in game.vertices
    ]
    owners = list(game.owners)
    priorities = list(game.priorities)
    names = list(game.names)
    for v in split:
        successors.append((copy_for[v],))
        owners.append(game.owners[v])
        priorities.append(k)
        names.append(f"{game.names[v]}~" if game.names[v] is not None else None)
    plus = ParityGame(
        tuple(owners), tuple(priorities), tuple(successors), tuple(names)
    )
    return SplitGame(game, plus, k, frozenset(split), copy_of, copy_for)


def merge_strategy(split: SplitGame, strategy: Strategy) -> Strategy:
    """Carry a split-game strategy back: drop copies, map targets back.

    Sound because an edge into a copy exists exactly when the original
    edge does, and copies only ever loop on themselves.
    """
    n = split.base.n
    choices = {
        v: split.merge(u) for v, u in strategy.choices.items() if v < n
    }
    merged = Strategy(strategy.player, choices)
    merged.validate(split.base)
    return merged


def remove_unfair_win(game: ParityGame) -> tuple[ParityGame, frozenset[int]]:
    """Make vertices absorbing where looping forever already wins.

    Applies to a vertex with a self-loop and proper outgoing edges whose
    priority parity matches its owner: the proper edges are dropped.
    """
    changed = []
    successors = list(game.successors)
    for v in game.vertices:
        options = game.choices_at(v)
        if v in options and len(options) > 1 and game.owners[v].favours(
            game.priorities[v]
        ):
            successors[v] = (v,)
            changed.append(v)
    if not changed:
        return game, frozenset()
    return replace(game, successors=tuple(successors)), frozenset(changed)


def remove_useless_self_loops(game: ParityGame) -> tuple[ParityGame, frozenset[int]]:
    """Drop self-loops an owner would never take.

    Applies to a vertex with a self-loop and proper outgoing edges whose
    priority parity is bad for its owner: looping is a losing move, so
    the loop goes.
    """
    changed = []
    successors = list(game.successors)
    for v in game.vertices:
        options = game.choices_at(v)
        if v in options and len(options) > 1 and not game.owners[v].favours(
            game.priorities[v]
        ):
            successors[v] = tuple(u for u in game.successors[v] if u != v)
            changed.append(v)
    if not changed:
        return game, frozenset()
    return replace(game, successors=tuple(successors)), frozenset(changed)


def shift_and_swap(game: ParityGame) -> ParityGame:
    """Add one to every priority and hand every vertex to the other player.

    Self-inverse on winners: the regions swap and strategies carry over
    unchanged, which is how odd top priorities are reduced to even ones.
    """
    return replace(
        game,
        owners=tuple(o.opponent for o in game.owners),
        priorities=tuple(p + 1 for p in game.priorities),
    )


def swap_solution(solution: Solution) -> Solution:
    """Read a solution of the shifted and swapped game back."""
    return Solution(
        w0=solution.w1,
        w1=solution.w0,
        sigma=Strategy(Player.P0, dict(solution.tau.choices)),
        tau=Strategy(Player.P1, dict(solution.sigma.choices)),
    )


class RestrictionError(GameError):
    """A kept vertex would lose all its successors."""

    def __init__(self, message: str, vertex: int):
        super().__init__(message)
        self.vertex = vertex


@dataclass(frozen=True)
class Subgame:
    """A restriction of a game with the index correspondence kept."""

    game: ParityGame
    to_old: tuple[int, ...]  # new index -> old index
    to_new: Mapping[int, int]  # old index -> new index

    def lift_vertices(self, vertices: Iterable[int]) -> frozenset[int]:
        return frozenset(self.to_old[v] for v in vertices)

    def lift_strategy(self, parent: ParityGame, strategy: Strategy,
                      domain: Iterable[int]) -> Strategy:
        """Map a subgame strategy to parent indices over ``domain``.

        A move forced in the subgame may be a real decision in the
        parent, where dropped edges reappear, so such moves are
        materialized as explicit entries.
        """
        choices = {}
        for v in domain:
            if self.game.owners[v] is not strategy.player:
                continue
            move = strategy.choices.get(v)
            if move is None:
                options = self.game.choices_at(v)
                if len(options) == 1 and len(parent.choices_at(self.to_old[v])) > 1:
                    move = options[0]
            if move is not None:
                choices[self.to_old[v]] = self.to_old[move]
        lifted = Strategy(strategy.player, choices)
        lifted.validate(parent)
        return lifted


def restrict(game: ParityGame, keep: Iterable[int]) -> Subgame:
    """Induced subgame on ``keep``, renumbered densely in index order.

    Raises RestrictionError naming the first vertex left without a
    successor inside ``keep``.
    """
    to_old = tuple(sorted(set(keep)))
    for v in to_old:
        if not 0 <= v < game.n:
            raise GameError(f"vertex {v} out of range 0..{game.n - 1}")
    to_new = {v: i for i, v in enumerate(to_old)}
    kept = set(to_old)
    successors = []
    for v in to_old:
        inside = tuple(to_new[u] for u in game.successors[v] if u in kept)
        if not inside:
            raise RestrictionError(
                f"vertex {v} keeps no successor in the restriction", v
            )
        successors.append(inside)
    sub = ParityGame(
        tuple(game.owners[v] for v in to_old),
        tuple(game.priorities[v] for v in to_old),
        tuple(successors),
        tuple(game.names[v] for v in to_old),
    )
    return Subgame(sub, to_old, to_new)


def closure(game: ParityGame, partial: PartialSolution) -> PartialSolution:
    """Grow certified regions by the two one-step absorption rules.

    Rule (a): an undecided vertex whose owner already wins somewhere it
    can move joins the owner's region, the strategy pointing at the
    least-index such target.  Rule (b): an undecided vertex whose every
    move lands in the opponent's region joins the opponent.  Rule (a) is
    exhausted before rule (b) in every round, until neither applies.

    Runs as a worklist over the arena's cached predecessor lists, with a
    count per undecided vertex of its successors outside the opponent's
    region, in O((n + m) log n).  The result is the one an ascending
    sweep over the undecided vertices gives, pass after pass, with
    strategy entries included: each pass takes its eligible vertices
    from a min-heap, a vertex made eligible above the current one joins
    the pass and one below waits for the next pass, and a grabbed
    vertex's target is chosen when it is popped.

    Keeps both strategies certified when the input regions were; on
    return no undecided vertex can move into its owner's region and
    every undecided vertex keeps an undecided successor.
    """
    owners = game.owners
    choices = game._choices
    predecessors = game._predecessors
    regions = (set(partial.w0), set(partial.w1))
    chosen = (dict(partial.sigma.choices), dict(partial.tau.choices))
    undecided = [v not in regions[0] and v not in regions[1] for v in game.vertices]
    queued = [False] * game.n  # eligible for rule (a), in some queue
    outside = [0] * game.n  # successors outside the opponent's region
    pending_a: list[int] = []  # rule (a) vertices for the next pass
    pending_b: list[int] = []  # rule (b) vertices for the next pass
    for v, open_ in enumerate(undecided):
        if not open_:
            continue
        own, other = regions[owners[v]], regions[1 - owners[v]]
        if any(u in own for u in choices[v]):
            queued[v] = True
            pending_a.append(v)
        outside[v] = sum(u not in other for u in choices[v])
        if not outside[v]:
            pending_b.append(v)

    def join(v, player, a_heap, b_heap):
        """Put v in ``player``'s region and queue what it made eligible.

        A vertex above v goes on the heap of the running pass when that
        pass applies its rule, anything else on the next pass's list.
        """
        regions[player].add(v)
        undecided[v] = False
        for w in predecessors[v]:
            if not undecided[w]:
                continue
            if owners[w] == player:
                if not queued[w]:
                    queued[w] = True
                    if a_heap is not None and w > v:
                        heappush(a_heap, w)
                    else:
                        pending_a.append(w)
            else:
                outside[w] -= 1
                if not outside[w]:
                    if b_heap is not None and w > v:
                        heappush(b_heap, w)
                    else:
                        pending_b.append(w)

    while pending_a or pending_b:
        while pending_a:
            heap = pending_a
            pending_a = []
            heapify(heap)
            while heap:
                v = heappop(heap)
                owner = owners[v]
                own = regions[owner]
                chosen[owner][v] = min(u for u in choices[v] if u in own)
                join(v, owner, heap, None)
        heap = pending_b
        pending_b = []
        heapify(heap)
        while heap:
            v = heappop(heap)
            join(v, 1 - owners[v], None, heap)
    return PartialSolution(
        frozenset(regions[0]),
        frozenset(regions[1]),
        Strategy(Player.P0, chosen[0]),
        Strategy(Player.P1, chosen[1]),
    )
