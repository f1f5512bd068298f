"""Arena surgery: splitting, merging, loop normalization, restriction.

The central transform splits every relevant vertex of the top relevant
priority k into two: the original keeps its outgoing edges and becomes
vanishing, a fresh absorbing copy takes over the incoming edges and
loops on itself with priority k.  Solving the split game and mapping the
copies back is what both solvers are built on.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Mapping, Sequence

from .game import (
    GameError,
    ParityGame,
    PartialSolution,
    Player,
    Solution,
    Strategy,
    _arena,
    _not_ints,
    _relevant_vertices,
)


@dataclass(frozen=True)
class SplitGame:
    """A game, its split version, and the correspondence between them.

    Plus vertex i is base vertex i up to the copies, which follow in
    ascending order of their originals: ``copy_of`` maps them back.
    """

    base: ParityGame
    plus: ParityGame
    k: int
    split_set: frozenset[int]
    copy_of: Mapping[int, int]  # copy index -> original index
    copy_for: Mapping[int, int]  # original index -> copy index


def _induced(game: ParityGame, keep: Sequence[int], split: Sequence[int]) -> ParityGame:
    """The arena ``keep`` induces, each vertex of ``split`` split off.

    ``keep`` is ascending, ``split`` an ascending part of it.  Kept
    vertices are numbered densely in order, then their copies follow.
    Raises RestrictionError at the first kept vertex left without a
    successor.  That is the one check the result needs: every other
    table is taken from the valid ``game``, so the arena is built
    unchecked.
    """
    order = (*keep, *split)
    target = dict(zip(order, range(len(order))))  # a split vertex: its copy
    inside, moved = target.__contains__, target.__getitem__
    successors = [tuple(map(moved, filter(inside, game.successors[v]))) for v in keep]
    if not all(successors):
        v = keep[successors.index(())]
        raise RestrictionError(f"vertex {v} keeps no successor in the restriction", v)
    successors.extend((target[v],) for v in split)
    names = game.names
    return _arena(
        tuple(map(game.owners.__getitem__, order)),
        tuple(map(game.priorities.__getitem__, order)),
        tuple(successors),
        (
            *map(names.__getitem__, keep),
            *(None if names[v] is None else f"{names[v]}~" for v in split),
        ),
    )


def split_top(game: ParityGame, k: int) -> SplitGame:
    """Split every relevant vertex of priority k.

    Each copy gets exactly one outgoing edge, its own self-loop, and
    inherits owner and priority.  Edges into a split vertex are
    redirected to its copy, including self-loops of the original.
    Raises GameError when no relevant vertex carries priority k.
    Every call builds a new split arena and stores nothing on ``game``.
    """
    priorities = game.priorities
    split = tuple(v for v in _relevant_vertices(game) if priorities[v] == k)
    if not split:
        raise GameError(f"priority {k} is carried by no relevant vertex")
    n = game.n
    copy_for = dict(zip(split, range(n, n + len(split))))
    copy_of = dict(zip(copy_for.values(), split))
    plus = _induced(game, game.vertices, split)
    return SplitGame(game, plus, k, frozenset(split), copy_of, copy_for)


def merge_strategy(split: SplitGame, strategy: Strategy) -> Strategy:
    """Carry a split-game strategy back: drop copies, map targets back.

    Sound because an edge into a copy exists exactly when the original
    edge does, and copies only ever loop on themselves.
    """
    n, copy_of = split.base.n, split.copy_of
    choices = {v: copy_of.get(u, u) for v, u in strategy.choices.items() if v < n}
    merged = Strategy(strategy.player, choices)
    merged.validate(split.base)
    return merged


def _normalized(game: ParityGame, *looping_wins: bool) -> tuple[ParityGame, frozenset[int]]:
    """Rewrite each mixed self-loop vertex whose loop winning for its owner
    is among ``looping_wins`` (both kinds, in one pass, for True, False):
    keep only the loop if it wins, drop it if it loses.  Either way the
    vertex keeps a successor, so the arena is built unchecked."""
    owners, priorities, successors = game.owners, game.priorities, list(game.successors)
    changed = []
    for v in game._mixed_loops:
        wins = owners[v].favours(priorities[v])
        if wins in looping_wins:
            changed.append(v)
            successors[v] = (v,) if wins else tuple(u for u in successors[v] if u != v)
    if not changed:
        return game, frozenset()
    return _arena(owners, priorities, tuple(successors), game.names), frozenset(changed)


def remove_unfair_win(game: ParityGame) -> tuple[ParityGame, frozenset[int]]:
    """Make vertices absorbing where looping forever already wins.

    Applies to a vertex with a self-loop and proper outgoing edges whose
    priority parity matches its owner: the proper edges are dropped.
    """
    return _normalized(game, True)


def remove_useless_self_loops(game: ParityGame) -> tuple[ParityGame, frozenset[int]]:
    """Drop self-loops an owner would never take.

    Applies to a vertex with a self-loop and proper outgoing edges whose
    priority parity is bad for its owner: looping is a losing move, so
    the loop goes.
    """
    return _normalized(game, False)


def shift_and_swap(game: ParityGame) -> ParityGame:
    """Add one to every priority and hand every vertex to the other player.

    Self-inverse on winners: the regions swap and strategies carry over
    unchanged.  The edges do not change, so the result shares
    ``successors``, ``names`` and the edge tables (choices, predecessors,
    mixed self-loops) with ``game``.  Shifted priorities of a valid game
    stay nonnegative, so nothing is checked.
    """
    return game._relabelled(
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


def restrict(game: ParityGame, keep: Iterable[int]) -> Subgame:
    """Induced subgame on ``keep``, renumbered densely in index order.

    When ``keep`` is every vertex the subgame is ``game`` itself, with
    identity maps, so it shares every table ``game`` has computed.  Any
    other restriction builds a new arena with ``_induced``.  Raises
    GameError when ``keep`` is empty or names a vertex that is not an
    exact int in range, and RestrictionError naming the first vertex
    left without a successor inside ``keep``.
    """
    keep = list(keep)  # a set could not take an unhashable member
    strays = _not_ints(keep)
    if strays:
        raise GameError(f"vertex {strays[0]!r} is not an int")
    to_old = tuple(sorted(set(keep)))
    n = game.n
    if not to_old:
        raise GameError("a restriction needs at least one vertex")
    if not (0 <= to_old[0] and to_old[-1] < n):
        bad = next(v for v in to_old if not 0 <= v < n)
        raise GameError(f"vertex {bad} out of range 0..{n - 1}")
    to_new = dict(zip(to_old, range(len(to_old))))
    if len(to_old) == n:
        return Subgame(game, to_old, to_new)
    return Subgame(_induced(game, to_old, ()), to_old, to_new)


def closure(game: ParityGame, partial: PartialSolution) -> PartialSolution:
    """Grow certified regions by the two one-step absorption rules.

    Rule (a): an undecided vertex whose owner already wins somewhere it
    can move joins the owner's region, the strategy pointing at the
    least-index such target.  Rule (b): an undecided vertex whose every
    move lands in the opponent's region joins the opponent.  Rule (a) is
    exhausted before rule (b) in every round, until neither applies.
    Regions and choices are an ascending sweep's, in O((n + m) log n).

    Keeps both strategies certified when the input regions were; on
    return no undecided vertex can move into its owner's region and
    every undecided vertex keeps an undecided successor.  ``partial``
    is left as it was.  A region vertex the game lacks or that is not
    an exact int raises GameError; a malformed strategy, StrategyError.
    """
    members = partial.w0 | partial.w1
    if _not_ints(members) or not members <= set(game.vertices):
        raise GameError("regions mention vertices the game does not have")
    partial.sigma.validate(game)
    partial.tau.validate(game)
    state = _Closure(game)
    state.add(Player.P0, partial.w0, partial.sigma.choices)
    state.add(Player.P1, partial.w1, partial.tau.choices)
    state.close()
    (w0, w1), (sigma, tau) = state.regions, state.chosen
    return PartialSolution(w0, w1, Strategy(Player.P0, sigma), Strategy(Player.P1, tau))


class _Closure:
    """Both players' regions and choices, as one ``solve_short`` level grows them.

    Between closes no undecided vertex moves into its owner's region and
    each has a move ``outside`` the opponent's, so a close starts from the
    predecessors of the vertices added since, which ``add`` has already
    placed: each vertex joins once, each edge counts down once.  ``game``
    is a ParityGame or a _Stack; lists given start from a close.
    """

    def __init__(self, game, undecided: list | None = None, outside: list | None = None):
        self.game = game
        self.regions: tuple[set[int], set[int]] = (set(), set())
        self.chosen: tuple[dict[int, int], dict[int, int]] = ({}, {})
        self.undecided = [True] * game.n if undecided is None else undecided
        self.queued = [False] * game.n  # eligible for rule (a), in some queue
        self.outside = list(map(len, game._choices)) if outside is None else outside
        self.added: list[tuple[int, Iterable[int]]] = []  # not walked yet

    def add(self, player: int, region: Iterable[int], choices: Mapping[int, int]) -> None:
        """Mark ``region`` decided; ``close`` walks it once all added are marked."""
        self.regions[player].update(region)
        self.chosen[player].update(choices)
        for v in region:
            self.undecided[v] = False
        self.added.append((player, region))

    def close(self) -> None:
        """Apply both rules until neither does."""
        game, regions, chosen, added = self.game, self.regions, self.chosen, self.added
        owners, choices, predecessors = game.owners, game._choices, game._predecessors
        undecided, queued, outside = self.undecided, self.queued, self.outside
        pending_a, pending_b = [], []  # rule (a) and rule (b) vertices for the next pass

        def join(v, player, a_heap, b_heap):
            # As in an ascending sweep, a vertex made eligible by v joins the
            # running pass (its heap) when above v, and else waits for the next.
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

        for player, region in added:  # join's walk with no pass running: add placed them
            for v in region:
                for w in predecessors[v]:
                    if undecided[w]:
                        if owners[w] == player:
                            if not queued[w]:
                                queued[w] = True
                                pending_a.append(w)
                        else:
                            outside[w] -= 1
                            if not outside[w]:
                                pending_b.append(w)
        added.clear()
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


class _Stack:
    """A game's tables as lists, which read like a ParityGame's.

    ``split`` appends the absorbing copies of a split set in ascending
    order of their originals and moves the set's in-edges onto them, so
    vertices keep their indices and their order, and a vertex branches
    exactly where it branches in the game.  Its block ends with every
    table as it was.
    """

    def __init__(self, game: ParityGame):
        self.owners = list(game.owners)
        self.priorities = list(game.priorities)
        self._choices = list(game._choices)
        self._predecessors = list(game._predecessors)

    @property
    def n(self) -> int:
        return len(self.owners)

    @property
    def vertices(self) -> range:
        return range(len(self.owners))

    @contextmanager
    def split(self, split: Sequence[int], k: int) -> Iterator[None]:
        """Within the block, each vertex of ``split`` (ascending) has its copy."""
        owners, choices, predecessors = self.owners, self._choices, self._predecessors
        n = len(owners)
        copy_for = dict(zip(split, range(n, n + len(split))))
        moved = {w for v in split for w in predecessors[v]}
        log = [(choices, w, choices[w]) for w in moved]
        log += [(predecessors, v, predecessors[v]) for v in split]
        for w in moved:
            choices[w] = tuple(map(copy_for.get, choices[w], choices[w]))
        owners.extend(map(owners.__getitem__, split))
        self.priorities.extend([k] * len(split))
        choices.extend((c,) for c in copy_for.values())
        predecessors.extend(predecessors[v] + (c,) for v, c in copy_for.items())
        for v in split:
            predecessors[v] = ()
        yield  # no undo on an exception: it ends the call, stack and all
        for table in (owners, self.priorities, choices, predecessors):
            del table[n:]
        for table, i, before in log:
            table[i] = before

    def snapshot(self) -> ParityGame:
        """The stack as an arena, choices for successors: for debug checks."""
        owners, priorities, choices = map(tuple, (self.owners, self.priorities, self._choices))
        return _arena(owners, priorities, choices, (None,) * len(choices))
