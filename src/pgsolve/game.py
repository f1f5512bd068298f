"""Finite parity game arenas and the plays they generate.

A game is a directed graph in which every vertex carries an owner and a
nonnegative priority and has at least one outgoing edge.  Player 0 wants
the highest priority seen infinitely often to be even, Player 1 wants it
odd.  Once both players fix a memoryless strategy the play from any
vertex is a lasso, a finite prefix followed by a cycle repeated forever,
so the winner is decided by the maximum priority on that cycle.

Strategies are partial maps.  A vertex with a single distinct successor
never needs an explicit entry: the move is forced.  ``play`` and the
verifier resolve forced moves themselves and complain about any other
missing choice.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence


class Player(IntEnum):
    """The two players. Even priorities favour P0, odd favour P1."""

    P0 = 0
    P1 = 1

    @property
    def opponent(self) -> "Player":
        return _PLAYERS[1 - self]

    def favours(self, priority: int) -> bool:
        """True when seeing ``priority`` forever wins for this player."""
        return priority % 2 == int(self)


# Index by 0 or 1: a tuple lookup, not an enum call.
_PLAYERS = (Player.P0, Player.P1)


def _as_player(value) -> Player:
    """``value`` itself when it is a Player, else ``Player(value)``."""
    return value if value.__class__ is Player else Player(value)


class VertexClass(Enum):
    ABSORBING = "absorbing"  # only outgoing edge is the self-loop
    VANISHING = "vanishing"  # no incoming edge at all
    RELEVANT = "relevant"  # neither of the above


class GameError(ValueError):
    """A structural invariant of an arena or region is violated."""


class StrategyError(ValueError):
    """A strategy lacks or misdeclares a choice at some vertex."""

    def __init__(self, message: str, vertex: int):
        super().__init__(message)
        self.vertex = vertex


@dataclass(frozen=True)
class ParityGame:
    """Immutable arena over vertices 0..n-1.

    Attributes:
        owners: owner of each vertex.
        priorities: nonnegative priority of each vertex.
        successors: per vertex, a nonempty ordered tuple of targets.
            Order is preserved from construction; duplicates are legal
            and ignored where only the edge set matters.
        names: optional display name per vertex, None when unnamed.
            Names survive transforms but never influence semantics.  A
            name may not contain a double quote or a line break (any
            character ``str.splitlines`` splits on), so that every game
            survives the text format.
    """

    owners: tuple[Player, ...]
    priorities: tuple[int, ...]
    successors: tuple[tuple[int, ...], ...]
    names: tuple[str | None, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "owners",
            tuple(o if o.__class__ is Player else Player(o) for o in self.owners),
        )
        object.__setattr__(self, "priorities", tuple(int(p) for p in self.priorities))
        object.__setattr__(self, "successors", tuple(tuple(s) for s in self.successors))
        n = len(self.owners)
        if not self.names:
            object.__setattr__(self, "names", (None,) * n)
        else:
            object.__setattr__(self, "names", tuple(self.names))
        if not (len(self.priorities) == len(self.successors) == len(self.names) == n):
            raise GameError("vertex tables differ in length")
        for v, succ in enumerate(self.successors):
            if not succ:
                raise GameError(f"vertex {v} has an empty successor list")
            for u in succ:
                if not 0 <= u < n:
                    raise GameError(f"edge ({v}, {u}) leaves the vertex range 0..{n - 1}")
        for v, p in enumerate(self.priorities):
            if p < 0:
                raise GameError(f"vertex {v} has negative priority {p}")
        for v, name in enumerate(self.names):
            if name is not None and ('"' in name or "".join(name.splitlines()) != name):
                raise GameError(
                    f"vertex {v} name {name!r} contains a double quote or a line break"
                )

    @classmethod
    def from_vertices(cls, rows: Iterable[Sequence]) -> "ParityGame":
        """Build a game from (owner, priority, successors[, name]) rows."""
        owners, priorities, successors, names = [], [], [], []
        for row in rows:
            owners.append(row[0])
            priorities.append(row[1])
            successors.append(tuple(row[2]))
            names.append(row[3] if len(row) > 3 else None)
        return cls(tuple(owners), tuple(priorities), tuple(successors), tuple(names))

    @property
    def n(self) -> int:
        return len(self.owners)

    @property
    def vertices(self) -> range:
        return range(self.n)

    @cached_property
    def _choices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(dict.fromkeys(succ)) for succ in self.successors)

    @cached_property
    def _classes(self) -> tuple[VertexClass, ...]:
        incoming = set(chain.from_iterable(self.successors))
        return tuple(
            VertexClass.ABSORBING
            if options == (v,)
            else VertexClass.RELEVANT
            if v in incoming
            else VertexClass.VANISHING
            for v, options in enumerate(self._choices)
        )

    @cached_property
    def _relevant(self) -> frozenset[int]:
        priorities = self.priorities
        return frozenset(
            priorities[v]
            for v, cls in enumerate(self._classes)
            if cls is VertexClass.RELEVANT
        )

    @cached_property
    def _predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Distinct predecessors of every vertex, in ascending order."""
        preds: list[list[int]] = [[] for _ in self.successors]
        for v, options in enumerate(self._choices):
            for u in options:
                preds[u].append(v)
        return tuple(map(tuple, preds))

    def choices_at(self, v: int) -> tuple[int, ...]:
        """Distinct successors of v in first-occurrence order."""
        return self._choices[v]

    def has_edge(self, v: int, u: int) -> bool:
        return u in self._choices[v]


def classify(game: ParityGame, v: int) -> VertexClass:
    """Classify v as absorbing, vanishing or relevant.

    The classes partition the vertex set: an absorbing vertex is its own
    predecessor through the self-loop, so it can never be vanishing.
    The classes of all vertices are computed once per arena and cached.
    """
    if not 0 <= v < game.n:
        raise IndexError(f"vertex {v} out of range 0..{game.n - 1}")
    return game._classes[v]


def relevant_priorities(game: ParityGame) -> frozenset[int]:
    """Priorities carried by at least one relevant vertex.

    Computed once per arena and cached.
    """
    return game._relevant


@dataclass(frozen=True)
class Strategy:
    """Partial memoryless strategy: chosen successor per owned vertex."""

    player: Player
    choices: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "player", _as_player(self.player))
        object.__setattr__(self, "choices", dict(self.choices))

    def validate(self, game: ParityGame) -> None:
        """Raise StrategyError unless every entry is an owned, real edge."""
        for v, u in self.choices.items():
            if not 0 <= v < game.n:
                raise StrategyError(f"choice at unknown vertex {v}", v)
            if game.owners[v] is not self.player:
                raise StrategyError(
                    f"vertex {v} is not owned by {self.player.name}", v
                )
            if u not in game.successors[v]:
                raise StrategyError(f"({v}, {u}) is not an edge", v)

    def move_at(self, game: ParityGame, v: int) -> int | None:
        """Explicit choice at v, the forced move, or None when undecided."""
        move = self.choices.get(v)
        if move is not None:
            return move
        options = game.choices_at(v)
        if len(options) == 1:
            return options[0]
        return None


def empty_strategy(player: Player) -> Strategy:
    return Strategy(player, {})


@dataclass(frozen=True)
class Lasso:
    """The eventually periodic play produced by two memoryless strategies."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]
    winner: Player


def play(game: ParityGame, sigma: Strategy, tau: Strategy, start: int) -> Lasso:
    """Run the unique play from ``start`` under sigma (P0) and tau (P1).

    The walk stops at the first repeated vertex, which closes the cycle.
    Raises StrategyError when the responsible strategy has no move at a
    reached branching vertex.
    """
    if not 0 <= start < game.n:
        raise IndexError(f"vertex {start} out of range 0..{game.n - 1}")
    position = {start: 0}
    trail = [start]
    current = start
    while True:
        strategy = sigma if game.owners[current] is Player.P0 else tau
        move = strategy.move_at(game, current)
        if move is None:
            raise StrategyError(f"no choice at reached vertex {current}", current)
        if move not in game.successors[current]:
            raise StrategyError(f"({current}, {move}) is not an edge", current)
        if move in position:
            cut = position[move]
            cycle = tuple(trail[cut:])
            top = max(game.priorities[v] for v in cycle)
            return Lasso(tuple(trail[:cut]), cycle, Player(top % 2))
        position[move] = len(trail)
        trail.append(move)
        current = move


@dataclass(frozen=True)
class PartialSolution:
    """Disjoint certified regions with their witness strategies.

    Vertices outside both regions are still undecided.
    """

    w0: frozenset[int]
    w1: frozenset[int]
    sigma: Strategy
    tau: Strategy

    def __post_init__(self):
        object.__setattr__(self, "w0", frozenset(self.w0))
        object.__setattr__(self, "w1", frozenset(self.w1))
        if self.w0 & self.w1:
            raise GameError(f"regions intersect: {sorted(self.w0 & self.w1)}")

    def region(self, player: Player) -> frozenset[int]:
        return self.w0 if _as_player(player) is Player.P0 else self.w1

    def strategy(self, player: Player) -> Strategy:
        return self.sigma if _as_player(player) is Player.P0 else self.tau


def empty_partial() -> PartialSolution:
    return PartialSolution(
        frozenset(), frozenset(), empty_strategy(Player.P0), empty_strategy(Player.P1)
    )


@dataclass(frozen=True)
class Solution(PartialSolution):
    """Full partition of a game into the two winning regions.

    The winner's strategy is expected to win from every vertex of its
    region; ``check_solution`` certifies exactly that.
    """

    def winner_of(self, v: int) -> Player:
        if v in self.w0:
            return Player.P0
        if v in self.w1:
            return Player.P1
        raise KeyError(f"vertex {v} is in neither region")
