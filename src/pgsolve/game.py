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

from contextlib import suppress
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from itertools import chain, compress
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


def _coerced(values: Iterable, kind: type, what: str, at: int | None = None) -> tuple:
    """``values`` as a tuple of exact ``kind`` instances.

    Only a table holding some other type is converted, value by value.
    A value the conversion rejects or changes (int of 2.5 or '3') raises
    GameError naming ``what`` and the vertex ``at``, by default its index.
    """
    values = tuple(values)
    if {*map(type, values)} <= {kind}:
        return values
    converted = []
    for i, value in enumerate(values):
        with suppress(TypeError, ValueError, OverflowError):
            converted.append(kind(value))
            if converted[-1] == value:
                continue
        where = i if at is None else at
        raise GameError(f"vertex {where} has invalid {what} {value!r}")
    return tuple(converted)


def _not_ints(values: Iterable) -> list:
    """The members of ``values`` that are not exact ints, like 1.0 or True, by repr."""
    if {*map(type, values)} <= {int}:
        return []
    return sorted((v for v in values if type(v) is not int), key=repr)


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
        object.__setattr__(self, "owners", _coerced(self.owners, Player, "owner"))
        priorities = _coerced(self.priorities, int, "priority")
        object.__setattr__(self, "priorities", priorities)
        successors = tuple(map(tuple, self.successors))
        targets = [*chain.from_iterable(successors)]
        if not {*map(type, targets)} <= {int}:
            successors = tuple(
                _coerced(succ, int, "successor", v) for v, succ in enumerate(successors)
            )
        object.__setattr__(self, "successors", successors)
        n = len(self.owners)
        if not self.names:
            object.__setattr__(self, "names", (None,) * n)
        else:
            object.__setattr__(self, "names", tuple(self.names))
        if not (len(self.priorities) == len(self.successors) == len(self.names) == n):
            raise GameError("vertex tables differ in length")
        if not n:
            raise GameError("a game needs at least one vertex")
        if not all(successors) or targets and not 0 <= min(targets) <= max(targets) < n:
            for v, succ in enumerate(successors):
                if not succ:
                    raise GameError(f"vertex {v} has an empty successor list")
                for u in succ:
                    if not 0 <= u < n:
                        raise GameError(f"edge ({v}, {u}) leaves the vertex range 0..{n - 1}")
        if priorities and min(priorities) < 0:
            v = next(v for v, p in enumerate(priorities) if p < 0)
            raise GameError(f"vertex {v} has negative priority {priorities[v]}")
        if self.names.count(None) < n:
            for v, name in enumerate(self.names):
                if name is not None and not isinstance(name, str):
                    raise GameError(f"vertex {v} has invalid name {name!r}")
                if name is not None and ('"' in name or "".join(name.splitlines()) != name):
                    raise GameError(
                        f"vertex {v} name {name!r} contains a double quote or a line break"
                    )

    @classmethod
    def from_vertices(cls, rows: Iterable[Sequence]) -> "ParityGame":
        """Build a game from (owner, priority, successors[, name]) rows."""
        rows = [(row[0], row[1], tuple(row[2]), row[3] if len(row) > 3 else None) for row in rows]
        return cls(*zip(*rows)) if rows else cls((), (), ())

    @property
    def n(self) -> int:
        return len(self.owners)

    @property
    def vertices(self) -> range:
        return range(self.n)

    @cached_property
    def _choices(self) -> tuple[tuple[int, ...], ...]:
        """Successors without repeats; a list without any is its own entry."""
        return tuple(
            succ if len(succ) < 2 or len(set(succ)) == len(succ) else tuple(dict.fromkeys(succ))
            for succ in self.successors
        )

    @cached_property
    def _predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Distinct predecessors of every vertex, in ascending order."""
        preds: list[list[int]] = [[] for _ in self.successors]
        for v, options in enumerate(self._choices):
            for u in options:
                preds[u].append(v)
        return tuple(map(tuple, preds))

    @cached_property
    def _mixed_loops(self) -> tuple[int, ...]:
        """Vertices with a self-loop next to proper edges, ascending."""
        return tuple(
            v for v, options in enumerate(self._choices) if v in options and len(options) > 1
        )

    def _relabelled(
        self,
        owners: Sequence | None = None,
        priorities: Sequence[int] | None = None,
    ) -> "ParityGame":
        """This arena with new owners and/or priorities, same edges.

        Keeps ``successors`` and ``names``; its edge tables are its own.
        Unchecked: callers pass valid labels, one per vertex.
        """
        owners = self.owners if owners is None else owners
        priorities = self.priorities if priorities is None else priorities
        return _arena(owners, priorities, self.successors, self.names)

    def choices_at(self, v: int) -> tuple[int, ...]:
        """Distinct successors of v in first-occurrence order."""
        return self._choices[v]


def _arena(owners, priorities, successors, names) -> ParityGame:
    """An arena over tables known valid, for derived arenas and parsed text.

    Unchecked: the tables must be what ``ParityGame`` would make of them.
    Like any arena, it computes its edge tables lazily, at most once.
    """
    arena = object.__new__(ParityGame)
    vars(arena).update(owners=owners, priorities=priorities, successors=successors, names=names)
    return arena


def _relevant_vertices(
    game: ParityGame, inside: Sequence[bool] | None = None, among: Iterable[int] | None = None
) -> list[int]:
    """The ascending vertices relevant in the subarena ``inside`` marks.

    ``inside`` holds one truth value per vertex; None marks every vertex.
    A marked vertex is relevant when a marked vertex, maybe itself, moves
    to it and it can move to a marked vertex other than itself.  Only
    ``among`` (ascending) is tested when given; else, with every vertex
    marked, the marks are not looked up.
    """
    choices, predecessors = game._choices, game._predecessors
    if inside is None or among is None and all(inside):
        return [v for v in game.vertices if predecessors[v] and choices[v] != (v,)]
    marked = inside.__getitem__
    return [
        v
        for v in (compress(game.vertices, inside) if among is None else filter(marked, among))
        if any(map(marked, predecessors[v]))
        and any(inside[u] and u != v for u in choices[v])
    ]


def relevant_priorities(game: ParityGame) -> frozenset[int]:
    """Priorities carried by at least one relevant vertex."""
    return frozenset(map(game.priorities.__getitem__, _relevant_vertices(game)))


@dataclass(frozen=True)
class Strategy:
    """Partial memoryless strategy: chosen successor per owned vertex."""

    player: Player
    choices: Mapping[int, int]

    def __post_init__(self):
        object.__setattr__(self, "player", _as_player(self.player))
        object.__setattr__(self, "choices", dict(self.choices))

    def validate(self, game: ParityGame) -> None:
        """Raise StrategyError unless every entry is an owned, real edge
        between exact ints (``1.0`` and ``True`` are not)."""
        choices, n = self.choices, game.n
        if _not_ints(choices) or _not_ints(choices.values()):
            v, u = next((v, u) for v, u in choices.items() if {type(v), type(u)} != {int})
            raise StrategyError(f"choice ({v!r}, {u!r}) names a vertex that is not an int", v)
        for v, u in choices.items():
            if not 0 <= v < n:
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
        overlap = self.w0 & self.w1
        if overlap:  # members of mixed types do not compare: listed by repr
            ordered = sorted(overlap) if {*map(type, overlap)} <= {int} else sorted(overlap, key=repr)
            raise GameError(f"regions intersect: {ordered}")

    def region(self, player: Player) -> frozenset[int]:
        return self.w0 if _as_player(player) is Player.P0 else self.w1

    def strategy(self, player: Player) -> Strategy:
        return self.sigma if _as_player(player) is Player.P0 else self.tau


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
