"""Fixpoint solver that also builds both winning strategies explicitly.

After normalizing self-loops away from non-absorbing vertices, the top
relevant priority k, which favours the player of its parity, is split.
The split game is then re-solved in rounds: every copy whose original
fell into the opponent's region last round gets its priority bumped
from k to k+1, turning a win the favoured player only got by parking on
the copy into a loss, and the opponent's region can only grow.  The
loop stops when it stops growing; the step is the same for both
parities.  At the fixpoint a copy is bumped exactly when its original
is losing, so merging the final strategies back yields both regions of
the original game.  The opponent's strategy on earlier rounds' regions
is frozen the moment a vertex first enters, which is what makes it a
single memoryless witness.  A bump changes only the priorities of
absorbing copies, so every depth's relevance, k and split set are fixed
for a call: before the first round, each depth is split once, top down,
in place on the call's one stack of its game's tables.  A round writes
its bumps into its own copies' slots of the stack's priorities, logging
each slot it changes; one that changes none repeats the previous round,
so it ends the visit unsolved.  Answers inside the recursion are pairs
of regions and choice maps.  The depth with nothing to split decides on
that stack and, at each later visit, re-decides only the vertices a
bump can move: the predecessors of the logged slots.

Rounds are plain tuples with choice dicts, a solved round's composed by
``compose_tau``; FixpointStates are built only for ``history_out`` and
failure dumps.  At every depth, growth and stability at each solved
round, the round bound and, at the fixpoint, the equivalence between
bumped copies and losing originals are asserted in every run.  A call
certifies its solution with one ``check_solution``; the per-round
verifier checks, the checks of every nested solution and a from-scratch
base case beside every incremental one run only with ``debug=True``, on
stack snapshots taken for them alone, one per pair of adjacent depths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, NamedTuple, Sequence

from .game import (
    GameError,
    ParityGame,
    Player,
    Solution,
    Strategy,
    _PLAYERS,
    _relevant_vertices,
)
from .solver_short import (
    CertificationError,
    _certified,
    _decide,
    _require_solution,
    _solution,
    _unsplit,
    base_case_solve,
)
from .transforms import _Stack, _normalized
from .verification import verify_strategy


@dataclass(frozen=True)
class _TransformRecord:
    """What loop normalization did, enough to lift a solution back."""

    original: ParityGame
    reduced: ParityGame
    normalized: frozenset[int]  # now absorbing, or its useless self-loop dropped


@dataclass(frozen=True)
class FixpointState:
    """One round: bumped priorities in, the region and strategy out of
    the player k disfavours, ``tau.player``: P0 when k is odd."""

    alpha: int
    x: frozenset[int]
    pi: tuple[int, ...]
    tau: Strategy
    w1: frozenset[int]


# An answer inside the recursion: (w0, w1), then (sigma's, tau's) choices.
_Answer = tuple[tuple[AbstractSet[int], AbstractSet[int]], tuple[dict[int, int], dict[int, int]]]


class _Depth(NamedTuple):
    """What every visit of one split depth shares, for one public call."""

    k: int
    order: tuple[int, ...]  # the split set ascending: copy n + i is order[i]'s
    loser: Player  # the player k disfavours
    n: int
    arenas: tuple[ParityGame, ParityGame] | None  # debug: the stack before and after the split
    below: _Depth | _Bottom


def preprocess(game: ParityGame) -> _TransformRecord:
    """Normalize self-loops so only absorbing vertices carry them.

    In one pass, a vertex whose own loop wins for its owner becomes
    absorbing and a loop that loses for its owner is dropped.  Both
    rewrites preserve the winning regions of the game.
    """
    reduced, normalized = _normalized(game, True, False)
    if reduced._mixed_loops:
        v = reduced._mixed_loops[0]
        raise CertificationError(f"vertex {v} kept a self-loop next to proper edges")
    return _TransformRecord(game, reduced, normalized)


def _lift(record: _TransformRecord, answer: _Answer) -> Solution:
    original, reduced = record.original, record.reduced
    # The two games differ only where a self-loop was normalized, and
    # each such vertex branched in the original.
    regions, choices = answer
    strategies = []
    for player in _PLAYERS:
        moves = dict(choices[player])
        for v in sorted(record.normalized & regions[player]):
            if original.owners[v] is player and v not in moves and len(reduced.choices_at(v)) == 1:
                moves[v] = reduced.choices_at(v)[0]
        strategies.append(Strategy(player, moves))
    return Solution(*regions, *strategies)


def lift_solution(record: _TransformRecord, solution: Solution) -> Solution:
    """Read a solution of the reduced game as one of the original.

    Regions carry over unchanged.  A vertex forced in the reduced game
    may branch in the original, so the forced move is materialized.
    The lifted solution is certified before it is returned.
    """
    answer = (solution.w0, solution.w1), (solution.sigma.choices, solution.tau.choices)
    lifted = _lift(record, answer)
    _require_solution(record.original, lifted, "lifted solution")
    return lifted


def compose_tau(tau: dict, settled: frozenset, w1: frozenset, fresh: dict) -> dict[int, int]:
    """``tau``'s choices, then ``fresh``'s on ``w1 - settled``, in a new dict: a round's
    strategy from the previous round's and its region ``settled``, called once per round
    that solves the depth below.  Regions only grow, so a vertex keeps its earliest choice."""
    return {**tau, **{v: u for v, u in fresh.items() if v in w1 and v not in settled}}


def _states(depth: _Depth, head: tuple[int, ...], rounds: Sequence[tuple]) -> list[FixpointState]:
    """A visit's ``(alpha, x, tau, w1)`` rounds as FixpointStates.  A round's priorities
    are ``head``, the visit's first n, then its copies', bumped where in its x."""
    return [FixpointState(alpha, x, (*head, *[depth.k + (v in x) for v in depth.order]),
                          Strategy(depth.loser, tau), w1) for alpha, x, tau, w1 in rounds]


def _check_round(
    depth: _Depth,
    head: tuple[int, ...],
    arena: ParityGame | None,
    history: list,
) -> None:
    """Assert the per-round guarantees of ``history``'s last round, dumping it on failure.

    Growth and stability are tested inline at every solved round of
    every depth; this runs in debug mode or when that test fails, to
    name the round and the vertex.  The region grows monotonically and
    the strategy never changes on the previous round's region, its
    ``x``; each round is compared with the previous one only, and by
    transitivity the chain covers every earlier round.  When ``arena``,
    the bumped game, is given (debug mode): the round strategy wins its
    whole region there for its player, and merged back it wins the
    region's originals in the visit's base game, the depth's first one
    relabelled with ``head``, the visit's first n priorities.
    """
    player, (alpha, x, tau, w1) = depth.loser, history[-1]

    def fail(reason: str) -> None:
        dump = "\n".join(map(repr, _states(depth, head, history)))
        raise CertificationError(f"{reason}\nfixpoint history:\n{dump}")

    if not x <= w1:
        fail(f"round {alpha}: region dropped vertices {sorted(x - w1)}")
    if len(history) > 1:
        previous_alpha, _, before, region = history[-2]
        for v in region:
            if tau.get(v) != before.get(v):
                fail(f"round {alpha}: choice at {v} drifted from round {previous_alpha}")
    if arena is None:
        return
    base = depth.arenas[0]._relabelled(priorities=head)
    merged = _unsplit(tau, depth.n, depth.order)
    for what, which, game, choices, region in (
        ("tau", "bumped", arena, tau, w1),
        ("merged tau", "base", base, merged, {v for v in w1 if v < depth.n}),
    ):
        try:
            witness = verify_strategy(game, player, Strategy(player, choices), region)
        except Exception as exc:  # noqa: BLE001 - report through the dump
            fail(f"round {alpha}: {what} rejected: {exc}")
        if witness is not None:
            fail(f"round {alpha}: {what} loses in the {which} game: {witness}")


class _Bottom:
    """The last answer of a split-free depth, for one public call.

    It decides on the call's stack, every depth above split in place:
    every visit has the same edges and owners, and only the priorities
    of absorbing copies differ.  A vertex's answer reads only its owner
    and its targets' priorities, so a visit re-decides the predecessors
    of the slots logged in ``stack.bumped`` (an absorbing vertex is its
    own predecessor) and clears the log; every other vertex keeps its
    region and choice.  The answer is live: the next visit changes it.
    """

    def __init__(self, stack: _Stack) -> None:
        self.stack = stack
        self.regions: tuple[set[int], set[int]] = (set(), set())
        self.chosen: tuple[dict[int, int], dict[int, int]] = ({}, {})
        _decide(stack, stack.vertices, self.regions, self.chosen)
        self.answer = self.regions, self.chosen

    def solve(self, debug: bool) -> _Answer:
        if self.stack.bumped:
            self.redecide()
        if debug:
            self.check()
        return self.answer

    def redecide(self) -> None:
        stack = self.stack
        redo = {w for v in stack.bumped for w in stack._predecessors[v]}
        stack.bumped.clear()
        regions, chosen = self.regions, self.chosen
        for region in regions:
            region.difference_update(redo)
        for v in redo:
            chosen[0].pop(v, None)
            chosen[1].pop(v, None)
        _decide(stack, redo, regions, chosen)

    def check(self) -> None:
        """Compare with a certified base case decided from scratch."""
        game = self.stack.snapshot()
        fresh, (regions, chosen) = base_case_solve(game), self.answer
        for v in game.vertices:
            if (v in fresh.w0, v in fresh.w1) != (v in regions[0], v in regions[1]) or any(
                fresh.strategy(p).choices.get(v) != chosen[p].get(v) for p in _PLAYERS
            ):
                raise CertificationError(
                    f"incremental base case differs from a fresh one at vertex {v}"
                )


def _tower(stack: _Stack, debug: bool) -> _Depth | _Bottom:
    """Split every depth of a public call once, top down, in place on its
    stack, and return the top depth.  A bump changes only priorities of
    absorbing copies, so edges, owners, relevance, k and the split set
    are the same at every visit.  In debug mode adjacent depths share
    a snapshot: the stack after one split is the one before the next."""
    priorities, planned = stack.priorities, []
    stack.bumped = []  # the copy slots a round changed, until the bottom re-decides
    arenas = (None, stack.snapshot()) if debug else None  # the stack before and after a split
    while relevant := _relevant_vertices(stack):
        k, n = max(map(priorities.__getitem__, relevant)), stack.n
        order = tuple(v for v in relevant if priorities[v] == k)
        stack.split(order, k)
        if debug:
            arenas = arenas[1], stack.snapshot()
        planned.append((k, order, _PLAYERS[1 - k % 2], n, arenas))
    depth = _Bottom(stack)
    for fields in reversed(planned):
        depth = _Depth(*fields, depth)
    return depth


def _fixpoint(stack: _Stack, debug: bool, depth: _Depth | _Bottom, history: list) -> _Answer:
    # One visit of ``depth`` on the call's stack, each round appending
    # (alpha, x, tau, w1) to ``history``.  A round writes its bumps into
    # the copy slots n.. of the stack's priorities, logging each slot it
    # changes.  No other depth writes those slots, so a later round that
    # logs none has the previous round's game, answer, region x and tau.
    if depth.__class__ is _Bottom:
        return depth.solve(debug)
    k, order, loser, n, arenas, below = depth
    priorities, bumped, end = stack.priorities, stack.bumped, n + len(order)
    x, tau = frozenset(), {}
    while True:
        alpha = len(history)
        if alpha > end + 1:
            raise CertificationError("fixpoint failed to converge in |V+|+1 rounds")
        logged = len(bumped)
        for i, v in enumerate(order, n):
            p = k + (v in x)
            if priorities[i] != p:
                priorities[i] = p
                bumped.append(i)
        if alpha and len(bumped) == logged:
            history.append((alpha, x, tau, x))
            break
        arena = arenas[1]._relabelled(priorities=tuple(priorities[:end])) if debug else None
        inner = _fixpoint(stack, debug, below, [])
        if debug:
            _require_solution(arena, _solution(inner), f"round {alpha} split-game solution")
        regions, choices = inner
        lost, before = frozenset(regions[loser]), tau
        tau = compose_tau(before, x, lost, choices[loser])
        history.append((alpha, x, tau, lost))
        # growth, then stability on the previous region x (vacuous while x is empty)
        if debug or x and not (x <= lost and before.items() <= tau.items()
                               and tau.keys() & x == before.keys()):
            _check_round(depth, tuple(priorities[:n]), arena, history)
        if lost == x:
            break
        x = lost
    for i, v in enumerate(order, n):
        if (priorities[i] == k + 1) != (v in lost):
            raise CertificationError(
                f"fixpoint equivalence broken at vertex {v}: "
                f"bumped={priorities[i] == k + 1}, losing={v in lost}"
            )
    lost = lost.difference(range(n, end))  # the regions partition range(end)
    won = frozenset(regions[1 - loser]).difference(range(n, end))
    favoured = _unsplit(choices[1 - loser], n, order)
    disfavoured = _unsplit(tau, n, order)
    if loser is Player.P1:
        return (won, lost), (favoured, disfavoured)
    return (lost, won), (disfavoured, favoured)


def _constructive(
    game: ParityGame, debug: bool, history_out: list[FixpointState] | None, what: str
) -> Solution:
    # Both public solvers; on a loop-normalized game preprocess and _lift change nothing.
    # The rounds reach the caller's history_out only once the solution is certified.
    tower = head = rounds = None  # the top depth, its priorities and its rounds

    def solve(game: ParityGame, debug: bool) -> Solution:
        nonlocal tower, head, rounds
        record = preprocess(game)
        stack = _Stack(record.reduced)
        tower, head, rounds = _tower(stack, debug), record.reduced.priorities, []
        answer = _fixpoint(stack, debug, tower, rounds)
        if debug:
            _require_solution(record.reduced, _solution(answer), "fixpoint solution")
        return _lift(record, answer)

    solution = _certified(game, solve, debug, what)
    if history_out is not None:
        history_out.extend(_states(tower, head, rounds))
    return solution


def fixpoint_solve(
    game: ParityGame,
    *,
    debug: bool = False,
    history_out: list[FixpointState] | None = None,
) -> Solution:
    """Solve a loop-normalized game by the bumping fixpoint.

    Requires that only absorbing vertices carry self-loops (run
    ``preprocess`` first, or use ``solve_constructive``).  When
    ``history_out`` is given, the top-level rounds are appended to it,
    and only then are they built as FixpointStates; for an odd top
    priority their ``w1`` and ``tau`` are P0's, the player it
    disfavours.  The solution is certified before it is returned.
    """
    if game._mixed_loops:
        v = game._mixed_loops[0]
        raise GameError(f"vertex {v} has a self-loop next to proper edges; normalize loops first")
    return _constructive(game, debug, history_out, "fixpoint solution")


def solve_constructive(
    game: ParityGame,
    *,
    debug: bool = False,
    history_out: list[FixpointState] | None = None,
) -> Solution:
    """Normalize loops, run the bumping fixpoint, lift the result back.

    The lifted solution is certified once before it is returned;
    ``debug=True`` also runs every per-round check and certifies every
    nested solution.  Raises CertificationError when a check fails.
    """
    return _constructive(game, debug, history_out, "lifted solution")
