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
absorbing copies, so each recursion depth splits once per call, in
place on the call's one stack of its game's tables, and a round writes
its bumps into its own copies' slots of the stack's priorities, logging
each slot it changes.  Answers inside the recursion are pairs of
regions and choice maps.  A depth with nothing to split decides on that
stack and, at each later visit, re-decides only the vertices a bump can
move: the predecessors of the logged slots.

Rounds are plain tuples with choice dicts, composed by ``compose_tau``
at every depth; FixpointStates are built only for ``history_out``.  At
every depth, monotone growth, strategy stability, the round bound and,
at the fixpoint, the equivalence between bumped copies and losing
originals are asserted in every run.  ``solve_constructive`` certifies
its solution with one ``check_solution``; the per-round verifier
checks, the checks of every nested solution and a from-scratch base
case beside every incremental one run only with ``debug=True``, on
stack snapshots taken for them alone.
"""

from __future__ import annotations

from collections import namedtuple
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
    _unsplit,
    base_case_solve,
)
from .transforms import _Stack, _normalized
from .verification import verify_strategy


@dataclass(frozen=True)
class TransformRecord:
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
    vertices: frozenset[int]  # range(n)
    arenas: tuple[ParityGame, ParityGame] | None  # debug: the stack before and after the split


def preprocess(game: ParityGame) -> TransformRecord:
    """Normalize self-loops so only absorbing vertices carry them.

    In one pass, a vertex whose own loop wins for its owner becomes
    absorbing and a loop that loses for its owner is dropped.  Both
    rewrites preserve the winning regions of the game.
    """
    reduced, normalized = _normalized(game, True, False)
    if reduced._mixed_loops:
        v = reduced._mixed_loops[0]
        raise CertificationError(f"vertex {v} kept a self-loop next to proper edges")
    return TransformRecord(game, reduced, normalized)


def _lift(record: TransformRecord, answer: _Answer) -> Solution:
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


def lift_solution(record: TransformRecord, solution: Solution) -> Solution:
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
    at every depth.  Regions only grow, so a vertex keeps its earliest round's choice."""
    return {**tau, **{v: u for v, u in fresh.items() if v in w1 and v not in settled}}


# A round as ``_check_round`` reads it; ``_fixpoint`` keeps plain tuples.
_Round = namedtuple("_Round", "alpha x tau w1")


def _check_round(
    depth: _Depth,
    head: tuple[int, ...],
    arena: ParityGame | None,
    history: Sequence[tuple],
    state: _Round,
    thorough: bool,
) -> None:
    """Assert the per-round guarantees, dumping the history on failure.

    Growth and stability are tested inline at every round of every
    depth; this runs in debug mode or when that test fails, to name the
    round and the vertex.  The region grows monotonically and the
    strategy never changes on the previous round's region, ``state.x``;
    each round is compared with the previous one only, and by
    transitivity the chain covers every earlier round.  A round's
    priorities are ``head``, the visit's first n, then its copies',
    bumped where in its ``x``.  When ``thorough`` (debug mode): the
    round strategy wins its whole region in ``arena``, the bumped game,
    for its player, and merged back it wins the region's originals in
    the visit's base game, the depth's first one relabelled with ``head``.
    """
    player, (alpha, x, tau, w1), k = depth.loser, state, depth.k

    def fail(reason: str) -> None:
        rounds = (FixpointState(a, r, (*head, *[k + (v in r) for v in depth.order]),
                                Strategy(player, t), w) for a, r, t, w in (*history, state))
        raise CertificationError(f"{reason}\nfixpoint history:\n" + "\n".join(map(repr, rounds)))

    if not x <= w1:
        fail(f"round {alpha}: region dropped vertices {sorted(x - w1)}")
    if history:
        previous_alpha, _, before, region = history[-1]
        for v in region:
            if tau.get(v) != before.get(v):
                fail(f"round {alpha}: choice at {v} drifted from round {previous_alpha}")
    if not thorough:
        return
    try:
        witness = verify_strategy(arena, player, Strategy(player, tau), w1)
    except Exception as exc:  # noqa: BLE001 - report through the dump
        fail(f"round {alpha}: tau rejected: {exc}")
    if witness is not None:
        fail(f"round {alpha}: tau loses in the bumped game: {witness}")
    merged = Strategy(player, _unsplit(tau, depth.n, depth.order))
    base = depth.arenas[0]._relabelled(priorities=head)
    try:
        witness = verify_strategy(base, player, merged, w1 & depth.vertices)
    except Exception as exc:  # noqa: BLE001
        fail(f"round {alpha}: merged tau rejected: {exc}")
    if witness is not None:
        fail(f"round {alpha}: merged tau loses in the base game: {witness}")


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


def _solution(answer: _Answer) -> Solution:
    (w0, w1), (sigma, tau) = answer
    return Solution(w0, w1, Strategy(Player.P0, sigma), Strategy(Player.P1, tau))


def _fixpoint(
    stack: _Stack, debug: bool, tower: list, history_out: list[FixpointState] | None
) -> _Answer:
    # ``stack`` and ``tower``, [this depth's _Depth or _Bottom, the tower
    # below], are one per public call.  Built in one descent, a depth's
    # first visit finds the stack as the depth above split it and splits
    # it in place for the rest of the call.  Bumps change only priorities
    # of absorbing copies, so edges, owners, relevance, k and the split
    # set are the same at every visit.  A round writes its bumps into
    # the copy slots n.. of the stack's priorities and logs each slot it
    # changes for the bottom.  x only grows, so a round's bumps equal an
    # earlier round's only when they equal the previous one's.
    priorities = stack.priorities
    if not tower:
        relevant = _relevant_vertices(stack)
        if not relevant:
            tower += _Bottom(stack), []
        else:
            k, n = max(map(priorities.__getitem__, relevant)), stack.n
            order = tuple(v for v in relevant if priorities[v] == k)
            base = stack.snapshot() if debug else None
            stack.split(order, k)
            arenas = (base, stack.snapshot()) if debug else None
            tower += _Depth(k, order, _PLAYERS[1 - k % 2], n, frozenset(range(n)), arenas), []
    entry, below = tower
    if entry.__class__ is _Bottom:
        return entry.solve(debug)
    k, order, loser, n, vertices, arenas = entry
    end, bumped = n + len(order), stack.bumped
    history: list[tuple] = []  # the _Round fields of each round
    x, tau, last = frozenset(), {}, None
    while True:
        alpha = len(history)
        if alpha > end + 1:
            raise CertificationError("fixpoint failed to converge in |V+|+1 rounds")
        bumps = [k + (v in x) for v in order]
        if bumps != last:  # else the previous round's inner answer stands
            for i, p in enumerate(bumps, n):
                if priorities[i] != p:
                    priorities[i] = p
                    bumped.append(i)
            inner = _fixpoint(stack, debug, below, None)
        arena = arenas[1]._relabelled(priorities=tuple(priorities[:end])) if debug else None
        if debug and bumps != last:
            _require_solution(arena, _solution(inner), f"round {alpha} split-game solution")
        last = bumps
        regions, choices = inner
        lost, before = frozenset(regions[loser]), tau
        tau = compose_tau(before, x, lost, choices[loser])
        if history_out is not None:
            pi = tuple(priorities[:end])
            history_out.append(FixpointState(alpha, x, pi, Strategy(loser, tau), lost))
        state = (alpha, x, tau, lost)
        # growth, then stability on the previous region x (vacuous while x is empty)
        if debug or x and not (x <= lost and before.items() <= tau.items()
                               and tau.keys() & x == before.keys()):
            _check_round(entry, tuple(priorities[:n]), arena, history, _Round(*state), debug)
        history.append(state)
        if lost == x:
            break
        x = lost
    for i, v in enumerate(order, n):
        if (priorities[i] == k + 1) != (v in lost):
            raise CertificationError(
                f"fixpoint equivalence broken at vertex {v}: "
                f"bumped={priorities[i] == k + 1}, losing={v in lost}"
            )
    lost = lost & vertices
    won = vertices - lost
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
    history = [] if history_out is not None else None

    def solve(game: ParityGame, debug: bool) -> Solution:
        record = preprocess(game)
        reduced = record.reduced
        stack = _Stack(reduced)
        stack.bumped = []  # the copy slots a round changed, until the bottom re-decides
        answer = _fixpoint(stack, debug, [], history)
        if debug:
            _require_solution(reduced, _solution(answer), "fixpoint solution")
        return _lift(record, answer)

    solution = _certified(game, solve, debug, what)
    if history_out is not None:
        history_out.extend(history)
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
