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
absorbing copies, so each recursion depth is split once per call, on
its first arena, and a later visit is handed a priority tuple alone.
Answers inside the recursion are pairs of regions and choice maps.  A
depth with nothing to split decides on a stack of its first arena and,
at each later visit, re-decides only the vertices a bump can move: the
predecessors of the copies whose priority changed.

Rounds are plain tuples with choice dicts, and only the top depth's are
also recorded as FixpointState.  At every depth, monotone growth,
strategy stability, the round bound and, at the fixpoint, the
equivalence between bumped copies and losing originals are asserted in
every run.  ``solve_constructive`` certifies its solution with one
``check_solution``; the per-round verifier checks, the checks of every
nested solution and a from-scratch base case beside every incremental
one run only with ``debug=True``, on arenas built for those checks alone.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import NamedTuple, Sequence

from .game import (
    GameError,
    ParityGame,
    Player,
    Solution,
    Strategy,
    _PLAYERS,
    relevant_priorities,
)
from .solver_short import (
    CertificationError,
    _certified,
    _decide,
    _require_solution,
    _unsplit as _merged,  # a split answer's choices, copies dropped, moves mapped back
    base_case_solve,
)
from .transforms import SplitGame, _Stack, _normalized, split_top
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
_Answer = tuple[tuple[frozenset[int], frozenset[int]], tuple[dict[int, int], dict[int, int]]]


class _Depth(NamedTuple):
    """What every visit of one split depth shares, for one public call."""

    split: SplitGame  # of the depth's first arena
    k: int
    order: tuple[int, ...]  # the split set ascending: copy n + i is order[i]'s
    loser: Player  # the player k disfavours
    n: int
    vertices: frozenset[int]  # range(n)


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


def _composed(tau: dict, settled: frozenset, w1: frozenset, fresh: dict) -> dict[int, int]:
    """``tau``'s choices, then ``fresh``'s on ``w1 - settled``, in a new dict."""
    return {**tau, **{v: u for v, u in fresh.items() if v in w1 and v not in settled}}


def compose_tau(
    history: Sequence[FixpointState], w1: frozenset[int], tau_plus: Strategy
) -> Strategy:
    """``tau_plus.player``'s strategy for the current round (P0 for odd k).

    On a vertex seen in an earlier round's region, the choice of the
    earliest such round; on the newly won rest, the fresh strategy;
    undefined elsewhere.  Folds ``_composed`` over the history; only
    the top depth's rounds call this, inner rounds call ``_composed``.
    """
    choices, settled = {}, frozenset()
    for state in history:
        choices = _composed(choices, settled, state.w1, state.tau.choices)
        settled |= state.w1
    return Strategy(tau_plus.player, _composed(choices, settled, w1, tau_plus.choices))


# A round as ``_check_round`` reads it; ``_fixpoint`` keeps plain tuples.
_Round = namedtuple("_Round", "alpha x pi tau w1")


def _check_round(
    depth: _Depth,
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
    transitivity the chain covers every earlier round.  When
    ``thorough`` (debug mode): the round strategy wins its whole region
    in ``arena``, the bumped game, for its player, and merged back it
    wins the region's originals in the visit's base game, the depth's
    first one relabelled with the first n of ``pi``.
    """
    player, (alpha, x, pi, tau, w1) = depth.loser, state

    def fail(reason: str) -> None:
        rounds = (FixpointState(*r[:3], Strategy(player, r[3]), r[4]) for r in (*history, state))
        raise CertificationError(f"{reason}\nfixpoint history:\n" + "\n".join(map(repr, rounds)))

    if not x <= w1:
        fail(f"round {alpha}: region dropped vertices {sorted(x - w1)}")
    if history:
        previous_alpha, _, _, before, region = history[-1]
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
    merged = Strategy(player, _merged(tau, depth.n, depth.order))
    base = depth.split.base._relabelled(priorities=pi[: depth.n])
    try:
        witness = verify_strategy(base, player, merged, w1 & depth.vertices)
    except Exception as exc:  # noqa: BLE001
        fail(f"round {alpha}: merged tau rejected: {exc}")
    if witness is not None:
        fail(f"round {alpha}: merged tau loses in the base game: {witness}")


class _Bottom:
    """The last answer of a split-free depth, for one public call.

    Every visit of the depth has the edges and owners of its first
    arena, copied once into a stack, and only the priorities of
    absorbing copies differ.  A vertex's answer reads only its owner
    and its targets' priorities, so a visit swaps the stack's priorities
    and re-decides the predecessors of the vertices whose priority
    changed (an absorbing vertex is its own predecessor); every other
    vertex keeps its region and choice.
    """

    def __init__(self, game: ParityGame) -> None:
        self.stack = _Stack(game)
        self.regions: tuple[set[int], set[int]] = (set(), set())
        self.chosen: tuple[dict[int, int], dict[int, int]] = ({}, {})
        _decide(self.stack, game.vertices, self.regions, self.chosen)
        self.settle()

    def solve(self, priorities: tuple[int, ...], debug: bool) -> _Answer:
        if priorities is not self.stack.priorities:
            self.redecide(priorities)
        if debug:
            self.check()
        return self.answer

    def redecide(self, priorities: tuple[int, ...]) -> None:
        stack = self.stack
        changed = compress(stack.vertices, map(ne, stack.priorities, priorities))
        redo = {w for v in changed for w in stack._predecessors[v]}
        stack.priorities = priorities
        if not redo:
            return
        regions, chosen = self.regions, self.chosen
        for region in regions:
            region.difference_update(redo)
        for v in redo:
            chosen[0].pop(v, None)
            chosen[1].pop(v, None)
        _decide(stack, redo, regions, chosen)
        self.settle()

    def settle(self) -> None:
        """Answer with copies: the ``solved`` memo keeps every answer."""
        (w0, w1), (sigma, tau) = self.regions, self.chosen
        self.answer = (frozenset(w0), frozenset(w1)), (dict(sigma), dict(tau))

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
    first: ParityGame,
    priorities: tuple[int, ...],
    debug: bool,
    tower: list,
    history_out: list[FixpointState] | None,
) -> _Answer:
    # ``tower`` is [this depth's _Depth or _Bottom, the tower below], one
    # per public call, built from ``first``, the arena of the first visit.
    # Bumps change only the priorities of absorbing copies, so edges,
    # owners, relevance, k and the split set are the same at every
    # visit: a visit is ``priorities`` read against the first split.
    if not tower:
        if first._mixed_loops:
            v = first._mixed_loops[0]
            raise GameError(
                f"vertex {v} has a self-loop next to proper edges; normalize loops first"
            )
        relevant = relevant_priorities(first)
        if not relevant:
            tower += _Bottom(first), []
        else:
            k, n = max(relevant), first.n
            split = split_top(first, k)
            order = tuple(sorted(split.split_set))
            tower += _Depth(split, k, order, _PLAYERS[1 - k % 2], n, frozenset(range(n))), []
    entry, below = tower
    if entry.__class__ is _Bottom:
        return entry.solve(priorities, debug)
    split, k, order, loser, n, vertices = entry
    plus = split.plus
    history: list[tuple] = []  # the _Round fields of each round
    states: list[FixpointState] = []  # the top depth's rounds, for history_out
    solved: dict[tuple[int, ...], _Answer] = {}
    x, tau = frozenset(), {}
    while True:
        alpha = len(history)
        if alpha > plus.n + 1:
            raise CertificationError("fixpoint failed to converge in |V+|+1 rounds")
        pi = (*priorities, *[k + 1 if v in x else k for v in order])
        inner = solved.get(pi)
        arena = plus._relabelled(priorities=pi) if debug else None
        if inner is None:
            inner = solved[pi] = _fixpoint(plus, pi, debug, below, None)
            if debug:
                _require_solution(arena, _solution(inner), f"round {alpha} split-game solution")
        regions, choices = inner
        lost, before = regions[loser], tau
        # regions only grow (checked below): the last tau holds every earliest choice
        if history_out is None:
            tau = _composed(before, x, lost, choices[loser])
        else:  # top depth: one module-level compose_tau call per round, which perfbench counts
            strategy = compose_tau(states[-1:], lost, Strategy(loser, choices[loser]))
            states.append(FixpointState(alpha, x, pi, strategy, lost))
            tau = strategy.choices
        state = (alpha, x, pi, tau, lost)
        # growth, then stability on the previous region x (vacuous while x is empty)
        if debug or x and not (x <= lost and before.items() <= tau.items()
                               and tau.keys() & x == before.keys()):
            _check_round(entry, arena, history, _Round(*state), thorough=debug)
        history.append(state)
        if lost == x:
            break
        x = lost
    for v, p in zip(order, pi[n:]):
        if (p == k + 1) != (v in lost):
            raise CertificationError(
                f"fixpoint equivalence broken at vertex {v}: "
                f"bumped={p == k + 1}, losing={v in lost}"
            )
    lost = lost & vertices
    won = vertices - lost
    favoured = _merged(choices[1 - loser], n, order)
    disfavoured = _merged(tau, n, order)
    if history_out is not None:
        history_out.extend(states)
    if loser is Player.P1:
        return (won, lost), (favoured, disfavoured)
    return (lost, won), (disfavoured, favoured)


def fixpoint_solve(
    game: ParityGame,
    *,
    debug: bool = False,
    history_out: list[FixpointState] | None = None,
) -> Solution:
    """Solve a loop-normalized game by the bumping fixpoint.

    Requires that only absorbing vertices carry self-loops (run
    ``preprocess`` first, or use ``solve_constructive``).  When
    ``history_out`` is given, the top-level rounds are appended to it;
    for an odd top priority their ``w1`` and ``tau`` are P0's, the
    player it disfavours.  The solution is certified before it is
    returned.
    """
    history: list[FixpointState] = []
    solution = _certified(
        game,
        lambda g, d: _solution(_fixpoint(g, g.priorities, d, [], history)),
        debug,
        "fixpoint solution",
    )
    if history_out is not None:
        history_out.extend(history)
    return solution


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
    history: list[FixpointState] = []

    def solve(game: ParityGame, debug: bool) -> Solution:
        record = preprocess(game)
        reduced = record.reduced
        answer = _fixpoint(reduced, reduced.priorities, debug, [], history)
        if debug:
            _require_solution(reduced, _solution(answer), "fixpoint solution")
        return _lift(record, answer)

    solution = _certified(game, solve, debug, "lifted solution")
    if history_out is not None:
        history_out.extend(history)
    return solution
