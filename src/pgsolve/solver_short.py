"""Recursive solver peeling one relevant priority per split.

The step: take the top relevant priority k (first shifting priorities
and swapping owners when k is odd), split its vertices, and solve the
split game, which has strictly fewer relevant priorities.  Either P0
wins the whole split game and the merged strategy wins everywhere, or
P1's split-game region, merged back, is a winning core for P1.  The
main loop accumulates cores, grows them with the closure rules, and
recurses on the undecided rest.

``solve_short`` certifies the partition it returns with one
``check_solution``; that single check is a complete proof, so the
recursion below it does not re-verify.  With ``debug=True`` every
intermediate result is certified as well (base cases, cores, fused
pairs and nested solutions), which points at the first step that went
wrong.  A failed check means a bug, not a losing position, and raises
CertificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .game import (
    GameError,
    ParityGame,
    PartialSolution,
    Player,
    Solution,
    Strategy,
    StrategyError,
    VertexClass,
    _PLAYERS,
    empty_partial,
    relevant_priorities,
)
from .transforms import (
    closure,
    merge_strategy,
    restrict,
    shift_and_swap,
    split_top,
)
from .verification import check_solution, verify_strategy


class CertificationError(RuntimeError):
    """An output the construction promises to be winning failed its check."""


@dataclass(frozen=True)
class WinningCore:
    """One player, a region, and a strategy certified to win on it."""

    player: Player
    region: frozenset[int]
    strategy: Strategy


def _require_winning(
    game: ParityGame,
    player: Player,
    strategy: Strategy,
    region: frozenset[int],
    what: str,
) -> None:
    """Raise CertificationError, prefixed by ``what``, unless the pair wins."""
    try:
        witness = verify_strategy(game, player, strategy, region)
    except StrategyError as exc:
        raise CertificationError(f"{what}: {exc}") from exc
    if witness is not None:
        raise CertificationError(f"{what}: {witness}")


def _require_solution(game: ParityGame, solution: Solution, what: str) -> None:
    diagnostic = check_solution(game, solution)
    if diagnostic is not None:
        raise CertificationError(f"{what} failed its check: {diagnostic}")


def _certified(
    game: ParityGame,
    solve: Callable[[ParityGame, bool], Solution],
    debug: bool,
    what: str,
) -> Solution:
    """Run ``solve(game, debug)`` and certify its answer, once.

    When the check fails outside debug mode, the solve is repeated with
    every inner check on before raising, so the error also names the
    first intermediate result that broke.  A passing solve pays nothing
    for this.
    """
    solution = solve(game, debug)
    diagnostic = check_solution(game, solution)
    if diagnostic is None:
        return solution
    message = f"{what} failed its check: {diagnostic}"
    if not debug:
        try:
            solve(game, True)
        except CertificationError as exc:
            raise CertificationError(
                f"{message}\nfirst inner check to fail (debug re-run): {exc}"
            ) from exc
    raise CertificationError(message)


def _base_case(game: ParityGame, debug: bool) -> Solution:
    if relevant_priorities(game):
        raise GameError("base case called with relevant vertices present")
    regions = {Player.P0: set(), Player.P1: set()}
    chosen = {Player.P0: {}, Player.P1: {}}
    vanishing = []
    for v, cls in enumerate(game._classes):
        if cls is VertexClass.ABSORBING:
            regions[_PLAYERS[game.priorities[v] % 2]].add(v)
        else:
            vanishing.append(v)
    for v in vanishing:
        owner = game.owners[v]
        good = [u for u in game.choices_at(v) if owner.favours(game.priorities[u])]
        if good:
            regions[owner].add(v)
            if len(game.choices_at(v)) > 1:
                chosen[owner][v] = min(good)
        else:
            regions[owner.opponent].add(v)
    solution = Solution(
        frozenset(regions[Player.P0]),
        frozenset(regions[Player.P1]),
        Strategy(Player.P0, chosen[Player.P0]),
        Strategy(Player.P1, chosen[Player.P1]),
    )
    if debug:
        for player in (Player.P0, Player.P1):
            _require_winning(
                game,
                player,
                solution.strategy(player),
                solution.region(player),
                "base case failed its own check",
            )
    return solution


def base_case_solve(game: ParityGame) -> Solution:
    """Solve a game with no relevant vertex by backward induction.

    Absorbing vertices go to the player of their parity.  A vanishing
    vertex only sees absorbing successors, so its owner wins iff some
    successor has the owner's parity, taking the least-index one.  Both
    strategies are certified before the solution is returned.
    """
    return _base_case(game, debug=True)


def _fused(
    game: ParityGame,
    player: Player,
    parts: Sequence[tuple[Strategy, frozenset[int]]],
) -> tuple[Strategy, frozenset[int]]:
    """Every union vertex takes its choice from the first part holding it."""
    union: set[int] = set()
    for _, region in parts:
        union |= region
    choices = {}
    for v in sorted(union):
        if game.owners[v] is not player:
            continue
        for strategy, region in parts:
            if v in region:
                move = strategy.choices.get(v)
                if move is not None:
                    choices[v] = move
                break
    return Strategy(player, choices), frozenset(union)


def combine_strategies(
    game: ParityGame,
    player: Player,
    parts: Sequence[tuple[Strategy, frozenset[int]]],
) -> tuple[Strategy, frozenset[int]]:
    """Fuse certified (strategy, region) parts into one winning pair.

    Every vertex of the union takes its choice from the lowest-ranking
    part whose region contains it.  A play deviating from that part's
    script can only have moved into a lower-ranking region, so ranks
    along a play descend and the play eventually obeys one part forever.
    Each part is checked up front and the fused pair afterwards; a
    failing check raises.
    """
    player = Player(player)
    for rank, (strategy, region) in enumerate(parts):
        witness = verify_strategy(game, player, strategy, region)
        if witness is not None:
            raise CertificationError(
                f"part {rank} is not winning on its region: {witness}"
            )
    fused, union = _fused(game, player, parts)
    witness = verify_strategy(game, player, fused, union)
    if witness is not None:
        raise CertificationError(f"fused strategy is not winning: {witness}")
    return fused, union


def _nonempty_step(game: ParityGame, debug: bool) -> WinningCore:
    relevant = relevant_priorities(game)
    if not relevant:
        raise GameError("nonempty_step needs at least one relevant vertex")
    k = max(relevant)
    if k % 2 == 1:
        flipped = _nonempty_step(shift_and_swap(game), debug)
        return WinningCore(
            flipped.player.opponent,
            flipped.region,
            Strategy(flipped.player.opponent, dict(flipped.strategy.choices)),
        )
    split = split_top(game, k)
    inner = _solve_short(split.plus, debug)
    if debug:
        _require_solution(split.plus, inner, "split-game solution")
    copies = frozenset(split.copy_of)
    if not inner.w1:
        core = WinningCore(
            Player.P0,
            frozenset(game.vertices),
            merge_strategy(split, inner.sigma),
        )
    else:
        if inner.w1 & copies:
            raise CertificationError(
                "a copy of the top even priority ended up in the P1 region"
            )
        core = WinningCore(
            Player.P1, inner.w1, merge_strategy(split, inner.tau)
        )
    if debug:
        _require_winning(
            game, core.player, core.strategy, core.region, "core failed verification"
        )
    return core


def nonempty_step(game: ParityGame) -> WinningCore:
    """Produce one certified winning core of a game with relevant vertices.

    Splits the top relevant priority (made even by shift_and_swap if
    needed) and fully solves the split game.  If P0 wins it everywhere
    the merged strategy wins the whole base game; otherwise P1's split
    region never contains a copy, and merged back it is a P1 core.  The
    core, and every result it is built from, is certified before it is
    returned.
    """
    return _nonempty_step(game, debug=True)


def _fuse(
    game: ParityGame,
    accumulated: PartialSolution,
    player: Player,
    strategy: Strategy,
    region: frozenset[int],
    debug: bool,
) -> PartialSolution:
    """Fold a freshly lifted core into the accumulated partial solution.

    The core was certified inside its residual subgame; on the full game
    its adversary edges may escape into the earlier regions where only
    the accumulated strategy knows the moves, so parts are not
    re-verified individually, only the fused pair is, in debug mode.
    """
    fused, union = _fused(
        game,
        player,
        [(accumulated.strategy(player), accumulated.region(player)), (strategy, region)],
    )
    if debug:
        _require_winning(game, player, fused, union, "fused strategy is not winning")
    if player is Player.P0:
        return PartialSolution(union, accumulated.w1, fused, accumulated.tau)
    return PartialSolution(accumulated.w0, union, accumulated.sigma, fused)


def _solve_short(game: ParityGame, debug: bool) -> Solution:
    accumulated = empty_partial()
    while True:
        undecided = sorted(set(game.vertices) - accumulated.w0 - accumulated.w1)
        if not undecided:
            break
        sub = restrict(game, undecided)
        if not relevant_priorities(sub.game):
            base = _base_case(sub.game, debug)
            for player in (Player.P0, Player.P1):
                region = base.region(player)
                accumulated = _fuse(
                    game,
                    accumulated,
                    player,
                    sub.lift_strategy(game, base.strategy(player), region),
                    sub.lift_vertices(region),
                    debug,
                )
            break
        core = _nonempty_step(sub.game, debug)
        accumulated = _fuse(
            game,
            accumulated,
            core.player,
            sub.lift_strategy(game, core.strategy, core.region),
            sub.lift_vertices(core.region),
            debug,
        )
        accumulated = closure(game, accumulated)
    return Solution(
        accumulated.w0, accumulated.w1, accumulated.sigma, accumulated.tau
    )


def solve_short(game: ParityGame, *, debug: bool = False) -> Solution:
    """Solve a game by repeated winning cores and closure.

    Each round restricts to the undecided vertices (a legal subgame by
    the closure guarantees), extracts one core there, lifts it back,
    fuses it with the matching accumulated pair and closes off.  The
    base case finishes the last residual.  The final partition is
    certified once before being returned; ``debug=True`` also certifies
    every intermediate result.  Raises CertificationError when a check
    fails.
    """
    return _certified(game, _solve_short, debug, "final solution")
