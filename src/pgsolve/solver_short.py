"""Recursive solver peeling one relevant priority per split.

The step: take the top relevant priority k, whose parity favours one
player, split its vertices, and solve the split game, which has
strictly fewer relevant priorities.  Either the favoured player wins
the whole split game and the merged strategy wins everywhere, or the
opponent's split-game region, merged back, is a winning core for the
opponent.  The step is the same for both parities; no priority is
shifted.  The main loop grows one closure state, both regions and
choice maps, for the whole call: it adds each core, closes off from the
core's vertices alone, and recurses on the undecided rest.

A step never builds the subarena of the undecided vertices.  Its
relevant vertices and its base case are read off the game, with the
closure state's own undecided list as the mask, never a copy of it; its
split game, the one arena a step builds, comes straight from the game,
and the core maps back through one map.

``solve_short`` certifies the partition it returns with one
``check_solution``; that single check is a complete proof, so the
recursion below it does not re-verify.  With ``debug=True`` every
intermediate result is certified as well (base cases and cores on the
undecided subarena, built for that alone, fused pairs and nested
solutions), which points at the first step that went wrong.  A failed
check means a bug, not a losing position, and raises
CertificationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Sequence

from .game import (
    GameError,
    ParityGame,
    Player,
    Solution,
    Strategy,
    StrategyError,
    _PLAYERS,
    relevant_priorities,
)
from .transforms import (
    SplitGame,
    _Closure,
    _merged,
    _split_rest,
    restrict,
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
    region: Iterable[int],
    what: str,
    keep: Sequence[int] | None = None,
) -> None:
    """Raise CertificationError, prefixed by ``what``, unless the pair wins.

    With ``keep`` the pair is checked on the subarena ``keep`` induces.
    """
    if keep is not None:
        sub = restrict(game, keep)
        game, to_new = sub.game, sub.to_new
        region = frozenset(map(to_new.__getitem__, region))
        strategy = Strategy(
            player, {to_new[v]: to_new[u] for v, u in strategy.choices.items()}
        )
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


def _decide(
    game: ParityGame,
    keep: Iterable[int],
    regions: tuple[set[int], set[int]],
    chosen: tuple[dict[int, int], dict[int, int]],
    inside: Sequence[bool] | None = None,
) -> None:
    """Decide each vertex of ``keep`` into ``regions`` and ``chosen``.

    The base-case rule on the subarena ``inside`` marks (None marks
    every vertex), with a choice wherever the vertex branches in
    ``game``.  A vertex with one move inside the subarena (every
    absorbing vertex in it) goes to the player its target's priority
    favours.  Any other vertex goes to its owner, moving to the least
    target whose priority favours the owner, when there is one, and
    else to the opponent.  A vertex's answer reads only its owner and
    its targets' priorities.
    """
    owners, priorities, choices = game.owners, game.priorities, game._choices
    for v in keep:
        targets = choices[v]
        if inside is not None:
            targets = [u for u in targets if inside[u]]
        if len(targets) == 1:
            u = targets[0]
            winner = priorities[u] % 2
            regions[winner].add(v)
            if winner == owners[v] and len(choices[v]) > 1:
                chosen[winner][v] = u
            continue
        owner = owners[v]
        good = [u for u in targets if priorities[u] % 2 == owner]
        if good:
            regions[owner].add(v)
            chosen[owner][v] = min(good)
        else:
            regions[1 - owner].add(v)


def _base_case(
    game: ParityGame, debug: bool, inside: Sequence[bool] | None = None
) -> Solution:
    """``base_case_solve`` on the subarena ``inside`` marks.

    ``inside`` holds one truth value per vertex; None marks every vertex.
    Every kept vertex is decided by ``_decide``, in ``game``'s indices;
    the fixpoint's split-free depths re-decide with the same rule.
    """
    keep = game.vertices if inside is None else [*compress(game.vertices, inside)]
    regions = (set(), set())
    chosen = ({}, {})
    _decide(game, keep, regions, chosen, inside)
    solution = Solution(
        frozenset(regions[0]),
        frozenset(regions[1]),
        Strategy(Player.P0, chosen[0]),
        Strategy(Player.P1, chosen[1]),
    )
    if debug:
        for player in (Player.P0, Player.P1):
            _require_winning(
                game,
                player,
                solution.strategy(player),
                solution.region(player),
                "base case failed its own check",
                keep,
            )
    return solution


def base_case_solve(game: ParityGame) -> Solution:
    """Solve a game with no relevant vertex by backward induction.

    Absorbing vertices go to the player of their parity.  A vanishing
    vertex only sees absorbing successors, so its owner wins iff some
    successor has the owner's parity, taking the least-index one.  Both
    strategies are certified before the solution is returned.
    """
    if relevant_priorities(game):
        raise GameError("base case called with relevant vertices present")
    return _base_case(game, True)


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
        _require_winning(
            game, player, strategy, region, f"part {rank} is not winning on its region"
        )
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
    fused = Strategy(player, choices)
    _require_winning(game, player, fused, union, "fused strategy is not winning")
    return fused, frozenset(union)


def _nonempty_step(split: SplitGame, debug: bool) -> WinningCore:
    """The core of the split subarena, in ``split.base`` indices.

    A move the subarena forces where ``split.base`` branches is named.
    """
    game, kept, k = split.base, split._kept, split.k
    favoured = _PLAYERS[k % 2]
    inner = _solve_short(split.plus, debug)
    if debug:
        _require_solution(split.plus, inner, "split-game solution")
    player = favoured.opponent
    domain = inner.region(player)
    if not domain:
        player, domain = favoured, range(split.plus.n - len(split.copy_of))
    elif not domain.isdisjoint(split.copy_of):
        raise CertificationError(
            f"a copy of the top priority {k} ended up in the {player.name} region"
        )
    choices = dict(inner.strategy(player).choices)
    forced = split.plus._choices
    for v in domain:
        original = kept[v]
        if game.owners[original] is player and len(forced[v]) == 1:
            if len(game._choices[original]) > 1:
                choices.setdefault(v, forced[v][0])
    core = WinningCore(
        player,
        frozenset(map(kept.__getitem__, domain)),
        _merged(split, Strategy(player, choices)),
    )
    if debug:
        _require_winning(
            game, player, core.strategy, core.region, "core failed verification", kept
        )
    return core


def nonempty_step(game: ParityGame) -> WinningCore:
    """Produce one certified winning core of a game with relevant vertices.

    Splits the top relevant priority, which favours the player of its
    parity, and fully solves the split game.  If that player wins it
    everywhere the merged strategy wins the whole base game; otherwise
    the opponent's split region never contains a copy, and merged back
    it is a core for the opponent.  The core, and every result it is
    built from, is certified before it is returned.
    """
    split = _split_rest(game)
    if split is None:
        raise GameError("nonempty_step needs at least one relevant vertex")
    return _nonempty_step(split, debug=True)


def _solve_short(game: ParityGame, debug: bool) -> Solution:
    """Grow one closure state, its regions and choice maps, core by core.

    A core is disjoint from the earlier regions, but its adversary may
    escape into them, so debug mode verifies each fused pair on the game.
    """
    state = _Closure(game)
    regions, chosen, undecided = state.regions, state.chosen, state.undecided
    while any(undecided):
        split = _split_rest(game, undecided)
        if split is None:
            base = _base_case(game, debug, undecided)
            cores = [WinningCore(p, base.region(p), base.strategy(p)) for p in _PLAYERS]
        else:
            cores = [_nonempty_step(split, debug)]
        for core in cores:
            player = core.player
            state.add(player, core.region, core.strategy.choices)
            if debug:
                fused = Strategy(player, chosen[player])
                _require_winning(
                    game, player, fused, regions[player], "fused strategy is not winning"
                )
        if split is None:
            break
        state.close()
    return Solution(*regions, Strategy(Player.P0, chosen[0]), Strategy(Player.P1, chosen[1]))


def solve_short(game: ParityGame, *, debug: bool = False) -> Solution:
    """Solve a game by repeated winning cores and closure.

    Each round takes the subarena of the undecided vertices (a legal
    subgame by the closure guarantees), splits it straight from the
    game, extracts one core in the game's vertices, fuses it with the
    matching accumulated pair and closes off from the core alone: over
    the call every vertex joins once and every edge counts down once.
    The base case finishes the last residual.  The final partition is
    certified once before being returned; ``debug=True`` also certifies
    every intermediate result, and a failed check raises CertificationError.
    """
    return _certified(game, _solve_short, debug, "final solution")
