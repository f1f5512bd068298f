"""Recursive solver peeling one relevant priority per split.

The step: take the top relevant priority k, whose parity favours one
player, split its vertices, and solve the split game, which has
strictly fewer relevant priorities.  Either the favoured player wins
the whole split game and the merged strategy wins everywhere, or the
opponent's split-game region, merged back, is a winning core for the
opponent.  The step is the same for both parities; no priority is
shifted.  Each level grows one closure state, both regions and choice
maps: it adds each core, closes off from the core's vertices alone, and
recurses on the undecided rest.

A call builds no arena.  It copies its game's tables once into a stack;
a step appends the copies of its split set, solves the split subarena
and takes them off again.  Every level works in the game's indices, on
the subarena its closure state's undecided list marks, which only
shrinks: a step filters the last relevant list, at first the caller's.

``solve_short`` certifies the partition it returns with one
``check_solution``; that single check is a complete proof, so the
recursion below it does not re-verify.  With ``debug=True`` every base
case, core and fused pair is certified as well, on an arena built from
the stack for that alone, which points at the first step that went
wrong; every filtered relevant list is compared with a fresh scan.  A
failed check means a bug, not a losing position, and raises
CertificationError.
"""

from __future__ import annotations

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
    _relevant_vertices,
    relevant_priorities,
)
from .transforms import _Closure, _Stack, restrict
from .verification import check_solution, verify_strategy


class CertificationError(RuntimeError):
    """An output the construction promises to be winning failed its check."""


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
    moves: Sequence[int] | None = None,
) -> None:
    """Decide each vertex of ``keep`` into ``regions`` and ``chosen``.

    The base-case rule on the subarena ``inside`` marks (None marks
    every vertex), with a choice wherever the vertex branches in
    ``game``.  ``moves`` (a closed ``_Closure``'s ``outside``) counts
    moves inside the subarena, so only a vertex with some move out of
    it has its targets filtered; with a mask alone, every vertex does.
    A vertex with one move inside the subarena (every absorbing vertex
    in it) goes to the player its target's priority favours.  Any other
    vertex goes to its owner, moving to the least target whose priority
    favours the owner, when there is one, and else to the opponent.  A
    vertex's answer reads only its owner and its targets' priorities.
    """
    owners, priorities, choices = game.owners, game.priorities, game._choices
    for v in keep:
        targets = choices[v]
        if inside is not None and (moves is None or moves[v] != len(targets)):
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


def base_case_solve(game: ParityGame) -> Solution:
    """Solve a game with no relevant vertex by backward induction.

    Absorbing vertices go to the player of their parity.  A vanishing
    vertex only sees absorbing successors, so its owner wins iff some
    successor has the owner's parity, taking the least-index one.  Each
    vertex is decided by ``_decide``, the rule of ``solve_short``'s base
    cases and the fixpoint's split-free depths.  Both strategies are
    certified before the solution is returned.
    """
    if relevant_priorities(game):
        raise GameError("base case called with relevant vertices present")
    regions, chosen = (set(), set()), ({}, {})
    _decide(game, game.vertices, regions, chosen)
    strategies = [Strategy(player, chosen[player]) for player in _PLAYERS]
    for player in _PLAYERS:
        _require_winning(
            game, player, strategies[player], regions[player], "base case failed its own check"
        )
    return Solution(*regions, *strategies)


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
    union = set().union(*(region for _, region in parts))
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


def _unsplit(choices: dict[int, int], n: int, split: Sequence[int]) -> dict[int, int]:
    """``choices`` less the copies from ``n`` on, a move to a copy made one to its original."""
    return {v: u if u < n else split[u - n] for v, u in choices.items() if v < n}


def _core(
    stack: _Stack, state: _Closure, relevant: list[int], debug: bool
) -> tuple[Player, set[int], dict[int, int]]:
    """One winning core of the subarena ``state.undecided`` marks.

    ``relevant`` lists its relevant vertices; less the split set, they
    are the split subarena's.  ``state`` is closed: ``outside`` counts
    each undecided vertex's moves inside the subarena, as in the split
    subarena, whose state starts from copies of it.
    """
    priorities = stack.priorities
    k = max(map(priorities.__getitem__, relevant))
    split = [v for v in relevant if priorities[v] == k]
    n, added = stack.n, len(split)
    log = stack.split(split, k)  # no unsplit on an exception: it ends the call, stack and all
    inner = _Closure(stack, state.undecided + [True] * added, state.outside + [1] * added)
    _solve_short(stack, inner, [v for v in relevant if priorities[v] != k], debug)
    stack.unsplit(n, log)
    favoured = _PLAYERS[k % 2]
    player = favoured.opponent
    region = inner.regions[player]
    if not region:
        player, region = favoured, inner.regions[favoured].difference(range(n, n + added))
    elif max(region) >= n:
        raise CertificationError(
            f"a copy of the top priority {k} ended up in the {player.name} region"
        )
    choices = _unsplit(inner.chosen[player], n, split)
    if debug:
        _require_winning(
            stack.snapshot(), player, Strategy(player, choices), region,
            "core failed verification", [*compress(stack.vertices, state.undecided)],
        )
    return player, region, choices


def nonempty_step(game: ParityGame) -> tuple[Player, frozenset[int], Strategy]:
    """One certified winning core of a game with relevant vertices:
    ``(player, region, strategy)``, the strategy winning the region.

    Splits the top relevant priority, which favours the player of its
    parity, and fully solves the split game.  If that player wins it
    everywhere the merged strategy wins the whole base game; otherwise
    the opponent's split region never contains a copy, and merged back
    it is a core for the opponent.  The core, and every result it is
    built from, is certified before it is returned.
    """
    relevant = _relevant_vertices(game)
    if not relevant:
        raise GameError("nonempty_step needs at least one relevant vertex")
    stack = _Stack(game)
    player, region, choices = _core(stack, _Closure(stack), relevant, True)
    return player, frozenset(region), Strategy(player, choices)


def _solve_short(stack: _Stack, state: _Closure, relevant: list[int], debug: bool) -> None:
    """Solve the subarena ``state.undecided`` marks, whose relevant
    vertices ``relevant`` lists, into ``state``.  Debug mode compares
    each filtered list with a fresh scan and, as a core's adversary may
    escape into earlier regions, verifies each fused pair on the subarena.
    """
    undecided = state.undecided
    whole = [*compress(stack.vertices, undecided)] if debug else None
    while any(undecided):
        if debug:
            fresh = _relevant_vertices(stack, undecided)
            if relevant != fresh:
                v = min(set(relevant).symmetric_difference(fresh))
                raise CertificationError(f"relevant list differs from a fresh scan at vertex {v}")
        if relevant:
            cores = [_core(stack, state, relevant, debug)]
        else:
            keep = [*compress(stack.vertices, undecided)]
            regions, chosen = (set(), set()), ({}, {})
            _decide(stack, keep, regions, chosen, undecided, state.outside)
            cores = [(p, regions[p], chosen[p]) for p in _PLAYERS]
            for player, region, choices in cores if debug else ():
                _require_winning(
                    stack.snapshot(), player, Strategy(player, choices), region,
                    "base case failed its own check", keep,
                )
        for player, region, choices in cores:
            state.add(player, region, choices)
            if debug:
                _require_winning(
                    stack.snapshot(), player, Strategy(player, state.chosen[player]),
                    state.regions[player], "fused strategy is not winning", whole,
                )
        if not relevant:
            return
        state.close()
        relevant = _relevant_vertices(stack, undecided, relevant)


def _solve(game: ParityGame, debug: bool) -> Solution:
    stack = _Stack(game)
    state = _Closure(stack)
    _solve_short(stack, state, _relevant_vertices(game), debug)
    (w0, w1), (sigma, tau) = state.regions, state.chosen
    return Solution(w0, w1, Strategy(Player.P0, sigma), Strategy(Player.P1, tau))


def solve_short(game: ParityGame, *, debug: bool = False) -> Solution:
    """Solve a game by repeated winning cores and closure.

    Each round splits the subarena of the undecided vertices (a legal
    subgame by the closure guarantees) in place on one stack of the
    game's tables, extracts one core in the game's vertices, fuses it
    with the matching accumulated pair and closes off from the core
    alone.  The base case finishes the last residual.  The final
    partition is certified once before being returned; ``debug=True``
    also certifies every intermediate result, and a failed check raises
    CertificationError.
    """
    return _certified(game, _solve, debug, "final solution")
