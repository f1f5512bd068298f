"""The short solver as it was before it split in place on one stack.

Every step built the split arena of the undecided rest from the level's
game, solved it with a fresh closure state and a fresh relevance scan,
and mapped the core back through the kept vertices, naming each move
the split arena forces where the level's game branches.  It is kept
here, without its debug checks, as the reference the stack solver must
match byte for byte.  The closure state, the relevance scan, the split
arena builder and the per-vertex base-case rule are the package's own.
"""

from __future__ import annotations

from itertools import compress

from pgsolve import ParityGame, Player, Solution, Strategy
from pgsolve.game import _PLAYERS, _relevant_vertices
from pgsolve.solver_short import _decide
from pgsolve.transforms import SplitGame, _Closure, _induced


def split_rest(game: ParityGame, inside) -> tuple[SplitGame, list[int]] | None:
    """``split_top`` at the top relevant priority of the subarena
    ``inside`` marks, numbered densely, and the kept vertices, or None.
    Plus vertex i is ``game`` vertex ``keep[i]`` up to the copies."""
    priorities = game.priorities
    relevant = _relevant_vertices(game, inside)
    if not relevant:
        return None
    k = max(priorities[v] for v in relevant)
    split = tuple(v for v in relevant if priorities[v] == k)
    keep = [*compress(game.vertices, inside)]
    m = len(keep)
    copy_for = dict(zip(split, range(m, m + len(split))))
    copy_of = dict(zip(copy_for.values(), split))
    plus = _induced(game, keep, split)
    return SplitGame(game, plus, k, frozenset(split), copy_of, copy_for), keep


def base_case(game: ParityGame, inside):
    """Both players' regions and choices on the subarena ``inside`` marks."""
    regions, chosen = (set(), set()), ({}, {})
    _decide(game, [*compress(game.vertices, inside)], regions, chosen, inside)
    return regions, chosen


def nonempty_step(split: SplitGame, kept: list[int]):
    """Player, region and choices of the core, in ``split.base`` indices."""
    game, k = split.base, split.k
    favoured = _PLAYERS[k % 2]
    inner = reference_solve_short(split.plus)
    player = favoured.opponent
    domain = inner.region(player)
    if not domain:
        player, domain = favoured, range(split.plus.n - len(split.copy_of))
    else:
        assert domain.isdisjoint(split.copy_of)
    choices = dict(inner.strategy(player).choices)
    forced = split.plus._choices
    for v in domain:
        original = kept[v]
        if game.owners[original] is player and len(forced[v]) == 1:
            if len(game._choices[original]) > 1:
                choices.setdefault(v, forced[v][0])
    region = frozenset(map(kept.__getitem__, domain))
    base_of = (*kept, *split.copy_of.values())
    return player, region, {base_of[v]: base_of[u] for v, u in choices.items() if v < len(kept)}


def reference_solve_short(game: ParityGame) -> Solution:
    """Grow one closure state core by core; the base case ends the rest."""
    state = _Closure(game)
    regions, chosen, undecided = state.regions, state.chosen, state.undecided
    while any(undecided):
        split = split_rest(game, undecided)
        if split is None:
            base_regions, base_chosen = base_case(game, undecided)
            for player in _PLAYERS:
                state.add(player, base_regions[player], base_chosen[player])
            break
        state.add(*nonempty_step(*split))
        state.close()
    return Solution(*regions, Strategy(Player.P0, chosen[0]), Strategy(Player.P1, chosen[1]))
