"""The work of the bumping fixpoint, as counts and as round invariants.

A round of ``_fixpoint`` writes its bumps into its own copies' slots of
the call's one stack and logs each slot it changes; the split-free
depth re-decides only the predecessors of the logged slots.  The
region a round grows never shrinks, so a round's bumps can repeat an
earlier round's only by repeating the previous one's, and a round that
does so reuses the previous inner answer instead of calling the depth
below.  These tests pin that reasoning and the work it leaves.
"""

from __future__ import annotations

import sys

import pytest

from pgsolve import gen_random, solve_constructive
from pgsolve import solver_constructive
from pgsolve.solver_constructive import _Bottom
from games import cycle, ladder_game, random_corpus

# Work of one solve_constructive call, as counts: ``_fixpoint`` calls and
# the vertices handed to ``_decide``.  Like the source-line ceiling of
# test_public_api, a change that removes work lowers a ceiling, and one
# that adds work must say why it raises it.
WORK_CEILINGS = {
    "cycle(16)": (lambda: cycle(16), 4180, 6400),
    "cycle(11)": (lambda: cycle(11), 376, 584),
    "ladder_game(14)": (lambda: ladder_game(14), 120, 1069),
    "gen_random(200, 8, 3, 1)": (lambda: gen_random(200, 8, 3, 1), 4983, 100467),
}


def invariant_corpus():
    return [
        *random_corpus(300, 8),
        *(cycle(n) for n in range(2, 15)),
        *(ladder_game(m) for m in range(1, 13)),
    ]


@pytest.mark.parametrize("name", WORK_CEILINGS)
def test_constructive_work_stays_under_its_ceilings(monkeypatch, name):
    build, most_calls, most_decided = WORK_CEILINGS[name]
    calls, decided = [0], [0]
    real_fixpoint, real_decide = solver_constructive._fixpoint, solver_constructive._decide

    def counting_fixpoint(*args):
        calls[0] += 1
        return real_fixpoint(*args)

    def counting_decide(stack, keep, regions, chosen):
        decided[0] += len(keep)
        real_decide(stack, keep, regions, chosen)

    monkeypatch.setattr(solver_constructive, "_fixpoint", counting_fixpoint)
    monkeypatch.setattr(solver_constructive, "_decide", counting_decide)
    solve_constructive(build())
    assert calls[0] <= most_calls, f"{name}: {calls[0]} _fixpoint calls"
    assert decided[0] <= most_decided, f"{name}: {decided[0]} vertices decided"


def test_a_round_repeats_only_the_previous_rounds_bumps(monkeypatch):
    # Every round of every depth composes its strategy with one
    # ``compose_tau`` call from the round's own frame: its locals name
    # the round's x and split set.
    rounds: dict = {}  # a visit's frame -> the bumped split vertices of each round
    calls = [0]
    real_fixpoint, real_compose_tau = solver_constructive._fixpoint, solver_constructive.compose_tau

    def composing(*args):
        caller = sys._getframe(1)
        assert caller.f_code.co_name == "_fixpoint"
        local = caller.f_locals
        visit = rounds.setdefault(caller, [])
        assert local["alpha"] == len(visit)
        visit.append(frozenset(local["x"]) & frozenset(local["order"]))
        return real_compose_tau(*args)

    def counting(*args):
        calls[0] += 1
        return real_fixpoint(*args)

    monkeypatch.setattr(solver_constructive, "compose_tau", composing)
    monkeypatch.setattr(solver_constructive, "_fixpoint", counting)
    repeats = 0
    for game in invariant_corpus():
        rounds.clear()
        calls[0] = 0
        solve_constructive(game)
        fresh = 0  # rounds whose bumps differ from the previous round's
        for visit in rounds.values():
            for alpha, bumps in enumerate(visit):
                if bumps in visit[:alpha]:
                    assert bumps == visit[alpha - 1]
                    repeats += 1
                else:
                    fresh += 1
        # the top call, then one inner call per round with new bumps
        assert calls[0] == 1 + fresh
    assert repeats > 100


def test_the_bump_log_names_exactly_the_changed_copies(monkeypatch):
    solve = _Bottom.solve
    last: dict = {}  # a bottom -> the stack's priorities at its last visit
    n: list[int] = []  # the solved game's vertex count: slots from n on are copies
    logged = [0]

    def solving(self, debug):
        stack, now = self.stack, list(self.stack.priorities)
        if self in last:
            changed = [i for i, (a, b) in enumerate(zip(last[self], now)) if a != b]
        else:  # built on the stack as it is, this visit
            changed = []
        assert sorted(stack.bumped) == changed
        assert all(i >= n[0] and stack._choices[i] == (i,) for i in changed)
        logged[0] += len(changed)
        answer = solve(self, debug)
        last[self] = now
        return answer

    monkeypatch.setattr(_Bottom, "solve", solving)
    for game in invariant_corpus():
        last.clear()
        n[:] = [game.n]
        solve_constructive(game)
    assert logged[0] > 1000
