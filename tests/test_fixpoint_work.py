"""The work of the bumping fixpoint, as counts and as round invariants.

A round of ``_fixpoint`` writes its bumps into its own copies' slots of
the call's one stack and logs each slot it changes; the split-free
depth re-decides only the predecessors of the logged slots.  The
region a round grows never shrinks, so a round's bumps can repeat an
earlier round's only by repeating the previous one's.  A round that
does so has the previous round's game, answer and region: it is the
visit's last, and calls neither the depth below nor ``compose_tau``.
These tests pin that reasoning and the work it leaves.
"""

from __future__ import annotations

import pytest

from pgsolve import gen_random, solve_constructive
from pgsolve import solver_constructive
from pgsolve.solver_constructive import _Bottom
from games import cycle, ladder_game, random_corpus

# Work of one solve_constructive call, as counts: ``_fixpoint`` calls,
# the vertices handed to ``_decide`` and ``compose_tau`` calls.  Like the
# source-line ceiling of test_public_api, a change that removes work
# lowers a ceiling, and one that adds work must say why it raises it.
WORK_CEILINGS = {
    "cycle(16)": (lambda: cycle(16), 4180, 6400, 4179),
    "cycle(11)": (lambda: cycle(11), 376, 584, 375),
    "ladder_game(14)": (lambda: ladder_game(14), 120, 1069, 119),
    "gen_random(200, 8, 3, 1)": (lambda: gen_random(200, 8, 3, 1), 4983, 100467, 4982),
}


def invariant_corpus():
    return [
        *random_corpus(300, 8),
        *(cycle(n) for n in range(2, 15)),
        *(ladder_game(m) for m in range(1, 13)),
    ]


@pytest.mark.parametrize("name", WORK_CEILINGS)
def test_constructive_work_stays_under_its_ceilings(monkeypatch, name):
    build, most_calls, most_decided, most_composed = WORK_CEILINGS[name]
    calls, decided, composed = [0], [0], [0]
    real_fixpoint, real_decide = solver_constructive._fixpoint, solver_constructive._decide
    real_compose_tau = solver_constructive.compose_tau

    def counting_fixpoint(*args):
        calls[0] += 1
        return real_fixpoint(*args)

    def counting_decide(stack, keep, regions, chosen):
        decided[0] += len(keep)
        real_decide(stack, keep, regions, chosen)

    def counting_compose_tau(*args):
        composed[0] += 1
        return real_compose_tau(*args)

    monkeypatch.setattr(solver_constructive, "_fixpoint", counting_fixpoint)
    monkeypatch.setattr(solver_constructive, "_decide", counting_decide)
    monkeypatch.setattr(solver_constructive, "compose_tau", counting_compose_tau)
    solve_constructive(build())
    assert calls[0] <= most_calls, f"{name}: {calls[0]} _fixpoint calls"
    assert decided[0] <= most_decided, f"{name}: {decided[0]} vertices decided"
    assert composed[0] <= most_composed, f"{name}: {composed[0]} compose_tau calls"


def test_a_round_repeats_only_the_previous_rounds_bumps(monkeypatch):
    # Each visit's rounds are the history list its ``_fixpoint`` call
    # fills; a round's bumped split vertices are its x within the split
    # set.  While a visit is open, the ``_fixpoint`` and ``compose_tau``
    # calls it makes are counted against it.
    visits: list = []  # (depth, history, [inner calls, compose_tau calls])
    open_visits: list = []
    calls = [0]
    real_fixpoint, real_compose_tau = solver_constructive._fixpoint, solver_constructive.compose_tau

    def composing(*args):
        open_visits[-1][1] += 1
        return real_compose_tau(*args)

    def counting(stack, debug, depth, history):
        calls[0] += 1
        if open_visits:
            open_visits[-1][0] += 1
        if depth.__class__ is _Bottom:
            return real_fixpoint(stack, debug, depth, history)
        work = [0, 0]
        visits.append((depth, history, work))
        open_visits.append(work)
        try:
            return real_fixpoint(stack, debug, depth, history)
        finally:
            open_visits.pop()

    monkeypatch.setattr(solver_constructive, "compose_tau", composing)
    monkeypatch.setattr(solver_constructive, "_fixpoint", counting)
    repeats = 0
    for game in invariant_corpus():
        visits.clear()
        calls[0] = 0
        solve_constructive(game)
        fresh = 0  # rounds whose bumps differ from the previous round's
        for depth, history, (inner, composed) in visits:
            bumps = [x & frozenset(depth.order) for _, x, _, _ in history]
            solved = len(history)
            for alpha, (bumps_now, record) in enumerate(zip(bumps, history)):
                assert record[0] == alpha
                if bumps_now in bumps[:alpha]:
                    assert bumps_now == bumps[alpha - 1]
                    assert alpha == len(history) - 1, "a repeated round is its visit's last"
                    _, x, tau, w1 = record
                    _, _, previous_tau, previous_w1 = history[alpha - 1]
                    assert x == previous_w1 and tau is previous_tau and w1 == x
                    repeats += 1
                    solved -= 1
                else:
                    fresh += 1
            # a repeated round calls neither the depth below nor compose_tau
            assert inner == composed == solved
        # the top call, then one inner call per round with new bumps
        assert calls[0] == 1 + fresh
    assert repeats > 100


def test_debug_mode_records_the_default_history():
    # Both modes leave a visit at the same round, so the top-level
    # rounds they record are the same.
    for game in [*(ladder_game(m) for m in range(1, 13)), *(cycle(n) for n in range(2, 15))]:
        default: list = []
        debug: list = []
        solve_constructive(game, history_out=default)
        solve_constructive(game, debug=True, history_out=debug)
        assert debug == default


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
