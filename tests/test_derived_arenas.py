"""Arenas derived from a valid arena are built once, unchecked.

``ParityGame(...)`` validates outside input.  Splits, restrictions,
relabellings, loop normalizations, the debug snapshots of a
``solve_short`` stack and parsed text are built by
``game._arena`` without that check, each from tables its own code has
already checked or taken from a valid arena.  Every such arena must
equal the validated rebuild of its own tables, with the exact types
the constructor makes: Player owners, int priorities, tuple
successors.  And the constructor's validation must not run inside a
default-mode solve or a parse.

The fixpoint round checks stay, at every depth: a round that changes
the strategy on the previous region, or loses part of it, raises
CertificationError with the message that names the round and the
vertex.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import pytest

from pgsolve import (
    CertificationError,
    ParityGame,
    Player,
    Strategy,
    emit_game,
    parse_game,
    restrict,
    shift_and_swap,
    solve_constructive,
    solve_short,
    split_top,
)
from pgsolve import solver_constructive
from pgsolve.game import _relevant_vertices, relevant_priorities
from pgsolve.solver_constructive import preprocess
from pgsolve.transforms import (
    RestrictionError,
    _Stack,
    remove_unfair_win,
    remove_useless_self_loops,
)
from games import cycle, ladder_game, random_corpus, scratch_class
from reference_fixpoint import bumped

DUPLICATES = ParityGame.from_vertices(
    [(0, 1, (1, 1, 0)), (1, 2, (2, 0, 2)), (0, 3, (3, 2, 2)), (1, 0, (3,))]
)
COMPOSE_TAU = solver_constructive.compose_tau
COMPOSED = solver_constructive._composed
NAMES = ("", "a b", "\t", "é~", None, "x;y", "0 1 2")


def corpus() -> list[ParityGame]:
    return [
        *random_corpus(150, 12),
        *map(cycle, range(2, 21)),
        *map(ladder_game, range(2, 9)),
        DUPLICATES,
    ]


def named(game: ParityGame) -> ParityGame:
    names = tuple(NAMES[v % len(NAMES)] for v in game.vertices)
    return ParityGame(game.owners, game.priorities, game.successors, names)


def assert_valid(arena: ParityGame) -> None:
    """``arena`` equals the validated rebuild of its tables, exact types."""
    rebuilt = ParityGame(arena.owners, arena.priorities, arena.successors, arena.names)
    assert arena == rebuilt
    assert type(arena.owners) is tuple
    assert {*map(type, arena.owners)} <= {Player}
    assert type(arena.priorities) is tuple
    assert {*map(type, arena.priorities)} <= {int}
    assert type(arena.successors) is tuple
    assert {*map(type, arena.successors)} <= {tuple}
    assert {type(u) for succ in arena.successors for u in succ} <= {int}
    assert type(arena.names) is tuple
    for table in ("_choices", "_predecessors", "_mixed_loops", "_relevant"):
        assert getattr(arena, table) == getattr(rebuilt, table), table


def same_split_priorities(game: ParityGame, k: int, split_set) -> tuple[int, ...]:
    """New priorities for ``game`` that keep k and the split set: every
    other relevant vertex moves below k, every absorbing or vanishing
    vertex anywhere."""
    return tuple(
        p
        if v in split_set
        else (p + 7 if p > k or scratch_class(game, v) != "relevant" else p // 2)
        for v, p in enumerate(game.priorities)
    )


def derived(game: ParityGame):
    """Every kind of arena the package derives from ``game``."""
    yield shift_and_swap(game)
    yield shift_and_swap(shift_and_swap(game))
    for normalize in (remove_unfair_win, remove_useless_self_loops):
        yield normalize(game)[0]
    yield preprocess(game).reduced
    keep = [v for v in game.vertices if v % 3]
    try:
        if keep:  # an empty restriction is no game
            yield restrict(game, keep).game
    except RestrictionError:
        pass
    relevant = _relevant_vertices(game)
    if relevant:
        stack = _Stack(game)
        top = max(game.priorities[v] for v in relevant)
        with stack.split([v for v in relevant if game.priorities[v] == top], top):
            arena = stack.snapshot()
        yield arena
    for k in sorted(relevant_priorities(game)):
        split = split_top(game, k)
        yield split.plus
        for x in (split.split_set, frozenset(list(split.split_set)[::2])):
            yield split.plus._relabelled(priorities=bumped(split, x))
        # a later visit of the split's depth, with the priorities of ``moved``
        moved = game._relabelled(priorities=same_split_priorities(game, k, split.split_set))
        visit = split.plus._relabelled(priorities=(*moved.priorities, *[k] * len(split.split_set)))
        assert visit == split_top(moved, k).plus
        yield moved
        yield visit
    parsed = parse_game(emit_game(named(game)))
    assert parsed == named(game)
    yield parsed


def test_every_derived_arena_equals_its_validated_rebuild():
    count = 0
    for game in corpus():
        for base in (game, named(game)):
            for arena in derived(base):
                assert_valid(arena)
                count += 1
    assert count > 2000


def test_validation_never_runs_in_a_default_solve_or_a_parse(monkeypatch):
    games = [*random_corpus(60, 10), cycle(9), ladder_game(4), DUPLICATES]
    texts = [emit_game(named(game)) for game in games]
    built: list[ParityGame] = []

    def spy(self):
        built.append(self)

    monkeypatch.setattr(ParityGame, "__post_init__", spy)
    for game, text in zip(games, texts):
        solve_short(game)
        solve_constructive(game)
        parse_game(text)
    assert built == []


def first_line(exc: CertificationError) -> str:
    """The reason of a round failure, checking the history dump follows."""
    message = str(exc)
    assert "\nfixpoint history:\n" in message
    return message.split("\n", 1)[0]


def edit_previous_choice(monkeypatch, edit) -> list[str]:
    """Patch ``compose_tau`` so the first round that ``edit`` accepts
    changes the previous round's strategy; return the expected reasons."""
    expected: list[str] = []

    def editing(history, w1, tau_plus):
        tau = COMPOSE_TAU(history, w1, tau_plus)
        if history and not expected:
            previous = history[-1]
            choices = dict(tau.choices)
            v = edit(previous, choices)
            if v is not None:
                expected.append(
                    f"round {previous.alpha + 1}: choice at {v} drifted from "
                    f"round {previous.alpha}"
                )
                return Strategy(tau.player, choices)
        return tau

    monkeypatch.setattr(solver_constructive, "compose_tau", editing)
    return expected


def drop(previous, choices):
    if previous.tau.choices:
        v = min(previous.tau.choices)
        del choices[v]
        return v
    return None


def change(previous, choices):
    if previous.tau.choices:
        v = max(previous.tau.choices)
        choices[v] = -1
        return v
    return None


def add(previous, choices):
    unset = sorted(previous.w1 - previous.tau.choices.keys())
    if unset:
        choices[unset[0]] = -1
        return unset[0]
    return None


@pytest.mark.parametrize("edit", [drop, change, add])
def test_a_drifted_choice_fails_its_round(monkeypatch, edit):
    fired = 0
    for game in [*random_corpus(80, 12), ladder_game(4)]:
        expected = edit_previous_choice(monkeypatch, edit)
        try:
            solve_constructive(game)
        except CertificationError as exc:
            assert expected and first_line(exc) == expected[0]
            fired += 1
        else:
            assert not expected
    assert fired > 5


def edit_inner_choice(monkeypatch, edit) -> list[str]:
    """Patch ``_composed`` so the first inner-depth round that ``edit``
    accepts changes the previous round's strategy; return the expected
    reasons.  Only inner rounds call ``_composed`` from ``_fixpoint``
    itself (the top depth's go through ``compose_tau``), so the caller's
    frame names the round."""
    expected: list[str] = []

    def editing(tau, settled, w1, fresh):
        choices = COMPOSED(tau, settled, w1, fresh)
        caller = sys._getframe(1)
        if settled and not expected and caller.f_code.co_name == "_fixpoint":
            alpha = caller.f_locals["alpha"]
            previous = SimpleNamespace(alpha=alpha - 1, w1=settled, tau=Strategy(0, tau))
            v = edit(previous, choices)
            if v is not None:
                expected.append(f"round {alpha}: choice at {v} drifted from round {alpha - 1}")
        return choices

    monkeypatch.setattr(solver_constructive, "_composed", editing)
    return expected


@pytest.mark.parametrize("edit", [drop, change, add])
def test_a_drifted_inner_choice_fails_its_round(monkeypatch, edit):
    fired = 0
    for game in [*random_corpus(80, 12), ladder_game(4)]:
        expected = edit_inner_choice(monkeypatch, edit)
        try:
            solve_constructive(game)
        except CertificationError as exc:
            assert expected and first_line(exc) == expected[0]
            fired += 1
        else:
            assert not expected
    assert fired > 5


def test_a_shrinking_inner_region_fails_its_round(monkeypatch):
    real_fixpoint, real_check = solver_constructive._fixpoint, solver_constructive._check_round
    fired = 0
    for game in [*random_corpus(80, 12), *map(ladder_game, range(2, 6))]:
        top: list = []  # the top-level call's tower, then its inner answers
        dropped: list[int] = []
        alphas: list[int] = []

        def shrinking(arena, priorities, debug, tower, history_out):
            if history_out is not None:
                top.append(tower)
            answer = real_fixpoint(arena, priorities, debug, tower, history_out)
            if dropped or tower is not top[0][1]:
                return answer
            loser = Player(1 - top[0][0].k % 2)
            regions, choices = answer
            earlier = set().union(*(inner[0][loser] for inner in top[1:]))
            top.append(answer)
            common = sorted(earlier & regions[loser])
            if not common:
                return answer
            v = common[0]
            dropped.append(v)
            shrunk = [set(regions[0]), set(regions[1])]
            shrunk[loser].discard(v)
            shrunk[1 - loser].add(v)
            return tuple(map(frozenset, shrunk)), choices

        def checking(depth, arena, history, state, thorough):
            alphas.append(state.alpha)
            real_check(depth, arena, history, state, thorough)

        monkeypatch.setattr(solver_constructive, "_fixpoint", shrinking)
        monkeypatch.setattr(solver_constructive, "_check_round", checking)
        try:
            solve_constructive(game)
        except CertificationError as exc:
            assert dropped
            reason = f"round {alphas[-1]}: region dropped vertices [{dropped[0]}]"
            assert first_line(exc) == reason
            fired += 1
        else:
            assert not dropped
    assert fired > 5
