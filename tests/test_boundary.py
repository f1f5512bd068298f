"""Certification at the public boundary of both solvers.

By default each solver runs one ``check_solution`` on the answer it
returns; ``debug=True`` also certifies every intermediate result.  The
two modes must give the same answers, and a bug the inner checks would
have caught must still be caught, and named, at the boundary.
"""

import pytest

import pgsolve.solver_constructive as solver_constructive
import pgsolve.solver_short as solver_short
import pgsolve.verification as verification
from pgsolve import (
    CertificationError,
    ParityGame,
    Solution,
    Strategy,
    emit_solution,
    solve_constructive,
    solve_short,
)
from pgsolve.solver_constructive import fixpoint_solve, lift_solution, preprocess
from pgsolve.solver_short import nonempty_step
from games import chain_game, ladder_game, random_corpus

SOLVERS = (solve_short, solve_constructive)


def acceptance_corpora():
    """The games of the acceptance gate: both random corpora, chain, ladders."""
    return [
        *random_corpus(500, 6),
        *random_corpus(500, 10),
        chain_game(),
        *(ladder_game(m) for m in range(1, 7)),
    ]


@pytest.mark.parametrize("solve", SOLVERS, ids=lambda f: f.__name__)
def test_debug_and_default_emit_identical_bytes(solve):
    for game in acceptance_corpora():
        default = emit_solution(game, solve(game))
        assert emit_solution(game, solve(game, debug=True)) == default


@pytest.mark.parametrize("solve", SOLVERS, ids=lambda f: f.__name__)
def test_default_mode_certifies_exactly_once(solve, monkeypatch):
    calls = {"check_solution": 0, "verify_strategy": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    check = counting("check_solution", verification.check_solution)
    verify = counting("verify_strategy", verification.verify_strategy)
    monkeypatch.setattr(solver_short, "check_solution", check)
    for module in (verification, solver_short, solver_constructive):
        monkeypatch.setattr(module, "verify_strategy", verify)
    for game in (chain_game(), ladder_game(4), *random_corpus(40, 8)):
        calls.update(check_solution=0, verify_strategy=0)
        solve(game)
        assert calls == {"check_solution": 1, "verify_strategy": 2}
        calls.update(check_solution=0, verify_strategy=0)
        solve(game, debug=True)
        assert calls["verify_strategy"] > 2


UNSPLIT = solver_short._unsplit


def drop_first_unsplit(choices, n, split):
    """Both solvers' merge back from a split, with one bug: the
    least-index choice goes missing."""
    choices = UNSPLIT(choices, n, split)
    if choices:
        del choices[min(choices)]
    return choices


# Each game needs an explicit choice that the bug then drops.
CORRUPTIBLE = (
    (
        solve_short,
        solver_short,
        "_unsplit",
        drop_first_unsplit,
        [(0, 0, (0, 1)), (1, 1, (0, 1))],
    ),
    (
        solve_constructive,
        solver_constructive,
        "_unsplit",
        drop_first_unsplit,
        [(1, 1, (2, 0)), (1, 1, (2,)), (1, 0, (2, 0, 1))],
    ),
)


@pytest.mark.parametrize(
    "solve, module, name, corruption, rows", CORRUPTIBLE, ids=["short", "constructive"]
)
def test_corrupted_step_is_caught_and_localized(
    solve, module, name, corruption, rows, monkeypatch
):
    game = ParityGame.from_vertices(rows)
    monkeypatch.setattr(module, name, corruption)
    with pytest.raises(CertificationError) as localized:
        solve(game, debug=True)
    with pytest.raises(CertificationError) as caught:
        solve(game)
    inner = str(localized.value)
    assert not inner.startswith(("final solution", "lifted solution"))
    assert "failed its check" in str(caught.value)
    assert inner in str(caught.value)


def test_exported_helpers_certify_their_output(monkeypatch):
    (*_, short_rows), (*_, constructive_rows) = CORRUPTIBLE
    game = chain_game()
    wrong = Solution(
        frozenset(game.vertices), frozenset(), Strategy(0, {}), Strategy(1, {})
    )
    with pytest.raises(CertificationError, match="lifted solution"):
        lift_solution(preprocess(game), wrong)
    monkeypatch.setattr(solver_short, "_unsplit", drop_first_unsplit)
    monkeypatch.setattr(solver_constructive, "_unsplit", drop_first_unsplit)
    with pytest.raises(CertificationError, match="core failed verification"):
        nonempty_step(ParityGame.from_vertices(short_rows))
    reduced = preprocess(ParityGame.from_vertices(constructive_rows)).reduced
    with pytest.raises(CertificationError, match="fixpoint solution failed its check"):
        fixpoint_solve(reduced)
