"""Command line front end.

Subcommands: solve, verify, compare, transform, gen.  Exit codes: 0 on
success, 1 when a check is refuted, solvers disagree or a solver fails
its own certification (CertificationError, reported on stderr as
``error: <diagnostic>``), 2 on usage errors and exceeded limits.  A
game too deep for the recursive solvers (RecursionError) counts as an
exceeded limit: stderr gets ``error: <what happened>`` and the exit
code is 2.  All output is byte-deterministic for a given input and
flag set.  The oracle budget can be overridden through the
PGSOLVE_ORACLE_BUDGET environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Iterator, NoReturn

from .game import GameError, ParityGame, StrategyError
from .generate import gen_random
from .oracle import (
    _DEFAULT_PROFILE_BUDGET,
    BudgetExceededError,
    _profile_count,
    brute_force_solve,
)
from .pgfile import ParseError, emit_game, emit_solution, parse_game, parse_solution
from .solver_constructive import solve_constructive
from .solver_short import CertificationError, solve_short
from .transforms import (
    RestrictionError,
    remove_unfair_win,
    remove_useless_self_loops,
    restrict,
    shift_and_swap,
    split_top,
)
from .verification import check_solution

_BUDGET_VAR = "PGSOLVE_ORACLE_BUDGET"


def _budget() -> int:
    raw = os.environ.get(_BUDGET_VAR)
    if raw is None:
        return _DEFAULT_PROFILE_BUDGET
    try:
        return int(raw)
    except ValueError:
        _usage_error(f"{_BUDGET_VAR} must be an integer, got {raw!r}")


def _load(path: str, parse: Callable[[str], object] = parse_game):
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except OSError as exc:
        _usage_error(str(exc))
    except (ParseError, UnicodeDecodeError) as exc:
        _usage_error(f"{path}: {exc}")


def _usage_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


_SOLVERS = {
    "short": lambda game: solve_short(game),
    "constructive": lambda game: solve_constructive(game),
    "oracle": lambda game: brute_force_solve(game, _budget()),
}


def _cmd_solve(args) -> int:
    game = _load(args.file)
    try:
        solution = _SOLVERS[args.algo](game)
    except BudgetExceededError as exc:
        _usage_error(str(exc))
    sys.stdout.write(emit_solution(game, solution))
    return 0


def _cmd_verify(args) -> int:
    game = _load(args.file)
    solution = _load(args.solution, lambda text: parse_solution(text, game))
    diagnostic = check_solution(game, solution)
    if diagnostic is None:
        print("certified")
        return 0
    print(f"refuted: {diagnostic}")
    return 1


def _outcomes(game: ParityGame, algos: list[str]) -> Iterator[tuple]:
    """Run each solver in turn and check its answer, yielding its (w0, w1)
    pair, None when it raised, and a failure line, None when certified."""
    for algo in algos:
        try:
            solution = _SOLVERS[algo](game)
        except Exception as exc:  # noqa: BLE001 - a crashing solver is a finding
            yield None, f"error: {algo}: {type(exc).__name__}: {exc}"
            continue
        diagnostic = check_solution(game, solution)
        failure = None if diagnostic is None else f"refuted: {algo}: {diagnostic}"
        yield (solution.w0, solution.w1), failure


def _disagrees(game: ParityGame, algos: list[str]) -> bool:
    regions = set()
    for region, failure in _outcomes(game, algos):
        if failure is not None:
            return True  # the later solvers need not run
        regions.add(region)
    return len(regions) > 1


def _minimize(game: ParityGame, algos: list[str]) -> ParityGame:
    """Greedily drop vertices while the disagreement survives."""
    current = game
    while True:
        for v in current.vertices:
            keep = set(current.vertices) - {v}
            if not keep:
                continue
            try:
                sub = restrict(current, keep)
            except RestrictionError:
                continue
            if _disagrees(sub.game, algos):
                current = sub.game
                break
        else:
            return current


def _cmd_compare(args) -> int:
    game = _load(args.file)
    algos = ["short", "constructive"]
    if _profile_count(game) <= _budget():
        algos.append("oracle")
    outcomes = list(_outcomes(game, algos))
    regions = {region for region, _ in outcomes if region is not None}
    failures = [failure for _, failure in outcomes if failure is not None]
    agree = len(regions) <= 1
    if agree and not failures:
        print(f"agreed: {', '.join(algos)}")
        return 0
    for failure in failures:
        print(failure, file=sys.stderr)
    if not agree:
        print("solvers disagree; minimized counterexample:", file=sys.stderr)
        sys.stdout.write(emit_game(_minimize(game, algos)))
    return 1


def _cmd_transform(args) -> int:
    game = _load(args.file)
    op = args.op
    try:
        if op.startswith("split:"):
            transformed = split_top(game, int(op.split(":", 1)[1])).plus
        elif op == "deloop":
            transformed, _ = remove_useless_self_loops(game)
        elif op == "unfair":
            transformed, _ = remove_unfair_win(game)
        elif op == "shiftswap":
            transformed = shift_and_swap(game)
        else:
            _usage_error(f"unknown transform {op!r}")
        sys.stdout.write(emit_game(transformed))
    except (GameError, ValueError) as exc:
        _usage_error(str(exc))
    return 0


def _cmd_gen(args) -> int:
    try:
        game = gen_random(args.n, args.max_prio, args.max_deg, args.seed)
    except ValueError as exc:
        _usage_error(str(exc))
    sys.stdout.write(emit_game(game))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgsolve", description="Solve, check and transform parity games."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve a game file")
    solve.add_argument("--algo", choices=tuple(_SOLVERS), default="short")
    solve.add_argument("file")
    solve.set_defaults(func=_cmd_solve)

    verify = commands.add_parser("verify", help="check a solution file")
    verify.add_argument("file")
    verify.add_argument("solution")
    verify.set_defaults(func=_cmd_verify)

    compare = commands.add_parser(
        "compare", help="cross-check all applicable solvers"
    )
    compare.add_argument("file")
    compare.set_defaults(func=_cmd_compare)

    transform = commands.add_parser("transform", help="emit a transformed game")
    transform.add_argument(
        "--op", required=True, help="split:<k>, deloop, unfair or shiftswap"
    )
    transform.add_argument("file")
    transform.set_defaults(func=_cmd_transform)

    gen = commands.add_parser("gen", help="emit a seeded random game")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--max-prio", type=int, default=5)
    gen.add_argument("--max-deg", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StrategyError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, CertificationError) else 2
    except RecursionError as exc:
        print(f"error: game too deep for the recursive solver: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
