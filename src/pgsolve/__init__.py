"""Parity game solving by vertex splitting, with certified strategies.

Two solvers (a lean recursive one and a fixpoint one that constructs
both witness strategies), an independent brute-force oracle, and a
polynomial verifier that certifies every returned solution.  The names
below are the ones README.md documents; internals stay importable from
their modules.
"""

from .game import (
    GameError,
    Lasso,
    ParityGame,
    PartialSolution,
    Player,
    Solution,
    Strategy,
    StrategyError,
    play,
)
from .generate import gen_random
from .oracle import BudgetExceededError, brute_force_solve
from .pgfile import ParseError, emit_game, emit_solution, parse_game, parse_solution
from .solver_constructive import FixpointState, solve_constructive
from .solver_short import CertificationError, solve_short
from .transforms import (
    RestrictionError,
    SplitGame,
    Subgame,
    closure,
    merge_strategy,
    remove_unfair_win,
    remove_useless_self_loops,
    restrict,
    shift_and_swap,
    split_top,
)
from .verification import (
    BadCycleWitness,
    Diagnostic,
    check_solution,
    verify_strategy,
)

__all__ = [
    "BadCycleWitness",
    "BudgetExceededError",
    "CertificationError",
    "Diagnostic",
    "FixpointState",
    "GameError",
    "Lasso",
    "ParityGame",
    "ParseError",
    "PartialSolution",
    "Player",
    "RestrictionError",
    "Solution",
    "SplitGame",
    "Strategy",
    "StrategyError",
    "Subgame",
    "brute_force_solve",
    "check_solution",
    "closure",
    "emit_game",
    "emit_solution",
    "gen_random",
    "merge_strategy",
    "parse_game",
    "parse_solution",
    "play",
    "remove_unfair_win",
    "remove_useless_self_loops",
    "restrict",
    "shift_and_swap",
    "solve_constructive",
    "solve_short",
    "split_top",
    "verify_strategy",
]
