"""Seeded inputs and closed-loop operations for the four workloads.

Every workload is a sequence of rounds.  A round is a fixed mix of
operations ("ops"); only the games inside it depend on the seed and the
round number, so any two rounds cost about the same and a run made of
whole rounds always has the same mix.  Each op carries the call that is
timed and a check that runs after it, outside the timed span.

The library is imported from ``src/`` of the checkout this file lives
in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if not (SRC / "pgsolve" / "__init__.py").is_file():
    raise ImportError(f"no pgsolve sources under {SRC}")
sys.path.insert(0, str(SRC))

import pgsolve  # noqa: E402
from pgsolve import (  # noqa: E402
    ParityGame,
    Solution,
    Strategy,
    cli,
    emit_game,
    emit_solution,
    gen_random,
    solver_constructive,
    solver_short,
)

if Path(pgsolve.__file__).resolve().parent != SRC / "pgsolve":
    raise ImportError(f"pgsolve was imported from {pgsolve.__file__}, not {SRC}")

import check  # noqa: E402

WORKLOAD_NAMES = ("short_random", "short_deep", "constructive", "certify")


@dataclass(frozen=True)
class Op:
    """One closed-loop request: ``call`` is timed, ``check`` is not.

    ``check`` gets the call's return value and answers None when the
    output is correct, or the reason it is not.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]


def _rng(workload: str, seed: int, *key) -> random.Random:
    # String seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED.
    return random.Random(":".join(str(part) for part in (workload, seed, *key)))


# --- game families -------------------------------------------------------


def cycle(n: int) -> ParityGame:
    """Vertex v has owner v % 2, priority v and one edge to v + 1 mod n."""
    return ParityGame.from_vertices([(v % 2, v, ((v + 1) % n,)) for v in range(n)])


def ladder_game(m: int) -> ParityGame:
    """m-column truncation of the downward ladder; P1 wins everywhere.

    Top row: owner-0 vertices of priority 3 chained rightward, each also
    stepping into its column.  Column i holds i-1 middle vertices of
    priority 4 and ends in a priority-1 sink.  The fixpoint solver needs
    one bumping round per column.
    """
    rows = []
    col_start = {}
    idx = m
    for i in range(1, m + 1):
        col_start[i] = idx
        idx += max(i - 1, 0) + 1
    for i in range(1, m + 1):
        down = col_start[i]
        rows.append((0, 3, (i, down) if i < m else (down,), f"t{i}"))
    for i in range(1, m + 1):
        base = col_start[i]
        for j in range(i - 1):
            rows.append((0, 4, (base + j + 1,), f"c{i}.{j + 1}"))
        sink = base + max(i - 1, 0)
        rows.append((0, 1, (sink,), f"b{i}"))
    return ParityGame.from_vertices(rows)


def relabel(game: ParityGame, rng: random.Random) -> ParityGame:
    """The same game under a random permutation of vertex ids."""
    perm = list(game.vertices)
    rng.shuffle(perm)
    rows = [None] * game.n
    for v in game.vertices:
        rows[perm[v]] = (
            game.owners[v],
            game.priorities[v],
            tuple(perm[u] for u in game.successors[v]),
            game.names[v],
        )
    return ParityGame.from_vertices(rows)


# --- solve workloads -----------------------------------------------------

# Cells of one round, each once per round.  short_random runs along a
# cost diagonal (more vertices, fewer priorities) so that no single cell
# holds the whole tail.  Its games are small (about 0.1 s each), so that
# a run holds enough of them for its median and tail to be steady: with
# games twice as costly, neighbouring ops around the median differed by
# 3 to 6% and the median moved with the noise of single ops.  The
# other lists are ordered by cost, and the
# random games of constructive are kept small so that their spread of
# costs stays below the deterministic cells.  An odd number of cells
# keeps the median inside a cell, not on the boundary between two.  The
# middle cell of constructive is a cycle: shuffling a cycle's ids does
# not change its cost, while a shuffled ladder costs one of a few
# levels up to 1.4 times apart, and a median there would jump between
# them from seed to seed.
SHORT_RANDOM = {
    "full": ((40, 8), (60, 6), (80, 5), (100, 4), (120, 3)),
    "tiny": ((6, 3), (8, 4), (10, 5)),
}
SHORT_DEEP = {"full": (16, 32, 48), "tiny": (4, 6, 8)}
CONSTRUCTIVE = {
    "full": (("random", 10), ("ladder", 10), ("cycle", 10), ("ladder", 14), ("cycle", 11)),
    "tiny": (("random", 6), ("ladder", 2), ("cycle", 4), ("ladder", 3), ("cycle", 5)),
}
CONSTRUCTIVE_RANDOM_PRIORITY = 6


# Seeds given on the command line are integers, so these are never among them.
WARM_UP_SEED = "warm-up"
GRID_SEED = "grid"


def round_games(workload: str, seed: int | str, r: int, scale: str) -> list[tuple[str, ParityGame]]:
    """The labelled games of round ``r``, in the order they are solved.

    The random games of round ``r`` are generated from a seed that
    depends on ``r`` alone, the grid seed; ``seed`` shuffles the ids of
    every game and the order of the round.  The cost of random games of
    one size varies several times over, and a run of twenty rounds
    averaged too few of them for its figures to agree from one seed to
    the next.
    """
    rng = _rng(workload, seed, r)
    grid = _rng(workload, GRID_SEED, r)
    games = []
    if workload == "short_random":
        for n, p in SHORT_RANDOM[scale]:
            game = gen_random(n, p, 3, grid.getrandbits(32))
            games.append((f"gen_random({n},{p})", relabel(game, rng)))
    elif workload == "short_deep":
        for n in SHORT_DEEP[scale]:
            games.append((f"cycle({n})", relabel(cycle(n), rng)))
    elif workload == "constructive":
        for family, size in CONSTRUCTIVE[scale]:
            if family == "ladder":
                game = relabel(ladder_game(size), rng)
            elif family == "cycle":
                game = relabel(cycle(size), rng)
            else:
                game = gen_random(size, CONSTRUCTIVE_RANDOM_PRIORITY, 3, grid.getrandbits(32))
                game = relabel(game, rng)
            games.append((f"{family}({size})", game))
    else:
        raise ValueError(f"{workload} is not a solve workload")
    rng.shuffle(games)
    return games


class SolveFeed:
    """Rounds of games handed one at a time to a solver."""

    def __init__(self, workload: str, seed: int, scale: str):
        self.workload = workload
        self.seed = seed
        self.scale = scale
        # Looked up on the module at call time, so a tracer's patch applies.
        if workload == "constructive":
            self._solve = lambda game: solver_constructive.solve_constructive(game)
        else:
            self._solve = lambda game: solver_short.solve_short(game)

    def round(self, r: int) -> list[Op]:
        return self._ops(round_games(self.workload, self.seed, r, self.scale))

    def warm_up(self) -> Op:
        """The op on the lowest-labelled cell of a round that no seed
        reaches, so that set-up costs the same whatever the seed."""
        ops = self._ops(round_games(self.workload, WARM_UP_SEED, 0, self.scale))
        return min(ops, key=lambda op: op.label)

    def _ops(self, games: list[tuple[str, ParityGame]]) -> list[Op]:
        return [
            Op(
                label,
                lambda game=game: self._solve(game),
                lambda solution, game=game: check.check_solution(game, solution),
            )
            for label, game in games
        ]

    def inputs(self, rounds: int) -> bytes:
        """The text of every game of the first ``rounds`` rounds."""
        return "".join(
            emit_game(game)
            for r in range(rounds)
            for _, game in round_games(self.workload, self.seed, r, self.scale)
        ).encode()

    def close(self) -> None:
        pass


# --- certify -------------------------------------------------------------

CERTIFY = {
    # vertices per arena, component pool size, component sizes
    "full": dict(arena_n=20_000, pool=40, comp_n=(12, 24)),
    "tiny": dict(arena_n=120, pool=4, comp_n=(6, 10)),
}
CERTIFY_ARENAS = 2
CERTIFY_COMPONENT_PRIORITY = (2, 6)

_REFUTED = re.compile(
    r"refuted: (?P<label>sigma on w0|tau on w1) loses: path \[(?P<path>[\d, ]*)\]"
    r" reaches cycle \[(?P<cycle>[\d, ]+)\] with maximum priority (?P<top>\d+)$"
)


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _totalise(game: ParityGame, solution: Solution) -> tuple[dict, dict]:
    """Both strategies with an explicit move at every branching vertex.

    Moves outside a player's region are arbitrary; they never matter for
    a correct claim, and they make every perturbed claim fail with a
    losing cycle rather than with a missing move.
    """
    moves = ({}, {})
    for player, strategy in enumerate((solution.sigma, solution.tau)):
        moves[player].update(strategy.choices)
    for v in game.vertices:
        owner = int(game.owners[v])
        if v not in moves[owner] and len(game.choices_at(v)) > 1:
            moves[owner][v] = game.choices_at(v)[0]
    return moves


@dataclass(frozen=True)
class Claim:
    """A certificate file for one arena and the verdict it must get."""

    arena: int
    path: Path
    w1: frozenset[int]
    moves: tuple[dict, dict]
    certified: bool


class CertifyFeed:
    """``pgsolve verify`` on large disjoint unions of small solved games.

    The union is id-shuffled; its certificate is the union of the parts'
    certificates, so it is known without solving the union.  One claim
    in five has a single vertex moved to the other region and must be
    refuted with a losing cycle.
    """

    def __init__(self, seed: int, scale: str, workdir: Path, lap: Callable[[], None]):
        self.seed = seed
        self.workdir = workdir
        params = CERTIFY[scale]
        # The pool is the same for every seed, so that set-up, which
        # solves it, costs the same whatever the seed; the seed picks
        # the parts of each arena and shuffles their ids.
        rng = _rng("certify", WARM_UP_SEED, "pool")
        pool = []
        for _ in range(params["pool"]):
            game = gen_random(
                rng.randint(*params["comp_n"]),
                rng.randint(*CERTIFY_COMPONENT_PRIORITY),
                3,
                rng.getrandbits(32),
            )
            solution = solver_short.solve_short(game)
            reason = check.check_solution(game, solution)
            if reason is not None:
                raise RuntimeError(f"component solution is wrong: {reason}")
            pool.append((game, solution))
            lap()
        workdir.mkdir(parents=True, exist_ok=True)
        self.arenas: list[ParityGame] = []
        self.game_paths: list[Path] = []
        self.claims: list[Claim] = []
        for a in range(CERTIFY_ARENAS):
            self._build_arena(a, pool, params["arena_n"], _rng("certify", seed, "arena", a))
            lap()

    def _build_arena(self, a: int, pool, arena_n: int, rng: random.Random) -> None:
        parts = []
        total = 0
        while total < arena_n:
            part = pool[rng.randrange(len(pool))]
            parts.append(part)
            total += part[0].n
        perm = list(range(total))
        rng.shuffle(perm)
        rows = [None] * total
        w1 = set()
        moves = ({}, {})
        offset = 0
        for game, solution in parts:
            for player, part_moves in enumerate(_totalise(game, solution)):
                for v, u in part_moves.items():
                    moves[player][perm[offset + v]] = perm[offset + u]
            for v in game.vertices:
                rows[perm[offset + v]] = (
                    game.owners[v],
                    game.priorities[v],
                    tuple(perm[offset + u] for u in game.successors[v]),
                )
            w1.update(perm[offset + v] for v in solution.w1)
            offset += game.n
        arena = ParityGame.from_vertices(rows)
        game_path = self.workdir / f"arena{a}.pg"
        game_path.write_text(emit_game(arena))
        self.arenas.append(arena)
        self.game_paths.append(game_path)
        flipped = rng.randrange(total)
        for name, region, certified in (
            ("good", frozenset(w1), True),
            ("bad", frozenset(w1 ^ {flipped}), False),
        ):
            path = self.workdir / f"arena{a}-{name}.sol"
            path.write_text(_emit_claim(arena, region, moves))
            self.claims.append(Claim(a, path, region, moves, certified))

    def round(self, r: int) -> list[Op]:
        good = [c for c in self.claims if c.certified]
        bad = [c for c in self.claims if not c.certified]
        claims = good + good + [bad[r % len(bad)]]
        _rng("certify", self.seed, r).shuffle(claims)
        return [self._op(claim) for claim in claims]

    def warm_up(self) -> Op:
        """The correct claim on the first arena: the arenas change with
        the seed, but their size, and so the cost of this op, does not."""
        return self._op(self.claims[0])

    def _op(self, claim: Claim) -> Op:
        argv = ["verify", str(self.game_paths[claim.arena]), str(claim.path)]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        verdict = "certified" if claim.certified else "refuted"
        return Op(f"verify({verdict})", call, lambda result: self._check(claim, result))

    def _check(self, claim: Claim, result) -> str | None:
        code, out = result
        if claim.certified:
            if (code, out) != (0, "certified\n"):
                return f"certified claim got exit {code}: {out.strip()[:200]}"
            return None
        match = _REFUTED.match(out.rstrip("\n"))
        if code != 1 or match is None:
            return f"wrong claim got exit {code} without a witness: {out.strip()[:200]}"
        player = 0 if match["label"].startswith("sigma") else 1
        arena = self.arenas[claim.arena]
        region = set(arena.vertices) - claim.w1 if player == 0 else claim.w1
        return check.check_lasso(
            arena,
            player,
            region,
            claim.moves[player],
            _ints(match["path"]),
            _ints(match["cycle"]),
            int(match["top"]),
        )

    def inputs(self, rounds: int) -> bytes:
        del rounds  # the files are fixed for the whole run
        paths = [*self.game_paths, *(c.path for c in self.claims)]
        return b"".join(path.read_bytes() for path in paths)

    def close(self) -> None:
        for path in [*self.game_paths, *(c.path for c in self.claims)]:
            path.unlink(missing_ok=True)


def _emit_claim(arena: ParityGame, w1: frozenset[int], moves: tuple[dict, dict]) -> str:
    w0 = frozenset(arena.vertices) - w1
    claim = Solution(w0, w1, Strategy(0, moves[0]), Strategy(1, moves[1]))
    return emit_solution(arena, claim)


def make_feed(workload: str, seed: int, scale: str, workdir: Path,
              lap: Callable[[], None] = lambda: None):
    """The round source for ``workload``; call ``close`` when done.

    A long set-up calls ``lap`` between its steps, so that a caller can
    time the steps one by one.
    """
    if workload == "certify":
        return CertifyFeed(seed, scale, workdir, lap)
    if workload in WORKLOAD_NAMES:
        return SolveFeed(workload, seed, scale)
    raise ValueError(f"unknown workload {workload!r}")
