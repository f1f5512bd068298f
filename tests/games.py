"""Shared example games for the test suite."""

import random

from pgsolve import ParityGame, Player, Solution, Strategy, gen_random, solve_short


def chain_game() -> ParityGame:
    """u(pr 3) -> v(pr 4) -> w(pr 1, self-loop), all owned by P0.

    The classic trap for naive splitting: parking on v's copy looks like
    a P0 win, but back in the real game every play drowns in priority 1.
    """
    return ParityGame.from_vertices(
        [
            (0, 3, (1,), "u"),
            (0, 4, (2,), "v"),
            (0, 1, (2,), "w"),
        ]
    )


def two_cycle_game(owner: int = 1) -> ParityGame:
    """u(pr 1) <-> v(pr 2), both owned by the same player."""
    return ParityGame.from_vertices(
        [
            (owner, 1, (1,), "u"),
            (owner, 2, (0,), "v"),
        ]
    )


def ladder_game(m: int) -> ParityGame:
    """m-column truncation of the infinite downward ladder.

    Top row: owner-0 vertices of priority 3 chained rightward, each also
    stepping into its column.  Column i holds i-1 middle vertices of
    priority 4 and ends in a priority-1 sink.  The last top vertex keeps
    only its downward edge.  P1 wins everywhere, but the fixpoint solver
    needs one bumping round per column to find out.
    """
    if m < 1:
        raise ValueError("need at least one column")
    rows = []
    col_start = {}
    idx = m
    for i in range(1, m + 1):
        col_start[i] = idx
        idx += max(i - 1, 0) + 1
    for i in range(1, m + 1):
        down = col_start[i]
        succ = (i, down) if i < m else (down,)
        rows.append((0, 3, succ, f"t{i}"))
    for i in range(1, m + 1):
        base = col_start[i]
        for j in range(i - 1):
            rows.append((0, 4, (base + j + 1,), f"c{i}.{j + 1}"))
        sink = base + max(i - 1, 0)
        rows.append((0, 1, (sink,), f"b{i}"))
    return ParityGame.from_vertices(rows)


def random_corpus(count: int, max_n: int) -> list[ParityGame]:
    """Deterministic mixed corpus: n cycles 1..max_n, priorities 0..5,
    out-degree 1..3, one game per seed."""
    return [
        gen_random(1 + seed % max_n, seed % 6, 1 + seed % 3, seed)
        for seed in range(count)
    ]


def scratch_class(game: ParityGame, v: int) -> str:
    """"absorbing", "vanishing" or "relevant", from the successor lists alone.

    Absorbing: v's only target is itself.  Vanishing: no edge enters v.
    The package has no such function; its one relevance test is
    ``game._relevant_vertices``, which tests compare with this rule.
    """
    targets = set(game.successors[v])
    if targets == {v}:
        return "absorbing"
    if not any(v in succ for succ in game.successors):
        return "vanishing"
    return "relevant"


def cycle(n: int) -> ParityGame:
    """Vertex v has owner v % 2, priority v and one edge to v + 1 mod n."""
    return ParityGame.from_vertices([(v % 2, v, ((v + 1) % n,)) for v in range(n)])


def union_claim(parts: int, seed: int):
    """An id-shuffled disjoint union of solved random games and its claim.

    Built like the benchmark's certify arenas: every part is a small
    ``gen_random`` game solved by ``solve_short``, and the claim is the
    union of the parts' solutions with an explicit move at every
    branching vertex, so that a claim with one vertex moved to the other
    region is refuted by a losing cycle rather than by a missing move.
    Returns the arena and its (correct) Solution.
    """
    rng = random.Random(seed)
    games = [
        gen_random(rng.randint(6, 16), rng.randint(2, 6), 3, rng.getrandbits(32))
        for _ in range(parts)
    ]
    total = sum(game.n for game in games)
    perm = list(range(total))
    rng.shuffle(perm)
    rows = [None] * total
    w1 = set()
    moves = ({}, {})
    offset = 0
    for game in games:
        solution = solve_short(game)
        for v in game.vertices:
            owner = int(game.owners[v])
            strategy = solution.sigma if owner == 0 else solution.tau
            move = strategy.choices.get(v, game.choices_at(v)[0])
            if len(game.choices_at(v)) > 1:
                moves[owner][perm[offset + v]] = perm[offset + move]
            rows[perm[offset + v]] = (
                owner,
                game.priorities[v],
                tuple(perm[offset + u] for u in game.successors[v]),
            )
        w1.update(perm[offset + v] for v in solution.w1)
        offset += game.n
    arena = ParityGame.from_vertices(rows)
    w1 = frozenset(w1)
    return arena, Solution(
        frozenset(arena.vertices) - w1,
        w1,
        Strategy(Player.P0, moves[0]),
        Strategy(Player.P1, moves[1]),
    )
