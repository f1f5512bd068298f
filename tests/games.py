"""Shared example games for the test suite."""

from pgsolve import ParityGame, gen_random


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


def cycle(n: int) -> ParityGame:
    """Vertex v has owner v % 2, priority v and one edge to v + 1 mod n."""
    return ParityGame.from_vertices([(v % 2, v, ((v + 1) % n,)) for v in range(n)])
