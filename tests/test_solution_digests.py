"""Golden digests of solver output on a fixed corpus.

``data/solution_digests.txt`` holds one line per game: a label, the
sha256 of ``emit_solution`` for ``solve_short`` and, for games of at
most ``CONSTRUCTIVE_MAX_N`` vertices, for ``solve_constructive`` (``-``
otherwise).  The regions are unique, but the strategies are not, so the
file pins the exact choices too: a faster closure, table or transform
must leave every byte of every solution where it was.

Regenerate only on purpose, with
``PYTHONPATH=src:tests python tests/test_solution_digests.py``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from pgsolve import emit_solution, gen_random, solve_constructive, solve_short
from games import cycle

DIGESTS = Path(__file__).parent / "data" / "solution_digests.txt"
CONSTRUCTIVE_MAX_N = 14


def corpus():
    """(label, game) pairs: 150 random games, then cycle(2..39)."""
    for s in range(150):
        yield f"random-{s}", gen_random(5 + s % 40, 1 + s % 9, 1 + s % 4, s)
    for n in range(2, 40):
        yield f"cycle-{n}", cycle(n)


def _digest(game, solution) -> str:
    return hashlib.sha256(emit_solution(game, solution).encode()).hexdigest()


def digest_lines() -> list[str]:
    lines = []
    for label, game in corpus():
        short = _digest(game, solve_short(game))
        constructive = (
            _digest(game, solve_constructive(game))
            if game.n <= CONSTRUCTIVE_MAX_N
            else "-"
        )
        lines.append(f"{label} {short} {constructive}")
    return lines


def test_solutions_match_golden_digests():
    expected = DIGESTS.read_text().splitlines()
    actual = digest_lines()
    assert len(actual) == len(expected)
    for want, got in zip(expected, actual):
        assert got == want


if __name__ == "__main__":
    DIGESTS.write_text("\n".join(digest_lines()) + "\n")
