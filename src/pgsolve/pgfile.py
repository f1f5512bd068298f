"""Text format for games and solutions.

Game files follow the widespread PGSolver layout::

    parity 2;
    0 3 0 1 "u";
    1 4 0 2 "v";
    2 1 0 2 "w";

one record per vertex: id, priority, owner, comma-separated successors,
optional quoted name.  Vertex ids must form 0..n-1 but may appear in
any order.  The header number is read as a hint and not enforced: the
records alone decide n, so a header that disagrees with them parses to
the same game.  Emission always writes ``max id``, that is n-1.
Emission is canonical: records sorted by id, single spaces, no space
after commas, so emit(parse(text)) normalizes any valid file and is a
fixed point on its own output.

Solution files are one line per vertex: ``id winner choice`` with ``-``
for a vertex where the owner's strategy has no explicit choice.
"""

from __future__ import annotations

import re

from .game import _PLAYERS, ParityGame, Player, Solution, Strategy, _arena


class ParseError(ValueError):
    """Syntax or consistency error with its position in the input."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


_HEADER = re.compile(r"\s*parity\s+(\d+)\s*;\s*$")
_RECORD = re.compile(
    r"\s*(?P<id>\d+)"
    r"\s+(?P<priority>\d+)"
    r"\s+(?P<owner>\d+)"
    r"\s+(?P<successors>\d+(?:\s*,\s*\d+)*)"
    r"(?:\s+\"(?P<name>[^\"]*)\")?"
    r"\s*;\s*$"
)


def _fail_column(line_text: str, line_no: int, reason: str) -> ParseError:
    """Point at the first token that breaks the record shape."""
    stripped = len(line_text) - len(line_text.lstrip())
    return ParseError(line_no, stripped + 1, reason)


def parse_game(text: str) -> ParityGame:
    """Parse a game file, reporting the first error with line and column.

    The records' shape and the range test below check all a game needs.
    """
    lines = text.splitlines()
    body: list[tuple[int, str]] = [
        (no, line) for no, line in enumerate(lines, start=1) if line.strip()
    ]
    if not body:
        raise ParseError(1, 1, "empty input, expected a parity header")
    header_no, header = body[0]
    if _HEADER.match(header) is None:
        raise _fail_column(header, header_no, "malformed header, expected 'parity <max-id>;'")
    records: dict[int, tuple[int, int, tuple[int, ...], str | None, int]] = {}
    for line_no, line in body[1:]:
        match = _RECORD.match(line)
        if match is None:
            fields = line.split(";", 1)[0].split()
            if len(fields) == 3 and all(f.isdigit() for f in fields):
                column = line.index(";") + 1 if ";" in line else len(line) + 1
                raise ParseError(line_no, column, "empty successor list")
            raise _fail_column(line, line_no, "malformed record")
        vid, priority, owner, succ_text, name = match.groups()
        try:
            vid = int(vid)
            owner = int(owner)
            priority = int(priority)
            successors = tuple(map(int, succ_text.replace(" ", "").split(",")))
        except ValueError as exc:  # more digits than int() converts
            raise _fail_column(line, line_no, str(exc)) from None
        if vid in records:
            raise _fail_column(line, line_no, f"duplicate id {vid}")
        if owner not in (0, 1):
            raise _fail_column(line, line_no, f"owner must be 0 or 1, got {owner}")
        records[vid] = (priority, owner, successors, name, line_no)
    if not records:
        raise ParseError(header_no, 1, "no vertex records after the header")
    # Ids are distinct and nonnegative, so n records cover 0..n-1.
    n = max(records) + 1
    if len(records) != n:
        v = next(v for v in range(n) if v not in records)
        raise ParseError(header_no, 1, f"missing record for vertex {v}")
    priorities, owners, successors, names, _ = zip(*map(records.__getitem__, range(n)))
    if max(map(max, successors)) >= n:
        for _, _, succ, _, line_no in records.values():  # in file order
            for u in succ:
                if u >= n:
                    raise _fail_column(lines[line_no - 1], line_no, f"dangling successor id {u}")
    return _arena(tuple(map(_PLAYERS.__getitem__, owners)), priorities, successors, names)


def emit_game(game: ParityGame) -> str:
    """Canonical text of a game, a fixed point of parse-then-emit."""
    out = [f"parity {game.n - 1};"]
    for v in game.vertices:
        succ = ",".join(str(u) for u in game.successors[v])
        name = game.names[v]
        tail = f' "{name}"' if name is not None else ""
        out.append(f"{v} {game.priorities[v]} {int(game.owners[v])} {succ}{tail};")
    return "\n".join(out) + "\n"


_SOLUTION_LINE = re.compile(
    r"\s*(?P<id>\d+)\s+(?P<winner>\d+)\s+(?P<choice>\d+|-)\s*$"
)


def parse_solution(text: str, game: ParityGame) -> Solution:
    """Parse a solution file for ``game``; every vertex exactly once."""
    winners: dict[int, int] = {}
    choices: tuple[dict[int, int], dict[int, int]] = ({}, {})
    owners = game.owners
    n = game.n
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        match = _SOLUTION_LINE.match(line)
        if match is None:
            raise _fail_column(line, line_no, "malformed solution line")
        vid, winner, choice = match.groups()
        try:
            vid = int(vid)
            winner = int(winner)
            move = None if choice == "-" else int(choice)
        except ValueError as exc:  # more digits than int() converts
            raise _fail_column(line, line_no, str(exc)) from None
        if vid >= n:
            raise _fail_column(line, line_no, f"unknown vertex {vid}")
        if vid in winners:
            raise _fail_column(line, line_no, f"duplicate vertex {vid}")
        if winner not in (0, 1):
            raise _fail_column(line, line_no, f"winner must be 0 or 1, got {winner}")
        winners[vid] = winner
        if move is not None:
            choices[owners[vid]][vid] = move
    if len(winners) != n:
        missing = [v for v in range(n) if v not in winners]
        raise ParseError(1, 1, f"missing verdict for vertices {missing}")
    return Solution(
        frozenset(v for v, w in winners.items() if w == 0),
        frozenset(v for v, w in winners.items() if w == 1),
        Strategy(Player.P0, choices[0]),
        Strategy(Player.P1, choices[1]),
    )


def emit_solution(game: ParityGame, solution: Solution) -> str:
    """One ``id winner choice`` line per vertex, ascending ids."""
    out = []
    for v in game.vertices:
        winner = int(solution.winner_of(v))
        strategy = solution.sigma if game.owners[v] is Player.P0 else solution.tau
        move = strategy.choices.get(v)
        out.append(f"{v} {winner} {'-' if move is None else move}")
    return "\n".join(out) + "\n"
