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

Canonical text (single spaces, owners and winners 0 or 1, blank lines
allowed) that passes one strict line-anchored pattern is cut into columns
by one ``str.split`` and stride slices, with no row per line; a game with
a quoted name takes one strict ``findall``, any other text one general
``findall`` over its nonblank lines, so row i is line i.  Successor lists
are read by one ``json.loads`` of the joined column, or by ``int`` per
record when that has leading zeros or other digits JSON rejects.  Ids
already ascending skip the reordering.  Errors are located on the
nonblank lines; only a faulty text is walked line by line.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import compress
from operator import not_

from .game import _PLAYERS, ParityGame, Player, Solution, Strategy, _arena


class ParseError(ValueError):
    """Syntax or consistency error with its position in the input."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


def _rows(pattern: str) -> str:
    """``pattern`` at every line start, its whitespace kept inside the line."""
    return "(?m)^" + pattern.replace(r"\s", r"[^\S\n]")


# Compiled on first use, through the cache of ``re``: an import compiles none.
_HEADER = r"\s*parity\s+(\d+)\s*;\s*$"
_RECORD = _rows(
    r"\s*(?P<id>\d+)"
    r"\s+(?P<priority>\d+)"
    r"\s+(?P<owner>\d+)"
    r"\s+(?P<successors>\d+(?:\s*,\s*\d+)*)"
    r"(?:\s+(?P<name>\"[^\"\n]*\"))?"
    r"\s*;\s*$"
)
_SOLUTION_LINE = _rows(r"\s*(?P<id>\d+)\s+(?P<winner>\d+)\s+(?P<choice>\d+|-)\s*$")
_CANONICAL_HEADER = r"(?m)\s*parity [0-9]+;$"
_CANONICAL_RECORD = r"(?m)^[0-9]+ [0-9]+ [01] [0-9]+(?:,[0-9]+)*;$"
_NAMED_RECORD = (  # no control character, U+0085, U+2028 or U+2029 in a name
    r'(?m)^([0-9]+) ([0-9]+) ([01]) ([0-9]+(?:,[0-9]+)*)(?: ("[^"\x00-\x1f\x85\u2028\u2029]*"))?;$'
)
_CANONICAL_SOLUTION_LINE = r"(?m)^[0-9]+ [01] (?:[0-9]+|-)$"


class _Lines:
    """The columns of a text, and the first error among its nonblank lines."""

    def __init__(self, text: str):
        self.text = text

    @cached_property
    def body(self) -> list[str]:
        return [*filter(str.strip, self.text.splitlines())]

    def columns(self, width: int, canonical: str, general: str, named: str | None = None):
        """Whether every line after a game's header (given ``named``) has a row,
        and the rows' columns; a bad header raises.  Blank or ``canonical`` lines
        of ``width`` tokens are cut by one split; a named game whose lines all
        match ``named`` takes that one scan; else one ``general`` scan."""
        head = named is not None
        header = re.match(_CANONICAL_HEADER, self.text) if head else None
        start = header.end() if header else 0
        if (header or not head) and '"' not in self.text:
            if not re.sub(canonical, "", self.text[start:]).strip():
                tokens = self.text.replace(";", "").split()
                return True, [tokens[2 * head + k :: width] for k in range(width)]
        elif header:
            rows = re.compile(named).findall(self.text, start)
            if len(rows) == self.text.count("\n", start, -1):
                return True, [*zip(*rows)]
        if head and not self.body:
            raise ParseError(1, 1, "empty input, expected a parity header")
        if head and re.match(_HEADER, self.body[0]) is None:
            raise self.error(0, "malformed header, expected 'parity <max-id>;'")
        rows = re.findall(general, "\n".join(self.body[head:]))
        return len(rows) + head == len(self.body), [*zip(*rows)] or [()] * width

    def error(self, i: int, reason: str, column: int | None = None) -> ParseError:
        """A ParseError on nonblank line ``i``, by default at its first token."""
        numbers = [no for no, line in enumerate(self.text.splitlines(), 1) if line.strip()]
        line = self.body[i]
        return ParseError(numbers[i], column or len(line) - len(line.lstrip()) + 1, reason)

    def first_fault(self, pattern, start, numbers, player, duplicate, n=None):
        """Index and reason (None: ``pattern`` rejects it) of the first faulty
        line from ``start`` on; ``numbers(groups)`` gives id, player, the rest."""
        seen = set()
        for i in range(start, len(self.body)):
            match = re.match(pattern, self.body[i])
            if match is None:
                return i, None
            try:
                vid, side, *_ = map(int, numbers(match.groups()))
            except ValueError as exc:  # more digits than int() converts
                return i, str(exc)
            if n is not None and vid >= n:
                return i, f"unknown vertex {vid}"
            if vid in seen:
                return i, f"{duplicate} {vid}"
            if side not in (0, 1):
                return i, f"{player} must be 0 or 1, got {side}"
            seen.add(vid)
        raise AssertionError("no faulty line")


def parse_game(text: str) -> ParityGame:
    """Parse a game file, reporting the first error with line and column.

    The records' shape and the range test below check all a game needs.
    """
    import json  # noqa: PLC0415 - loaded by the first parse, not by importing pgsolve
    lines = _Lines(text)
    found, (ids, priorities, owners, successors, *names) = lines.columns(
        4, _CANONICAL_RECORD, _RECORD, _NAMED_RECORD
    )
    names = names[0] if names else ()  # cut columns have no names column
    try:
        ids, priorities, owners = (list(map(int, col)) for col in (ids, priorities, owners))
        try:  # JSON reads the canonical spelling; int also leading zeros and other digits
            successors = [*map(tuple, json.loads("[[" + "],[".join(successors) + "]]"))]
        except ValueError:
            successors = [tuple(map(int, succ.split(","))) for succ in successors]
        ordered = ids == [*range(len(ids))]
        clean = found and (ordered or len(set(ids)) == len(ids))
    except ValueError:
        clean = False
    if not (clean and set(owners) <= {0, 1}):
        numbers = lambda row: (row[0], row[2], row[1], *row[3].split(","))  # noqa: E731
        i, reason = lines.first_fault(_RECORD, 1, numbers, "owner", "duplicate id")
        line = lines.body[i]
        fields = line.split(";", 1)[0].split()
        if reason is None and len(fields) == 3 and all(f.isdigit() for f in fields):
            column = line.index(";") + 1 if ";" in line else len(line) + 1
            raise lines.error(i, "empty successor list", column)
        raise lines.error(i, reason or "malformed record")
    if not ids:
        raise lines.error(0, "no vertex records after the header", 1)
    # Ids are distinct and nonnegative, so n records cover 0..n-1.
    n = max(ids) + 1
    if len(ids) != n:
        v = min(set(range(n)).difference(ids))
        raise lines.error(0, f"missing record for vertex {v}", 1)
    if max(map(max, successors)) >= n:
        i, succ = next((i, s) for i, s in enumerate(successors, 1) if max(s) >= n)
        raise lines.error(i, f"dangling successor id {next(u for u in succ if u >= n)}")
    owners = [*map(_PLAYERS.__getitem__, owners)]
    names = [name[1:-1] if name else None for name in names] if any(names) else [None] * n
    columns = owners, priorities, successors, names
    if not ordered:
        order = sorted(range(n), key=ids.__getitem__)
        columns = ([*map(col.__getitem__, order)] for col in columns)
    return _arena(*map(tuple, columns))


def emit_game(game: ParityGame) -> str:
    """Canonical text of a game, a fixed point of parse-then-emit."""
    out = [f"parity {game.n - 1};"]
    for v in game.vertices:
        succ = ",".join(str(u) for u in game.successors[v])
        name = game.names[v]
        tail = f' "{name}"' if name is not None else ""
        out.append(f"{v} {game.priorities[v]} {int(game.owners[v])} {succ}{tail};")
    return "\n".join(out) + "\n"


def parse_solution(text: str, game: ParityGame) -> Solution:
    """Parse a solution file for ``game``; every vertex exactly once."""
    lines = _Lines(text)
    found, (ids, winners, moves) = lines.columns(3, _CANONICAL_SOLUTION_LINE, _SOLUTION_LINE)
    n = game.n
    try:
        ids, winners = list(map(int, ids)), list(map(int, winners))
        explicit = [*compress(ids, map("-".__ne__, moves))]
        moves = [*map(int, filter("-".__ne__, moves))]
        clean = found and len(set(ids)) == len(ids)
    except ValueError:
        clean = False
    if not (clean and max(ids, default=-1) < n and set(winners) <= {0, 1}):
        numbers = lambda row: row if row[2] != "-" else row[:2]  # noqa: E731
        i, reason = lines.first_fault(_SOLUTION_LINE, 0, numbers, "winner", "duplicate vertex", n)
        raise lines.error(i, reason or "malformed solution line")
    if len(ids) != n:
        missing = sorted(set(range(n)).difference(ids))
        raise ParseError(1, 1, f"missing verdict for vertices {missing}")
    w1 = frozenset(compress(ids, winners))
    by_p1 = [*map(game.owners.__getitem__, explicit)]  # Player.P1 is true, P0 false
    pairs = [*zip(explicit, moves)]
    return Solution(
        frozenset(range(n)) - w1,
        w1,
        Strategy(Player.P0, dict(compress(pairs, map(not_, by_p1)))),
        Strategy(Player.P1, dict(compress(pairs, by_p1))),
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
