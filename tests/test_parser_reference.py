"""The one-scan parsers against the line-by-line parsers they replaced.

``parse_game`` and ``parse_solution`` cut canonical text, whose every
line is blank or one strict record, into columns with one ``str.split``;
a game with a quoted name takes one strict ``findall`` over the raw
text, and any other text one general ``findall`` over its nonblank
lines.  Successor lists are read with one ``json.loads``, and with
``int`` per record when JSON rejects a spelling, such as a leading zero,
that ``int`` reads.  The lines are walked only to locate an error.  The
references below are the parsers they replaced: one regex match and one
record loop per line.  On valid and on mutated texts, canonical or not,
both must give an equal game or solution, or a ``ParseError`` with
equal line, column and reason.
"""

import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from pgsolve import ParityGame, ParseError, Player, Solution, Strategy
from pgsolve import emit_game, emit_solution, parse_game, parse_solution, solve_short
from games import union_claim

_HEADER = re.compile(r"\s*parity\s+(\d+)\s*;\s*$")
_RECORD = re.compile(
    r"\s*(?P<id>\d+)"
    r"\s+(?P<priority>\d+)"
    r"\s+(?P<owner>\d+)"
    r"\s+(?P<successors>\d+(?:\s*,\s*\d+)*)"
    r"(?:\s+\"(?P<name>[^\"]*)\")?"
    r"\s*;\s*$"
)
_SOLUTION_LINE = re.compile(r"\s*(?P<id>\d+)\s+(?P<winner>\d+)\s+(?P<choice>\d+|-)\s*$")


def _fail_column(line_text, line_no, reason):
    stripped = len(line_text) - len(line_text.lstrip())
    return ParseError(line_no, stripped + 1, reason)


def reference_parse_game(text):
    lines = text.splitlines()
    body = [(no, line) for no, line in enumerate(lines, start=1) if line.strip()]
    if not body:
        raise ParseError(1, 1, "empty input, expected a parity header")
    header_no, header = body[0]
    if _HEADER.match(header) is None:
        raise _fail_column(header, header_no, "malformed header, expected 'parity <max-id>;'")
    records = {}
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
        except ValueError as exc:
            raise _fail_column(line, line_no, str(exc)) from None
        if vid in records:
            raise _fail_column(line, line_no, f"duplicate id {vid}")
        if owner not in (0, 1):
            raise _fail_column(line, line_no, f"owner must be 0 or 1, got {owner}")
        records[vid] = (priority, owner, successors, name, line_no)
    if not records:
        raise ParseError(header_no, 1, "no vertex records after the header")
    n = max(records) + 1
    if len(records) != n:
        v = next(v for v in range(n) if v not in records)
        raise ParseError(header_no, 1, f"missing record for vertex {v}")
    for _, _, succ, _, line_no in records.values():
        for u in succ:
            if u >= n:
                raise _fail_column(lines[line_no - 1], line_no, f"dangling successor id {u}")
    return ParityGame.from_vertices(
        (owner, priority, succ, name)
        for _, (priority, owner, succ, name, _) in sorted(records.items())
    )


def reference_parse_solution(text, game):
    winners = {}
    choices = ({}, {})
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
        except ValueError as exc:
            raise _fail_column(line, line_no, str(exc)) from None
        if vid >= game.n:
            raise _fail_column(line, line_no, f"unknown vertex {vid}")
        if vid in winners:
            raise _fail_column(line, line_no, f"duplicate vertex {vid}")
        if winner not in (0, 1):
            raise _fail_column(line, line_no, f"winner must be 0 or 1, got {winner}")
        winners[vid] = winner
        if move is not None:
            choices[game.owners[vid]][vid] = move
    if len(winners) != game.n:
        missing = [v for v in range(game.n) if v not in winners]
        raise ParseError(1, 1, f"missing verdict for vertices {missing}")
    return Solution(
        frozenset(v for v, w in winners.items() if w == 0),
        frozenset(v for v, w in winners.items() if w == 1),
        Strategy(Player.P0, choices[0]),
        Strategy(Player.P1, choices[1]),
    )


def outcome(parse, *args):
    """The parsed value in comparable form, or the error's position."""
    try:
        value = parse(*args)
    except ParseError as exc:
        return "error", exc.line, exc.column, exc.reason
    if isinstance(value, ParityGame):
        assert all(type(owner) is Player for owner in value.owners)
        return value
    # Choice order decides which bad entry ``Strategy.validate`` names.
    return (value.w0, value.w1, [*value.sigma.choices.items()], [*value.tau.choices.items()])


# Every line break of ``str.splitlines``.
LINE_BREAKS = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"
]
# One digit more than ``int`` converts from text.
TOO_LONG = "9" * (sys.get_int_max_str_digits() + 1)
SPACES = st.sampled_from([" ", "  ", "\t", "\xa0", "\x1f", " 　"])
BREAKS = st.sampled_from(["\n"] * 4 + ["\r\n", "\r", " ", "\x0b", "\x85"])
BLANKS = st.lists(st.sampled_from(["", " ", "\t", "\xa0"]), max_size=2)
NUMBERS = st.one_of(
    st.integers(0, 9).map(str),
    st.sampled_from(["00", "01", "2", "7", "٣", TOO_LONG, TOO_LONG + "9", ""]),
)
NAMES = st.one_of(st.none(), st.sampled_from(["", "a b", "x;y", ";", "\xa0v\t", "u~"]))


def join_lines(draw, lines):
    """``lines`` with drawn line breaks and blank lines between them."""
    out = []
    for line in lines:
        out.extend(draw(BLANKS))
        out.append(line)
    breaks = [draw(BREAKS) for _ in out]
    return "".join(line + brk for line, brk in zip(out, breaks))


def mutate(draw, fields):
    """One drawn field of a record replaced by a drawn token, or dropped."""
    at = draw(st.integers(0, len(fields) - 1))
    token = draw(NUMBERS)
    return [*fields[:at], *([token] if token else []), *fields[at + 1:]]


@st.composite
def game_texts(draw):
    n = draw(st.integers(1, 5))
    records = []
    for v in draw(st.permutations(range(n))):
        succ = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        fields = [str(v), str(draw(st.integers(0, 9))), str(draw(st.integers(0, 1)))]
        fields.append(draw(st.sampled_from([",", ", ", " ,\t"])).join(map(str, succ)))
        name = draw(NAMES)
        if name is not None:
            fields.append(f'"{name}"')
        records.append(fields)
    for _ in range(draw(st.integers(0, 2))):
        if not records:
            break
        kind = draw(st.sampled_from(["field", "drop", "copy", "succ", "succ", "empty"]))
        at = draw(st.integers(0, len(records) - 1))
        if kind == "field":
            records[at] = mutate(draw, records[at])
        elif kind == "drop":
            del records[at]
        elif kind == "copy":
            records.insert(draw(st.integers(0, len(records))), list(records[at]))
        elif kind == "succ":
            fields = records[at]
            fields[min(3, len(fields) - 1)] += "," + draw(NUMBERS | st.just(str(n)))
        else:
            records[at] = records[at][:3]
    lines = [
        draw(SPACES) * draw(st.integers(0, 1))
        + draw(SPACES).join(fields)
        + draw(st.sampled_from([";"] * 5 + [" ;", ";\t", "", ";;"]))
        for fields in records
    ]
    header = f"parity {draw(st.integers(0, 7))};"
    header = draw(st.sampled_from([header] * 4 + [" " + header, "parity;"]))
    return join_lines(draw, [header, *lines])


@st.composite
def solution_texts(draw):
    n = draw(st.integers(1, 5))
    game = ParityGame.from_vertices(
        (draw(st.integers(0, 1)), 0, tuple(range(n))) for _ in range(n)
    )
    rows = []
    for v in draw(st.permutations(range(n))):
        choice = draw(st.sampled_from(["-", *map(str, range(n))]))
        rows.append([str(v), str(draw(st.integers(0, 1))), choice])
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        kind = draw(st.sampled_from(["field", "drop", "copy", "extra"]))
        at = draw(st.integers(0, len(rows) - 1))
        if kind == "field":
            rows[at] = mutate(draw, rows[at])
        elif kind == "drop":
            del rows[at]
        elif kind == "copy":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[at]))
        else:
            rows.insert(at, [str(n + draw(st.integers(0, 2))), "0", "-"])
    lines = [draw(SPACES) * draw(st.integers(0, 1)) + draw(SPACES).join(row) for row in rows]
    return game, join_lines(draw, lines)


@settings(max_examples=400, deadline=None)
@given(game_texts())
def test_parse_game_matches_the_reference(text):
    assert outcome(parse_game, text) == outcome(reference_parse_game, text)


@settings(max_examples=300, deadline=None)
@given(solution_texts())
def test_parse_solution_matches_the_reference(case):
    game, text = case
    assert outcome(parse_solution, text, game) == outcome(reference_parse_solution, text, game)


def test_fixed_cases_match_the_reference():
    arena, _ = union_claim(40, 1)
    emitted = emit_game(arena)
    games = [
        "",
        " \n\t\n",
        "parity 1;\n0 1 0 1;\n1 2 1 0;\n",
        "parity 1;\r\n\r\n 1 2 1 0 \"\";\r\n0 1 0 1 \"a;b\";\r\n",
        "parity 1; 0 1 0 1; 1 2 1 0;",
        "parity 1;\n0 1 0 1\xa0\"x\";\n1\xa02 1 0;\n",
        # an error on an earlier line than a malformed one
        "parity 2;\n0 1 0 1;\n0 1 0 1;\nzebra;\n",
        "parity 2;\n0 1 2 1;\n1 1 0 ;\n",
        # a duplicate id is named before a bad owner on the same line
        "parity 1;\n0 1 0 0;\n0 1 2 0;\n",
        f"parity 2;\n0 1 0 1;\n1 {TOO_LONG} 0 1;\n2 1 0;\n",
        f"parity 2;\n0 1 {TOO_LONG} 1,{TOO_LONG}9;\n",
        "parity 2;\n0 1 00 1;\n1 1 01 0,5,7;\n2 1 0 9;\n",
        "parity 2;\n2 1 0 0;\n0 1 0 2;\n",
        "parity 2;\n0 1 0 0 \"a\nb\";\n",
        # canonical spelling, and one change away from it
        *(f'parity 1;\n0 1 0 1 "a{brk}b";\n1 2 1 0;\n' for brk in LINE_BREAKS),
        "parity 1;\r\n0 1 0 1;\r\n1 2 1 0;\r\n",
        "parity 1;\n0 1 0 1;\n1 2 1 0;\n\n",
        "parity 1;\n0 1 0 1;\n1 2 1 0;",
        "parity 1;\n0 1 0 1;\n1\t2 1 0;\n",
        "parity 1;\n1 2 1 0;\n0 1 0 1;\n",
        "parity 7;\n0 1 0 1;\n1 2 1 0;\n",
        "parity 1;\n0 1 0 1 \"\";\n1 2 1 0 \"x;y \\\";\n",
        "parity 1;\n0 1 0 1;\n1 2 1 0,2;\n",
        "parity 1;\n0 1 0 1;\n0 2 1 0;\n",
        "parity 2;\n0 1 0 1;\n2 2 1 0;\n",
        "parity 1;\n0 1 0 1;\n1 2 01 0;\n",
        "parity 1;\n0 1 0 1;\n1 2 2 0;\n",
        "parity 1;\n0 1 0 1;\n1 ٣ 1 ٠;\n",
        "parity 0;\n",
        "parity 0;",
        "0 1 0 0;\n",
        f"parity 1;\n{TOO_LONG} 1 0 1;\n1 2 1 0;\n",
        f"parity 1;\n0 {TOO_LONG} 0 1;\n1 2 1 0;\n",
        f"parity 1;\n0 1 0 1,{TOO_LONG};\n1 2 1 0;\n",
        # the column cut: a leading zero in each numeric column, which JSON rejects
        "parity 1;\n00 1 0 1;\n1 2 1 0;\n",
        "parity 1;\n0 01 0 1;\n1 2 1 0;\n",
        "parity 1;\n0 1 00 1;\n1 2 1 0;\n",
        "parity 1;\n0 1 0 01;\n1 2 1 0;\n",
        "parity 1;\n0 1 0 1,00;\n1 2 1 0;\n",
        "parity 2;\n0 1 0 01;\n1 2 1 0;\n",
        # a header alone, blank lines anywhere, names on some records only
        "\n\nparity 0;\n\n",
        "parity 0;\n\n \n",
        'parity 2;\n0 1 0 1 "a";\n1 2 1 0;\n2 3 0 2,0 "";\n',
        'parity 2;\n0 1 0 1;\n1 2 1 0 "b";\n2 3 0 2,0;\n',
        "\nparity 1;\n\n0 1 0 1;\n\t\n1 2 1 0;",
        "parity 1;\n0 1 0 1;\n\n1 2 1 0;\n0 1 0 1;\n",
        "parity 2;\n0 1 0 1;\n\n1 2 1 3;\n",
        # a successor too long for int and JSON on an otherwise canonical line
        f"parity 1;\n0 1 0 {TOO_LONG};\n1 2 1 0;\n",
        f"parity 1;\n0 1 0 1;\n1 2 1 0,{TOO_LONG}9;\n",
        # a certify-like arena as emitted, then with a blank line or without the last newline
        emitted,
        emitted + "\n",
        emitted.replace("\n", "\n\n", 7),
        emitted[:-1],
        emitted.replace(" 1,", " 01,", 1),
    ]
    for text in games:
        assert outcome(parse_game, text) == outcome(reference_parse_game, text)
    game = ParityGame.from_vertices([(0, 0, (0, 1)), (1, 0, (0, 1)), (0, 0, (2,))])
    solutions = [
        "",
        "0 0 1\n1 1 0\n2 0 -\n",
        "2 0 -\r\n\r\n1\t1\xa00\r\n0 0 1",
        "0 0 1\n0 0 1\n1 1 junk\n",
        f"0 0 1\n1 1 {TOO_LONG}\n7 0 -\n",
        "0 2 1\n5 0 -\n",
        "0 0 1\n0 2 -\n",
        "0 00 -\n1 01 -\n",
        "0 0 -\n",
        # canonical spelling, and one change away from it
        *(f"0 0 1{brk}1 1 0\n2 0 -\n" for brk in LINE_BREAKS),
        "0 0 1\r\n1 1 0\r\n2 0 -\r\n",
        "0 0 1\n1 1 0\n2 0 -\n\n",
        "0 0 1\n1 1 0\n2 0 -",
        "0 0 1\n1\t1 0\n2 0 -\n",
        "2 0 -\n1 1 0\n0 0 1\n",
        "0 0 1\n1 1 0\n1 0 -\n",
        "0 0 1\n1 1 0\n3 0 -\n",
        "0 0 1\n1 2 0\n2 0 -\n",
        "0 0 1\n1 1 0\n",
        "0 0 1\n1 1 ٠\n2 0 -\n",
        f"{TOO_LONG} 0 1\n1 1 0\n2 0 -\n",
        f"0 0 {TOO_LONG}\n1 1 0\n2 0 -\n",
        f"0 0 1\n1 1 0\n2 {TOO_LONG} -\n",
        # the column cut: a leading zero in each column, blank lines, no lines
        "00 0 1\n1 1 0\n2 0 -\n",
        "0 00 1\n1 1 0\n2 0 -\n",
        "0 0 01\n1 1 0\n2 0 -\n",
        "\n0 0 1\n\n1 1 0\n \n2 0 -",
        "\n\n",
        "0 0 1\n\n1 1 0\n1 0 -\n",
    ]
    for text in solutions:
        assert outcome(parse_solution, text, game) == outcome(
            reference_parse_solution, text, game
        )


@st.composite
def perturbed_texts(draw):
    """An emitted game and solution, one of them changed in one place."""
    n = draw(st.integers(1, 6))
    names = st.one_of(st.none(), *[st.text(" ab;,\t\xa0\x1f٣-", max_size=3)] * 2)
    game = ParityGame.from_vertices(
        (
            draw(st.integers(0, 1)),
            draw(st.integers(0, 9)),
            draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)),
            draw(names),
        )
        for _ in range(n)
    )
    texts = [emit_game(game), emit_solution(game, solve_short(game))]
    at = draw(st.integers(0, 1))
    text = texts[at]
    kind = draw(st.sampled_from(["replace", "insert", "delete", "lines", "crlf", "blank"]))
    where = draw(st.integers(0, len(text)))
    opening = [i + 1 for i, c in enumerate(text) if c == '"'][::2]
    if opening and draw(st.booleans()):  # just inside a name
        where = draw(st.sampled_from(opening))
    tokens = [*LINE_BREAKS, " ", "\t", "\xa0", "0", "1", "2", "9", "٣", ",", ";", '"', "-"]
    token = draw(st.sampled_from([*tokens, TOO_LONG]))
    if kind == "replace":
        text = text[:where] + token + text[where + 1:]
    elif kind == "insert":
        text = text[:where] + token + text[where:]
    elif kind == "delete":
        text = text[:where] + text[where + 1:]
    elif kind == "lines":
        lines = text.splitlines(keepends=True)
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
        text = "".join(lines)
    elif kind == "crlf":
        text = text.replace("\n", "\r\n")
    else:
        text += "\n"
    texts[at] = text
    return game, texts


@settings(max_examples=400, deadline=None)
@given(perturbed_texts())
def test_perturbed_emitted_texts_match_the_reference(case):
    """Emitted text takes the canonical scan; one change sends it to the
    general one or makes it faulty, and each path must agree with the
    reference on the game, the solution or the error."""
    game, (game_text, solution_text) = case
    assert outcome(parse_game, game_text) == outcome(reference_parse_game, game_text)
    assert outcome(parse_solution, solution_text, game) == outcome(
        reference_parse_solution, solution_text, game
    )
