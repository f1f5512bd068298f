import gc
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgsolve import (
    ParityGame,
    ParseError,
    Player,
    emit_game,
    emit_solution,
    parse_game,
    parse_solution,
    solve_short,
    split_top,
)
from games import chain_game, random_corpus, two_cycle_game, union_claim
from pgsolve import pgfile

DATA = Path(__file__).parent / "data"

# One digit more than ``int`` converts from text.
TOO_LONG = "9" * (sys.get_int_max_str_digits() + 1)

CHAIN_TEXT = 'parity 2;\n0 3 0 1 "u";\n1 4 0 2 "v";\n2 1 0 2 "w";\n'


def test_parse_golden_file():
    game = parse_game((DATA / "chain3.pg").read_text())
    assert game == chain_game()
    assert game.names == ("u", "v", "w")
    assert game.owners == (Player.P0, Player.P0, Player.P0)
    assert game.priorities == (3, 4, 1)
    assert game.successors == ((1,), (2,), (2,))


def test_emit_golden():
    assert emit_game(chain_game()) == CHAIN_TEXT
    assert (DATA / "chain3.pg").read_text() == CHAIN_TEXT


def test_parse_normalizes_order_and_whitespace():
    scrambled = 'parity   2 ;\n2 1 0    2   "w";\n\n0 3 0 1 "u";\n1 4 0 2 "v";\n'
    assert emit_game(parse_game(scrambled)) == CHAIN_TEXT


def test_header_number_is_a_hint_only():
    body = CHAIN_TEXT.split("\n", 1)[1]
    for header in ("parity 0;", "parity 7;", "parity 100;"):
        game = parse_game(f"{header}\n{body}")
        assert game == parse_game(CHAIN_TEXT)
        assert emit_game(game) == CHAIN_TEXT


def test_records_without_names():
    game = parse_game("parity 1;\n0 2 1 0,1;\n1 1 0 1;\n")
    assert game.names == (None, None)
    assert game.successors[0] == (0, 1)


def test_name_may_contain_spaces_and_be_empty():
    text = 'parity 1;\n0 0 0 1 "left half";\n1 1 1 0 "";\n'
    game = parse_game(text)
    assert game.names == ("left half", "")
    assert emit_game(game) == text


def test_emit_is_fixed_point_on_corpus():
    for game in random_corpus(60, 8):
        text = emit_game(game)
        assert parse_game(text) == game
        assert emit_game(parse_game(text)) == text


# Every name ParityGame accepts: no double quote, no line break.
NAMES = st.one_of(
    st.none(),
    st.sampled_from(["", "\t", "\x00", ";", "\xa0", " a;b\t", '\\']),
    st.text(st.characters(blacklist_characters='"'), max_size=6).filter(
        lambda name: "".join(name.splitlines()) == name
    ),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(NAMES, min_size=1, max_size=4))
def test_every_accepted_name_survives_emit_then_parse(names):
    n = len(names)
    game = ParityGame.from_vertices(
        (v % 2, v, ((v + 1) % n,), name) for v, name in enumerate(names)
    )
    text = emit_game(game)
    assert parse_game(text) == game
    assert parse_game(text).names == game.names


def test_emit_includes_split_copies():
    text = emit_game(split_top(chain_game(), 4).plus)
    assert '3 4 0 3 "v~";' in text.splitlines()


def position(err: pytest.ExceptionInfo) -> tuple[int, int]:
    return err.value.line, err.value.column


def test_error_empty_input():
    with pytest.raises(ParseError) as err:
        parse_game("  \n\n")
    assert position(err) == (1, 1)
    assert "empty input" in err.value.reason


def test_error_malformed_header():
    with pytest.raises(ParseError) as err:
        parse_game("paryti 2;\n0 1 0 0;\n")
    assert position(err) == (1, 1)
    assert "malformed header" in err.value.reason


def test_error_missing_semicolon_in_header():
    with pytest.raises(ParseError) as err:
        parse_game("  parity 2\n0 1 0 0;\n")
    assert position(err) == (1, 3)


def test_error_malformed_record():
    with pytest.raises(ParseError) as err:
        parse_game("parity 0;\n0 1 zebra 0;\n")
    assert position(err) == (2, 1)
    assert err.value.reason == "malformed record"


def test_error_empty_successor_list_points_at_semicolon():
    with pytest.raises(ParseError) as err:
        parse_game("parity 0;\n0 1 0 ;\n")
    assert position(err) == (2, 7)
    assert err.value.reason == "empty successor list"


def test_error_duplicate_id():
    with pytest.raises(ParseError) as err:
        parse_game("parity 1;\n0 1 0 1;\n0 2 0 1;\n1 0 1 0;\n")
    assert position(err) == (3, 1)
    assert "duplicate id 0" in err.value.reason


def test_error_bad_owner():
    with pytest.raises(ParseError) as err:
        parse_game("parity 0;\n0 1 2 0;\n")
    assert err.value.line == 2
    assert "owner must be 0 or 1" in err.value.reason


def test_error_missing_record():
    with pytest.raises(ParseError) as err:
        parse_game("parity 1;\n1 1 0 1;\n")
    assert err.value.line == 1
    assert "missing record for vertex 0" in err.value.reason


def test_error_dangling_successor():
    with pytest.raises(ParseError) as err:
        parse_game("parity 0;\n0 1 0 0,1;\n")
    assert err.value.line == 2
    assert "dangling successor id 1" in err.value.reason


def test_error_dangling_successor_is_the_first_in_file_order():
    text = "parity 3;\n2 1 0 0;\n  3 1 1 2,9,5;\n0 1 0 1,7;\n1 1 0 3;\n"
    with pytest.raises(ParseError) as err:
        parse_game(text)
    assert (err.value.line, err.value.column) == (3, 3)
    assert err.value.reason == "dangling successor id 9"


def test_error_missing_record_names_the_lowest_missing_id():
    text = "\nparity 5;\n5 1 0 9;\n3 1 0 5;\n0 1 0 3;\n1 1 0 0;\n"
    with pytest.raises(ParseError) as err:
        parse_game(text)
    assert (err.value.line, err.value.column) == (2, 1)
    assert err.value.reason == "missing record for vertex 2"


def test_parsed_owners_are_player_members():
    game = parse_game("parity 2;\n2 1 1 0;\n0 2 0 1,2;\n1 3 1 0;\n")
    assert game.owners[0] is Player.P0
    assert game.owners[1] is Player.P1 and game.owners[2] is Player.P1
    solution = parse_solution("2 1 -\n1 1 0\n0 0 2\n", game)
    assert solution.sigma.choices == {0: 2} and solution.tau.choices == {1: 0}


def test_error_header_without_records():
    with pytest.raises(ParseError) as err:
        parse_game("parity 3;\n")
    assert "no vertex records" in err.value.reason


def test_solution_emit_golden():
    game = chain_game()
    text = emit_solution(game, solve_short(game))
    assert text == "0 1 -\n1 1 -\n2 1 -\n"


def test_solution_round_trip():
    for game in (chain_game(), two_cycle_game(), *random_corpus(30, 6)):
        solved = solve_short(game)
        parsed = parse_solution(emit_solution(game, solved), game)
        assert parsed.w0 == solved.w0
        assert parsed.w1 == solved.w1
        assert parsed.sigma.choices == solved.sigma.choices
        assert parsed.tau.choices == solved.tau.choices


def test_solution_error_malformed_line():
    with pytest.raises(ParseError) as err:
        parse_solution("0 1 maybe\n", chain_game())
    assert err.value.line == 1
    assert "malformed solution line" in err.value.reason


def test_solution_error_unknown_vertex():
    with pytest.raises(ParseError) as err:
        parse_solution("0 1 -\n1 1 -\n2 1 -\n7 0 -\n", chain_game())
    assert err.value.line == 4
    assert "unknown vertex 7" in err.value.reason


def test_solution_error_duplicate_vertex():
    with pytest.raises(ParseError) as err:
        parse_solution("0 1 -\n0 1 -\n", chain_game())
    assert err.value.line == 2
    assert "duplicate vertex 0" in err.value.reason


def test_solution_error_bad_winner():
    with pytest.raises(ParseError) as err:
        parse_solution("0 3 -\n", chain_game())
    assert "winner must be 0 or 1" in err.value.reason


def test_solution_error_missing_verdict():
    with pytest.raises(ParseError) as err:
        parse_solution("0 1 -\n2 1 -\n", chain_game())
    assert "missing verdict for vertices [1]" in err.value.reason


def test_solution_error_missing_verdicts_are_listed_ascending():
    game = parse_game("parity 5;\n" + "".join(f"{v} 0 0 {v};\n" for v in range(6)))
    with pytest.raises(ParseError) as err:
        parse_solution("5 0 -\n2 0 -\n0 0 -\n", game)
    assert (err.value.line, err.value.column) == (1, 1)
    assert err.value.reason == "missing verdict for vertices [1, 3, 4]"


@pytest.mark.parametrize(
    "record",
    [
        f"  {TOO_LONG} 3 0 1;",  # id
        f"  0 {TOO_LONG} 0 1;",  # priority
        f"  0 3 {TOO_LONG} 1;",  # owner
        f"  0 3 0 1, {TOO_LONG};",  # successor
    ],
)
def test_error_number_too_long_for_int(record):
    with pytest.raises(ParseError) as err:
        parse_game(f"parity 1;\n{record}\n1 2 1 0;\n")
    assert (err.value.line, err.value.column) == (2, 3)
    assert f"value has {len(TOO_LONG)} digits" in err.value.reason


@pytest.mark.parametrize(
    "line", [f" {TOO_LONG} 1 -", f" 1 {TOO_LONG} -", f" 1 1 {TOO_LONG}"]
)
def test_solution_error_number_too_long_for_int(line):
    with pytest.raises(ParseError) as err:
        parse_solution(f"0 1 -\n{line}\n2 1 -\n", chain_game())
    assert (err.value.line, err.value.column) == (2, 2)
    assert f"value has {len(TOO_LONG)} digits" in err.value.reason


def test_blank_lines_and_no_last_newline_keep_the_column_cut():
    """Emitted text with blank lines, or without its last newline, is cut
    into columns like the text as emitted: the nonblank lines, which only
    the general scan and error reports need, are never split out."""
    arena, _ = union_claim(40, 2)
    text = emit_game(arena)
    for variant in (text, text + "\n", "\n" + text.replace(";\n", ";\n \n", 9), text[:-1]):
        lines = pgfile._Lines(variant)
        found, columns = lines.columns(
            4, pgfile._CANONICAL_RECORD, pgfile._RECORD, pgfile._NAMED_RECORD
        )
        assert found and len(columns) == 4 and "body" not in vars(lines)
        assert parse_game(variant) == arena


def _peak(parse, *args) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        parse(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parsers_peak_memory_stays_bounded():
    """The tracemalloc peak of each parser on emitted text of about 3,400
    vertices, in bytes per byte of text.  Canonical text is checked with
    one ``re.sub`` of its line-anchored record pattern; a greedy
    ``re.fullmatch`` of ``(?:record\\n)*`` instead keeps a backtracking
    stack that grows with the text, and peaks at about 38 (game) and 40
    (solution) bytes per byte.  A row tuple per line peaks at about 21
    and 41; the column cut at about 17 and 27."""
    arena, solution = union_claim(300, 1)
    game_text, solution_text = emit_game(arena), emit_solution(arena, solution)
    assert _peak(parse_game, game_text) <= 20 * len(game_text)
    assert _peak(parse_solution, solution_text, arena) <= 33 * len(solution_text)
