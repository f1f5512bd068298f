import pytest

from pgsolve import (
    GameError,
    ParityGame,
    ParseError,
    Player,
    Solution,
    Strategy,
    StrategyError,
    parse_game,
    play,
    restrict,
    solve_constructive,
    solve_short,
)
from pgsolve.game import _relevant_vertices, relevant_priorities
from games import chain_game, scratch_class, two_cycle_game


def test_rejects_empty_successor_list():
    with pytest.raises(GameError):
        ParityGame.from_vertices([(0, 1, ())])


def test_rejects_a_game_without_vertices():
    # The text format cannot hold such a game: emit_game would write a
    # header that parse_game refuses.
    for build in (lambda: ParityGame((), (), ()), lambda: ParityGame.from_vertices([])):
        with pytest.raises(GameError, match="at least one vertex"):
            build()
    with pytest.raises(GameError, match="at least one vertex"):
        restrict(chain_game(), [])
    with pytest.raises(ParseError, match="malformed header"):
        parse_game("parity -1;\n")


def test_rejects_dangling_edge():
    with pytest.raises(GameError):
        ParityGame.from_vertices([(0, 1, (1,))])


def test_rejects_negative_priority():
    with pytest.raises(GameError):
        ParityGame.from_vertices([(0, -1, (0,))])


@pytest.mark.parametrize("priority", [2.5, "3", None, float("inf"), float("nan")])
def test_rejects_priority_that_is_not_an_integer(priority):
    with pytest.raises(GameError, match="vertex 1 has invalid priority"):
        ParityGame.from_vertices([(0, 1, (1,)), (1, priority, (0,))])


def test_integral_priorities_and_owners_still_convert():
    game = ParityGame.from_vertices([(True, 2.0, (1,)), (0.0, True, (0,))])
    assert game.priorities == (2, 1)
    assert [type(p) for p in game.priorities] == [int, int]
    assert game.owners == (Player.P1, Player.P0)


@pytest.mark.parametrize("successor", ["0", "zero", 0.5, None])
def test_rejects_successor_that_is_not_an_integer(successor):
    with pytest.raises(GameError, match="vertex 1 has invalid successor"):
        ParityGame.from_vertices([(0, 1, (1,)), (1, 2, (1, successor))])


def test_integral_float_successor_converts_and_solves():
    game = ParityGame.from_vertices([(0, 1, (1.0,)), (1, 2, (0.0, True))])
    assert game.successors == ((1,), (0, 1))
    assert {type(u) for succ in game.successors for u in succ} == {int}
    reference = ParityGame.from_vertices([(0, 1, (1,)), (1, 2, (0, 1))])
    assert game == reference
    for solve in (solve_short, solve_constructive):
        assert solve(game) == solve(reference)


def test_all_int_tables_are_kept_as_given():
    priorities = (1, 2)
    successors = ((1,), (0, 1))
    game = ParityGame((Player.P0, Player.P1), priorities, successors)
    assert game.priorities is priorities
    assert all(a is b for a, b in zip(game.successors, successors))


def test_classify_chain():
    game = chain_game()
    assert [scratch_class(game, v) for v in game.vertices] == [
        "vanishing",
        "relevant",
        "absorbing",
    ]
    assert _relevant_vertices(game) == [1]


def test_classify_self_loop_with_exit_is_relevant():
    # a self-loop makes the vertex its own predecessor, so with a proper
    # edge on the side it is neither absorbing nor vanishing
    game = ParityGame.from_vertices([(0, 2, (0, 1)), (1, 1, (1,))])
    assert [scratch_class(game, v) for v in game.vertices] == ["relevant", "absorbing"]
    assert _relevant_vertices(game) == [0]


def test_classes_partition():
    for game in (chain_game(), two_cycle_game()):
        classes = [scratch_class(game, v) for v in game.vertices]
        assert set(classes) <= {"absorbing", "vanishing", "relevant"}
        assert _relevant_vertices(game) == [
            v for v in game.vertices if classes[v] == "relevant"
        ]


def test_relevant_priorities_chain():
    assert relevant_priorities(chain_game()) == {4}


def test_relevant_priorities_two_cycle():
    assert relevant_priorities(two_cycle_game()) == {1, 2}


def test_relevant_priorities_single_absorbing():
    game = ParityGame.from_vertices([(0, 0, (0,))])
    assert relevant_priorities(game) == frozenset()


def test_play_absorbing_with_empty_strategies():
    game = ParityGame.from_vertices([(0, 0, (0,), "a")])
    lasso = play(game, Strategy(Player.P0, {}), Strategy(Player.P1, {}), 0)
    assert lasso.prefix == ()
    assert lasso.cycle == (0,)
    assert lasso.winner is Player.P0


def test_play_forced_chain():
    game = chain_game()
    lasso = play(game, Strategy(Player.P0, {}), Strategy(Player.P1, {}), 0)
    assert lasso.prefix == (0, 1)
    assert lasso.cycle == (2,)
    assert lasso.winner is Player.P1


def test_play_two_cycle():
    game = two_cycle_game(owner=1)
    lasso = play(game, Strategy(Player.P0, {}), Strategy(Player.P1, {}), 0)
    assert lasso.prefix == ()
    assert lasso.cycle == (0, 1)
    assert lasso.winner is Player.P0  # cycle maximum is 2


def test_play_missing_choice_raises():
    game = ParityGame.from_vertices([(0, 1, (0, 1)), (1, 2, (1,))])
    with pytest.raises(StrategyError) as err:
        play(game, Strategy(Player.P0, {}), Strategy(Player.P1, {}), 0)
    assert err.value.vertex == 0


def test_play_winner_is_cycle_parity():
    game = two_cycle_game()
    sigma = Strategy(Player.P0, {})
    tau = Strategy(Player.P1, {})
    for start in game.vertices:
        lasso = play(game, sigma, tau, start)
        top = max(game.priorities[v] for v in lasso.cycle)
        assert lasso.winner is Player(top % 2)


def test_strategy_validate_rejects_foreign_vertex():
    game = chain_game()
    with pytest.raises(StrategyError):
        Strategy(Player.P1, {0: 1}).validate(game)  # vertex 0 is P0's


def test_strategy_validate_rejects_non_edge():
    game = chain_game()
    with pytest.raises(StrategyError):
        Strategy(Player.P0, {0: 2}).validate(game)


def test_names_survive_and_default():
    game = chain_game()
    assert game.names == ("u", "v", "w")
    bare = ParityGame.from_vertices([(0, 0, (0,))])
    assert bare.names == (None,)


@pytest.mark.parametrize(
    "name", ['say "hi"', "a\nb", "a\r", "\x0b", "x\x85", "x\u2028y", "\x1c"]
)
def test_rejects_names_the_text_format_cannot_hold(name):
    with pytest.raises(GameError, match="double quote or a line break"):
        ParityGame.from_vertices([(0, 0, (0,), name)])


def test_accepts_names_with_other_characters():
    names = ("", " spaced ", "tab\there", "ümlaut;", "\x00")
    game = ParityGame.from_vertices([(0, 0, (v,), n) for v, n in enumerate(names)])
    assert game.names == names


@pytest.mark.parametrize(
    "rows, vertex",
    [
        ([(0, 1, (0,), 5)], 0),
        ([(0, 0, (0,), "a"), (1, 1, (1,), b"b")], 1),
    ],
)
def test_rejects_names_that_are_not_strings(rows, vertex):
    with pytest.raises(GameError, match=f"vertex {vertex} has invalid name"):
        ParityGame.from_vertices(rows)


@pytest.mark.parametrize(
    "overlap, listed", [({3, 10, 2}, "[2, 3, 10]"), ({"a", 1}, "['a', 1]"), ({1.5, 1}, "[1, 1.5]")]
)
def test_overlapping_regions_are_listed_whatever_their_types(overlap, listed):
    # members of mixed types do not compare, so they are listed by repr
    no_moves = Strategy(Player.P0, {}), Strategy(Player.P1, {})
    with pytest.raises(GameError) as caught:
        Solution(frozenset(overlap), frozenset(overlap), *no_moves)
    assert str(caught.value) == f"regions intersect: {listed}"
