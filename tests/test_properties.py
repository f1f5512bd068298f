from dataclasses import replace

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pgsolve import (
    ParityGame,
    Player,
    Strategy,
    brute_force_solve,
    check_solution,
    gen_random,
    merge_strategy,
    parse_game,
    emit_game,
    play,
    shift_and_swap,
    solve_constructive,
    solve_short,
    split_top,
)
from pgsolve.game import _relevant_vertices, relevant_priorities
from games import scratch_class

# Every code point a name may hold: all but surrogates, the double quote
# and the characters str.splitlines treats as line breaks.
NAME_CHARS = st.characters(
    exclude_categories=("Cs",),
    exclude_characters='"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029',
)


@st.composite
def games(draw, max_n=6, max_priority=5, max_degree=3, named=False):
    n = draw(st.integers(1, max_n))
    rows = []
    for v in range(n):
        owner = draw(st.integers(0, 1))
        priority = draw(st.integers(0, max_priority))
        degree = draw(st.integers(1, min(max_degree, n)))
        succ = tuple(draw(st.permutations(range(n)))[:degree])
        row = [owner, priority, succ]
        if named:
            row.append(draw(st.none() | st.text(NAME_CHARS, max_size=8)))
        rows.append(tuple(row))
    return ParityGame.from_vertices(rows)


@st.composite
def games_with_profiles(draw):
    """A game plus one full positional strategy for each player."""
    game = draw(games())
    choices = {Player.P0: {}, Player.P1: {}}
    for v in game.vertices:
        options = game.choices_at(v)
        if len(options) > 1:
            choices[game.owners[v]][v] = draw(st.sampled_from(options))
    return (
        game,
        Strategy(Player.P0, choices[Player.P0]),
        Strategy(Player.P1, choices[Player.P1]),
    )


@given(games())
def test_classification_partitions_vertices(game):
    buckets = {cls: set() for cls in ("absorbing", "vanishing", "relevant")}
    for v in game.vertices:
        buckets[scratch_class(game, v)].add(v)
    assert sum(len(b) for b in buckets.values()) == game.n
    assert _relevant_vertices(game) == sorted(buckets["relevant"])


@given(games_with_profiles(), st.data())
def test_play_is_an_edge_respecting_lasso(bundle, data):
    game, sigma, tau = bundle
    start = data.draw(st.sampled_from(game.vertices))
    lasso = play(game, sigma, tau, start)
    walk = (*lasso.prefix, *lasso.cycle)
    assert walk[0] == start
    for v, u in zip(walk, walk[1:]):
        assert u in game.choices_at(v)
    assert lasso.cycle[0] in game.choices_at(lasso.cycle[-1])
    assert len(set(lasso.cycle)) == len(lasso.cycle)


@given(games_with_profiles())
def test_winner_is_the_parity_of_the_cycle_top(bundle):
    game, sigma, tau = bundle
    for start in game.vertices:
        lasso = play(game, sigma, tau, start)
        top = max(game.priorities[v] for v in lasso.cycle)
        assert lasso.winner is Player(top % 2)


@given(games_with_profiles())
def test_uniform_priority_shift_flips_every_winner(bundle):
    game, sigma, tau = bundle
    shifted = replace(game, priorities=tuple(p + 1 for p in game.priorities))
    for start in game.vertices:
        before = play(game, sigma, tau, start)
        after = play(shifted, sigma, tau, start)
        assert after.cycle == before.cycle
        assert after.winner is before.winner.opponent


@given(games())
def test_split_retires_exactly_the_top_relevant_priority(game):
    relevant = relevant_priorities(game)
    assume(relevant)
    k = max(relevant)
    split = split_top(game, k)
    assert relevant_priorities(split.plus) == relevant - {k}
    for v in split.split_set:
        assert scratch_class(split.plus, v) == "vanishing"
        assert scratch_class(split.plus, split.copy_for[v]) == "absorbing"
    for v in game.vertices:
        if v not in split.split_set:
            assert scratch_class(split.plus, v) == scratch_class(game, v)


@given(games(), st.data())
def test_merged_strategies_stay_valid_in_the_base_game(game, data):
    relevant = relevant_priorities(game)
    assume(relevant)
    split = split_top(game, max(relevant))
    for player in (Player.P0, Player.P1):
        choices = {}
        for v in split.plus.vertices:
            options = split.plus.choices_at(v)
            if split.plus.owners[v] is player and len(options) > 1:
                choices[v] = data.draw(st.sampled_from(options))
        merged = merge_strategy(split, Strategy(player, choices))
        merged.validate(game)
        assert not set(merged.choices) & set(split.copy_of)


@given(games(named=True))
def test_parse_inverts_emit(game):
    text = emit_game(game)
    assert parse_game(text) == game
    assert emit_game(parse_game(text)) == text


@settings(deadline=None)
@given(games())
def test_winning_regions_are_self_dual(game):
    solved = solve_short(game)
    swapped = solve_short(shift_and_swap(game))
    assert solved.w0 == swapped.w1
    assert solved.w1 == swapped.w0


@settings(deadline=None, max_examples=60)
@given(games(max_n=5))
def test_both_solvers_agree_with_the_oracle(game):
    reference = brute_force_solve(game)
    for solve in (solve_short, solve_constructive):
        solved = solve(game)
        assert (solved.w0, solved.w1) == (reference.w0, reference.w1)
        assert check_solution(game, solved) is None


@given(st.integers(0, 2**32 - 1))
def test_gen_random_tightest_bounds_force_the_self_loop(seed):
    game = gen_random(1, 0, 1, seed)
    assert game.successors == ((0,),)
    assert game.priorities == (0,)


@given(
    st.integers(1, 8),
    st.integers(0, 6),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_gen_random_is_deterministic_and_bounded(n, max_prio, max_deg, seed):
    game = gen_random(n, max_prio, max_deg, seed)
    assert game == gen_random(n, max_prio, max_deg, seed)
    assert game.n == n
    for v in game.vertices:
        assert 0 <= game.priorities[v] <= max_prio
        succ = game.successors[v]
        assert 1 <= len(succ) <= max_deg
        assert len(set(succ)) == len(succ)
