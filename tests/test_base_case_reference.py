"""The base case against the general per-vertex loop it replaced.

``_decide``, the rule of ``base_case_solve`` and of every base case
``solve_short`` reaches on its stack, decides a vertex with one move
inside the kept set by that move's target alone, without listing the
owner's good targets.  The loop it replaced, kept here whole as the
reference, listed them for every vertex.  Both must give the same regions and the same strategy
entries, with a choice only where the vertex branches in the game: the
solvers' output bytes depend on them.  So must every answer a
split-free fixpoint depth returns, most of them re-decided only where a
bump moved a priority.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pgsolve import ParityGame, Player, Solution, Strategy, solve_constructive, solve_short
from pgsolve import solver_short
from pgsolve.game import relevant_priorities
from pgsolve.solver_constructive import _Bottom, _solution
from pgsolve.solver_short import base_case_solve
from pgsolve.transforms import _Stack
from games import cycle, ladder_game, random_corpus


def reference_base_case(game: ParityGame, keep):
    """Regions and choices of the subarena ``keep`` (ascending) induces."""
    owners, priorities, choices = game.owners, game.priorities, game._choices
    options = choices
    if len(keep) < game.n:
        inside = set(keep)
        options = {v: [u for u in choices[v] if u in inside] for v in keep}
    regions = {Player.P0: set(), Player.P1: set()}
    chosen = {Player.P0: {}, Player.P1: {}}
    for v in keep:
        owner = owners[v]
        good = [u for u in options[v] if priorities[u] % 2 == owner]
        if good:
            regions[owner].add(v)
            if len(choices[v]) > 1:
                chosen[owner][v] = min(good)
        else:
            regions[owner.opponent].add(v)
    return regions, chosen


def assert_answer_matches_reference(game: ParityGame, keep, answer):
    regions, chosen = reference_base_case(game, keep)
    for player in (Player.P0, Player.P1):
        assert answer.region(player) == regions[player]
        assert answer.strategy(player).choices == chosen[player]


def assert_matches_reference(game: ParityGame):
    assert_answer_matches_reference(game, game.vertices, base_case_solve(game))


@st.composite
def base_games(draw, max_n=8, max_priority=5):
    """Arenas with no relevant vertex: absorbing vertices, some looping
    twice, and vanishing vertices moving to them, duplicates allowed."""
    n = draw(st.integers(1, max_n))
    absorbing = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    absorbing[draw(st.integers(0, n - 1))] = True
    sinks = [v for v in range(n) if absorbing[v]]
    rows = []
    for v in range(n):
        if absorbing[v]:
            successors = (v,) * draw(st.integers(1, 2))
        else:
            successors = tuple(
                draw(st.lists(st.sampled_from(sinks), min_size=1, max_size=4))
            )
        rows.append(
            (draw(st.integers(0, 1)), draw(st.integers(0, max_priority)), successors)
        )
    return ParityGame.from_vertices(rows)


@settings(max_examples=300, deadline=None)
@given(base_games())
def test_base_case_matches_reference_without_relevant_vertices(game):
    assert not relevant_priorities(game)
    assert_matches_reference(game)


def reached_base_cases(monkeypatch):
    """Every base case ``solve_short`` decides: its stack as an arena,
    the undecided vertices and the answer."""
    reached = []
    decide = solver_short._decide

    def recording(stack, keep, regions, chosen, inside, moves):
        decide(stack, keep, regions, chosen, inside, moves)
        answer = Solution(*regions, Strategy(Player.P0, chosen[0]), Strategy(Player.P1, chosen[1]))
        reached.append((stack.snapshot(), keep, answer))

    monkeypatch.setattr(solver_short, "_decide", recording)
    for game in random_corpus(300, 8):
        solve_short(game)
    monkeypatch.undo()
    return reached


def reached_bottoms(monkeypatch):
    """Every (game, answer, re-decided) a split-free fixpoint depth
    returns, the game its stack as an arena, re-decided when the visit
    went through ``redecide``.  The answer is copied: the bottom's own
    sets and dicts change at its next visit."""
    reached, redecided = [], []
    solve, redecide = _Bottom.solve, _Bottom.redecide

    def redeciding(self):
        redecided.append(list(self.stack.bumped))
        return redecide(self)

    def recording(self, debug):
        before = len(redecided)
        answer = solve(self, debug)
        assert not self.stack.bumped  # every logged bump was read
        reached.append((self.stack.snapshot(), _solution(answer), len(redecided) > before))
        return answer

    monkeypatch.setattr(_Bottom, "redecide", redeciding)
    monkeypatch.setattr(_Bottom, "solve", recording)
    for game in (*random_corpus(60, 8), cycle(8), ladder_game(6)):
        solve_constructive(game)
    monkeypatch.undo()
    return reached


def test_base_case_matches_reference_where_the_solvers_reach_it(monkeypatch):
    reached = reached_base_cases(monkeypatch)
    masked = [keep for game, keep, _ in reached if len(keep) < game.n]
    assert len(masked) > 100 and len(reached) - len(masked) > 100
    for game, keep, answer in reached:
        assert_answer_matches_reference(game, keep, answer)


def test_every_bottom_answer_matches_reference(monkeypatch):
    reached = reached_bottoms(monkeypatch)
    assert sum(redecided for _, _, redecided in reached) > 100
    for game, answer, _ in reached:
        assert_answer_matches_reference(game, game.vertices, answer)


@settings(max_examples=300, deadline=None)
@given(base_games(), st.data())
def test_incremental_bottom_matches_a_fresh_base_case(game, data):
    # Bumps move only the priorities of absorbing vertices, written in
    # place on the stack, each changed one logged in ``stack.bumped``.
    absorbing = [v for v in game.vertices if game._choices[v] == (v,)]
    stack, arena = _Stack(game), game
    stack.bumped = []
    bottom = _Bottom(stack)
    for _ in range(data.draw(st.integers(1, 6), label="steps")):
        answer = _solution(bottom.solve(False))
        fresh = base_case_solve(arena)
        assert bottom.stack is stack and stack.bumped == []
        assert answer.w0 == fresh.w0 and answer.w1 == fresh.w1
        assert answer.sigma.choices == fresh.sigma.choices
        assert answer.tau.choices == fresh.tau.choices
        priorities = stack.priorities
        for v in data.draw(st.lists(st.sampled_from(absorbing), max_size=3), label="moved"):
            p = data.draw(st.integers(0, 6), label="priority")
            if priorities[v] != p:
                priorities[v] = p
                stack.bumped.append(v)
        arena = arena._relabelled(priorities=tuple(priorities))
