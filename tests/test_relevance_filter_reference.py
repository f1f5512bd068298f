"""Every ``solve_short`` step's relevant vertices against a fresh scan.

A step only takes vertices out of its level's subarena, so the solver
filters the last relevant list instead of scanning the subarena again.
Each list ``_core`` receives must be what a scan from scratch of the
closure state's undecided mask finds.  The scan is written here over
plain sets, apart from ``game._relevant_vertices``, so a fault in that
predicate shows too.
"""

import pytest
from hypothesis import given, settings

from pgsolve import solve_short, solver_short
from games import cycle, random_corpus
from test_closure_reference import arenas


def scan(stack, inside) -> list[int]:
    """The relevant vertices of the subarena ``inside`` marks: marked,
    moved to from a marked vertex, and moving to another marked one."""
    marked = {v for v in stack.vertices if inside[v]}
    return [
        v
        for v in sorted(marked)
        if marked.intersection(stack._predecessors[v])
        and any(u in marked and u != v for u in stack._choices[v])
    ]


def steps(games) -> int:
    """Solve ``games``; assert at each step that the list ``_core`` gets
    is the fresh scan.  Returns the number of steps."""
    core, count = solver_short._core, 0

    def checked(stack, state, relevant, debug):
        nonlocal count
        assert relevant == scan(stack, state.undecided)
        count += 1
        return core(stack, state, relevant, debug)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver_short, "_core", checked)
        for game in games:
            solve_short(game)
    return count


def test_filtered_relevance_matches_a_fresh_scan_on_the_random_corpus():
    assert steps(random_corpus(300, 12)) > 1000


def test_filtered_relevance_matches_a_fresh_scan_on_cycles():
    # cycle(n) nests n levels, each stepping around what the last left
    assert steps(cycle(n) for n in range(2, 41)) > 800


@settings(max_examples=200, deadline=None)
@given(arenas())
def test_filtered_relevance_matches_a_fresh_scan_on_multigraphs(game):
    steps([game])
