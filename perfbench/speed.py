"""A fixed reference job, and wall times scaled by it.

The machine the benchmark runs on changes speed by a third and more
within seconds, and the change moves pure-Python jobs of one kind
alike.  A span's wall time, scaled by REF_S over the reference job's
time just before and just after it, reads about the same however fast
the machine ran.
This module imports nothing but ``time``, so that a fresh interpreter
can load it without loading anything ``pgsolve`` needs.
"""

from time import perf_counter

# The reference job takes about REF_S seconds on the two-core machine
# the benchmark was sized on.  It is the kind of work the library does
# most: player 0's attractors in a fixed arena of REF_N vertices,
# computed with a worklist over sets, dicts and lists.  A job of that
# kind follows the library's speed more closely than a loop of integer
# arithmetic does.
REF_S = 0.01
REF_N = 400
REF_TARGETS = 50


def _arena(n: int, out: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Successors and predecessors of a fixed arena, drawn from a linear
    congruential sequence (so that this module needs no ``random``)."""
    x = 12345
    succ = []
    for _ in range(n):
        row = []
        for _ in range(out):
            x = (1103515245 * x + 12345) % 2**31
            row.append(x % n)
        succ.append(tuple(row))
    pred = [[] for _ in range(n)]
    for v, row in enumerate(succ):
        for u in row:
            pred[u].append(v)
    return succ, pred


_SUCC, _PRED = _arena(REF_N, 3)


def reference_s() -> float:
    """Wall time of one run of the reference job."""
    start = perf_counter()
    for target in range(0, REF_N, REF_N // REF_TARGETS):
        attr = {target, target + 1}
        left = {v: len(row) for v, row in enumerate(_SUCC)}
        work = list(attr)
        while work:
            u = work.pop()
            for v in _PRED[u]:
                if v in attr:
                    continue
                left[v] -= 1
                # Even vertices are player 0's: one edge in suffices.
                if v % 2 == 0 or left[v] == 0:
                    attr.add(v)
                    work.append(v)
    return perf_counter() - start


class Speed:
    """Scales wall times to the speed at which the reference job takes REF_S."""

    def __init__(self):
        self.last_ref_s = reference_s()
        self.wall_s = 0.0
        self.scaled_s = 0.0

    def scale(self, wall_s: float) -> float:
        """``wall_s``, just measured, at the reference speed; runs the
        reference job once, which then also serves the next span."""
        ref_s = reference_s()
        scaled_s = wall_s * 2 * REF_S / (self.last_ref_s + ref_s)
        self.last_ref_s = ref_s
        self.wall_s += wall_s
        self.scaled_s += scaled_s
        return scaled_s

    def factor(self) -> float:
        """Scaled over wall time so far: above 1 on a faster machine."""
        return self.scaled_s / self.wall_s if self.wall_s else 1.0


class Stopwatch:
    """The scaled time of a span timed in steps: ``lap`` ends a step,
    runs the reference job outside the span and starts the next step."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.scaled_s = 0.0
        self.start = perf_counter()

    def lap(self) -> None:
        self.scaled_s += self.speed.scale(perf_counter() - self.start)
        self.start = perf_counter()
