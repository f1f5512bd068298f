"""Outside-in tracing of pgsolve's public functions.

The tracer replaces each listed function by a wrapper that records a
span (name, start, end, parent span, op id) and hands the call on.  The
modules bind these functions with ``from .x import f``, so the same
object is replaced under every name that refers to it in every loaded
pgsolve module, and put back on exit.  Spans stay in memory until the
run ends.  A span's self time is its duration minus that of its child
spans; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute) pairs; a dotted attribute is a method of a class.
TARGETS = (
    ("verification", "verify_strategy"),
    ("verification", "check_solution"),
    ("pgfile", "parse_game"),
    ("pgfile", "parse_solution"),
    ("pgfile", "emit_game"),
    ("pgfile", "emit_solution"),
    ("cli", "main"),
    ("game", "ParityGame.__post_init__"),
    ("game", "relevant_priorities"),
    ("transforms", "split_top"),
    ("transforms", "restrict"),
    ("transforms", "closure"),
    ("transforms", "shift_and_swap"),
    ("transforms", "merge_strategy"),
    ("transforms", "swap_solution"),
    ("transforms", "remove_unfair_win"),
    ("transforms", "remove_useless_self_loops"),
    ("solver_short", "solve_short"),
    ("solver_short", "nonempty_step"),
    ("solver_short", "base_case_solve"),
    ("solver_short", "combine_strategies"),
    ("solver_constructive", "solve_constructive"),
    ("solver_constructive", "fixpoint_solve"),
    ("solver_constructive", "preprocess"),
    ("solver_constructive", "lift_solution"),
    ("solver_constructive", "compose_tau"),
)
DEPTH_TRACKED = ("solver_short.solve_short", "solver_constructive.fixpoint_solve")


def span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.replace('__post_init__', 'init')}"


SPAN_NAMES = tuple(span_name(m, a) for m, a in TARGETS)


def _pgsolve_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "pgsolve" or name.startswith("pgsolve.")
    ]


def bindings() -> dict[tuple[str, str], object]:
    """Every module-level name of every loaded pgsolve module, with its value."""
    found = {}
    for module in _pgsolve_modules():
        for attribute, value in vars(module).items():
            found[(module.__name__, attribute)] = value
            if isinstance(value, type) and value.__module__.startswith("pgsolve"):
                for member, inner in vars(value).items():
                    found[(module.__name__, f"{attribute}.{member}")] = inner
    return found


class Tracer:
    """Context manager that patches the targets while it is active."""

    def __init__(self):
        # span: (name, start, end, parent index or -1, op id)
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.depth_max: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _pgsolve_modules()
        for module_name, attribute in TARGETS:
            owner = sys.modules[f"pgsolve.{module_name}"]
            name = span_name(module_name, attribute)
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original)
            for module in modules:
                if vars(module).get(attribute) is original:
                    self._patch(module, attribute, wrapper)
        return self

    def _patch(self, target, attribute: str, wrapper) -> None:
        self._patched.append((target, attribute, getattr(target, attribute)))
        setattr(target, attribute, wrapper)

    def __exit__(self, *exc) -> None:
        while self._patched:
            target, attribute, original = self._patched.pop()
            setattr(target, attribute, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, name: str, function):
        spans = self.spans
        stack = self._stack
        observe = _OBSERVERS.get(name)
        track_depth = name in DEPTH_TRACKED

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if track_depth:
                self._depth[name] += 1
                self.depth_max[name] = max(self.depth_max[name], self._depth[name])
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if track_depth:
                    self._depth[name] -= 1
                spans[index] = (name, start, end, parent, self.op_id)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def op(self, op_id: int, label: str):
        """Root span for one op; every span inside it carries ``op_id``."""
        self.op_id = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (f"op.{label}", start, end, -1, op_id)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[index]
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def fixpoint_rounds(self) -> tuple[int, int]:
        """(rounds, rounds served by the per-split memo).

        Each fixpoint round calls ``compose_tau`` once; a round that
        missed the memo also solved its bumped arena by a nested
        ``fixpoint_solve`` directly under the same parent.
        """
        rounds = Counter()
        solves = Counter()
        for name, _, _, parent, _ in self.spans:
            if name == "solver_constructive.compose_tau":
                rounds[parent] += 1
            elif name == "solver_constructive.fixpoint_solve":
                solves[parent] += 1
        total = sum(rounds.values())
        hits = sum(count - solves[parent] for parent, count in rounds.items())
        return total, hits

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _observe_verify(counts, args, kwargs, witness) -> None:
    region = args[3] if len(args) > 3 else kwargs["region"]
    counts["verification.verify_strategy.vertices"] += len(region)
    counts["verification.verify_strategy.refuted"] += witness is not None


def _observe_closure(counts, args, kwargs, grown) -> None:
    game, partial = (*args, *kwargs.values())[:2]
    before = len(partial.w0) + len(partial.w1)
    counts["transforms.closure.undecided"] += game.n - before
    counts["transforms.closure.added"] += len(grown.w0) + len(grown.w1) - before


_OBSERVERS = {
    "verification.verify_strategy": _observe_verify,
    "transforms.closure": _observe_closure,
}
