"""The package namespace is what README.md documents, every function
the benchmark's tracer wraps still exists in its module, a module
defines no other public name beyond a short allowlist, and the source
does not grow past its line budget."""

import ast
import importlib.util
import re
from pathlib import Path

import pgsolve

ROOT = Path(__file__).resolve().parent.parent

# The benchmark (perfbench/workloads.py, perfbench/test_perfbench.py)
# imports some of these from the package itself.
PUBLIC = [
    "BadCycleWitness",
    "BudgetExceededError",
    "CertificationError",
    "Diagnostic",
    "FixpointState",
    "GameError",
    "Lasso",
    "ParityGame",
    "ParseError",
    "PartialSolution",
    "Player",
    "RestrictionError",
    "Solution",
    "SplitGame",
    "Strategy",
    "StrategyError",
    "Subgame",
    "brute_force_solve",
    "check_solution",
    "closure",
    "emit_game",
    "emit_solution",
    "gen_random",
    "merge_strategy",
    "parse_game",
    "parse_solution",
    "play",
    "remove_unfair_win",
    "remove_useless_self_loops",
    "restrict",
    "shift_and_swap",
    "solve_constructive",
    "solve_short",
    "split_top",
    "verify_strategy",
]


def test_all_is_pinned():
    assert sorted(pgsolve.__all__) == PUBLIC


def test_every_export_resolves():
    for name in pgsolve.__all__:
        assert hasattr(pgsolve, name), name


def test_readme_names_every_export():
    readme = (ROOT / "README.md").read_text()
    missing = [
        name for name in pgsolve.__all__ if not re.search(rf"\b{name}\b", readme)
    ]
    assert not missing, f"exported but not in README.md: {missing}"


def _tracer_targets():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_tracer_targets_resolve():
    for module_name, attribute in _tracer_targets():
        owner = importlib.import_module(f"pgsolve.{module_name}")
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attribute)



# Public names that are neither exported nor traced: the console-script
# entry point that pyproject.toml names.
UNDOCUMENTED = {"run"}


def _defined_names(path: Path):
    """Names a module's own top-level defs, classes and assignments bind."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_public_name_is_exported_traced_or_allowed():
    traced = {(module, attribute.split(".")[0]) for module, attribute in _tracer_targets()}
    stray = [
        f"{path.stem}.{name}"
        for path in sorted((ROOT / "src" / "pgsolve").glob("*.py"))
        for name in _defined_names(path)
        if not name.startswith("_")
        and name not in pgsolve.__all__
        and (path.stem, name) not in traced
        and name not in UNDOCUMENTED
    ]
    assert not stray, f"public but neither exported, traced nor allowed: {stray}"


# The lines of src/pgsolve/*.py, as ``wc -l`` counts them, may not pass
# this ceiling: a change that adds lines pays for them by removing others,
# or lowers the ceiling when it removes more than it adds.
SOURCE_LINES = 2490


def test_source_does_not_grow():
    sources = sorted((ROOT / "src" / "pgsolve").glob("*.py"))
    lines = sum(path.read_text().count("\n") for path in sources)
    assert lines <= SOURCE_LINES, f"src/pgsolve has {lines} lines, over {SOURCE_LINES}"
