"""Alternating before/after benchmark pairs, summarised per metric.

    python3 scripts/bench_pairs.py PARENT CHANGE --pr 7 \\
        --workloads short_random,short_deep,constructive,certify --seeds 1 2 3

PARENT and CHANGE are two checkouts of this repository.  For every seed
and workload the script runs ``perfbench/run.py --trace 0`` once in each
checkout, one after the other, and swaps which of the two goes first
from one pair to the next, so a drift in machine speed hits both sides
alike.  Runs are sequential: one benchmark process at a time.  Each
side writes and reads its bytecode under its own PYTHONPYCACHEPREFIX in
a temporary directory, never a checkout's own ``__pycache__``, so a
stale cache in one checkout cannot slow that side's imports (which
``setup_s`` includes); PYTHONDONTWRITEBYTECODE is dropped for the runs.

The output, ``BENCH_<pr>.json`` in the current directory, holds per
workload and metric the parent's and the change's median, min and max
over the pairs, the change's median over the parent's, every run's
value and ``change_wins``, the number of pairs the change won; plus per
workload the attempted and failed op counts of each side.  Which way is
better comes from ``end_to_end[].better`` in the parent's
BENCHMARK.json; a tie counts for neither side, and a metric without a
direction has ``change_wins`` null.  The run ends with one line per
workload giving each end-to-end metric's ratio and wins.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             pycache: Path) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``checkout``, with its
    bytecode cache under ``pycache``: the run's JSON line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


def directions(checkout: Path) -> dict[str, str]:
    """``better`` ("higher" or "lower") per end-to-end metric of the checkout's benchmark."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change's value beats the parent's; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def summarise(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    """Per-metric medians, min and max of both sides, their ratio and the
    change's wins, for the metrics ``better`` gives a direction."""
    metrics = {}
    for name, first in runs["parent"][0]["metrics"].items():
        values = {side: [run["metrics"][name]["value"] for run in runs[side]]
                  for side in SIDES}
        entry = {"unit": first["unit"]}
        for side in SIDES:
            entry[side] = {**summary(values[side]), "runs": values[side]}
        parent = entry["parent"]["median"]
        entry["change_over_parent"] = entry["change"]["median"] / parent if parent else None
        direction = better.get(name)
        entry["change_wins"] = (
            None if direction is None else wins(values["parent"], values["change"], direction)
        )
        metrics[name] = entry
    ops = {side: {"attempted": sum(run["attempted"] for run in runs[side]),
                  "failed": sum(run["failed"] for run in runs[side])}
           for side in SIDES}
    return {"pairs": len(runs["parent"]), "ops": ops, "metrics": metrics}


def verdict(workload: str, result: dict, better: dict[str, str]) -> str:
    """One line: each end-to-end metric's change over parent and pairs won."""
    cells = []
    for name in better:
        entry = result["metrics"].get(name)
        if entry is not None:
            ratio = entry["change_over_parent"]
            shown = "n/a" if ratio is None else f"{ratio:.3f}"
            cells.append(f"{name} {shown} ({entry['change_wins']}/{result['pairs']} won)")
    return f"{workload}: " + ", ".join(cells)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--workloads", required=True,
                        help="comma-separated perfbench workload names")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = [w for w in args.workloads.split(",") if w]
    better = directions(checkouts["parent"])
    results = {}
    pair = 0
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        caches = {side: Path(tmp) / side for side in SIDES}
        for workload in workloads:
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for seed in args.seeds:
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                pair += 1
                for side in order:
                    run = run_once(checkouts[side], workload, seed, args.seconds, caches[side])
                    runs[side].append(run)
                    print(f"{workload} seed {seed} {side}: "
                          f"ops_per_s {run['metrics']['ops_per_s']['value']:.4g}",
                          flush=True)
            results[workload] = summarise(runs, better)
    record = {
        "command": f"perfbench/run.py --trace 0 --seconds {args.seconds:g}",
        "seeds": args.seeds,
        "order": "alternating: the side that runs first swaps from pair to pair",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": results,
    }
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written {out}")
    for workload, result in results.items():
        print(verdict(workload, result, better))
    return 0


if __name__ == "__main__":
    sys.exit(main())
