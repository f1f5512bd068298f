"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py
    python3 perfbench/sweep.py --trace-seed 1 --out perfbench/BASELINE.json

Each run is a separate ``run.py`` process, one after another, for
every workload in BENCHMARK.json, with its run length, on seeds 1 to
10.  For every end-to-end metric the table shows the median over seeds
and the spread, the distance between the first and third quartile as a
share of the median, next to the metric's bound.  The exit code is 1
when any spread, ``setup_s`` included, is not below a third of its
bound.  ``--trace-seed`` adds one traced run per workload; ``--out``
writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 300
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-seed", type=int, help="also run each workload traced")
    parser.add_argument("--out", type=Path, help="write the summary as JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "workloads": {},
    }
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "end_to_end": {},
        }
        print(f"{workload}: {entry['attempted']} ops, {entry['failed']} failed")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = stats
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"  {name:12s} median {stats['median']:.6g} {stats['unit']:4s} "
                  f"spread {stats['spread']:.3f} bound {bound}{'' if ok else '  UNSTEADY'}")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                               "metrics": traced["metrics"]}
            ratio = traced["metrics"]["trace.overhead_ratio"]["value"]
            print(f"  trace.overhead_ratio {ratio:.3f}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
