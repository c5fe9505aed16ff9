"""Compare a change with its parent on this benchmark.

    git archive <parent> | tar -x -C ../parent
    python3 bench/compare.py --parent ../parent --change .

Both source trees are measured with this checkout's benchmark code and
settings, for BENCHMARK.json's ``run_seconds`` per run. For every workload it
runs 10 parent/change pairs, seeds 1000 to 1009, one seed per pair,
alternating which side runs first, and reports per end-to-end
metric each side's median and quartiles, the change's win fraction (ties
count for neither side), the parent's interquartile spread and a verdict:

- improved: the change wins at least 9 pairs in 10 and the medians differ,
  in the better direction, by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: the parent's spread is wider than the bound, unless every run
  of the change reads better than every run of the parent;
- unchanged: otherwise.

The table is printed and written to ``bench_results/compare.json`` with the
environment and both trees' source hashes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, RESULTS, ROOT, environment

PAIRS = 10
FIRST_SEED = 1000


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--src", str(tree / "src")],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{tree} {workload} seed {seed}: {result['failed']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = statistics.quantiles(parent, n=4)
    c_q = statistics.quantiles(change, n=4)
    iqr = p_q[2] - p_q[0]
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    win_fraction = wins / len(parent)
    gain = sign * (c_med - p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if win_fraction >= 0.9 and gain > iqr:
        result = "improved"
    elif iqr > bound * abs(p_med) and not all_better:
        result = "unresolved"
    elif -gain > bound * abs(p_med):
        result = "worse"
    else:
        result = "unchanged"
    return {"parent_median": p_med, "parent_quartiles": [p_q[0], p_q[2]],
            "change_median": c_med, "change_quartiles": [c_q[0], c_q[2]],
            "win_fraction": win_fraction, "parent_spread": iqr / abs(p_med),
            "bound": bound, "verdict": result}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="Compare a change with its parent.")
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="change checkout root")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = spec["run_seconds"]

    report = {"environment": {side: environment(tree / "src", FIRST_SEED)
                              for side, tree in trees.items()},
              "seeds": list(range(FIRST_SEED, FIRST_SEED + PAIRS)),
              "seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(report["seeds"]):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_side(trees[side], workload, seed, seconds))
        rows = {}
        print(f"\n{workload}: {PAIRS} pairs, {seconds:g} s per run")
        print(f"{'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
              f" {'wins':>5} {'spread':>7} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            row = verdict([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                          m["better"], m["bound"])
            rows[name] = {"unit": m["unit"], **row, "parent_runs": [r[name] for r in runs["parent"]],
                          "change_runs": [r[name] for r in runs["change"]]}
            pq, cq = row["parent_quartiles"], row["change_quartiles"]
            print(f"{name:<18} {row['parent_median']:>11.5g} [{pq[0]:.5g}, {pq[1]:.5g}]"
                  f"{'':>3} {row['change_median']:>11.5g} [{cq[0]:.5g}, {cq[1]:.5g}]"
                  f" {row['win_fraction']:>5.2f} {row['parent_spread']:>7.3f}"
                  f" {row['bound']:>6.2f}  {row['verdict']} ({m['unit']})")
        report["workloads"][workload] = rows
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / "compare.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"\nresult file: {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
