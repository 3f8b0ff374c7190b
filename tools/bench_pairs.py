#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload over alternating pairs of runs.

Usage:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N --pairs P

Each pair runs ``python3 perfbench/run.py --workload W --seed N --trace 0``
once in each checkout, one after the other, in that checkout's directory.
Pair i runs the parent first when i is even and the change first when it is
odd, so a host that speeds up or slows down over time favours neither side.
The last stdout line of every run is its JSON result.

Each complete pair prints both runs' ``wall_s`` with the share of the
host's CPU time that the hypervisor stole during the run, read from the
``cpu`` line of ``/proc/stat`` before and after it (``n/a`` where that file
is missing). A high share marks a run slowed by other guests; such runs are
reported and kept, never dropped.

For each end-to-end metric that BENCHMARK.json (in CHANGE_DIR) declares,
the report gives each side's median and quartiles, the number of pairs the
change wins (strictly better in the metric's direction), and whether the
gap between the medians exceeds the parent's interquartile range. The last
line is the same summary as one JSON object. The exit code is 1 when any run
failed or reported ``"correct": false``. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def cpu_times() -> list[int] | None:
    """user .. steal of the /proc/stat ``cpu`` line, in ticks, or None.

    guest and guest_nice are left out: user and nice already count them.
    """
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if fields[:1] != ["cpu"] or len(fields) < 9:
        return None
    return [int(value) for value in fields[1:9]]


def steal_text(before: list[int] | None, after: list[int] | None) -> str:
    """"steal P%": the share of CPU ticks between two cpu_times readings stolen."""
    if before is None or after is None:
        return "steal n/a"
    ticks = [b - a for a, b in zip(before, after)]
    return f"steal {100 * ticks[7] / sum(ticks):.1f}%" if sum(ticks) > 0 else "steal n/a"


def run_once(checkout: str, workload: str, seed: int) -> dict | None:
    """One benchmark run in checkout: its JSON result, or None if it failed."""
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if result.get("correct") else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        if any(name not in run["metrics"] for pair in pairs for run in pair):
            continue
        parent, change = (
            [run["metrics"][name]["value"] for run in side] for side in zip(*pairs)
        )
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        gap = c_med - p_med
        rows.append({
            "metric": name, "unit": metric["unit"], "better": metric["better"],
            "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "change_wins": wins, "pairs": len(pairs),
            "median_gap": gap, "parent_iqr": p_q3 - p_q1,
            "gap_exceeds_parent_iqr": abs(gap) > p_q3 - p_q1,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change_dir, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]

    pairs, failures = [], 0
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        results, steal = {}, {}
        for side in order:
            checkout = args.parent_dir if side == "parent" else args.change_dir
            before = cpu_times()
            results[side] = run_once(checkout, args.workload, args.seed)
            steal[side] = steal_text(before, cpu_times())
            if results[side] is None:
                failures += 1
                print(f"pair {i}: {side} run failed", flush=True)
        if None in results.values():
            continue
        pairs.append((results["parent"], results["change"]))
        wall = {side: result["metrics"]["wall_s"]["value"] for side, result in results.items()}
        print(f"pair {i} ({order[0]} first): wall_s parent {wall['parent']:.4g} "
              f"({steal['parent']}) change {wall['change']:.4g} ({steal['change']})",
              flush=True)

    rows = summarise(pairs, metrics) if pairs else []
    print(f"{args.workload} seed {args.seed}: {len(pairs)} complete pairs, "
          f"{failures} failed runs")
    print(f"{'metric':<14} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'wins':>6} gap>IQR")
    for row in rows:
        p, c = row["parent"], row["change"]
        print(f"{row['metric']:<14} {p['q1']:>9.4g} {p['median']:>9.4g} {p['q3']:>9.4g}  "
              f"{c['q1']:>9.4g} {c['median']:>9.4g} {c['q3']:>9.4g}  "
              f"{row['change_wins']:>2}/{row['pairs']:<3} "
              f"{'yes' if row['gap_exceeds_parent_iqr'] else 'no'}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "pairs": len(pairs), "failed_runs": failures, "metrics": rows}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
