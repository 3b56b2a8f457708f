"""Compare two sets of benchmark results.

    python3 benchmarks/e2e/compare.py A/*.json -- B/*.json

Each file is a result saved by ``run.py --out``.  For every workload and
metric this prints each side's median and quartiles, how many seed-paired
runs B won, and a verdict for B against A:

* ``better`` — B wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than A's interquartile range;
* ``worse`` — B's median is worse than A's by more than the metric's
  bound in ``BENCHMARK.json``;
* ``unresolved`` — A's own spread is wider than the bound, so a change
  within it cannot be told from noise, and B does not beat A on every run;
* ``same`` — none of the above: within the bound.

Metrics that are exact for a seed (``EXACT``) and the output digests
must be identical between paired runs.  Exit status 1 when any verdict
is ``worse`` or any exact value or digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: Deterministic for a given seed: any difference is a behaviour change.
EXACT = ("served_frac", "planner_frac")


def load(paths):
    """``{(workload, trace): {seed: [record, ...]}}``."""
    runs = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = json.loads(Path(path).read_text())
        runs[(record["workload"], record["trace"])][record["seed"]].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, pairs, better, bound):
    """B against A for one metric; ``pairs`` are ``(a, b)`` values."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    q1a, ma, q3a = quartiles(a)
    mb = statistics.median(b)
    if pairs and wins * 10 >= 9 * len(pairs) and abs(mb - ma) > q3a - q1a:
        return wins, "better"
    if bound is None:
        losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
        if pairs and losses * 10 >= 9 * len(pairs) and abs(mb - ma) > q3a - q1a:
            return wins, "worse"
        return wins, "unresolved" if mb != ma else "same"
    if sign * (mb - ma) < -bound * abs(ma):
        return wins, "worse"
    every_run_better = min(sign * y for y in b) > max(sign * x for x in a)
    if ma and (q3a - q1a) / abs(ma) > bound and not every_run_better:
        return wins, "unresolved"
    return wins, "same"


def compare(a_paths, b_paths) -> int:
    spec = json.loads(SPEC.read_text())
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    side_a, side_b = load(a_paths), load(b_paths)
    failures = 0
    for key in sorted(set(side_a) | set(side_b)):
        workload, trace = key
        runs_a, runs_b = side_a.get(key, {}), side_b.get(key, {})
        paired = [
            (ra, rb)
            for seed in sorted(set(runs_a) & set(runs_b))
            for ra, rb in zip(runs_a[seed], runs_b[seed])
        ]
        print(
            f"\n{workload}{' (trace)' if trace else ''}: "
            f"{sum(map(len, runs_a.values()))} run(s) vs "
            f"{sum(map(len, runs_b.values()))}, {len(paired)} seed pair(s)"
        )
        print(
            f"  {'metric':<36}{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}"
            f"{'B won':>8}  verdict"
        )
        for metric in metrics[trace]:
            name = metric["name"]

            def values(runs):
                return [
                    r["result"]["metrics"][name]["value"]
                    for seed in sorted(runs) for r in runs[seed]
                ]

            a, b = values(runs_a), values(runs_b)
            if not a or not b:
                continue
            pairs = [
                (ra["result"]["metrics"][name]["value"],
                 rb["result"]["metrics"][name]["value"])
                for ra, rb in paired
            ]
            wins, said = verdict(a, b, pairs, metric["better"], metric.get("bound"))
            if name in EXACT and any(x != y for x, y in pairs):
                said = "DIFFERENT"
            if said in ("worse", "DIFFERENT") and not trace:
                failures += 1
            cells = "".join(
                f"{q[1]:>14.6g} [{q[0]:.4g}, {q[2]:.4g}]".rjust(34)
                for q in (quartiles(a), quartiles(b))
            )
            print(f"  {name:<36}{cells}{wins:>5}/{len(pairs):<2}  {said}")
        differing = [
            ra["seed"] for ra, rb in paired if ra.get("digest") != rb.get("digest")
        ]
        if differing:
            failures += 1
            print(f"  digests DIFFER for seed(s) {differing}")
        elif paired:
            print(f"  digests identical across {len(paired)} pair(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("usage: compare.py A.json... -- B.json...", file=sys.stderr)
        return 2
    cut = argv.index("--")
    return compare(argv[:cut], argv[cut + 1:])


if __name__ == "__main__":
    sys.exit(main())
