"""Compare two sets of benchmark runs.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``bench/run.py --out`` appends, one run per
line.  Runs are paired in file order per workload and trace mode, so make
them in alternating order (parent then change, change then parent, ...),
the same seed for both sides of a pair, and at least ten pairs.

For every workload and metric the report gives each side's median and
quartiles, how many pairs the change won, and a verdict:

- ``better``: the change wins at least 9 in 10 of all pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound (end-to-end metrics), or it loses by the rule above
  (per-layer metrics, which have no bound);
- ``unresolved``: the spread of either side (interquartile range over
  median) exceeds the metric's bound, unless every run of the change beats
  every run of the parent;
- ``same``: none of these.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
MIN_PAIRS = 10


def load_runs(path: str) -> dict:
    """{(workload, trace): {metric: [values in file order]}} plus metadata lists."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        meta = record["meta"]
        group = runs[(meta["workload"], meta["trace"])]
        for name, metric in record["result"]["metrics"].items():
            group[name].append(metric["value"])
        if "op_tail_percentile" in meta:
            group["~op_tail_percentile"].append(meta["op_tail_percentile"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better: str, bound: float | None) -> tuple[str, int, int]:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    clear = abs(cm - pm) > p3 - p1
    if bound is not None:
        spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
        dominates = all(sign * (c - p) > 0 for c in change for p in parent)
        if spread > bound and not dominates:
            return "unresolved", wins, len(pairs)
        if sign * (cm - pm) < -bound * abs(pm):
            return "worse", wins, len(pairs)
    if pairs and wins >= WIN_SHARE * len(pairs) and clear:
        return "better", wins, len(pairs)
    if bound is None and pairs and losses >= WIN_SHARE * len(pairs) and clear:
        return "worse", wins, len(pairs)
    return "same", wins, len(pairs)


def fmt(values) -> str:
    q1, m, q3 = quartiles(values)
    return f"{m:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)

    print(f"{'workload':<17} {'metric':<45} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':>7}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        p_group, c_group = parent[key], change[key]
        for name, spec in specs.items():
            if name not in p_group or name not in c_group:
                continue
            p, c = p_group[name], c_group[name]
            result, wins, n = verdict(p, c, spec["better"], spec.get("bound"))
            note = f" (only {n} pairs)" if n < MIN_PAIRS else ""
            print(f"{workload:<17} {name:<45} {fmt(p):<34} {fmt(c):<34} "
                  f"{wins:>3}/{n:<3}  {result}{note}")
        tails = set(p_group.get("~op_tail_percentile", [])) | set(
            c_group.get("~op_tail_percentile", [])
        )
        if len(tails) > 1:
            print(f"{workload:<17} note: op_tail_ms was taken at different percentiles: "
                  + ", ".join(sorted(tails)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
