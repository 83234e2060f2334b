"""Compare two result sets (parent and change) written by bench/run.py.

Usage: python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

Records pair up in file order per workload and trace mode, so run the two
sides alternately, with the same seeds, and keep each side in its own file.
For every workload and metric it prints each side's median and quartiles,
the share of pairs the change wins (ties count for neither side), and
whether the medians differ by more than the parent's own quartile spread.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def _load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values in run order."""
    series: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        values = rec["per_layer"]["metrics"] if rec["trace"] else rec["end_to_end"]
        for name, value in values.items():
            if isinstance(value, (int, float)):
                series[(rec["workload"], name)].append(float(value))
    return series


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(parent_path: str, change_path: str, spec: dict) -> int:
    parent, change = _load(parent_path), _load(change_path)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':14s} {'metric':28s} {'parent q1/med/q3':>32s} {'change q1/med/q3':>32s}"
          f" {'wins':>9s}  verdict")
    keys = [(w, n) for w in workloads for n in better if (w, n) in parent and (w, n) in change]
    for workload, name in keys:
        p, c = parent[(workload, name)], change[(workload, name)]
        pq, cq = _quartiles(p), _quartiles(c)
        sign = 1.0 if better[name] == "higher" else -1.0
        pairs = list(zip(p, c))
        wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
        diff = sign * (cq[1] - pq[1])
        spread = pq[2] - pq[0]
        if abs(cq[1] - pq[1]) <= spread:
            verdict = "within parent spread"
        else:
            verdict = "better" if diff > 0 else "worse"
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{workload:14s} {name:28s} {fmt.format(*pq):>32s} {fmt.format(*cq):>32s}"
              f" {wins:>3d}/{len(pairs):<5d}  {verdict}")
    return 0
