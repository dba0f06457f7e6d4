"""Compare two result documents under the benchmark's own bounds."""

from __future__ import annotations

import json
import statistics

from perfbench.spec import END_TO_END


def spread(values) -> float:
    """Distance between the first and third quartile of a set's
    per-repetition values (max - min when there are three)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(metric, base: dict, new: dict) -> tuple[str, float, float]:
    """``(ok | regressed | unresolved, change, allowed)``; *change* is
    signed so that positive means worse."""
    allowed = max(metric.rel * abs(base["value"]), metric.floor)
    change = new["value"] - base["value"]
    if metric.better == "higher":
        change = -change
    noise = max(spread(base.get("reps", [])), spread(new.get("reps", [])))
    if allowed > 0 and noise > allowed:
        return "unresolved", change, allowed
    return ("regressed" if change > allowed else "ok"), change, allowed


def compare(base_path: str, new_path: str) -> int:
    """Print one row per workload x end-to-end metric; 1 if any regressed."""
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)["workloads"]
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)["workloads"]
    regressed = 0
    print(f"{'workload':<14}{'metric':<22}{'base':>12}{'new':>12}{'worse by':>12}"
          f"{'allowed':>12}  verdict")
    for workload in base:
        if workload not in new:
            continue
        for metric in END_TO_END:
            a = base[workload]["metrics"].get(metric.name)
            b = new[workload]["metrics"].get(metric.name)
            if a is None or b is None:
                continue
            word, change, allowed = verdict(metric, a, b)
            regressed += word == "regressed"
            print(f"{workload:<14}{metric.name:<22}{a['value']:>12.4f}{b['value']:>12.4f}"
                  f"{change:>12.4f}{allowed:>12.4f}  {word} [{metric.unit}]")
    return 1 if regressed else 0
