#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, judged and printed as markdown.

Runs the command ``BENCHMARK.json`` declares (``python3 perfbench/run.py``)
with ``--json`` alternately in two checkouts — odd pairs the parent
first, even pairs the change first — and prints, per workload, every
pair, both medians, the parent's quartiles and range, how many pairs the
change won, ``failed`` / ``correct`` (with the text of every audit
violation, its pair, side and seed), and one verdict per end-to-end
metric by the ``choosing-metrics`` guide's section 8:

* **gain** — the change wins at least nine tenths of all pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's quartiles;
* **unresolved** — the parent's own runs range wider than the metric's
  bound, and not every change run beats every parent run;
* **worse** — the change's median is worse by more than the bound;
* **not worse** — otherwise.

It reads result documents only and changes nothing under ``perfbench/``.

Usage::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR [--pairs 10]
        [--workload NAME ...] [--seeds 1 2 ...] [--keep DIR]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def better(metric: dict, a: float, b: float) -> bool:
    """True when *a* reads strictly better than *b*."""
    return a > b if metric["better"] == "higher" else a < b


def judge(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, the parent's spread, the win count and the verdict for
    one metric on one workload; ``parent[i]`` and ``change[i]`` are one pair."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if len(parent) > 1:
        q1, __, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    else:
        q1 = q3 = p_med
    wins = sum(better(metric, c, p) for p, c in zip(parent, change))
    bound = metric["bound"] * abs(p_med)
    all_better = all(better(metric, c, p) for c in change for p in parent)
    if 10 * wins >= 9 * len(parent) and better(metric, c_med, p_med) and abs(c_med - p_med) > q3 - q1:
        verdict = "gain"
    elif max(parent) - min(parent) > bound and not all_better:
        verdict = "unresolved"
    elif better(metric, p_med, c_med) and abs(c_med - p_med) > bound:
        verdict = "worse"
    else:
        verdict = "not worse"
    return {"parent": p_med, "change": c_med, "q1": q1, "q3": q3, "lo": min(parent),
            "hi": max(parent), "wins": wins, "pairs": len(parent), "verdict": verdict}


def report(pairs: list[tuple[dict, dict]], metrics: list[dict], parent_first=(), seeds=()) -> str:
    """The markdown for a list of ``(parent document, change document)``
    pairs; *parent_first* says, per pair, which side ran first, and
    *seeds* which workload seed the pair ran."""
    lines = []
    for workload in pairs[0][0]["workloads"]:
        runs = [(p["workloads"][workload], c["workloads"][workload]) for p, c in pairs]
        shown = [m for m in metrics if all(m["name"] in side["metrics"] for run in runs for side in run)]
        column = {m["name"]: ([p["metrics"][m["name"]]["value"] for p, __ in runs],
                              [c["metrics"][m["name"]]["value"] for __, c in runs]) for m in shown}
        judged = {m["name"]: judge(m, *column[m["name"]]) for m in shown}
        attempted = sum(side["attempted"] for run in runs for side in run)
        failed = [sum(run[i]["failed"] for run in runs) for i in (0, 1)]
        correct = [not any(run[i]["violations"] for run in runs) for i in (0, 1)]
        lines += [f"`{workload}` — {len(runs)} pairs, {attempted} requests; `failed` "
                  f"{failed[0]} → {failed[1]}, `correct` {correct[0]} → {correct[1]} (parent → change):", "",
                  "| pair | " + " | ".join(f"`{m['name']}`" for m in shown) + " |",
                  "|---" * (len(shown) + 1) + "|"]
        for i in range(len(runs)):
            first = " (parent first)" if i < len(parent_first) and parent_first[i] else ""
            cells = [f"{column[m['name']][0][i]:.4g} → {column[m['name']][1][i]:.4g}" for m in shown]
            lines.append(f"| {i + 1}{first} | " + " | ".join(cells) + " |")
        rows = {
            "**median**": lambda j: f"{j['parent']:.4g} → {j['change']:.4g} "
                                    f"({(j['change'] / j['parent'] - 1) * 100 if j['parent'] else 0:+.0f} %)",
            "parent q1–q3": lambda j: f"{j['q1']:.4g}–{j['q3']:.4g} (range {j['lo']:.4g}–{j['hi']:.4g})",
            "change wins": lambda j: f"{j['wins']}/{j['pairs']}",
            "verdict": lambda j: j["verdict"],
        }
        for label, cell in rows.items():
            lines.append(f"| {label} | " + " | ".join(cell(judged[m["name"]]) for m in shown) + " |")
        lines.append("")
        for i, run in enumerate(runs):
            seed = f", seed {seeds[i]}" if i < len(seeds) else ""
            for side, doc in zip(("parent", "change"), run):
                lines += [f"- violation, pair {i + 1} ({side}{seed}): {v}" for v in doc["violations"]]
        if not all(correct):
            lines.append("")
    return "\n".join(lines)


def run_side(checkout: Path, command: list[str], out: Path, seed: int, workloads) -> dict:
    argv = command + ["--json", str(out), "--seed", str(seed)]
    if workloads:
        argv += ["--workload", *workloads]
    done = subprocess.run(argv, cwd=checkout, stdout=subprocess.DEVNULL)
    if not out.exists():
        sys.exit(f"bench_pairs: {' '.join(argv)} in {checkout} exited {done.returncode} "
                 "without a result document")
    return json.loads(out.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", nargs="+", metavar="NAME")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1],
                        help="workload seeds, cycled over the pairs (both sides of a pair share one)")
    parser.add_argument("--keep", type=Path, help="keep the result documents in this directory")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs, parent_first = [], []
    with tempfile.TemporaryDirectory() as scratch:
        keep = args.keep or Path(scratch)
        keep.mkdir(parents=True, exist_ok=True)
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            sides = {"parent": args.parent, "change": args.change}
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            docs = {side: run_side(sides[side].resolve(), spec["command"],
                                   keep.resolve() / f"pair{i + 1:02d}-{side}.json", seed, args.workload)
                    for side in order}
            pairs.append((docs["parent"], docs["change"]))
            parent_first.append(order[0] == "parent")
            print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) done", file=sys.stderr)
    seeds = [args.seeds[i % len(args.seeds)] for i in range(args.pairs)]
    print(report(pairs, spec["end_to_end"], parent_first, seeds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
