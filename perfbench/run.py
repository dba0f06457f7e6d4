"""perfbench command line.

    python3 perfbench/run.py                        # all four workloads
    python3 perfbench/run.py --workload mem_hot --seed 2 --seconds 12 --trace 0
    python3 perfbench/run.py --reps 5 --seconds 20 --trace --json set-a.json
    python3 perfbench/run.py --compare set-a.json set-b.json
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when the correctness audit fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers  # noqa: E402
from perfbench.compare import compare  # noqa: E402
from perfbench.measure import Rep, run_rep  # noqa: E402
from perfbench.spec import (ALL_METRICS, DEFAULT_REPS, DEFAULT_SECONDS, GATED,  # noqa: E402
                            PER_LAYER)
from perfbench.stacks import CONFIG  # noqa: E402
from perfbench.workloads import CLIENTS, WARMUP_PER_CLIENT, WORKLOADS  # noqa: E402

WORK_DIRNAME = ".perfbench_work"
# Totals over the repetitions; every other metric is the median.
SUMMED = ("acked_lost", "txn.timeouts_fired", "server.deadline_interrupts",
          "cluster.shard_down")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS), metavar="NAME",
                        help="workloads to run (default: all four, repetitions interleaved)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per workload, shared by its repetitions")
    parser.add_argument("--reps", type=int, help=f"repetitions (default {DEFAULT_REPS}; "
                        "1 untraced beside the traced one under --trace)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="add the per-layer run: a traced repetition, the ladder, probes")
    parser.add_argument("--trace-out", metavar="F", help="write the spans there as JSON lines")
    parser.add_argument("--json", metavar="OUT", help="write the full result document")
    parser.add_argument("--smoke", action="store_true",
                        help="1 repetition of 150 requests per workload, plus --trace")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="apply the bounds to two result documents and exit")
    return parser.parse_args(argv)


def summarise(reps: list[Rep], extra: dict[str, float]) -> dict:
    """Medians over the repetitions, with the per-repetition values kept."""
    metrics = {}
    names = {name for rep in reps for name in rep.metrics}
    for name in sorted(names):
        values = [rep.metrics[name] for rep in reps if name in rep.metrics]
        value = sum(values) if name in SUMMED else statistics.median(values)
        metrics[name] = {"value": value, "unit": ALL_METRICS[name].unit, "reps": values}
    attempted = sum(rep.attempted for rep in reps)
    ok = sum(rep.ok for rep in reps)
    metrics["failed_share"] = {"value": (attempted - ok) / attempted if attempted else 1.0,
                               "unit": "ratio", "reps": []}
    for name, value in extra.items():
        metrics[name] = {"value": value, "unit": ALL_METRICS[name].unit, "reps": [value]}
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": attempted - ok,
        "violations": [v for rep in reps for v in rep.violations],
        "notes": sorted({note for rep in reps for note in rep.notes}),
    }


def print_table(workload: str, result: dict, declared) -> None:
    print(f"\n== {workload}: {result['attempted']} requests, {result['failed']} failed, "
          f"{len(result['violations'])} audit violations")
    for metric in declared:
        entry = result["metrics"].get(metric.name)
        if entry is None:
            print(f"  {metric.name:<42}{'-':>14} {metric.unit}")
            continue
        reps = entry["reps"]
        detail = "  [" + " ".join(f"{v:.4g}" for v in reps) + "]" if len(reps) > 1 else ""
        print(f"  {metric.name:<42}{entry['value']:>14.4f} {metric.unit}{detail}")
    for line in result["notes"] + result["violations"]:
        print(f"  ! {line}")


def last_line(results: dict, declared) -> dict:
    """The object the driver reads; a layer a workload does not have
    reports 0."""
    def metrics_of(result):
        return {
            m.name: {"value": result["metrics"].get(m.name, {"value": 0.0})["value"],
                     "unit": m.unit}
            for m in declared
        }
    summed = {
        "correct": not any(r["violations"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
    }
    if len(results) == 1:
        (result,) = results.values()
        return {**summed, "metrics": metrics_of(result)}
    return {**summed, "metrics": {name: metrics_of(r) for name, r in results.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    names = args.workload or list(WORKLOADS)
    trace = bool(args.trace) or args.smoke
    reps = 1 if args.smoke else args.reps or (1 if trace else DEFAULT_REPS)
    if reps < 1 or args.seconds <= 0:
        sys.exit("perfbench: --reps and --seconds must be positive")
    # A repetition's request count follows its share of --seconds; the
    # same lists are replayed in every repetition.
    share = args.seconds / DEFAULT_SECONDS * DEFAULT_REPS / (args.reps or DEFAULT_REPS)
    n_ops = {name: 150 if args.smoke else max(CLIENTS, round(WORKLOADS[name].ops_per_rep * share))
             for name in names}
    warmup = 20 if args.smoke else WARMUP_PER_CLIENT

    workroot = os.path.join(ROOT, WORK_DIRNAME, f"run-{os.getpid()}")
    os.makedirs(workroot)
    runs: dict[str, list[Rep]] = {name: [] for name in names}
    extra: dict[str, dict[str, float]] = {name: {} for name in names}
    try:
        # Repetitions are interleaved across workloads so that drift of
        # the machine hits all of them alike.
        for index in range(reps):
            for name in names:
                runs[name].append(run_rep(name, args.seed, n_ops[name],
                                          os.path.join(workroot, f"{name}-{index}"),
                                          warmup=warmup))
        if trace:
            all_spans = []
            for name in names:
                traced = run_rep(name, args.seed, n_ops[name],
                                 os.path.join(workroot, f"{name}-traced"), traced=True,
                                 warmup=warmup)
                spans = layers.spans_of(traced.samples)
                all_spans += spans
                untraced = statistics.median(r.metrics["throughput_rps"] for r in runs[name])
                extra[name]["bench.trace_overhead_share"] = (
                    1 - traced.metrics["throughput_rps"] / untraced)
                extra[name]["server.wire_self_check_us"] = (
                    layers.self_times_us(spans)["wire.roundtrip"])
                ladder_n = min(600, n_ops[name] // CLIENTS)
                extra[name].update(layers.ladder(name, args.seed, ladder_n, workroot))
                extra[name].update(layers.probes(name, args.seed, ladder_n, workroot))
                runs[name][0].violations += [f"traced: {v}" for v in traced.violations]
            if args.trace_out:
                layers.write_spans(args.trace_out, all_spans)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIRNAME))
        except OSError:
            pass

    results = {name: summarise(runs[name], extra[name]) for name in names}
    for name in names:
        print_table(name, results[name], GATED + (PER_LAYER if trace else ()))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"schema": "perfbench/1", "seed": args.seed, "seconds": args.seconds,
                       "reps": reps, "ops_per_rep": n_ops, "config": CONFIG,
                       "workloads": results}, fh, indent=1)
    # The driver reads the gated metrics under --trace 0 and the
    # per-layer ones under --trace 1; --smoke shows both.
    line = last_line(results, GATED + PER_LAYER if args.smoke else PER_LAYER if trace else GATED)
    missing = [f"{name}.{m.name}" for name in names for m in GATED
               if m.name not in results[name]["metrics"]]
    if missing:
        print("perfbench: no value for " + ", ".join(missing), file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
