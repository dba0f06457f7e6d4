"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — the quickstart: T1 (ship) ∥ T2 (pay) on the same orders,
  with the executed trees, a Fig. 4-style timeline, and the
  serializability verdict;
* ``matrices`` — print the Fig. 2/3 compatibility matrices and their
  derived lock modes;
* ``compare`` — the six-protocol performance comparison table
  (``--transactions``, ``--mpl``, ``--items``, ``--seed``);
* ``check`` — run a random workload under a chosen protocol and check
  the admitted history for semantic serializability (``--protocol``,
  ``--transactions``, ``--seed``, ``--runtime virtual|threaded``);
* ``stats`` — run a workload and print the observability breakdown:
  the four-way Fig. 9 conflict-case table, kernel / lock / scheduler /
  waits-for counters, and histograms; ``--jsonl`` exports the snapshot
  as JSON Lines, ``--from-jsonl`` prints a previously exported one;
* ``bench`` — run the committed-baseline workloads (deterministic
  virtual time) and print them; ``--baseline`` writes the
  schema-versioned ``BENCH_baseline.json`` (``--out``); ``--compare
  PATH`` re-runs them and prints every value that differs from the
  committed file, exiting non-zero if any does; ``--json`` saves the
  fresh results.  Wall-clock performance is ``perfbench/run.py``
  (``BENCHMARK.json``), not this command;
* ``torture`` — the crash-torture sweep: crash a seeded workload at
  every scheduler step and WAL-record boundary, recover each crash from
  the pickled log, and verify state equivalence, committed-result
  equivalence, serializability of the surviving history, and lock
  hygiene (``--protocol``, ``--seed``, ``--transactions``, ``--steps``,
  ``--json``); ``--max-seconds`` bounds the sweep by wall clock with a
  partial-but-honest report; exits non-zero when any crash point fails;
  ``--cluster`` instead SIGKILLs live shard processes at every 2PC
  crash site and verifies in-doubt recovery (``--shards``,
  ``--requests``, ``--sites``);
* ``serve`` — run the overload-robust transaction server: order-entry
  operations over newline-delimited JSON-over-TCP with admission
  control, deadlines, graceful degradation, and a clean drain on ^C
  (``--host``, ``--port``, ``--protocol``, ``--max-inflight``,
  ``--queue-cap``; docs/SERVER.md);
* ``cluster`` — run a sharded cluster: N shard server processes over
  durable partitions behind a consistent-hash router with cross-shard
  two-phase commit (``--shards``, ``--host``, ``--port``,
  ``--data-dir``; docs/CLUSTER.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.bench import (
    format_conflict_breakdown,
    format_counters,
    format_gauges,
    format_histograms,
    format_table,
    run_closed_loop,
)
from repro.core.kernel import run_transactions
from repro.core.serializability import is_semantically_serializable
from repro.orderentry.schema import ITEM_TYPE, ORDER_TYPE, build_order_entry_database
from repro.orderentry.transactions import make_t1, make_t2
from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig
from repro.protocols import protocol_by_name, protocols_by_name
from repro.semantics.lockmodes import LockModeTable
from repro.txn.timeline import render_timeline


def cmd_demo(args: argparse.Namespace) -> int:
    built = build_order_entry_database(n_items=2, orders_per_item=2)
    kernel = run_transactions(
        built.db,
        {
            "T1": make_t1(built.item(0), 1, built.item(1), 2),
            "T2": make_t2(built.item(0), 1, built.item(1), 2),
        },
    )
    print("T1 (ship) and T2 (pay) on the same two orders, concurrently:\n")
    print(render_timeline(kernel.history(), lane_width=34))
    print(f"\nlock waits: {kernel.metrics.blocks}")
    verdict = is_semantically_serializable(kernel.history(), db=built.db)
    print(f"semantically serializable: {verdict.serializable}"
          f" (serial order {' -> '.join(verdict.serial_order or [])})")
    return 0


def cmd_matrices(args: argparse.Namespace) -> int:
    for spec in (ITEM_TYPE, ORDER_TYPE):
        print(f"compatibility matrix of {spec.name} "
              f"(Fig. {'2' if spec.name == 'Item' else '3'}):\n")
        print(spec.matrix.format_table())
        print()
        print(LockModeTable(spec.matrix).format_table())
        print()
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    for factory in protocols_by_name().values():
        metrics = run_closed_loop(
            factory,
            WorkloadConfig(
                n_items=args.items, orders_per_item=3, seed=args.seed
            ),
            n_transactions=args.transactions,
            mpl=args.mpl,
        )
        rows.append(metrics.row())
    print(
        format_table(
            rows,
            f"{args.transactions} transactions, MPL {args.mpl}, "
            f"{args.items} items, seed {args.seed}",
        )
    )
    print("\nnote: open-nested-naive is fast but unsafe under bypassing;")
    print("      run `python -m repro check --protocol open-nested-naive`")
    print("      with a bypass-heavy mix to see it get caught.")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    mix = {"T1": 1.0, "T2": 1.0, "T3": 1.0, "T4": 1.0, "T5": 1.0}
    workload = OrderEntryWorkload(
        WorkloadConfig(n_items=args.items, orders_per_item=2, mix=mix, seed=args.seed)
    )
    programs = dict(workload.take(args.transactions))
    if args.runtime == "threaded":
        from repro.runtime.threaded import run_threaded_transactions

        kernel = run_threaded_transactions(
            workload.db,
            programs,
            protocol=protocol_by_name(args.protocol)(),
            n_threads=args.threads,
        )
        kernel.locks.check_invariants()
    else:
        kernel = run_transactions(
            workload.db,
            programs,
            protocol=protocol_by_name(args.protocol)(),
            policy="random",
            seed=args.seed,
        )
    committed = sum(1 for h in kernel.handles.values() if h.committed)
    print(f"protocol {args.protocol} ({args.runtime} runtime): "
          f"{committed}/{len(programs)} committed, "
          f"{kernel.metrics.blocks} lock waits, "
          f"{kernel.metrics.deadlocks} deadlocks")
    verdict = is_semantically_serializable(kernel.history(), db=workload.db)
    print(f"history semantically serializable: {verdict.serializable}")
    if not verdict.serializable:
        print("!! the admitted history is NOT equivalent to any serial order")
        return 1
    print(f"equivalent serial order: {' -> '.join(verdict.serial_order or [])}")
    return 0


def _print_snapshot(snapshot, show_fault_counters: bool) -> None:
    print(format_conflict_breakdown(snapshot))
    print()
    print(format_counters(snapshot, "kernel.", "kernel counters"))
    print()
    print(format_counters(snapshot, "lock.", "lock manager"))
    print()
    print(format_counters(snapshot, "sched.", "scheduler"))
    print()
    print(format_counters(snapshot, "waits.", "waits-for graph"))
    print()
    if show_fault_counters:
        print(format_counters(snapshot, "fault.", "fault injection"))
        print()
        print(format_counters(snapshot, "timeout.", "lock-wait timeouts"))
        print()
        print(format_counters(snapshot, "retry.", "restart budget"))
        print()
    print(format_gauges(snapshot))
    print()
    print(format_histograms(snapshot))


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.orderentry.workload import WorkloadConfig

    if args.from_jsonl:
        import os

        from repro.obs.snapshot import Snapshot

        path = args.from_jsonl
        if not os.path.exists(path):
            print(f"error: metrics file not found: {path}")
            return 1
        with open(path, "r", encoding="utf-8") as fp:
            lines = [line for line in fp if line.strip()]
        if not lines:
            print(f"error: metrics file is empty: {path}")
            return 1
        try:
            snapshot = Snapshot.read_jsonl(lines)
        except (ValueError, KeyError) as exc:
            print(f"error: {path} is not a metrics JSONL file: {exc}")
            return 1
        print(f"metrics snapshot from {path}:")
        print()
        _print_snapshot(
            snapshot,
            show_fault_counters=any(
                name.startswith(("fault.", "timeout.", "retry."))
                for name in snapshot.counters
            ),
        )
        return 0

    metrics = run_closed_loop(
        protocol_by_name(args.protocol),
        WorkloadConfig(
            n_items=args.items, orders_per_item=args.orders, seed=args.seed
        ),
        n_transactions=args.transactions,
        mpl=args.mpl,
    )
    snapshot = metrics.snapshot
    assert snapshot is not None
    print(
        f"protocol {args.protocol}: {metrics.committed} committed, "
        f"{metrics.aborted} aborted, {metrics.retries} retries, "
        f"virtual clock {metrics.clock}"
    )
    print()
    _print_snapshot(
        snapshot,
        show_fault_counters=bool(
            metrics.faults_injected or metrics.timeouts_fired or metrics.retries_exhausted
        ),
    )
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fp:
            lines = snapshot.write_jsonl(fp)
        print(f"\nwrote {lines} metric lines to {args.jsonl}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.baseline import collect_baseline, diff, load_baseline, write_baseline

    fresh = collect_baseline(progress=lambda n: print(f"running {n} ..."))
    if args.baseline:
        write_baseline(args.out, fresh)
        print(f"wrote baseline ({len(fresh['workloads'])} workloads) to {args.out}")
        return 0
    if args.json:
        write_baseline(args.json, fresh)
        print(f"wrote fresh bench results to {args.json}")
    if args.compare is None:
        for name, entry in fresh["workloads"].items():
            record = entry["metrics"]
            print(
                f"{name}: throughput {record['throughput']:.4f}, "
                f"p95 {record['p95_response']:.1f}"
            )
        return 0
    problems = diff(load_baseline(args.compare), fresh)
    for line in problems:
        print(line)
    if problems:
        print(f"FAIL: {len(problems)} difference(s) from {args.compare}")
        return 1
    print(f"PASS: fresh run is identical to {args.compare}")
    return 0


def cmd_torture(args: argparse.Namespace) -> int:
    items = args.items if args.items is not None else (8 if args.cluster else 2)
    if args.cluster:
        from repro.faults.cluster import run_cluster_torture

        report = run_cluster_torture(
            seed=args.seed,
            n_requests=args.requests,
            n_shards=args.shards,
            n_items=items,
            sites=tuple(args.sites.split(",")) if args.sites else None,
            workdir=args.workdir,
            max_seconds=args.max_seconds,
        )
    elif args.durable:
        from repro.faults.durable import run_durable_torture

        report = run_durable_torture(
            seed=args.seed,
            n_transactions=args.transactions,
            n_items=items,
            protocol=args.protocol,
            steps=args.steps,
            wal_sweep=not args.no_wal_sweep,
            workdir=args.workdir,
            mode=args.mode,
            max_seconds=args.max_seconds,
        )
    else:
        from repro.faults.torture import order_entry_scenario, run_torture

        scenario = order_entry_scenario(
            seed=args.seed,
            n_transactions=args.transactions,
            n_items=items,
            protocol=protocol_by_name(args.protocol),
        )
        report = run_torture(
            scenario,
            steps=args.steps,
            wal_sweep=not args.no_wal_sweep,
            max_seconds=args.max_seconds,
        )
    print(report.summary())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fp:
            fp.write(report.to_json() + "\n")
        print(f"wrote torture report to {args.json}")
    return 0 if report.all_ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import AddressInUseError
    from repro.server import AdmissionConfig, TransactionServer, WireServer

    server = TransactionServer(
        built=build_order_entry_database(
            n_items=args.items, orders_per_item=args.orders
        ),
        protocol_factory=protocol_by_name(args.protocol),
        n_threads=args.threads,
        time_scale=args.time_scale,
        think_cost=args.think_cost,
        admission=AdmissionConfig(
            max_inflight=args.max_inflight, queue_cap=args.queue_cap
        ),
        default_deadline=args.default_deadline,
    ).start()
    try:
        wire = WireServer(server, host=args.host, port=args.port).start()
    except AddressInUseError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        print("pick another --port, or stop whatever is bound there",
              file=sys.stderr)
        server.shutdown()
        return 1
    host, port = wire.address
    print(f"serving order entry on {host}:{port} "
          f"({args.protocol}, {args.threads} workers, "
          f"max_inflight={args.max_inflight}, queue_cap={args.queue_cap})",
          flush=True)
    print("newline-delimited JSON; try: "
          '{"op": "ping"} | {"op": "stats"} | {"op": "place", "item": 0}',
          flush=True)
    try:
        import time as _time

        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        print("\ndraining ...")
    finally:
        wire.stop()
        report = server.shutdown()
        print(f"drain: {report.to_dict()}")
    return 0 if report.clean else 1


def cmd_cluster(args: argparse.Namespace) -> int:
    import tempfile
    import time as _time

    from repro.cluster import LocalCluster
    from repro.errors import AddressInUseError

    data_dir = args.data_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    cluster = LocalCluster(
        args.shards,
        data_dir,
        shard_config={
            "n_items": args.items,
            "orders_per_item": args.orders,
            "n_threads": args.threads,
            "max_inflight": args.max_inflight,
            "queue_cap": args.queue_cap,
            "default_deadline": args.default_deadline,
            "time_scale": args.time_scale,
            "think_cost": args.think_cost,
            "group_commit_window": args.group_commit_window,
        },
        router_host=args.host,
        router_port=args.port,
    )
    try:
        cluster.start()
    except AddressInUseError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        print("pick another --port, or stop whatever is bound there",
              file=sys.stderr)
        cluster.stop()
        return 1
    host, port = cluster.wire.address
    print(f"cluster router on {host}:{port} ({args.shards} shards, "
          f"durable partitions under {data_dir})", flush=True)
    for shard in cluster.shards:
        shard_host, shard_port = shard.address
        print(f"  shard {shard.shard_id}: {shard_host}:{shard_port} "
              f"(pid {shard.proc.pid})", flush=True)
    print("newline-delimited JSON; multi-item requests run as cross-shard "
          "2PC; try: "
          '{"op": "place", "lines": [[0, 1], [1, 2]]} | {"op": "stats"}',
          flush=True)
    try:
        while True:
            _time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nstopping cluster ...")
    finally:
        cluster.stop()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic concurrency control in OODBSs (ICDE 1993 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the ship/pay quickstart").set_defaults(fn=cmd_demo)
    sub.add_parser("matrices", help="print Fig. 2/3 matrices and lock modes").set_defaults(
        fn=cmd_matrices
    )

    compare = sub.add_parser("compare", help="six-protocol comparison table")
    compare.add_argument("--transactions", type=int, default=30)
    compare.add_argument("--mpl", type=int, default=6)
    compare.add_argument("--items", type=int, default=3)
    compare.add_argument("--seed", type=int, default=11)
    compare.set_defaults(fn=cmd_compare)

    check = sub.add_parser("check", help="run a workload and check serializability")
    check.add_argument("--protocol", choices=sorted(protocols_by_name()), default="semantic")
    check.add_argument("--transactions", type=int, default=6)
    check.add_argument("--items", type=int, default=2)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument(
        "--runtime", choices=("virtual", "threaded"), default="virtual",
        help="execution engine: the deterministic virtual-time scheduler "
        "(default) or the real-thread worker pool",
    )
    check.add_argument(
        "--threads", type=int, default=4,
        help="worker threads for --runtime threaded (default: 4)",
    )
    check.set_defaults(fn=cmd_check)

    stats = sub.add_parser(
        "stats", help="run a workload and print the metrics breakdown"
    )
    stats.add_argument("--protocol", choices=sorted(protocols_by_name()), default="semantic")
    stats.add_argument("--transactions", type=int, default=40)
    stats.add_argument("--mpl", type=int, default=6)
    stats.add_argument("--items", type=int, default=2)
    stats.add_argument("--orders", type=int, default=3)
    stats.add_argument("--seed", type=int, default=11)
    stats.add_argument("--jsonl", metavar="PATH", help="export the snapshot as JSON Lines")
    stats.add_argument(
        "--from-jsonl", metavar="PATH", dest="from_jsonl",
        help="print the breakdown of a previously exported JSONL snapshot "
        "instead of running a workload",
    )
    stats.set_defaults(fn=cmd_stats)

    bench = sub.add_parser(
        "bench",
        help="run the baseline workloads; --baseline writes BENCH_baseline.json, "
        "--compare diffs a fresh run against a committed baseline exactly",
    )
    bench.add_argument(
        "--baseline", action="store_true",
        help="write the schema-versioned baseline document and exit",
    )
    bench.add_argument(
        "--out", metavar="PATH", default="BENCH_baseline.json",
        help="where --baseline writes the document (default: BENCH_baseline.json)",
    )
    bench.add_argument(
        "--compare", metavar="PATH",
        help="committed baseline to diff against; exits non-zero on any difference",
    )
    bench.add_argument(
        "--json", metavar="PATH",
        help="also write the fresh results as JSON",
    )
    bench.set_defaults(fn=cmd_bench)

    torture = sub.add_parser(
        "torture", help="crash at every point and verify every recovery"
    )
    torture.add_argument("--protocol", choices=sorted(protocols_by_name()), default="semantic")
    torture.add_argument("--transactions", type=int, default=5)
    torture.add_argument(
        "--items", type=int, default=None,
        help="order-entry items (default: 2, or 8 with --cluster)",
    )
    torture.add_argument("--seed", type=int, default=0)
    torture.add_argument(
        "--steps", type=int, default=None,
        help="cap the number of step crash points (default: every step)",
    )
    torture.add_argument(
        "--no-wal-sweep", action="store_true",
        help="skip the WAL-record-boundary crash points",
    )
    torture.add_argument("--json", metavar="PATH", help="write the report as JSON")
    torture.add_argument(
        "--durable", action="store_true",
        help="real-process sweep: SIGKILL a child at every crash point and "
        "recover from its surviving WAL file",
    )
    torture.add_argument(
        "--mode", choices=("fork", "spawn"), default="fork",
        help="with --durable: how children are launched (default: fork)",
    )
    torture.add_argument(
        "--workdir", metavar="DIR", default=None,
        help="with --durable or --cluster: keep each crash point's files "
        "under DIR (default: a temp dir, removed afterwards)",
    )
    torture.add_argument(
        "--max-seconds", type=float, default=None, dest="max_seconds",
        help="wall-clock budget for the sweep: stop after the current "
        "point when it runs out and report partial-but-honest coverage",
    )
    torture.add_argument(
        "--cluster", action="store_true",
        help="shard-kill sweep: SIGKILL each shard of a live cluster at "
        "every 2PC crash site, restart it mid-load, and verify zero lost "
        "commits plus a serializable surviving history",
    )
    torture.add_argument(
        "--shards", type=int, default=2,
        help="with --cluster: shard process count (default: 2)",
    )
    torture.add_argument(
        "--requests", type=int, default=24,
        help="with --cluster: workload requests per crash point (default: 24)",
    )
    torture.add_argument(
        "--sites", metavar="SITE[,SITE...]", default=None,
        help="with --cluster: comma-separated crash sites to sweep "
        "(default: all nine 2PC sites)",
    )
    torture.set_defaults(fn=cmd_torture)

    serve = sub.add_parser(
        "serve",
        help="run the overload-robust transaction server over TCP "
        "(newline-delimited JSON; see docs/SERVER.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7477)
    serve.add_argument("--threads", type=int, default=4, help="kernel worker threads")
    serve.add_argument("--items", type=int, default=4)
    serve.add_argument("--orders", type=int, default=8)
    serve.add_argument(
        "--protocol", choices=("semantic", "object-rw-2pl"), default="semantic"
    )
    serve.add_argument(
        "--max-inflight", type=int, default=8, dest="max_inflight",
        help="admission concurrency limit (default: 8)",
    )
    serve.add_argument(
        "--queue-cap", type=int, default=64, dest="queue_cap",
        help="bounded queue depth per request class (default: 64)",
    )
    serve.add_argument(
        "--default-deadline", type=float, default=1.0, dest="default_deadline",
        help="deadline for requests that do not carry one (default: 1.0s)",
    )
    serve.add_argument(
        "--time-scale", type=float, default=0.0, dest="time_scale",
        help="seconds of real sleep per cost unit of Pause (default: 0)",
    )
    serve.add_argument(
        "--think-cost", type=float, default=0.0, dest="think_cost",
        help="extra Pause cost inside each transaction (default: 0)",
    )
    serve.set_defaults(fn=cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="run a sharded cluster: N shard server processes over durable "
        "partitions behind a consistent-hash router with cross-shard 2PC "
        "(newline-delimited JSON; see docs/CLUSTER.md)",
    )
    cluster.add_argument("--shards", type=int, default=2, help="shard processes")
    cluster.add_argument("--host", default="127.0.0.1", help="router bind host")
    cluster.add_argument("--port", type=int, default=7478, help="router bind port")
    cluster.add_argument("--items", type=int, default=8)
    cluster.add_argument("--orders", type=int, default=4)
    cluster.add_argument(
        "--threads", type=int, default=4, help="kernel worker threads per shard"
    )
    cluster.add_argument(
        "--max-inflight", type=int, default=4, dest="max_inflight",
        help="admission concurrency limit per shard (default: 4)",
    )
    cluster.add_argument(
        "--queue-cap", type=int, default=16, dest="queue_cap",
        help="bounded queue depth per request class per shard (default: 16)",
    )
    cluster.add_argument(
        "--default-deadline", type=float, default=1.0, dest="default_deadline",
        help="deadline for requests that do not carry one (default: 1.0s)",
    )
    cluster.add_argument(
        "--time-scale", type=float, default=0.0, dest="time_scale",
        help="seconds of real sleep per cost unit of Pause (default: 0)",
    )
    cluster.add_argument(
        "--think-cost", type=float, default=0.0, dest="think_cost",
        help="extra Pause cost inside each transaction (default: 0)",
    )
    cluster.add_argument(
        "--group-commit-window", type=float, default=0.0, dest="group_commit_window",
        help="per-shard WAL group-commit window in seconds (default: 0)",
    )
    cluster.add_argument(
        "--data-dir", metavar="DIR", default=None, dest="data_dir",
        help="base directory for shard partitions and the coordinator log "
        "(default: a fresh temp dir)",
    )
    cluster.set_defaults(fn=cmd_cluster)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
