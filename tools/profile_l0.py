#!/usr/bin/env python3
"""Profile the perfbench ladder's kernel rung (L0) or a served stack (stdlib only).

By default it runs the same input the ladder's L0 rung times —
``request_list("mem_uniform", seed, 0, n)`` → ``build_program`` →
``run_threaded_transactions(n_threads=1)`` — under ``cProfile`` *on the
threads ``run()`` starts* (the calling thread only joins them), and prints the
top functions by cumulative time as text.

``--served WORKLOAD`` instead starts the workload's perfbench stack
(``perfbench.stacks.make_stack``), has its clients replay *n* requests
each (``perfbench.loop.replay``), and profiles every thread this
process starts — server workers, admission, wire front-end and clients;
a cluster's shard processes are counted, not profiled.  Each thread
gets its own ``cProfile.Profile(time.thread_time)`` through
``threading.setprofile``, so the table is thread CPU time: lock waits,
socket waits and fsyncs, which dominate a wall-clock profile of a served
stack, count as nothing.
Under the table it prints this process's voluntary and involuntary
context switches per request over the replay (``resource.getrusage``
deltas), which is where a lock convoy shows, and the cyclic garbage
collector's collections per generation per 1 000 requests and objects
freed per request (``gc.get_stats()`` deltas), which count what a
request leaves in reference cycles.  For a cluster it then prints each
shard process's CPU per request (``/proc/<pid>/stat`` utime + stime
deltas over the replay) and its WAL fsyncs per request (the
``wal.group_commit.syncs`` delta of the shard's ``stats``), so the share
of the cluster's cost that the router's table cannot see still shows.
Both modes give each thread its own profiler; Python 3.12 made
``cProfile`` one process-wide profiler, so the tool needs Python 3.11 or
older.

Both modes read ``perfbench`` and change nothing in it.  ``cProfile``
charges every Python call and nothing inside native code, so the shares
find candidates; whether a change paid off is measured with profiling
off, through ``perfbench/run.py``.  ``cProfile`` also counts each resume
of a coroutine as a call, so the call counts and cumulative times of
``async def`` frames cannot be compared with those of plain functions.

Usage::

    python tools/profile_l0.py [--served WORKLOAD] [--seed N] [--requests N]
        [--top N] [--sort {cumulative,tottime}] [--out FILE] [--absent NAME]

``--requests`` is the L0 request count (default 600), or the count per
client with ``--served``, where it defaults to the workload's own size:
its ``ops_per_rep`` split over its clients (700 for ``mem_uniform``,
520 for the rest), so the order sets grow to what a bench run sees.
``--served`` prints, first under the table, the mean orders per item at
the end of the replay: every ``place`` adds one, and ``total-payment``
reads every order of its item, so its share grows with the run.
``--sort tottime`` ranks by self time (time in the function's own body,
callees excluded) instead of cumulative time; a cost spread thin over
many callers shows only there.  ``--absent time.sleep`` exits 1 if any function so named
was called at all — a count, not a timing: a zero-cost ``Pause`` must
yield, and a ``time.sleep`` row means the timer-slack sleep is back.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import os
import pstats
import resource
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: ``--sort`` keys (pstats sort keys) and how the table title names them.
SORT_LABELS = {"cumulative": "cumulative", "tottime": "self"}
for entry in (REPO_ROOT, REPO_ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


@contextmanager
def thread_profiles(timer=None):
    """Yield the list that receives one enabled ``cProfile.Profile`` per
    thread started inside the block (none for the calling thread)."""
    profilers: list[cProfile.Profile] = []

    def start_profiler(frame, event, arg) -> None:
        # First profile event of a new thread: hand the thread to its
        # own cProfile, which replaces this hook for that thread.
        profiler = cProfile.Profile() if timer is None else cProfile.Profile(timer)
        profilers.append(profiler)
        profiler.enable()

    threading.setprofile(start_profiler)
    try:
        yield profilers
    finally:
        threading.setprofile(None)


def merged(profilers: list[cProfile.Profile]) -> pstats.Stats:
    stats = pstats.Stats(profilers[0])
    for profiler in profilers[1:]:
        stats.add(profiler)
    return stats


def profile_l0(seed: int, n: int) -> pstats.Stats:
    from perfbench.stacks import build_database
    from perfbench.workloads import WORKLOADS, request_list
    from repro.runtime.threaded import run_threaded_transactions
    from repro.server.requests import build_program

    built = build_database(WORKLOADS["mem_uniform"].n_items)
    requests = request_list("mem_uniform", seed, 0, n)
    programs = [(f"l0-{i}", build_program(built, r)) for i, r in enumerate(requests)]

    with thread_profiles() as profilers:
        kernel = run_threaded_transactions(built.db, programs, n_threads=1)
    lost = [name for name, __ in programs if not kernel.handles[name].committed]
    if lost:
        raise RuntimeError(f"profile L0: {len(lost)} programs did not commit")
    return merged(profilers)


def shard_readings(stack) -> list[tuple[float, float]]:
    """(CPU seconds, WAL fsyncs) of each shard process of a cluster
    stack; ``[]`` for a stack without shard processes."""
    from repro.server.wire import TCPClient

    cluster = getattr(stack, "cluster", None)
    tick = os.sysconf("SC_CLK_TCK")
    readings = []
    for shard in cluster.shards if cluster is not None else ():
        with TCPClient(*shard.address) as tcp:
            syncs = tcp.stats()["metrics"]["counters"].get("wal.group_commit.syncs", 0)
        with open(f"/proc/{shard.proc.pid}/stat", encoding="ascii") as fh:
            # Fields 14 and 15 (utime, stime); the command name in field
            # 2 may hold spaces, so count from its closing parenthesis.
            fields = fh.read().rpartition(")")[2].split()
        readings.append(((int(fields[11]) + int(fields[12])) / tick, syncs))
    return readings


def profile_served(workload: str, seed: int, n: int) -> tuple[pstats.Stats, str]:
    from perfbench.loop import replay
    from perfbench.stacks import make_stack
    from perfbench.workloads import CLIENTS, ORDERS_PER_ITEM, WORKLOADS, request_list

    spec = WORKLOADS[workload]
    lists = [request_list(workload, seed, c, n) for c in range(CLIENTS)]
    with tempfile.TemporaryDirectory() as workdir:
        with thread_profiles(time.thread_time) as profilers:
            stack = make_stack(spec.stack, spec.n_items, workdir)
            clients = []
            try:
                stack.start()
                clients = [stack.client() for _ in range(CLIENTS)]
                shards_before = shard_readings(stack)
                before = resource.getrusage(resource.RUSAGE_SELF)
                gc_before = gc.get_stats()
                samples = replay(clients, lists)
                gc_after = gc.get_stats()
                after = resource.getrusage(resource.RUSAGE_SELF)
                shards_after = shard_readings(stack)
            finally:
                for client in clients:
                    client.close()
                stack.stop()
    failed = [s for s in samples if not s.response.ok]
    if failed:
        raise RuntimeError(f"profile {workload}: {len(failed)} requests failed")
    requests = len(samples)
    # Each placed line is one more order its item's total-payment reads.
    placed = sum(
        len(s.request.lines) if s.request.lines else 1
        for s in samples
        if s.request.op == "place"
    )
    orders = (
        f"mean orders per item at the end (replay only, no warm-up): "
        f"{ORDERS_PER_ITEM + placed / spec.n_items:.1f} ({ORDERS_PER_ITEM} built, "
        f"{placed} placed over {spec.n_items} items)\n"
    )
    # Lock convoys and GIL hand-offs cost context switches, which no
    # thread-CPU profile shows: count them over the replay.
    switches = (
        f"context switches per request (this process, getrusage over the replay of "
        f"{requests}): voluntary {(after.ru_nvcsw - before.ru_nvcsw) / requests:.2f}, "
        f"involuntary {(after.ru_nivcsw - before.ru_nivcsw) / requests:.2f}\n"
    )
    # What a request leaves in reference cycles only the cyclic
    # collector frees: its collections and the objects it freed.
    generations = list(enumerate(zip(gc_after, gc_before)))
    collections = ", ".join(
        f"gen{g} {(a['collections'] - b['collections']) * 1000 / requests:.1f}"
        for g, (a, b) in generations
    )
    collected = sum(a["collected"] - b["collected"] for __, (a, b) in generations) / requests
    cycles = (
        f"gc collections per 1 000 requests (gc.get_stats() over the replay): "
        f"{collections}; objects collected per request {collected:.2f}\n"
    )
    footer = orders + switches + cycles
    if shards_before:
        # The table covers this process only: say what the shards cost.
        pairs = list(enumerate(zip(shards_before, shards_after)))
        cpu = ", ".join(
            f"shard {i} {(a[0] - b[0]) * 1e3 / requests:.3f} ms" for i, (b, a) in pairs
        )
        syncs = ", ".join(f"shard {i} {(a[1] - b[1]) / requests:.3f}" for i, (b, a) in pairs)
        footer += (
            f"shard CPU per request (/proc/<pid>/stat utime + stime over the replay): {cpu}\n"
            f"shard WAL fsyncs per request (wal.group_commit.syncs from each shard's stats): "
            f"{syncs}\n"
        )
    return merged(profilers), footer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--served", metavar="WORKLOAD", help="profile this perfbench workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=None,
                        help="L0: 600 by default; --served: per client, the "
                        "workload's ops_per_rep // CLIENTS by default")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--sort", choices=SORT_LABELS, default="cumulative",
                        help="rank by cumulative time (default) or self time")
    parser.add_argument("--out", help="also write the table to this file")
    parser.add_argument("--absent", metavar="NAME", help="fail if a function so named was called")
    args = parser.parse_args(argv)

    if sys.version_info >= (3, 12):
        parser.error("one cProfile per thread needs Python 3.11 or older")
    footer = ""
    label = SORT_LABELS[args.sort]
    if args.served is None:
        requests = 600 if args.requests is None else args.requests
        stats = profile_l0(args.seed, requests)
        title = (
            f"L0 profile: mem_uniform seed={args.seed} requests={requests} "
            f"(cProfile on the batch threads, top {args.top} by {label} time)"
        )
    else:
        from perfbench.workloads import CLIENTS, WORKLOADS

        requests = args.requests
        if requests is None:
            requests = WORKLOADS[args.served].ops_per_rep // CLIENTS
        stats, footer = profile_served(args.served, args.seed, requests)
        title = (
            f"Served profile: {args.served} seed={args.seed} requests={requests} per "
            f"client (cProfile with time.thread_time on every thread, top {args.top} by "
            f"{label} CPU time; async def frames count each resume as a call)"
        )
    table = io.StringIO()
    stats.stream = table
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    text = title + "\n" + table.getvalue() + footer
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    if args.absent:
        calls = sum(row[1] for func, row in stats.stats.items() if args.absent in func[2])
        if calls:
            print(f"profile L0: {args.absent} was called {calls} times", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
