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
process starts — server workers, admission, wire front-end and clients.
Each thread gets its own ``cProfile.Profile(time.thread_time)`` through
``threading.setprofile``, so the table is thread CPU time: lock waits,
socket waits and WAL forces, which dominate a wall-clock profile of a served
stack, count as nothing.  A cluster's shard processes get the same
per-thread profile: the tool starts each shard child as
:func:`profiled_shard` (this file, run by path) in place of ``python -m
repro.cluster.shard``, which profiles every thread the shard starts and
writes the merged stats when SIGTERM ends it, and it prints one table per
shard under the router process's table.
Under the table it prints this process's voluntary and involuntary
context switches per request over the replay (``resource.getrusage``
deltas), which is where a lock convoy shows, and the cyclic garbage
collector's collections per generation per 1 000 requests and objects
freed per request (``gc.get_stats()`` deltas), which count what a
request leaves in reference cycles.  For a cluster it then prints each
shard process's CPU per request (``/proc/<pid>/stat`` utime + stime
deltas over the replay) and its WAL forces per request (the
``wal.group_commit.syncs`` delta of the shard's ``stats``), so the share
of the cluster's cost that the router's table cannot see still shows.
Both modes give each thread its own profiler; Python 3.12 made
``cProfile`` one process-wide profiler, so the tool needs Python 3.11 or
older.

Both modes read ``perfbench`` and change nothing in it.  ``cProfile``
charges every Python call and nothing inside native code, so the shares
find candidates; whether a change paid off is measured with profiling
off, through ``perfbench/run.py``.  It inflates call-heavy code most: on
a ``cluster_2pc`` shard, ``attached_address`` (a walk up the object's
parents) reads 7 % of the shard's profiled CPU, cumulative, but about
1 % of a shard transaction timed alone.  The shard CPU per request
printed under the tables is read while the shards run under the
profiler, so it is that inflated too.  ``cProfile`` also counts each resume
of a coroutine as a call, so the call counts and cumulative times of
``async def`` frames cannot be compared with those of plain functions.

Usage::

    python tools/profile_l0.py [--served WORKLOAD] [--seed N] [--requests N]
        [--top N] [--sort {cumulative,tottime}] [--out FILE] [--absent NAME ...]

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
was called at all, in any table — a count, not a timing: a zero-cost
``Pause`` must yield, and a ``time.sleep`` row means the timer-slack
sleep is back.  ``--absent`` may be given more than once.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import io
import json
import os
import pstats
import resource
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

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


class Completed:
    """A profile's completed calls, read without disabling it.

    ``pstats.Stats(profiler)`` disables the profiler first, and that
    closes each frame still open on its thread (a handler blocked in
    ``recv_into`` when the shard stops, say) with the *merging* thread's
    ``thread_time``, which charges that thread's CPU to the open frame.
    Left open, such a frame counts only its completed callees."""

    def __init__(self, profiler: cProfile.Profile) -> None:
        profiler.snapshot_stats()
        self.stats = profiler.stats

    def create_stats(self) -> None:
        """Already done in ``__init__`` (``pstats.Stats`` calls it)."""


def merged(profilers: list[cProfile.Profile]) -> pstats.Stats:
    return pstats.Stats(*(Completed(profiler) for profiler in profilers))


#: What a profiled shard child runs: this file's :func:`profiled_shard`,
#: loaded by path (``sys.argv[1]``) on the shard's own arguments.
SHARD_CHILD = (
    "import runpy, sys; "
    "sys.exit(runpy.run_path(sys.argv[1])['profiled_shard'](*sys.argv[2:]))"
)


def profiled_shard(config_path: str, out_dir: str) -> int:
    """Run one shard process as ``python -m repro.cluster.shard --config
    CONFIG`` does, with a ``thread_time`` profile on every thread it
    starts; when SIGTERM ends it, write their merged stats to
    ``out_dir/shard-<id>.prof``."""
    from repro.cluster.shard import main as shard_main

    with open(config_path, encoding="utf-8") as fh:
        shard_id = json.load(fh)["shard_id"]
    with thread_profiles(time.thread_time) as profilers:
        code = shard_main(["--config", config_path])
    if profilers:
        merged(profilers).dump_stats(os.path.join(out_dir, f"shard-{shard_id}.prof"))
    return code


@contextmanager
def profiled_shards(out_dir: str):
    """Start each shard child launched inside the block as
    :func:`profiled_shard` writing to *out_dir*: ``ShardProcess.start``
    runs ``python -m repro.cluster.shard --config CONFIG``, and this
    swaps that command for :data:`SHARD_CHILD` over the same config."""
    popen = subprocess.Popen
    tool = str(Path(__file__).resolve())

    def start(args, *rest, **kwargs):
        if list(args[1:3]) == ["-m", "repro.cluster.shard"]:
            args = [args[0], "-c", SHARD_CHILD, tool, args[-1], out_dir]
        return popen(args, *rest, **kwargs)

    with mock.patch.object(subprocess, "Popen", start):
        yield


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
    """(CPU seconds, WAL forces) of each shard process of a cluster
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


def profile_served(
    workload: str, seed: int, n: int
) -> tuple[pstats.Stats, list[pstats.Stats], str]:
    """The stack's process profile, one profile per shard process (none
    without shards) and the lines printed under the tables."""
    from perfbench.loop import replay
    from perfbench.stacks import make_stack
    from perfbench.workloads import CLIENTS, ORDERS_PER_ITEM, WORKLOADS, request_list

    spec = WORKLOADS[workload]
    lists = [request_list(workload, seed, c, n) for c in range(CLIENTS)]
    # The shards' profiles go outside the stack's workdir, which
    # stack.stop() deletes.
    with tempfile.TemporaryDirectory() as workdir, tempfile.TemporaryDirectory() as shard_dir:
        with thread_profiles(time.thread_time) as profilers, profiled_shards(shard_dir):
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
        shard_stats = [
            pstats.Stats(os.path.join(shard_dir, f"shard-{i}.prof"))
            for i in range(len(shards_before))
        ]
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
            f"shard CPU per request (/proc/<pid>/stat utime + stime over the replay, "
            f"profiled): {cpu}\n"
            f"shard WAL forces per request (wal.group_commit.syncs from each shard's stats): "
            f"{syncs}\n"
        )
    return merged(profilers), shard_stats, footer


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
    parser.add_argument("--absent", metavar="NAME", action="append", default=[],
                        help="fail if a function so named was called (repeatable)")
    args = parser.parse_args(argv)

    if sys.version_info >= (3, 12):
        parser.error("one cProfile per thread needs Python 3.11 or older")
    footer = ""
    shard_stats: list[pstats.Stats] = []
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
        stats, shard_stats, footer = profile_served(args.served, args.seed, requests)
        title = (
            f"Served profile: {args.served} seed={args.seed} requests={requests} per "
            f"client (cProfile with time.thread_time on every thread, top {args.top} by "
            f"{label} CPU time; async def frames count each resume as a call)"
        )
    titled = [(title, stats)] + [
        (
            f"Shard {i} process profile (cProfile with time.thread_time on every thread "
            f"the shard starts, top {args.top} by {label} CPU time)",
            shard,
        )
        for i, shard in enumerate(shard_stats)
    ]
    table = io.StringIO()
    for heading, table_stats in titled:
        table.write(heading + "\n")
        table_stats.stream = table
        table_stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    text = table.getvalue() + footer
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    present = False
    for name in args.absent:
        calls = sum(
            row[1]
            for __, table_stats in titled
            for func, row in table_stats.stats.items()
            if name in func[2]
        )
        if calls:
            print(f"profile L0: {name} was called {calls} times", file=sys.stderr)
            present = True
    return 1 if present else 0


if __name__ == "__main__":
    sys.exit(main())
