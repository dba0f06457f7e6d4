#!/usr/bin/env python3
"""Profile the kernel rung (L0) of the perfbench ladder (stdlib only).

Runs the same input the ladder's L0 rung times — ``request_list(
"mem_uniform", seed, 0, n)`` → ``build_program`` →
``run_threaded_transactions(n_threads=1)`` — under ``cProfile`` *on the
worker threads* (the calling thread only joins them), and prints the
top functions by cumulative time as text.  It reads ``perfbench`` and
changes nothing in it.

``cProfile`` charges every Python call and nothing inside native code,
so the shares find candidates; whether a change paid off is measured
with profiling off, through ``perfbench/run.py``.

Usage::

    python tools/profile_l0.py [--seed N] [--requests N] [--top N] [--out FILE]
        [--absent NAME]

``--absent time.sleep`` exits 1 if any function so named was called at
all — a count, not a timing: a zero-cost ``Pause`` must yield, and a
``time.sleep`` row means the timer-slack sleep is back.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT, REPO_ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


def profile_l0(seed: int, n: int) -> pstats.Stats:
    from perfbench.stacks import SERVER, build_database
    from perfbench.workloads import WORKLOADS, request_list
    from repro.runtime.threaded import run_threaded_transactions
    from repro.server.requests import build_program

    built = build_database(WORKLOADS["mem_uniform"].n_items)
    requests = request_list("mem_uniform", seed, 0, n)
    programs = [(f"l0-{i}", build_program(built, r)) for i, r in enumerate(requests)]

    profilers: list[cProfile.Profile] = []

    def start_profiler(frame, event, arg) -> None:
        # First profile event of a new thread: hand the thread to its
        # own cProfile, which replaces this hook for that thread.
        profiler = cProfile.Profile()
        profilers.append(profiler)
        profiler.enable()

    threading.setprofile(start_profiler)
    try:
        kernel = run_threaded_transactions(
            built.db, programs, n_threads=1, n_stripes=SERVER["n_stripes"]
        )
    finally:
        threading.setprofile(None)
    lost = [name for name, __ in programs if not kernel.handles[name].committed]
    if lost:
        raise RuntimeError(f"profile L0: {len(lost)} programs did not commit")
    stats = pstats.Stats(profilers[0])
    for profiler in profilers[1:]:
        stats.add(profiler)
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--out", help="also write the table to this file")
    parser.add_argument("--absent", metavar="NAME", help="fail if a function so named was called")
    args = parser.parse_args(argv)

    stats = profile_l0(args.seed, args.requests)
    table = io.StringIO()
    stats.stream = table
    stats.strip_dirs().sort_stats("cumulative").print_stats(args.top)
    text = (
        f"L0 profile: mem_uniform seed={args.seed} requests={args.requests} "
        f"(cProfile on the worker threads, top {args.top} by cumulative time)\n"
        + table.getvalue()
    )
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
