"""T1 — wall-clock parallelism of semantic locking on real threads.

Replays a commuting-update tally workload through the threaded runtime
(``ThreadedKernel`` over the striped ``ConcurrentLockTable``) across a
threads x contention grid, semantic locking vs object R/W 2PL.
Expected shape (asserted):

* every grid point is consistent — no lost or phantom updates, every
  transaction finishes;
* on the hot counter at >= 4 threads the semantic protocol out-runs the
  R/W baseline in *wall-clock* throughput: commuting ``Bump`` locks let
  think-time overlap on the pool, while a W lock held to commit
  serialises the whole transaction lifetime;
* the semantic protocol actually scales: more threads => more committed
  transactions per second on the contention-free spread;
* the worker pool scales: on the fully commuting hot ledger, 8 workers
  beat 1 (think-time dominates, so this holds even on a 2-core runner).
"""

from bench_common import print_rows

from repro.bench.parallelism import (
    parallelism_rows,
    run_parallelism_grid,
    run_scaling_sweep,
    scaling_rows,
    semantic_speedup,
)

THREAD_COUNTS = (1, 2, 4)
COUNTER_COUNTS = (1, 8)


def experiment():
    return run_parallelism_grid(
        thread_counts=THREAD_COUNTS, counter_counts=COUNTER_COUNTS
    )


def test_t1_parallelism(benchmark):
    points = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = parallelism_rows(points)
    print_rows(rows, "T1 — wall-clock throughput (committed/s) vs threads x contention")
    benchmark.extra_info["grid"] = [p.to_dict() for p in points]

    # integrity: every point finished all transactions, tallies add up
    for p in points:
        assert p.consistent, p

    # the headline: semantic >= 2PL wall-clock throughput at 4 threads
    # on the hot counter (typically ~2x; the margin absorbs CI noise)
    assert semantic_speedup(points, n_threads=4, n_counters=1) >= 1.1, rows

    # and the semantic protocol scales with the pool on the spread
    spread = {
        p.n_threads: p.throughput
        for p in points
        if p.protocol == "semantic" and p.n_objects == COUNTER_COUNTS[-1]
    }
    assert spread[4] > spread[1], spread


def test_t1_thread_scaling(benchmark):
    points = benchmark.pedantic(run_scaling_sweep, rounds=1, iterations=1)

    rows = scaling_rows(points)
    print_rows(rows, "T1 — hot-ledger throughput (committed/s) by worker count")
    benchmark.extra_info["sweep"] = [p.to_dict() for p in points]

    for p in points:
        assert p.consistent, p
    first, last = points[0], points[-1]
    assert (first.n_threads, last.n_threads) == (1, 8)
    assert last.throughput > first.throughput, rows
