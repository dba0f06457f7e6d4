"""D1 (extension) — durable commit throughput and recovery from disk.

The identical seeded order-entry workload runs under three WAL modes:
the in-memory log (no file, the upper bound), the file-backed log with
fsync-per-commit, and the same log with group commit (10 ms window,
batch cap 8).  The durable modes recover *from the surviving WAL
file*; the database itself stays in memory.

Expected (asserted): every mode recovers to the bit-identical state
digest; fsync-per-commit issues at least one sync per forced (writer)
commit — read-only transactions force none — while group commit batches
several forced commits per sync; the durable log actually
wrote bytes and closed without a torn tail.
"""

from repro.bench.durability import run_durability_bench


def experiment():
    return run_durability_bench(seed=7, n_transactions=30, n_items=3)


def test_d1_durability(benchmark):
    doc = benchmark.pedantic(experiment, rounds=1, iterations=1)

    from bench_common import print_rows
    from repro.bench.durability import durability_rows

    print_rows(durability_rows(doc), "D1 — commit throughput per WAL mode")

    modes = {m["mode"]: m for m in doc["modes"]}
    assert doc["consistent"], "recovered digests diverge across WAL modes"
    assert modes["memory"]["commits"] == modes["fsync"]["commits"] == modes["group"]["commits"]

    # fsync-per-commit: every forced (writer) commit/abort record got its
    # own sync; the T3/T5 readers force none, so there are fewer of them
    # than commits.
    assert 0 < modes["fsync"]["forced_commits"] < modes["fsync"]["commits"]
    assert modes["fsync"]["fsyncs"] >= modes["fsync"]["forced_commits"]
    assert modes["fsync"]["deferred_commits"] == 0

    # group commit: strictly fewer syncs, batching > 1 commit per sync.
    assert modes["group"]["fsyncs"] < modes["fsync"]["fsyncs"]
    assert modes["group"]["commits_per_sync"] > 1.0
    assert modes["group"]["deferred_commits"] > 0

    # the durable stack really hit the disk and came back whole
    for mode in ("fsync", "group"):
        assert modes[mode]["wal_bytes"] > 0
        assert modes[mode]["wal_file_bytes"] >= modes[mode]["wal_bytes"]
        assert modes[mode]["torn_tail_bytes"] == 0  # clean shutdown
        assert modes[mode]["recovery_seconds"] > 0
