"""D1 — durable commit throughput and recovery time vs the in-memory WAL.

Three WAL configurations run the identical seeded order-entry workload:

* ``memory`` — the in-memory :class:`~repro.recovery.wal.WriteAheadLog`
  (the virtual-time default): no file, no fsync, the upper bound.
* ``fsync`` — :class:`~repro.storage.durable.DurableWriteAheadLog` with
  a zero group-commit window: every writer's commit/abort record forces
  its own ``fsync`` before the transaction releases its locks (a
  read-only transaction's rides the next sync).
* ``group`` — the same durable log with a nonzero window and batch cap:
  commits arriving close together share one ``fsync``.

The database itself stays in memory in every mode: the WAL is the only
recovery truth.  After the run the bench recovers the database *from
the on-disk file* (the in-memory mode saves its log in the same frame
format first) and verifies every mode digests to the identical
recovered state — a durability knob must change throughput, never
outcomes.

Reported per mode: wall-clock commit throughput, forced commits, fsync
count, mean forced commits per sync (the group-commit batching factor),
bytes written, and recovery wall time.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Any, Optional

from repro.obs import MetricsRegistry

#: (window seconds, batch cap) for the ``group`` mode.
GROUP_WINDOW = 0.010
GROUP_MAX = 8


def _counter(registry: MetricsRegistry, name: str) -> int:
    return registry.counter(name).value


def _run_mode(
    mode: str,
    seed: int,
    n_transactions: int,
    n_items: int,
    orders_per_item: int,
    workdir: str,
) -> dict[str, Any]:
    from repro.core.kernel import TransactionManager
    from repro.faults.durable import database_digest
    from repro.faults.torture import order_entry_scenario
    from repro.recovery import WriteAheadLog, recover
    from repro.runtime.scheduler import Scheduler
    from repro.storage.durable import DurableWriteAheadLog, load_wal_file

    scenario = order_entry_scenario(
        seed=seed,
        n_transactions=n_transactions,
        n_items=n_items,
        orders_per_item=orders_per_item,
    )
    db, programs = scenario.instantiate()
    mode_dir = os.path.join(workdir, mode)
    os.makedirs(mode_dir, exist_ok=True)
    wal_path = os.path.join(mode_dir, "wal.log")

    if mode == "memory":
        wal: WriteAheadLog = WriteAheadLog()
    elif mode == "fsync":
        wal = DurableWriteAheadLog(wal_path, group_commit_window=0.0)
    elif mode == "group":
        wal = DurableWriteAheadLog(
            wal_path, group_commit_window=GROUP_WINDOW, group_commit_max=GROUP_MAX
        )
    else:  # pragma: no cover - caller enumerates modes
        raise ValueError(f"unknown durability mode {mode!r}")

    metrics = MetricsRegistry()
    kernel = TransactionManager(
        db,
        protocol=scenario.protocol(),
        scheduler=Scheduler(policy=scenario.policy, seed=scenario.seed),
        wal=wal,
        obs=metrics,
    )
    for name, program in programs.items():
        kernel.spawn(name, program)

    started = time.perf_counter()
    kernel.run()
    if mode != "memory":
        wal.close()
    wall = time.perf_counter() - started

    commits = sum(1 for handle in kernel.handles.values() if handle.committed)
    syncs = _counter(metrics, "wal.group_commit.syncs")
    forced = _counter(metrics, "wal.group_commit.commits")
    result: dict[str, Any] = {
        "mode": mode,
        "commits": commits,
        "forced_commits": forced,
        "wall_seconds": round(wall, 6),
        "commits_per_sec": round(commits / wall, 1) if wall > 0 else 0.0,
        "fsyncs": syncs,
        "commits_per_sync": round(forced / syncs, 2) if syncs else 0.0,
        "deferred_commits": _counter(metrics, "wal.group_commit.deferred"),
        "wal_bytes": _counter(metrics, "wal.bytes_written"),
        "wal_file_bytes": os.path.getsize(wal_path) if mode != "memory" else 0,
    }

    # ----- recovery from what the disk holds -----
    if mode == "memory":
        wal.save_durable(wal_path)
        survivor = WriteAheadLog.load(wal_path)
    else:
        scan = load_wal_file(wal_path)
        survivor = scan.log
        result["torn_tail_bytes"] = scan.torn_bytes
    restored_db, __ = scenario.instantiate()
    recovery_started = time.perf_counter()
    recover(restored_db, survivor, scenario.type_specs)
    result["recovery_seconds"] = round(time.perf_counter() - recovery_started, 6)
    result["digest"] = database_digest(restored_db)
    result["live_digest"] = database_digest(db)
    return result


def run_durability_bench(
    seed: int = 7,
    n_transactions: int = 40,
    n_items: int = 4,
    orders_per_item: int = 3,
    workdir: Optional[str] = None,
) -> dict[str, Any]:
    """Run all three modes on the identical workload; see module doc.

    The returned document is JSON-serialisable (the CI artifact):
    ``modes`` holds one entry per configuration, ``consistent`` is True
    iff every mode's recovered digest matches every mode's live digest.
    """
    own_dir = None
    if workdir is None:
        own_dir = tempfile.TemporaryDirectory(prefix="repro-durability-bench-")
        workdir = own_dir.name
    try:
        modes = [
            _run_mode(mode, seed, n_transactions, n_items, orders_per_item, workdir)
            for mode in ("memory", "fsync", "group")
        ]
    finally:
        if own_dir is not None:
            own_dir.cleanup()
    digests = {m["digest"] for m in modes} | {m["live_digest"] for m in modes}
    return {
        "schema": "repro-durability-bench/1",
        "workload": {
            "seed": seed,
            "n_transactions": n_transactions,
            "n_items": n_items,
            "orders_per_item": orders_per_item,
        },
        "group_commit": {"window_seconds": GROUP_WINDOW, "max_batch": GROUP_MAX},
        "modes": modes,
        "consistent": len(digests) == 1,
    }


def durability_rows(doc: dict[str, Any]) -> list[dict[str, Any]]:
    """Flatten the bench document for the CLI table."""
    keep = (
        "mode",
        "commits",
        "forced_commits",
        "commits_per_sec",
        "fsyncs",
        "commits_per_sync",
        "wal_bytes",
        "recovery_seconds",
    )
    return [{k: m.get(k, "") for k in keep} for m in doc["modes"]]
