"""One shard server process: durable kernel + wire front + 2PC participant.

``python -m repro.cluster.shard --config shard.json`` boots a
:class:`~repro.server.core.TransactionServer` over its own durable
partition (the file-backed WAL under ``data_dir``; the database itself
lives in memory) and serves the newline-JSON wire protocol plus the
``2pc-*`` participant ops.

**Fresh boot** builds the deterministic order-entry database and
serves.  **Restart** (the WAL file exists)
first replays crash recovery — analysis / redo / multi-level undo from
the surviving WAL onto a fresh build — then resolves every *in-doubt*
cross-shard transaction (durable prepare without a durable decision) by
querying the coordinator's ``2pc-status`` endpoint: a ``commit`` answer
stands, an ``abort`` answer compensates any locally-committed branch
under a WAL-wired kernel, and ``pending`` retries until the coordinator
has decided.  Durable abort decisions whose compensation never
committed (a crash between the decision record and the compensation
commit) have the compensation re-run directly, no coordinator query
needed.  Once doubt is resolved, the shard re-announces its durable ack
high-water mark and applied-decision list to the coordinator
(``2pc-ack``, best-effort) so fully-applied decisions lost in the crash
window become truncatable from the coordinator log.  Only then does the
shard open its port and write the ready file, so the router never sees
a shard with unresolved doubt.

The crash switch (``config["crash"]``) arms one named 2PC site
(:data:`repro.cluster.participant.CRASH_SITES`): on the k-th hit the
process durably drops a marker file and SIGKILLs itself — the shard-kill
torture harness's instrument.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Optional, Sequence

from repro.cluster.files import (
    CRASH_MARKER_FILENAME,
    READY_FILENAME,
    WAL_FILENAME,
)
from repro.cluster.participant import (
    ClusterParticipant,
    applied_decisions,
    resolve_in_doubt,
)
from repro.core.kernel import TransactionManager
from repro.errors import CompensationError
from repro.orderentry.schema import ITEM_TYPE, ORDER_TYPE, build_order_entry_database
from repro.recovery.manager import recover
from repro.runtime.scheduler import Scheduler
from repro.server.admission import AdmissionConfig
from repro.server.core import TransactionServer
from repro.server.wire import TCPClient, WireServer
from repro.storage.durable import DurableWriteAheadLog

__all__ = ["CrashSwitch", "run_shard", "main", "WAL_FILENAME"]


def _write_json_durably(path: str, payload: dict[str, Any]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class CrashSwitch:
    """Arms one 2PC crash site; fires a real SIGKILL on the k-th hit."""

    def __init__(self, spec: Optional[dict[str, Any]], marker_dir: str) -> None:
        self.site = spec.get("site") if spec else None
        self.hits_needed = int(spec.get("hits", 1)) if spec else 1
        self.marker_path = os.path.join(marker_dir, CRASH_MARKER_FILENAME)
        self._hits = 0
        self._lock = threading.Lock()

    def maybe(self, site: str) -> None:
        if self.site != site:
            return
        with self._lock:
            self._hits += 1
            if self._hits < self.hits_needed:
                return
        _write_json_durably(self.marker_path, {"site": site, "hit": self._hits})
        os.kill(os.getpid(), signal.SIGKILL)


def _query_coordinator(
    gtid: str, coordinator: str, timeout: float = 10.0
) -> str:
    """Ask the coordinator's durable log for a gtid's outcome.

    Retries both ``pending`` answers (the coordinator is mid-protocol)
    and connection errors (it may be restarting) until *timeout*; a
    shard must not serve with unresolved doubt, so exhausting the budget
    raises instead of guessing.
    """
    host, _, port = coordinator.rpartition(":")
    deadline = time.monotonic() + timeout
    last_error: Optional[BaseException] = None
    while time.monotonic() < deadline:
        try:
            with TCPClient(host, int(port), timeout=2.0) as client:
                answer = client.request({"op": "2pc-status", "gtid": gtid}).get("result")
            if answer in ("commit", "abort"):
                return answer
            last_error = None  # pending: retry
        except (OSError, ValueError) as exc:
            last_error = exc
        time.sleep(0.05)
    raise RuntimeError(
        f"in-doubt gtid {gtid}: coordinator {coordinator} gave no decision "
        f"within {timeout}s ({last_error!r})"
    )


def _send_boot_acks(
    coordinator: str, shard_id: int, participant: ClusterParticipant
) -> None:
    """Re-announce this shard's durable acks to the coordinator.

    Best-effort by design: the announcement only licenses coordinator-log
    truncation, so a lost send merely leaves fully-applied decisions in
    the coordinator's file until the next boot (or inline ack) covers
    them.  Sends both the seq high-water mark (covers decisions applied
    through the normal wire path) and the full applied-gtid list (covers
    decisions learned through in-doubt resolution, which carry no seq).
    """
    if not coordinator:
        return
    gtids = applied_decisions(participant.wal)
    book = participant.acks
    if not gtids and book.hwm == 0 and not book.extra:
        return
    host, _, port = coordinator.rpartition(":")
    message = {
        "op": "2pc-ack",
        "shard": shard_id,
        "hwm": book.hwm,
        "extra": list(book.extra),
        "gtids": gtids,
    }
    try:
        with TCPClient(host, int(port), timeout=2.0) as client:
            client.request(message)
    except (OSError, ValueError):
        pass


def run_shard(config: dict[str, Any]) -> int:
    data_dir = config["data_dir"]
    os.makedirs(data_dir, exist_ok=True)
    wal_path = os.path.join(data_dir, WAL_FILENAME)
    resume = os.path.exists(wal_path) and os.path.getsize(wal_path) > 0
    crash = CrashSwitch(config.get("crash"), data_dir)

    built = build_order_entry_database(
        n_items=int(config.get("n_items", 4)),
        orders_per_item=int(config.get("orders_per_item", 4)),
    )
    wal = DurableWriteAheadLog(
        wal_path,
        group_commit_window=float(config.get("group_commit_window", 0.0)),
        buffering=int(config.get("wal_buffering", 64)),
    )
    type_specs = {"Item": ITEM_TYPE, "Order": ORDER_TYPE}
    recovery_summary: dict[str, Any] = {"recovered": False}
    if resume:
        report = recover(built.db, wal, type_specs)

        def run_program(name: str, program) -> None:
            kernel = TransactionManager(built.db, scheduler=Scheduler(), wal=wal)
            handle = kernel.spawn(name, program)
            kernel.run()
            if not handle.committed:
                raise CompensationError(
                    f"recovery compensation {name} failed: {handle.error!r}"
                )

        outcomes = resolve_in_doubt(
            built.db,
            wal,
            query_status=lambda gtid, coordinator: _query_coordinator(
                gtid,
                coordinator or config.get("coordinator", ""),
                timeout=float(config.get("coordinator_timeout", 10.0)),
            ),
            run_program=run_program,
        )
        recovery_summary = {
            "recovered": True,
            "winners": len(report.winners),
            "losers": len(report.losers),
            "compensated": report.compensated,
            "physically_undone": report.physically_undone,
            "in_doubt": outcomes,
        }

    server = TransactionServer(
        built,
        n_threads=int(config.get("n_threads", 4)),
        time_scale=float(config.get("time_scale", 0.0)),
        think_cost=float(config.get("think_cost", 0.0)),
        admission=AdmissionConfig(
            max_inflight=int(config.get("max_inflight", 4)),
            queue_cap=int(config.get("queue_cap", 16)),
        ),
        default_deadline=float(config.get("default_deadline", 1.0)),
        wal=wal,
    ).start()
    participant = ClusterParticipant(server, wal, crash=crash.maybe)
    if resume:
        _send_boot_acks(
            str(config.get("coordinator", "")),
            int(config.get("shard_id", 0)),
            participant,
        )
    wire = WireServer(
        server,
        host=config.get("host", "127.0.0.1"),
        port=int(config.get("port", 0)),
        extra_ops=participant.wire_ops(),
    ).start()

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    _write_json_durably(
        os.path.join(data_dir, READY_FILENAME),
        {
            "host": wire.address[0],
            "port": wire.address[1],
            "pid": os.getpid(),
            "shard_id": config.get("shard_id", 0),
            "recovery": recovery_summary,
        },
    )
    try:
        while not stop.is_set():
            wal.flush_if_due()
            stop.wait(0.05)
    finally:
        wire.stop()
        server.shutdown()
        wal.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.cluster.shard")
    parser.add_argument("--config", required=True, metavar="CONFIG_JSON")
    args = parser.parse_args(argv)
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    return run_shard(config)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
