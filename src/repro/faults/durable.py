"""Real-process crash torture: SIGKILL a child, recover from its files.

The in-process sweep (:mod:`repro.faults.torture`) proves the recovery
*logic* at every crash point, but its WAL only pretends to be durable (a
pickle written after the fact by the surviving process).  This module
closes the loop: for every crash point a **child process** runs the same
seeded scenario against a real file-backed WAL
(:class:`~repro.storage.durable.DurableWriteAheadLog`, fsync-per-commit
by default) and a real page file behind the buffer pool, and when the
injected :class:`~repro.errors.CrashPoint` fires the child writes a tiny
verdict file (the two checks only its own memory can answer: lock
hygiene and surviving-history serializability) and then **SIGKILLs
itself** — no atexit handlers, no buffer flushes, exactly what the OS
does to a crashed database server.  The parent then:

1. confirms the child really died by signal;
2. reads the surviving ``wal.log`` through the checksummed frame
   scanner — a torn trailing record (the kill landed mid-write, or the
   user-space file buffer died un-flushed) is detected and discarded;
3. scans the surviving page file for torn pages (detected, counted,
   never read as truth);
4. runs full recovery from the scanned log onto a fresh database and
   compares against a serial execution of exactly the durably committed
   transactions — the same oracle the in-process sweep uses.

Children are forked by default (cheap: no interpreter start-up, and the
scenario is re-instantiated from its seed so no parent state leaks into
the run); ``mode="spawn"`` launches ``python -m repro.faults.durable
--child config.json`` instead, proving the whole thing also works from a
cold interpreter.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Optional, Sequence

from repro.faults.torture import (
    CrashOutcome,
    TortureReport,
    TortureScenario,
    _durable_winners,
    _leak_check,
    _SerialOracle,
    _surviving_history,
    order_entry_scenario,
    state_of,
)
from repro.protocols import protocol_by_name

WAL_FILENAME = "wal.log"
STORE_DIRNAME = "store"
VERDICT_FILENAME = "verdict.json"
ERROR_FILENAME = "child-error.txt"

#: Buffer-pool capacity for torture children: deliberately tiny so the
#: run forces evictions, dirty writebacks, and WAL-before-data syncs
#: while crashes are flying.
CHILD_POOL_CAPACITY = 4


def database_digest(db, exclude: tuple[str, ...] = ("NextOrderNo",)) -> str:
    """A stable hex digest of the database's comparable logical state.

    Two databases digest equal iff :func:`repro.faults.torture.state_of`
    returns equal states — the currency of the recovery-determinism
    regression test and the durability bench's cross-mode check.
    """
    state = state_of(db, exclude)
    blob = repr(sorted(state.items())).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _scenario_from_config(config: dict[str, Any]) -> TortureScenario:
    return order_entry_scenario(
        seed=config["seed"],
        n_transactions=config["n_transactions"],
        n_items=config["n_items"],
        orders_per_item=config["orders_per_item"],
        protocol=protocol_by_name(config["protocol"]),
        policy=config["policy"],
    )


def _write_json_durably(path: str, payload: dict[str, Any]) -> None:
    """tmp + fsync + rename: the file either exists whole or not at all."""
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


# ----------------------------------------------------------------------
# The child: run, write the verdict, die for real
# ----------------------------------------------------------------------
def _child_execute(config: dict[str, Any]) -> None:
    """Run one crash point in *this* process; SIGKILL on the crash.

    Returns normally only when the injected point was never reached
    (the run finished first) — durability is then flushed cleanly.
    """
    from repro.core.kernel import TransactionManager
    from repro.core.serializability import is_semantically_serializable
    from repro.errors import CrashPoint
    from repro.faults.plan import FaultPlan
    from repro.runtime.scheduler import Scheduler
    from repro.storage.durable import DurableStorageManager, DurableWriteAheadLog

    point_dir = config["point_dir"]
    scenario = _scenario_from_config(config)
    db, programs = scenario.instantiate()
    # A deliberately tiny write buffer: appended frames spill to the OS
    # ahead of the fsync horizon, so the surviving file holds in-flight
    # records the recovery scan must classify (and would hold torn tails
    # on a mid-write kill; byte-level tears are additionally swept by the
    # truncation property test, which cuts at *every* offset).
    wal = DurableWriteAheadLog(
        os.path.join(point_dir, WAL_FILENAME),
        group_commit_window=config.get("gc_window", 0.0),
        buffering=config.get("wal_buffering", 64),
    )
    db.storage = DurableStorageManager.adopt(
        db.storage,
        os.path.join(point_dir, STORE_DIRNAME),
        wal=wal,
        pool_capacity=config.get("pool_capacity", CHILD_POOL_CAPACITY),
    )
    kind, at = config["kind"], config["at"]
    plan = (
        FaultPlan.crash_at_step(at) if kind == "step" else FaultPlan.crash_at_wal_record(at)
    )
    kernel = TransactionManager(
        db,
        protocol=scenario.protocol(),
        scheduler=Scheduler(policy=scenario.policy, seed=scenario.seed),
        wal=wal,
        faults=plan,
    )
    for name, program in programs.items():
        kernel.spawn(name, program)
    try:
        kernel.run()
    except CrashPoint as crash:
        verdict = {
            "crashed": True,
            "site": crash.site,
            "leaks": list(_leak_check(kernel)),
            "serializable": bool(
                is_semantically_serializable(
                    _surviving_history(kernel), db=kernel.db
                ).serializable
            ),
        }
        _write_json_durably(os.path.join(point_dir, VERDICT_FILENAME), verdict)
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable: SIGKILL did not kill us")
    # The fault never fired (point beyond the run): finish cleanly.
    db.storage.close()
    wal.close()
    _write_json_durably(os.path.join(point_dir, VERDICT_FILENAME), {"crashed": False})


def _run_child(config: dict[str, Any], mode: str, timeout: float) -> bool:
    """Execute one crash point in a doomed child; True if it died by SIGKILL."""
    point_dir = config["point_dir"]
    if mode == "fork" and hasattr(os, "fork"):
        pid = os.fork()
        if pid == 0:  # ---- the child ----
            try:
                _child_execute(config)
            except BaseException:  # noqa: BLE001 - report then die unflushed
                import traceback

                with open(os.path.join(point_dir, ERROR_FILENAME), "w") as fh:
                    traceback.print_exc(file=fh)
                os._exit(70)
            os._exit(0)
        status = _wait_with_timeout(pid, timeout)
        if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
            return True
        if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
            return False
        raise RuntimeError(_child_failure_message(point_dir, f"wait status {status}"))
    # ---- spawn mode: a cold interpreter ----
    config_path = os.path.join(point_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.faults.durable", "--child", config_path],
        env=env,
        timeout=timeout,
        capture_output=True,
    )
    if proc.returncode == -signal.SIGKILL:
        return True
    if proc.returncode == 0:
        return False
    raise RuntimeError(
        _child_failure_message(
            point_dir, f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-2000:]}"
        )
    )


def _wait_with_timeout(pid: int, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done == pid:
            return status
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise TimeoutError(f"torture child {pid} hung past {timeout}s; killed")
        time.sleep(0.005)


def _child_failure_message(point_dir: str, detail: str) -> str:
    error_path = os.path.join(point_dir, ERROR_FILENAME)
    if os.path.exists(error_path):
        with open(error_path) as fh:
            detail = fh.read()[-2000:]
    return f"torture child failed (not a SIGKILL death): {detail}"


# ----------------------------------------------------------------------
# The parent: spawn, confirm death, recover from the wreckage
# ----------------------------------------------------------------------
def run_durable_torture(
    seed: int = 0,
    n_transactions: int = 4,
    n_items: int = 2,
    orders_per_item: int = 2,
    protocol: str = "semantic",
    policy: str = "fifo",
    steps: Optional[int] = None,
    step_stride: int = 1,
    wal_sweep: bool = True,
    workdir: Optional[str] = None,
    mode: str = "fork",
    gc_window: float = 0.0,
    child_timeout: float = 120.0,
    max_seconds: Optional[float] = None,
) -> TortureReport:
    """SIGKILL a child at every crash point; recover from its files.

    Same sweep construction as :func:`repro.faults.torture.run_torture`
    (every scheduler step plus every WAL-record boundary of a reference
    run), but every point is a real process death: the verdicts come
    from the surviving ``wal.log`` / ``pages.db`` on disk plus the tiny
    verdict file the child fsyncs before killing itself.  *max_seconds*
    stops the sweep when the wall-clock budget runs out and marks the
    report ``truncated`` (partial-but-honest, as in ``run_torture``).
    """
    from repro.faults.torture import _run_instance
    from repro.recovery import recover
    from repro.storage.durable import DurableStorageManager, load_wal_file

    if mode not in ("fork", "spawn"):
        raise ValueError(f"unknown child mode {mode!r} (know: fork, spawn)")
    started = time.perf_counter()
    scenario = order_entry_scenario(
        seed=seed,
        n_transactions=n_transactions,
        n_items=n_items,
        orders_per_item=orders_per_item,
        protocol=protocol_by_name(protocol),
        policy=policy,
    )
    reference, ref_wal, ref_crash = _run_instance(scenario)
    assert ref_crash is None, "reference run must not crash"
    report = TortureReport(
        scenario=f"durable-{scenario.name}",
        seed=seed,
        total_steps=reference.scheduler.steps,
        wal_records=len(ref_wal),
        durable=True,
    )
    oracle = _SerialOracle(scenario)

    step_points = list(range(0, report.total_steps, max(1, step_stride)))
    if steps is not None and len(step_points) > steps:
        stride = max(1, len(step_points) // steps)
        step_points = step_points[::stride][:steps]
    points = [("step", k) for k in step_points]
    if wal_sweep:
        points += [("wal", n) for n in range(1, report.wal_records + 1)]
    report.planned_points = len(points)

    own_dir = None
    if workdir is None:
        own_dir = tempfile.TemporaryDirectory(prefix="repro-durable-torture-")
        workdir = own_dir.name
    try:
        for kind, at in points:
            if max_seconds is not None and time.perf_counter() - started >= max_seconds:
                report.truncated = True
                break
            point_dir = os.path.join(workdir, f"{kind}-{at}")
            os.makedirs(point_dir, exist_ok=True)
            config = {
                "seed": seed,
                "n_transactions": n_transactions,
                "n_items": n_items,
                "orders_per_item": orders_per_item,
                "protocol": protocol,
                "policy": policy,
                "kind": kind,
                "at": at,
                "point_dir": point_dir,
                "gc_window": gc_window,
            }
            killed = _run_child(config, mode, child_timeout)
            report.outcomes.append(
                _analyze_point(
                    scenario, oracle, kind, at, point_dir, killed,
                    recover=recover,
                    load_wal_file=load_wal_file,
                    open_store=DurableStorageManager.open,
                )
            )
    finally:
        if own_dir is not None:
            own_dir.cleanup()
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _analyze_point(
    scenario: TortureScenario,
    oracle: _SerialOracle,
    kind: str,
    at: int,
    point_dir: str,
    killed: bool,
    *,
    recover,
    load_wal_file,
    open_store,
) -> CrashOutcome:
    verdict_path = os.path.join(point_dir, VERDICT_FILENAME)
    if not os.path.exists(verdict_path):
        raise RuntimeError(
            f"{kind}@{at}: child died without a verdict file — "
            "the crash fired before the kernel, or the fsync'd write failed"
        )
    with open(verdict_path, encoding="utf-8") as fh:
        verdict = json.load(fh)
    if verdict["crashed"] != killed:
        raise RuntimeError(
            f"{kind}@{at}: verdict says crashed={verdict['crashed']} but the "
            f"child {'died by SIGKILL' if killed else 'exited normally'}"
        )
    outcome = CrashOutcome(
        kind=kind, at=at, crashed=verdict["crashed"], process_killed=killed
    )
    if not outcome.crashed:
        return outcome  # the fault never fired; nothing to verify
    outcome.crash_site = verdict["site"]
    outcome.leaks = tuple(verdict["leaks"])
    outcome.serializable = bool(verdict["serializable"])

    # The durable truth: the surviving WAL file, torn tail discarded.
    scan = load_wal_file(os.path.join(point_dir, WAL_FILENAME))
    outcome.torn_tail_bytes = scan.torn_bytes

    # The surviving page file: torn pages must be *detected*, not read.
    store, store_report = open_store(os.path.join(point_dir, STORE_DIRNAME))
    store.pagefile.close()
    outcome.torn_pages = len(store_report.torn_pages)

    winners = tuple(_durable_winners(scan.log))
    outcome.winners = winners
    outcome.losers = tuple(
        t for t in scan.log.transactions() if scan.log.status_of(t) == "in-flight"
    )

    restored_db, __ = scenario.instantiate()
    recovery_started = time.perf_counter()
    recovery = recover(restored_db, scan.log, scenario.type_specs)
    outcome.recovery_seconds = time.perf_counter() - recovery_started
    outcome.compensated = recovery.compensated
    outcome.physically_undone = recovery.physically_undone

    oracle_state, __ = oracle.run(winners)
    outcome.state_ok = state_of(restored_db, scenario.exclude_paths) == oracle_state
    # Result equivalence needs the dead child's in-memory handles;
    # the in-process sweep covers that axis.
    return outcome


# ----------------------------------------------------------------------
# Spawn-mode entry point: ``python -m repro.faults.durable --child cfg``
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.faults.durable")
    parser.add_argument("--child", metavar="CONFIG", required=True)
    args = parser.parse_args(argv)
    with open(args.child, encoding="utf-8") as fh:
        config = json.load(fh)
    _child_execute(config)  # SIGKILLs itself unless the point was unreached
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
