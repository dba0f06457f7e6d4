"""Real-process crash torture: SIGKILL a child, recover from its files.

The in-process sweep (:mod:`repro.faults.torture`) proves the recovery
*logic* at every crash point, but its WAL only pretends to be durable (a
pickle written after the fact by the surviving process).  This module
closes the loop: for every crash point a **child process** runs the same
seeded scenario against a real file-backed WAL
(:class:`~repro.storage.durable.DurableWriteAheadLog`, fsync-per-commit
by default) over the in-memory database, and when the injected
:class:`~repro.errors.CrashPoint` fires the child writes a tiny verdict
file (the two checks only its own memory can answer: lock hygiene and
surviving-history serializability) and then **SIGKILLs itself** — no
atexit handlers, no buffer flushes, exactly what the OS does to a
crashed database server.  The parent then:

1. confirms the child really died by signal;
2. reads the surviving ``wal.log`` through the checksummed frame
   scanner — a torn trailing record (the kill landed mid-write) is
   detected and discarded, and frames appended after the last force
   died in the child's log buffer;
3. runs full recovery from the scanned log onto a fresh database and
   compares against a serial execution of exactly the durably committed
   transactions — the same oracle the in-process sweep uses.

Children are ``multiprocessing`` processes, forked by default (cheap: no
interpreter start-up, and the scenario is re-instantiated from its seed
so no parent state leaks into the run); ``mode="spawn"`` starts each in
a cold interpreter instead, proving the files alone carry the state, and
is what runs on a platform without ``os.fork``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import signal
from typing import Any, Optional

from repro.faults.torture import (
    CrashOutcome,
    TortureReport,
    TortureScenario,
    _run_instance,
    check_recovery,
    corpse_checks,
    crash_plan,
    crash_points,
    order_entry_scenario,
    state_of,
    sweep,
)
from repro.protocols import protocol_by_name
from repro.storage.durable import DurableWriteAheadLog, load_wal_file

WAL_FILENAME = "wal.log"
VERDICT_FILENAME = "verdict.json"

#: A hung child is killed after this long, and the sweep fails loudly.
CHILD_TIMEOUT = 120.0


def database_digest(db) -> str:
    """A stable hex digest of the database's comparable logical state.

    Two databases digest equal iff :func:`repro.faults.torture.state_of`
    returns equal states — the currency of the recovery-determinism
    regression test and the durability bench's cross-mode check.
    """
    blob = repr(sorted(state_of(db).items())).encode("utf-8")
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
    (the run finished first) — the WAL is then closed cleanly.
    """
    point_dir = config["point_dir"]

    def open_wal() -> DurableWriteAheadLog:
        # Frames reach the file only when a force writes the log buffer,
        # so the surviving file is the append-order prefix up to the last
        # force: every writer's commit and whatever was appended before it.
        return DurableWriteAheadLog(os.path.join(point_dir, WAL_FILENAME))

    kernel, wal, crash = _run_instance(
        _scenario_from_config(config), crash_plan(config["kind"], config["at"]), open_wal
    )
    if crash is not None:
        failures, leaks = corpse_checks(kernel)
        verdict = {
            "crashed": True,
            "site": crash.site,
            "failures": failures,
            "leaks": leaks,
        }
        _write_json_durably(os.path.join(point_dir, VERDICT_FILENAME), verdict)
        os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("unreachable: SIGKILL did not kill us")
    # The fault never fired (point beyond the run): finish cleanly.
    wal.close()
    _write_json_durably(os.path.join(point_dir, VERDICT_FILENAME), {"crashed": False})


def _run_child(config: dict[str, Any], mode: str) -> bool:
    """Execute one crash point in a doomed child; True if it died by SIGKILL."""
    method = mode if hasattr(os, "fork") else "spawn"
    child = multiprocessing.get_context(method).Process(target=_child_execute, args=(config,))
    child.start()
    child.join(CHILD_TIMEOUT)
    if child.is_alive():
        child.kill()
        child.join()
        raise TimeoutError(f"torture child {child.pid} hung past {CHILD_TIMEOUT}s; killed")
    if child.exitcode == -signal.SIGKILL:
        return True
    if child.exitcode == 0:
        return False
    raise RuntimeError(
        f"torture child failed (not a SIGKILL death): exit code {child.exitcode}; "
        "its traceback is on stderr"
    )


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
    wal_sweep: bool = True,
    workdir: Optional[str] = None,
    mode: str = "fork",
    max_seconds: Optional[float] = None,
) -> TortureReport:
    """SIGKILL a child at every crash point; recover from its files.

    The same :func:`~repro.faults.torture.crash_points` grid and
    :func:`~repro.faults.torture.sweep` loop as the in-process sweep,
    but every point is a real process death: the verdicts come from the
    surviving ``wal.log`` on disk plus the tiny verdict file the child
    fsyncs before killing itself.
    """
    if mode not in ("fork", "spawn"):
        raise ValueError(f"unknown child mode {mode!r} (know: fork, spawn)")
    config = {
        "seed": seed,
        "n_transactions": n_transactions,
        "n_items": n_items,
        "orders_per_item": orders_per_item,
        "protocol": protocol,
        "policy": policy,
    }
    scenario = _scenario_from_config(config)
    points, sizes = crash_points(scenario, steps, wal_sweep)
    report = TortureReport(
        f"durable-{scenario.name}", seed, {"harness": "sigkill", "mode": mode, **sizes}
    )

    def run_point(label: str, point: tuple[str, int], point_dir: str) -> CrashOutcome:
        kind, at = point
        killed = _run_child({**config, "kind": kind, "at": at, "point_dir": point_dir}, mode)
        return _analyze_point(scenario, label, point_dir, killed)

    return sweep(report, points, run_point, workdir, max_seconds)


def _analyze_point(
    scenario: TortureScenario, label: str, point_dir: str, killed: bool
) -> CrashOutcome:
    verdict_path = os.path.join(point_dir, VERDICT_FILENAME)
    if not os.path.exists(verdict_path):
        raise RuntimeError(
            f"{label}: child died without a verdict file — "
            "the crash fired before the kernel, or the fsync'd write failed"
        )
    with open(verdict_path, encoding="utf-8") as fh:
        verdict = json.load(fh)
    if verdict["crashed"] != killed:
        raise RuntimeError(
            f"{label}: verdict says crashed={verdict['crashed']} but the "
            f"child {'died by SIGKILL' if killed else 'exited normally'}"
        )
    outcome = CrashOutcome(label=label, crashed=verdict["crashed"], process_killed=killed)
    if not outcome.crashed:
        return outcome  # the fault never fired; nothing to verify
    outcome.crash_site = verdict["site"]
    outcome.failures = tuple(verdict["failures"])
    outcome.detail["leaks"] = verdict["leaks"]

    # The durable truth: the surviving WAL file, torn tail discarded.
    scan = load_wal_file(os.path.join(point_dir, WAL_FILENAME))
    outcome.detail["torn_tail_bytes"] = scan.torn_bytes

    # Result equivalence needs the dead child's in-memory handles;
    # the in-process sweep covers that axis.
    check_recovery(outcome, scenario, scan.log)
    return outcome
