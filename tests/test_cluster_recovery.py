"""Shard crash/recovery: real SIGKILLs through the torture harness.

The full nine-site sweep is the CI gauntlet (``repro torture
--cluster``); here we pin the most load-bearing crash points.
Killing after the branch committed locally but before any decision
arrived forces the restarted shard to resolve the in-doubt gtid against
the coordinator log and compensate under presumed abort.  Killing
between the fsynced abort decision and the compensation commit lands in
the window where the gtid is *not* in doubt (the decision record
exists) yet the branch still stands — boot must re-run the compensation
from the decision record.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import fields

from repro.cluster.files import READY_FILENAME, WAL_FILENAME
from repro.cluster.hashring import HashRing
from repro.cluster.process import LocalCluster, ShardProcess
from repro.cluster.shard import report_unclean_drain
from repro.faults.cluster import (
    CRASH_SITES,
    _audit_point,
    _drive_point,
    cluster_workload,
    run_cluster_torture,
)
from repro.faults.torture import CrashOutcome, TortureReport
from repro.recovery import WriteAheadLog
from repro.recovery.wal import TxnStatusRecord, UpdateRecord
from repro.server.core import DrainReport
from repro.storage.durable import load_wal_file

from tests.helpers import page_store_files


def test_kill_after_branch_commit_recovers_in_doubt(tmp_path):
    report = run_cluster_torture(
        seed=0,
        n_requests=24,
        n_shards=2,
        sites=("2pc-branch-committed",),
        victims=(0,),
        workdir=str(tmp_path),
    )
    assert report.planned_points == 1 and not report.truncated
    outcome = report.outcomes[0]
    assert outcome.crashed and outcome.process_killed, outcome
    assert outcome.label == "v0-2pc-branch-committed"
    assert outcome.crash_site == "2pc-branch-committed"
    assert outcome.failures == (), outcome.detail
    assert not outcome.detail["lost_committed"]
    assert not outcome.detail["dangling_branches"]
    assert not outcome.detail["diverged_shards"]
    assert len(outcome.detail["winners_per_shard"]) == 2
    # The restarted shard answered the post-recovery probes.
    assert outcome.detail["acked_ok"] >= 1
    assert report.all_ok
    # The shard-kill sweep reports in the one schema whose keys
    # tests/test_cli.py::TestTorture pins for the other two sweeps.
    doc = report.to_dict()
    assert set(doc) == set(TortureReport("", None).to_dict())
    assert set(doc["outcomes"][0]) == {f.name for f in fields(CrashOutcome)}
    assert doc["config"] == {"harness": "shard-kill", "n_shards": 2, "n_requests": 24}
    assert doc["process_kills"] == doc["crash_points"] == 1
    # Fresh boots and the restarted victim alike run on the in-memory
    # database plus the WAL: no shard directory holds a page store.
    assert page_store_files(tmp_path) == []


def test_kill_between_abort_decision_and_compensation_commit(tmp_path):
    # The decision record already exists, so the gtid is not in doubt;
    # recovery must still re-run the compensation or the locally
    # committed branch survives a global abort.
    report = run_cluster_torture(
        seed=0,
        n_requests=24,
        n_shards=2,
        sites=("2pc-abort-logged",),
        victims=(0,),
        workdir=str(tmp_path),
    )
    assert report.planned_points == 1 and not report.truncated
    outcome = report.outcomes[0]
    assert outcome.crashed and outcome.process_killed, outcome
    assert outcome.crash_site == "2pc-abort-logged"
    assert outcome.failures == (), outcome.detail
    assert not outcome.detail["lost_committed"]
    assert not outcome.detail["dangling_branches"]
    assert not outcome.detail["diverged_shards"]
    assert report.all_ok


def test_kill_after_ack_logged_recovers_and_reannounces(tmp_path):
    # Crashing right after the durable ack record exercises the newest
    # window: the decision and ack are durable on the shard while the
    # reply never reached the router, so the coordinator entry stays
    # alive until the restarted shard's boot-time 2pc-ack announcement
    # covers it — with compaction running live (threshold 4 in the
    # harness), so truncation happens under the same workload.
    report = run_cluster_torture(
        seed=0,
        n_requests=24,
        n_shards=2,
        sites=("2pc-ack-logged",),
        victims=(0,),
        workdir=str(tmp_path),
    )
    assert report.planned_points == 1 and not report.truncated
    outcome = report.outcomes[0]
    assert outcome.crashed and outcome.process_killed, outcome
    assert outcome.crash_site == "2pc-ack-logged"
    assert outcome.failures == (), outcome.detail
    assert not outcome.detail["lost_committed"]
    assert not outcome.detail["dangling_branches"]
    assert not outcome.detail["diverged_shards"]
    assert report.all_ok


def test_audit_catches_a_lost_commit_and_a_lost_update(tmp_path):
    # Detection power of the shared oracle on the cluster's files: one
    # passing point, then the same audit over a tampered copy of the
    # victim's surviving WAL.
    ring = HashRing(2)
    build_config = {"n_items": 8, "orders_per_item": 2}
    label, site = "v0-2pc-decision-logged", "2pc-decision-logged"
    outcome, acked, decisions = _drive_point(
        label, site, 0, str(tmp_path),
        cluster_workload(0, 24, 8, ring, victim=0), ring, build_config, 30.0,
    )  # fmt: skip
    _audit_point(outcome, str(tmp_path), ring, build_config, acked, decisions)
    assert outcome.ok, (outcome.failures, outcome.detail)

    def audit_without(victim_record) -> CrashOutcome:
        records = [r for r in original if r is not victim_record]
        WriteAheadLog(records=records).save_durable(wal_path)
        tampered = CrashOutcome(label=label, crashed=True)
        _audit_point(tampered, str(tmp_path), ring, build_config, acked, decisions)
        return tampered

    wal_path = os.path.join(tmp_path, "shard-0", WAL_FILENAME)
    original = list(load_wal_file(wal_path).log)
    # The router acked probe-single "ok"; without its commit frame the
    # shard rolls it back, and the ack is what names the loss.
    commit = next(
        r for r in original
        if isinstance(r, TxnStatusRecord)
        and (r.txn, r.status) == ("rq-probe-single", "commit")
    )  # fmt: skip
    lost = audit_without(commit)
    assert "lost-committed" in lost.failures
    assert lost.detail["lost_committed"] == ["rq-probe-single@s0"]
    # Still a winner, but the redo record of its order insert is gone:
    # the recovered shard no longer equals the serial replay of its winners.
    update = next(
        r for r in original
        if isinstance(r, UpdateRecord)
        and (r.txn, r.operation) == ("rq-probe-single", "Insert")
    )  # fmt: skip
    diverged = audit_without(update)
    assert diverged.failures == ("state-divergence",)
    assert diverged.detail["diverged_shards"] == [0]


def test_crash_sites_cover_the_whole_2pc_lifecycle():
    # The sweep must bracket every durable transition: intent, local
    # commit, decision arrival, decision durability, abort durability,
    # compensation, and the durable decision ack.
    assert CRASH_SITES == (
        "2pc-prepare-received",
        "2pc-prepare-logged",
        "2pc-branch-committed",
        "2pc-commit-received",
        "2pc-decision-logged",
        "2pc-abort-received",
        "2pc-abort-logged",
        "2pc-compensated",
        "2pc-ack-logged",
    )


def test_unclean_shard_drain_is_printed(capsys):
    """A shard prints an unclean drain's report to stderr (its exit code
    stays 0), so a cluster's unclean stop names what went wrong."""
    unclean = DrainReport(leaked_locks=2, unresolved=1)
    report_unclean_drain(3, unclean)
    prefix, __, report = capsys.readouterr().err.partition(": drain was not clean: ")
    assert prefix == "shard 3"
    assert json.loads(report) == unclean.to_dict()
    report_unclean_drain(3, DrainReport())
    assert capsys.readouterr().err == ""


def test_sigterm_arms_a_stack_dump_until_the_wal_closes(tmp_path, monkeypatch):
    """SIGTERM arms a delayed dump of every thread's stack, due before
    ``ShardProcess.terminate`` would SIGKILL a shard that hangs at stop;
    the shard cancels it once its WAL has closed, and exits 0."""
    from repro.cluster import shard as shard_module

    events: list = []
    handlers: dict = {}

    class FakeFaulthandler:
        @staticmethod
        def dump_traceback_later(timeout, file):
            events.append(("arm", timeout, file))

        @staticmethod
        def cancel_dump_traceback_later():
            events.append(("cancel",))

    close = shard_module.DurableWriteAheadLog.close

    def closed(wal):
        close(wal)
        events.append(("wal closed",))

    monkeypatch.setattr(shard_module, "faulthandler", FakeFaulthandler)
    monkeypatch.setattr(shard_module.DurableWriteAheadLog, "close", closed)
    monkeypatch.setattr(
        shard_module.signal, "signal", lambda signum, handler: handlers.setdefault(signum, handler)
    )
    data_dir = tmp_path / "shard-0"
    ready = data_dir / READY_FILENAME

    def terminate():
        give_up = time.monotonic() + 30.0
        while signal.SIGTERM not in handlers or not ready.exists():
            assert time.monotonic() < give_up
            time.sleep(0.01)
        handlers[signal.SIGTERM](signal.SIGTERM, None)

    sender = threading.Thread(target=terminate)
    sender.start()
    try:
        code = shard_module.run_shard(
            {"data_dir": str(data_dir), "n_items": 2, "orders_per_item": 2}
        )
    finally:
        sender.join(timeout=30.0)
    assert code == 0
    assert events == [
        ("arm", shard_module.STOP_DUMP_AFTER, sys.stderr),
        ("wal closed",),
        ("cancel",),
    ]
    assert shard_module.STOP_DUMP_AFTER < ShardProcess.terminate.__defaults__[0]


class _ModuleProxy:
    """Stands in for a module in one other module's namespace: the named
    attributes are replaced, every other one is the real module's."""

    def __init__(self, module, **replaced) -> None:
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def test_sigterm_handler_takes_no_lock_the_stop_loop_holds(tmp_path, monkeypatch):
    """A signal handler runs on the main thread between two bytecodes,
    so it can run while that thread is inside the serving loop's wait and
    holds whatever lock the wait holds.  The handler is delivered exactly
    there — inside ``Event.wait`` with the event's lock held, or inside
    ``time.sleep`` — and must return; a watchdog turns the self-deadlock
    (``Event.set`` waiting on its own thread's lock) into a failure."""
    from repro.cluster import shard as shard_module

    handlers: dict = {}
    delivered: list = []
    held: list = []

    def deliver(lock) -> None:
        if signal.SIGTERM not in handlers or delivered:
            return
        delivered.append(lock)
        if lock is not None:
            lock.acquire()
            held.append(lock)
        handlers[signal.SIGTERM](signal.SIGTERM, None)
        if held:
            held.pop().release()

    class HeldEvent(threading.Event):
        def wait(self, timeout=None):
            deliver(self._cond)
            return super().wait(timeout)

    def sleep(seconds) -> None:
        deliver(None)
        time.sleep(seconds)

    class FakeFaulthandler:
        @staticmethod
        def dump_traceback_later(timeout, file):
            pass

        @staticmethod
        def cancel_dump_traceback_later():
            pass

    monkeypatch.setattr(shard_module, "faulthandler", FakeFaulthandler)
    monkeypatch.setattr(shard_module, "threading", _ModuleProxy(threading, Event=HeldEvent))
    monkeypatch.setattr(shard_module, "time", _ModuleProxy(time, sleep=sleep))
    monkeypatch.setattr(
        shard_module.signal, "signal", lambda signum, handler: handlers.setdefault(signum, handler)
    )
    codes: list = []
    shard = threading.Thread(
        target=lambda: codes.append(
            shard_module.run_shard(
                {"data_dir": str(tmp_path / "shard-0"), "n_items": 2, "orders_per_item": 2}
            )
        ),
        daemon=True,
    )
    shard.start()
    shard.join(timeout=10.0)
    wedged = shard.is_alive()
    if wedged and held:
        held.pop().release()  # let the shard finish, then fail
        shard.join(timeout=10.0)
    assert delivered, "the serving loop never waited after installing its handler"
    assert not wedged, "the SIGTERM handler blocked on a lock its own thread held"
    assert codes == [0]


def test_stop_reports_a_shard_it_had_to_sigkill(tmp_path, monkeypatch, capsys):
    """A shard that outlives the terminate timeout is SIGKILLed and
    named on stderr; one that exits on SIGTERM is not."""
    cluster = LocalCluster(2, str(tmp_path))
    for shard_id, handler in enumerate(("signal.SIG_IGN", "signal.SIG_DFL")):
        shard = ShardProcess(shard_id, str(tmp_path / f"shard-{shard_id}"), {})
        shard.proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                f"import signal, time; signal.signal(signal.SIGTERM, {handler}); "
                "print(flush=True); time.sleep(60)",
            ],
            stdout=subprocess.PIPE,
        )
        shard.proc.stdout.readline()  # the handler is in place
        shard.proc.stdout.close()
        cluster.shards.append(shard)
    terminate = ShardProcess.terminate
    monkeypatch.setattr(ShardProcess, "terminate", lambda shard: terminate(shard, timeout=0.5))
    cluster.stop()
    ignored, stopped = cluster.shards
    assert ignored.killed_on_timeout and ignored.returncode == -signal.SIGKILL
    assert not stopped.killed_on_timeout and stopped.returncode == -signal.SIGTERM
    assert capsys.readouterr().err.splitlines() == [
        f"cluster: shard 0 (pid {ignored.proc.pid}) did not exit within the "
        "terminate timeout; SIGKILLed"
    ]
