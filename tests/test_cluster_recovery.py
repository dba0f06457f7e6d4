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

import os
from dataclasses import fields

from repro.cluster.files import WAL_FILENAME
from repro.cluster.hashring import HashRing
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
