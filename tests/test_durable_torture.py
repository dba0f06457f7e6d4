"""Real-process crash torture and the page store's on-disk checks.

These tests launch actual child processes, SIGKILL them at injected
crash points, and recover from the WAL file they leave behind — the
closest this repo gets to pulling the power cord.  Kept small here
(a handful of points, two seeds); CI's torture-smoke job and the
nightly sweep run the full grids via ``repro torture --durable``.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import pytest

from repro.faults.durable import (
    WAL_FILENAME,
    _analyze_point,
    _run_child,
    _scenario_from_config,
    database_digest,
    run_durable_torture,
)
from repro.obs import MetricsRegistry
from repro.recovery import WriteAheadLog, recover
from repro.recovery.wal import UpdateRecord
from repro.storage.bufferpool import BufferPool
from repro.storage.durable import (
    PAGES_FILENAME,
    DurableStorageManager,
    load_wal_file,
)
from repro.storage.pagefile import PageFile, TornPageError

from tests.helpers import page_store_files


class TestForkSweep:
    def test_small_sweep_all_points_pass(self):
        report = run_durable_torture(
            seed=0, n_transactions=3, steps=8, wal_sweep=True, mode="fork"
        )
        assert report.config["harness"] == "sigkill"
        assert report.all_ok, report.summary()
        # every crashing point was a real process death
        assert report.process_kills == report.crash_points > 0
        crashed = [o for o in report.outcomes if o.crashed]
        assert all(o.process_killed for o in crashed)
        # the sweep crossed both loser and winner regimes
        assert any(o.losers for o in crashed)
        assert any(o.winners for o in crashed)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown child mode"):
            run_durable_torture(mode="thread")

    def test_workdir_keeps_files(self, tmp_path):
        report = run_durable_torture(
            seed=1,
            n_transactions=2,
            steps=1,
            wal_sweep=False,
            workdir=str(tmp_path),
            mode="fork",
        )
        assert report.all_ok
        point_dirs = sorted(os.listdir(tmp_path))
        assert point_dirs == ["step-0"]
        # The child ran on the in-memory database: only the WAL and the
        # verdict survive it, no page store.
        assert page_store_files(tmp_path) == []
        # The kept file scans, and the scan agrees with what the sweep
        # reported for the point.
        scan = load_wal_file(os.path.join(tmp_path, "step-0", WAL_FILENAME))
        (outcome,) = report.outcomes
        assert scan.torn_bytes == outcome.detail["torn_tail_bytes"]

    def test_lost_redo_record_is_caught_from_the_files_alone(self, tmp_path):
        """Detection power of the shared oracle outside the in-process
        sweep: take a passing point's surviving files, drop one durable
        winner's update record, and re-run the analysis.  (Dropping the
        winner's *commit* frame instead is self-consistent on one node —
        the log is what defines the winners — and is the cluster sweep's
        ``lost-committed`` check, which has the router's acks to hold
        against it.)"""
        config = {
            "seed": 0, "n_transactions": 4, "n_items": 2, "orders_per_item": 2,
            "protocol": "semantic", "policy": "fifo",
        }  # fmt: skip
        report = run_durable_torture(
            seed=0, n_transactions=4, wal_sweep=False, workdir=str(tmp_path)
        )
        assert report.all_ok, report.summary()
        scenario = _scenario_from_config(config)
        survivor = report.outcomes[-1]
        point_dir = os.path.join(tmp_path, survivor.label)
        again = _analyze_point(scenario, survivor.label, point_dir, True)
        assert again.failures == () and again.winners == survivor.winners

        wal_path = os.path.join(point_dir, WAL_FILENAME)
        records = list(load_wal_file(wal_path).log)
        victim = [
            r for r in records
            if isinstance(r, UpdateRecord) and r.txn in survivor.winners
        ][-1]
        records.remove(victim)
        WriteAheadLog(records=records).save_durable(wal_path)
        tampered = _analyze_point(scenario, survivor.label, point_dir, True)
        assert tampered.winners == survivor.winners
        assert tampered.failures == ("state-divergence",)


@pytest.mark.slow
class TestSpawnSweep:
    def test_spawn_mode_single_point(self):
        """One cold-interpreter child proves the subprocess entry point."""
        report = run_durable_torture(
            seed=2, n_transactions=2, steps=2, wal_sweep=False, mode="spawn"
        )
        assert report.all_ok, report.summary()
        assert report.process_kills >= 1


class TestRecoveryDeterminism:
    """Same seed + same kill point => bit-identical recovery, twice."""

    # Seed 0's step 32 dies after two writers' commits were forced and
    # while a third transaction's subcommit sits in the file behind
    # them: the image holds winners to redo and a loser to compensate.
    # (Frames appended after the last force die with the child, so most
    # kill points leave no loser with anything to undo.)
    SEED, STEP = 0, 32

    def _crash_and_recover(self, workdir: str) -> tuple[str, dict]:
        report = run_durable_torture(
            seed=self.SEED,
            n_transactions=3,
            steps=1,  # exactly one step point: step 0 ...
            wal_sweep=False,
            workdir=workdir,
            mode="fork",
        )
        assert report.all_ok
        # ... but recover here ourselves, with a metrics registry, from
        # the surviving file of a *later* fixed point we create now:
        point_dir = os.path.join(workdir, "fixed-point")
        os.makedirs(point_dir, exist_ok=True)
        config = {
            "seed": self.SEED,
            "n_transactions": 3,
            "n_items": 2,
            "orders_per_item": 2,
            "protocol": "semantic",
            "policy": "fifo",
            "kind": "step",
            "at": self.STEP,
            "point_dir": point_dir,
        }
        killed = _run_child(config, "fork")
        assert killed
        scan = load_wal_file(os.path.join(point_dir, WAL_FILENAME))
        scenario = _scenario_from_config(config)
        restored, __ = scenario.instantiate()
        metrics = MetricsRegistry()
        recover(restored, scan.log, scenario.type_specs, metrics=metrics)
        counts = {
            name: value
            for name, value in metrics.snapshot().counters.items()
            if name.startswith("recovery.")
        }
        return database_digest(restored), counts

    def test_two_independent_runs_identical(self, tmp_path):
        digest_a, counts_a = self._crash_and_recover(str(tmp_path / "a"))
        digest_b, counts_b = self._crash_and_recover(str(tmp_path / "b"))
        assert digest_a == digest_b
        assert counts_a == counts_b
        assert counts_a.get("recovery.runs") == 1
        assert counts_a.get("recovery.redone", 0) > 0
        undone = counts_a.get("recovery.physically_undone", 0)
        assert undone + counts_a.get("recovery.compensated", 0) > 0


class TestDurableStorageRoundTrip:
    def test_torn_page_detected_on_reopen(self, tmp_path):
        path = str(tmp_path / PAGES_FILENAME)
        with PageFile(path) as pagefile:
            pagefile.write_page(0, b"slot directory")
            pagefile.sync()
        with open(path, "r+b") as fh:  # corrupt page 0's payload bytes
            fh.seek(os.path.getsize(path) - 4096 + 8)  # past the header + block frame
            fh.write(b"\xde\xad\xbe\xef" * 4)
        with PageFile(path) as pagefile:
            with pytest.raises(TornPageError) as torn:
                pagefile.read_page(0)
            assert torn.value.page_no == 0
            # The pool faults the page in through the same strict read.
            pool = BufferPool(pagefile, capacity=2)
            with pytest.raises(TornPageError):
                pool.pin(0)

    def test_page_images_round_trip_slot_directory(self, tmp_path):
        from repro.objects.oid import Oid

        durable = DurableStorageManager(
            str(tmp_path / "store"), records_per_page=2, pool_capacity=2
        )
        oids = [Oid("Atom", n) for n in range(5)]
        for oid in oids:
            durable.allocate(oid)
        durable.release(oids[2])
        durable.close()

        with PageFile(os.path.join(str(tmp_path / "store"), PAGES_FILENAME)) as pagefile:
            decoded = pickle.loads(pagefile.read_page(1))
        assert decoded["capacity"] == 2
        assert decoded["slots"][0] is None  # released slot persisted as free

    def test_concurrent_allocation_is_serialised(self, tmp_path):
        # `place` requests stepping on different worker threads
        # allocate at once; unserialised, the pool's eviction races
        # (KeyError in _evict_one) and slots are handed out twice.
        from repro.objects.oid import Oid

        durable = DurableStorageManager(str(tmp_path / "store"), pool_capacity=4)
        errors: list[BaseException] = []

        def allocate(worker: int) -> None:
            try:
                for n in range(300):
                    durable.allocate(Oid("Atom", worker * 1000 + n))
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        workers = [threading.Thread(target=allocate, args=(w,)) for w in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        durable.pool.check_invariants()
        placed = [(rid.page_no, rid.slot) for rid in durable._record_of.values()]
        assert len(placed) == len(set(placed)) == 1200
        durable.close()
