"""The file-backed WAL: frame codec, torn tails, group commit, resume.

The torn-tail property is the heart of this suite: for *every*
byte-length prefix of a durable WAL file — as if the process died after
the OS had persisted exactly that many bytes — the recovery scan must
return precisely the complete, checksum-valid record prefix and never
raise.  A partial trailing frame (short header, short payload, or
corrupt checksum) is detected and discarded.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.recovery.wal import SubtxnCommitRecord, TxnStatusRecord, UpdateRecord, WriteAheadLog
from repro.storage.durable import DurableWriteAheadLog, load_wal_file
from repro.storage.walformat import (
    FRAME_HEADER,
    WAL_MAGIC,
    encode_frame,
    encode_record,
    is_wal_file,
    iter_frames,
)
from tests.helpers import examples


def status(lsn: int, txn: str, what: str) -> TxnStatusRecord:
    return TxnStatusRecord(lsn=lsn, txn=txn, status=what)


def update(lsn: int, txn: str, payload: str = "x") -> UpdateRecord:
    return UpdateRecord(
        lsn=lsn,
        txn=txn,
        node_path=(f"{txn}:0",),
        operation="Put",
        target=(("Atom", "Root", payload),),
        before=0,
        after=len(payload),
    )


def write_and_commit(wal, lsn: int, txn: str) -> None:
    """A writer: one update at *lsn*, its commit at *lsn* + 1."""
    wal.append(update(lsn, txn))
    wal.append(status(lsn + 1, txn, "commit"))


class TestFrameCodec:
    def test_round_trip(self):
        payloads = [b"a", b"bb" * 100, b"", b"\x00" * 9]
        data = WAL_MAGIC + b"".join(encode_frame(p) for p in payloads)
        scan = iter_frames(data)
        assert scan.payloads == payloads
        assert not scan.torn
        assert scan.valid_bytes == len(data)

    def test_corrupt_checksum_ends_scan(self):
        good, bad = encode_frame(b"good"), bytearray(encode_frame(b"bad!"))
        bad[-1] ^= 0xFF  # flip a payload bit: checksum mismatch
        scan = iter_frames(WAL_MAGIC + good + bytes(bad))
        assert scan.payloads == [b"good"]
        assert scan.torn and scan.torn_reason == "bad-checksum"

    def test_not_a_wal_file(self):
        assert not is_wal_file(b"definitely not")
        with pytest.raises(AssertionError):
            iter_frames(b"definitely not a wal file")


class TestRecordCodec:
    """A record is framed as the tuple ``(KIND, *fields)`` and read back
    from one kind table as an equal record of its own class."""

    @staticmethod
    def _one_of_each() -> list:
        from repro.cluster.records import (
            ClusterAckRecord,
            ClusterDecisionRecord,
            ClusterPrepareRecord,
        )
        from repro.orderentry.schema import EventMultiset, build_order_entry_database
        from repro.recovery.addresses import address_of, snapshot

        built = build_order_entry_database(n_items=1, orders_per_item=1)
        order = built.order(0, 0)
        status_atom = address_of(order) + (("impl",), ("component", "status"))
        return [
            TxnStatusRecord(lsn=1, txn="T1", status="begin"),
            UpdateRecord(
                lsn=2,
                txn="T1",
                node_path=("T1", "T1.0", "T1.0.0"),
                operation="Put",
                target=status_atom,
                before=EventMultiset.of("paid"),
                after=EventMultiset.of("paid", "shipped"),
            ),
            UpdateRecord(
                lsn=3,
                txn="T1",
                node_path=("T1", "T1.1"),
                operation="Insert",
                target=address_of(order.parent),
                key=built.order_no(0, 0),
                member_snapshot=snapshot(order),
            ),
            SubtxnCommitRecord(
                lsn=4,
                txn="T1",
                node_id="T1.0",
                subtree_ids=("T1.0", "T1.0.0"),
                target=address_of(order),
                operation="ChangeStatus",
                args=("shipped",),
                inverse_operation="RemoveStatus",
                inverse_args=("shipped",),
            ),
            ClusterPrepareRecord(
                lsn=5,
                txn="2pc-g1",
                gtid="g1",
                coordinator="127.0.0.1:7000",
                branch={"op": "place", "item": 0, "lines": [[0, 2]], "deadline": None},
            ),
            ClusterDecisionRecord(lsn=6, txn="2pc-g1", gtid="g1", decision="commit"),
            ClusterAckRecord(lsn=7, txn="2pc-g1", gtid="g1", shard_seq=1),
        ]

    def test_every_kind_round_trips(self, tmp_path):
        records = self._one_of_each()
        kinds = {type(record) for record in records}
        assert len(kinds) == 6 and len({kind.KIND for kind in kinds}) == 6
        data = WAL_MAGIC + b"".join(encode_record(record) for record in records)
        scan = iter_frames(data)
        assert len(scan.payloads) == len(records) and not scan.torn
        assert [pickle.loads(p)[0] for p in scan.payloads] == [r.KIND for r in records]
        path = tmp_path / "wal.log"
        path.write_bytes(data)
        loaded = list(load_wal_file(str(path)).log)
        # A NamedTuple compares as a tuple: check the classes as well.
        assert loaded == records
        assert [type(record) for record in loaded] == [type(record) for record in records]
        assert loaded[1].before.counts == (("paid", 1),)
        assert loaded[2].member_snapshot == records[2].member_snapshot
        assert loaded[3].inverse_args == ("shipped",)
        assert loaded[4].branch["lines"] == [[0, 2]]

    def test_a_frame_of_unknown_kind_is_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        unknown = pickle.dumps((99, 1, "T1", "begin"))
        good = encode_record(status(1, "T1", "begin"))
        path.write_bytes(WAL_MAGIC + good + encode_frame(unknown))
        with pytest.raises(ValueError, match="unknown record kind 99"):
            load_wal_file(str(path))

    def test_records_are_immutable(self):
        for record in self._one_of_each():
            with pytest.raises(AttributeError):
                record.lsn = 0
            with pytest.raises(AttributeError):
                record.txn = "other"


class TestTornTailProperty:
    """Recovery succeeds from EVERY byte-length prefix of the file."""

    @staticmethod
    def _durable_file(tmp_path, records):
        path = os.path.join(tmp_path, "wal.log")
        with DurableWriteAheadLog(path) as wal:
            for record in records:
                wal.append(record)
        return path

    @settings(max_examples=examples(60), deadline=None)
    @given(data=st.data(), n_records=st.integers(min_value=0, max_value=12))
    def test_every_truncation_offset(self, data, n_records):
        import tempfile

        records = []
        for i in range(n_records):
            txn = f"T{i % 3}"
            if i % 4 == 3:
                records.append(status(i + 1, txn, "commit"))
            elif i % 4 == 0:
                records.append(status(i + 1, txn, "begin"))
            else:
                records.append(update(i + 1, txn, payload="p" * (i * 7 % 40)))
        with tempfile.TemporaryDirectory(prefix="repro-torn-") as tmp:
            path = self._durable_file(tmp, records)
            with open(path, "rb") as fh:
                blob = fh.read()

            cut = data.draw(
                st.integers(min_value=len(WAL_MAGIC), max_value=len(blob)), label="cut"
            )
            torn_path = os.path.join(tmp, "torn.log")
            with open(torn_path, "wb") as fh:
                fh.write(blob[:cut])

            scan = load_wal_file(torn_path)  # must never raise
        survived = list(scan.log)
        # exactly the longest complete-frame prefix
        assert survived == records[: len(survived)]
        assert scan.valid_bytes + scan.torn_bytes == cut
        if scan.torn:
            assert scan.torn_reason in ("short-header", "short-payload", "bad-checksum")
            assert len(survived) < len(records)
        else:
            # a clean cut lands exactly on a frame boundary
            assert scan.valid_bytes == cut

    def test_every_offset_exhaustively_small(self, tmp_path):
        """Non-random belt: all offsets of a 3-record file."""
        records = [status(1, "T1", "begin"), update(2, "T1"), status(3, "T1", "commit")]
        path = self._durable_file(str(tmp_path), records)
        with open(path, "rb") as fh:
            blob = fh.read()
        for cut in range(len(WAL_MAGIC), len(blob) + 1):
            torn_path = str(tmp_path / "cut.log")
            with open(torn_path, "wb") as fh:
                fh.write(blob[:cut])
            scan = load_wal_file(torn_path)
            survived = list(scan.log)
            assert survived == records[: len(survived)]
            assert scan.valid_bytes <= cut

    def test_header_only_file_is_empty_log(self, tmp_path):
        path = str(tmp_path / "wal.log")
        DurableWriteAheadLog(path).close()
        scan = load_wal_file(path)
        assert len(scan.log) == 0 and not scan.torn


class TestGroupCommit:
    def _metrics(self):
        from repro.obs import MetricsRegistry

        return MetricsRegistry()

    # Only a transaction that logged a change forces its outcome, so each
    # committer below writes one update first (at LSN k, committing at k+1).
    def test_window_zero_syncs_every_commit(self, tmp_path):
        registry = self._metrics()
        with DurableWriteAheadLog(str(tmp_path / "wal.log")) as wal:
            wal.bind_metrics(registry)
            for i in range(5):
                write_and_commit(wal, i * 2 + 1, f"T{i}")
        assert registry.counter("wal.group_commit.commits").value == 5
        assert registry.counter("wal.group_commit.syncs").value >= 5
        assert registry.counter("wal.group_commit.deferred").value == 0
        assert wal.durable_lsn == 10

    def test_window_batches_commits(self, tmp_path):
        clock = [0.0]
        registry = self._metrics()
        wal = DurableWriteAheadLog(
            str(tmp_path / "wal.log"),
            group_commit_window=1.0,
            group_commit_max=4,
            clock=lambda: clock[0],
        )
        wal.bind_metrics(registry)
        for i in range(3):  # three commits inside one window: all deferred
            write_and_commit(wal, i * 2 + 1, f"T{i}")
        assert registry.counter("wal.group_commit.syncs").value == 0
        assert registry.counter("wal.group_commit.deferred").value == 3
        assert wal.durable_lsn == 0  # nothing fsynced yet

        write_and_commit(wal, 7, "T3")  # 4th: batch cap forces the sync
        assert registry.counter("wal.group_commit.syncs").value == 1
        assert wal.durable_lsn == 8
        histogram = registry.histogram(
            "wal.group_commit.batch_size", (1, 2, 4, 8, 16, 32, 64)
        )
        assert histogram.mean == 4.0

        write_and_commit(wal, 9, "T4")  # deferred again ...
        assert registry.counter("wal.group_commit.syncs").value == 1
        clock[0] = 2.0  # ... until the window expires
        wal.flush_if_due()
        assert registry.counter("wal.group_commit.syncs").value == 2
        assert wal.durable_lsn == 10
        wal.close()

    def test_expired_window_syncs_inline(self, tmp_path):
        clock = [0.0]
        wal = DurableWriteAheadLog(
            str(tmp_path / "wal.log"), group_commit_window=1.0, clock=lambda: clock[0]
        )
        write_and_commit(wal, 1, "T0")
        assert wal.durable_lsn == 0
        clock[0] = 1.5
        write_and_commit(wal, 3, "T1")  # window long gone: sync now
        assert wal.durable_lsn == 4
        wal.close()

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="window"):
            DurableWriteAheadLog(str(tmp_path / "w"), group_commit_window=-1)
        with pytest.raises(ValueError, match="max"):
            DurableWriteAheadLog(str(tmp_path / "w"), group_commit_max=0)


class TestForceRule:
    """A commit/abort record forces a sync only for a transaction that
    appended an update or subcommit record; a read-only transaction's is
    written, and made durable by whatever syncs next."""

    def _open(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        wal = DurableWriteAheadLog(str(tmp_path / "wal.log"))
        wal.bind_metrics(registry)
        return wal, lambda name: registry.counter(f"wal.group_commit.{name}").value

    @pytest.mark.parametrize("outcome", ["commit", "abort"])
    def test_read_only_outcome_forces_nothing(self, tmp_path, outcome):
        wal, count = self._open(tmp_path)
        wal.append(status(1, "R", "begin"))
        wal.append(status(2, "R", outcome))
        assert count("syncs") == 0
        assert count("commits") == 0 and count("deferred") == 0
        assert wal.durable_lsn == 0
        assert len(wal) == 2  # written all the same
        wal.close()

    def test_next_forced_commit_makes_read_only_records_durable(self, tmp_path):
        wal, count = self._open(tmp_path)
        wal.append(status(1, "R", "begin"))
        wal.append(status(2, "R", "commit"))
        wal.append(status(3, "W", "begin"))
        write_and_commit(wal, 4, "W")
        assert count("syncs") == 1 and count("commits") == 1
        assert wal.durable_lsn == 5
        assert load_wal_file(wal.path).log.outcomes() == {"R": "commit", "W": "commit"}
        wal.close()

    def test_writer_set_empties_with_cluster_records_interleaved(self, tmp_path):
        from repro.cluster.records import ClusterDecisionRecord, ClusterPrepareRecord

        wal, count = self._open(tmp_path)
        for i in range(100):
            lsn, gtid, txn = i * 5, f"g{i}", f"2pc-g{i}"
            wal.append(ClusterPrepareRecord(lsn=lsn + 1, txn=txn, gtid=gtid))
            wal.append(status(lsn + 2, txn, "begin"))
            write_and_commit(wal, lsn + 3, txn)
            wal.append(ClusterDecisionRecord(lsn=lsn + 5, txn=txn, gtid=gtid, decision="commit"))
        assert wal._writers == set()
        assert count("commits") == 100
        wal.close()


class TestLogBuffer:
    """An append buffers its frame and makes no system call; a force
    writes the buffer once and fsyncs it, outside the append lock, and
    a force judges what is covered by append order, not by LSN."""

    @staticmethod
    def _open(tmp_path, monkeypatch):
        """A log whose OS writes and fsyncs are counted."""
        wal = DurableWriteAheadLog(str(tmp_path / "wal.log"))
        calls = {"write": 0, "fsync": 0}
        real_write, real_fsync = os.write, os.fsync

        def write(fd, data):
            if fd == wal._fd:
                calls["write"] += 1
            return real_write(fd, data)

        def fsync(fd):
            if fd == wal._fd:
                calls["fsync"] += 1
            real_fsync(fd)

        monkeypatch.setattr(os, "write", write)
        monkeypatch.setattr(os, "fsync", fsync)
        return wal, calls

    @staticmethod
    def _gate_first_fsync(wal, monkeypatch):
        """Park the first fsync on *wal*'s file until the gate opens."""
        entered, gate = threading.Event(), threading.Event()
        real_fsync = os.fsync

        def fsync(fd):
            if fd == wal._fd and not entered.is_set():
                entered.set()
                gate.wait(10)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return entered, gate

    def test_read_only_transaction_leaves_the_file_alone(self, tmp_path, monkeypatch):
        wal, calls = self._open(tmp_path, monkeypatch)
        size = os.path.getsize(wal.path)
        wal.append(status(1, "R", "begin"))
        wal.append(status(2, "R", "commit"))
        assert os.path.getsize(wal.path) == size
        assert calls == {"write": 0, "fsync": 0}
        wal.close()

    def test_forced_commit_is_one_write_and_one_fsync(self, tmp_path, monkeypatch):
        wal, calls = self._open(tmp_path, monkeypatch)
        wal.append(status(1, "W", "begin"))
        wal.append(update(2, "W"))
        assert calls == {"write": 0, "fsync": 0}
        wal.append(status(3, "W", "commit"))
        assert calls == {"write": 1, "fsync": 1}
        assert [r.lsn for r in load_wal_file(wal.path).log] == [1, 2, 3]
        wal.close()

    def test_close_writes_what_is_buffered(self, tmp_path, monkeypatch):
        wal, calls = self._open(tmp_path, monkeypatch)
        wal.append(status(1, "R", "begin"))
        wal.append(status(2, "R", "commit"))
        wal.close()
        assert calls == {"write": 1, "fsync": 1}
        assert load_wal_file(wal.path).log.outcomes() == {"R": "commit"}

    def test_append_counts_are_read_at_snapshot(self, tmp_path, monkeypatch):
        """An append pushes no registry instrument (a writer's outcome
        pushes the group-commit ones); ``wal.appends`` and
        ``wal.bytes_written`` are the log's own counts, read at snapshot."""
        from repro.obs import MetricsRegistry
        from repro.obs import registry as instruments

        registry = MetricsRegistry()
        wal = DurableWriteAheadLog(str(tmp_path / "wal.log"))
        wal.bind_metrics(registry)
        pushed: list[str] = []
        for cls, names in (
            (instruments.Counter, ("inc",)),
            (instruments.Gauge, ("set", "inc", "dec")),
            (instruments.Histogram, ("observe",)),
        ):
            for name in names:
                original = getattr(cls, name)

                def counted(instrument, *args, _original=original):
                    pushed.append(instrument.name)
                    return _original(instrument, *args)

                monkeypatch.setattr(cls, name, counted)
        wal.append(status(1, "R", "begin"))
        wal.append(status(2, "R", "commit"))
        wal.append(status(3, "W", "begin"))
        wal.append(update(4, "W"))
        assert pushed == []
        wal.append(status(5, "W", "commit"))
        assert pushed and all(name.startswith("wal.group_commit.") for name in pushed)
        wal.append(status(6, "R2", "begin"))
        wal.sync()
        monkeypatch.undo()
        snapshot = registry.snapshot()
        assert snapshot.counter("wal.appends") == 6
        file_bytes = os.path.getsize(wal.path) - len(WAL_MAGIC)
        assert snapshot.counter("wal.bytes_written") == file_bytes
        wal.close()

    def test_append_returns_while_a_force_is_in_fsync(self, tmp_path, monkeypatch):
        wal = DurableWriteAheadLog(str(tmp_path / "wal.log"))
        entered, gate = self._gate_first_fsync(wal, monkeypatch)
        wal.append(update(1, "W"))
        forcer = threading.Thread(target=wal.append, args=(status(2, "W", "commit"),))
        appender = threading.Thread(target=wal.append, args=(status(3, "R", "begin"),))
        forcer.start()
        try:
            assert entered.wait(10)
            appender.start()
            appender.join(5)
            assert not appender.is_alive()  # not queued behind the fsync
            assert len(wal) == 3 and wal.durable_lsn == 0
        finally:
            gate.set()
            forcer.join(10)
            if appender.ident is not None:
                appender.join(10)
        assert wal.durable_lsn == 2
        wal.close()

    def test_a_covered_force_skips_its_fsync(self, tmp_path, monkeypatch):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        wal = DurableWriteAheadLog(str(tmp_path / "wal.log"))
        wal.bind_metrics(registry)
        entered, gate = self._gate_first_fsync(wal, monkeypatch)
        wal.append(update(1, "W1"))
        threads = [threading.Thread(target=wal.append, args=(status(2, "W1", "commit"),))]
        threads[0].start()
        try:
            assert entered.wait(10)
            # Two more writers commit while the first force is in fsync;
            # the next force writes both, and the other finds itself covered.
            for lsn, txn in ((3, "W2"), (5, "W3")):
                wal.append(update(lsn, txn))
                threads.append(
                    threading.Thread(target=wal.append, args=(status(lsn + 1, txn, "commit"),))
                )
                threads[-1].start()
            for __ in range(5000):
                if len(wal) == 6:
                    break
                threading.Event().wait(0.002)
            assert len(wal) == 6
        finally:
            gate.set()
            for thread in threads:
                thread.join(10)
        assert registry.counter("wal.group_commit.commits").value == 3
        assert registry.counter("wal.group_commit.syncs").value == 2
        assert wal.durable_lsn == 6
        wal.close()

    def test_concurrent_writers_lose_no_frame(self, tmp_path):
        """More appenders than cores, switching every microsecond: each
        commit is durable when its append returns, and the file ends up
        holding every frame exactly once."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(thread_safe=True)
        wal = DurableWriteAheadLog(str(tmp_path / "wal.log"))
        wal.bind_metrics(registry)
        errors: list[BaseException] = []

        def writer(worker: int) -> None:
            try:
                for n in range(25):
                    txn = f"W{worker}.{n}"
                    wal.append(update(wal.next_lsn(), txn))
                    lsn = wal.next_lsn()
                    wal.append(status(lsn, txn, "commit"))
                    assert wal.durable_lsn >= lsn
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        workers = [threading.Thread(target=writer, args=(w,)) for w in range(6)]
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
        on_disk = list(load_wal_file(wal.path).log)  # before close writes anything
        assert sorted(r.lsn for r in on_disk) == list(range(1, 301))
        assert registry.counter("wal.group_commit.syncs").value <= 150
        wal.close()

    def test_aborting_writer_forces_outside_the_coordinator(self, tmp_path, monkeypatch):
        """A writer that aborts forces its abort record before it takes
        the coordinator: while that force sits in fsync, another
        transaction's completion finishes."""
        from repro.objects.database import Database
        from repro.runtime.threaded import ThreadedKernel

        db = Database()
        x, y = db.new_atom("x", 0), db.new_atom("y", 0)
        db.attach_child(x)
        db.attach_child(y)
        wal = DurableWriteAheadLog(str(tmp_path / "wal.log"))
        kernel = ThreadedKernel(db, wal=wal)
        kernel.start()
        entered, gate = self._gate_first_fsync(wal, monkeypatch)

        async def writer(tx):
            await tx.put(x, 1)
            raise RuntimeError("the writer aborts")

        async def reader(tx):
            return await tx.get(y)

        aborting = threading.Thread(target=kernel.drive, args=("W", writer))
        other = threading.Thread(target=kernel.drive, args=("R", reader))
        aborting.start()
        try:
            assert entered.wait(10)
            other.start()
            other.join(5)
            assert not other.is_alive()  # not queued behind the fsync
            assert kernel.handles["R"].committed
            assert not kernel.handles["W"].aborted
        finally:
            gate.set()
            aborting.join(10)
            if other.ident is not None:
                other.join(10)
        assert kernel.handles["W"].aborted and x.raw_get() == 0
        assert kernel.stop() == []
        wal.close()
        assert load_wal_file(wal.path).log.outcomes() == {"W": "abort", "R": "commit"}

    def test_lower_lsn_appended_after_a_higher_one_was_forced(self, tmp_path, monkeypatch):
        wal, calls = self._open(tmp_path, monkeypatch)
        wal.append(update(wal.next_lsn(), "A"))
        wal.append(update(wal.next_lsn(), "B"))
        a, b = wal.next_lsn(), wal.next_lsn()  # drawn in this order ...
        wal.append(status(b, "B", "commit"))  # ... appended and forced in the other
        assert calls["fsync"] == 1 and wal.durable_lsn == b
        wal.append(status(a, "A", "commit"))  # a < durable_lsn, yet not on disk
        assert calls["fsync"] == 2
        assert load_wal_file(wal.path).log.outcomes() == {"B": "commit", "A": "commit"}
        wal.close()


class TestRecoveryFromFile:
    """Every group-commit window recovers the seeded order-entry workload
    from the WAL file to exactly the live state: a durability knob
    changes when records reach the disk, never what they recover to."""

    @pytest.mark.parametrize("window", [0.0, 0.010])
    def test_recovered_state_equals_live_state(self, tmp_path, window):
        from repro.core.kernel import TransactionManager
        from repro.faults.durable import database_digest
        from repro.faults.torture import order_entry_scenario
        from repro.recovery import recover
        from repro.runtime.scheduler import Scheduler

        scenario = order_entry_scenario(seed=7, n_transactions=30, n_items=3)
        db, programs = scenario.instantiate()
        path = str(tmp_path / "wal.log")
        wal = DurableWriteAheadLog(path, group_commit_window=window, group_commit_max=8)
        kernel = TransactionManager(
            db,
            protocol=scenario.protocol(),
            scheduler=Scheduler(policy=scenario.policy, seed=scenario.seed),
            wal=wal,
        )
        for name, program in programs.items():
            kernel.spawn(name, program)
        kernel.run()
        wal.close()
        assert any(handle.committed for handle in kernel.handles.values())
        scan = load_wal_file(path)
        assert scan.torn_bytes == 0  # clean close
        restored, __ = scenario.instantiate()
        recover(restored, scan.log, scenario.type_specs)
        assert database_digest(restored) == database_digest(db)


class TestResumeAndInterop:
    def test_resume_continues_after_surviving_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with DurableWriteAheadLog(path) as wal:
            wal.append(status(1, "T1", "begin"))
            wal.append(status(2, "T1", "commit"))
        resumed = DurableWriteAheadLog(path)
        assert [r.lsn for r in resumed] == [1, 2]
        assert resumed.durable_lsn == 2
        resumed.append(status(resumed.next_lsn(), "T2", "begin"))
        resumed.close()
        assert [r.lsn for r in load_wal_file(path).log] == [1, 2, 3]

    def test_resume_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with DurableWriteAheadLog(path) as wal:
            wal.append(status(1, "T1", "commit"))
        size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(FRAME_HEADER.pack(1 << 20, 0) + b"partial")  # torn append
        resumed = DurableWriteAheadLog(path)
        assert [r.lsn for r in resumed] == [1]
        resumed.close()
        assert os.path.getsize(path) == size  # the torn tail is gone

    def test_save_durable_interops_with_incremental_writer(self, tmp_path):
        records = [status(1, "T1", "begin"), update(2, "T1"), status(3, "T1", "commit")]
        saved = str(tmp_path / "saved.log")
        WriteAheadLog(records=list(records)).save_durable(saved)
        appended = str(tmp_path / "appended.log")
        with DurableWriteAheadLog(appended) as wal:
            for record in records:
                wal.append(record)
        with open(saved, "rb") as fh, open(appended, "rb") as gh:
            assert fh.read() == gh.read()  # byte-identical formats
        assert list(WriteAheadLog.load(saved)) == records

    def test_frames_out_of_lsn_order_load_sorted(self, tmp_path):
        # Threaded appenders draw an LSN and write the frame as separate
        # steps, so the file can hold 2, 1, 3; every entry point reads 1, 2, 3.
        path = str(tmp_path / "wal.log")
        shuffled = [status(2, "T1", "commit"), status(1, "T1", "begin"), status(3, "T2", "begin")]
        WriteAheadLog(records=shuffled).save_durable(path)
        assert [r.lsn for r in load_wal_file(path).log] == [1, 2, 3]
        assert [r.lsn for r in WriteAheadLog.load(path)] == [1, 2, 3]
        with DurableWriteAheadLog(path) as resumed:
            assert [r.lsn for r in resumed] == [1, 2, 3]
            assert resumed.next_lsn() == 4

    @pytest.mark.parametrize("open_log", [load_wal_file, DurableWriteAheadLog])
    def test_another_format_version_is_refused_and_kept(self, tmp_path, open_log):
        """A log of another frame format version is neither read nor
        started fresh: the reader and the writer both raise, naming both
        versions, and the file's bytes stay as they were."""
        path = tmp_path / "old.log"
        old = b"RWALv1\n\0" + encode_frame(pickle.dumps({"lsn": 1, "txn": "T1"}))
        path.write_bytes(old)
        with pytest.raises(ValueError, match="RWALv1.*RWALv2"):
            open_log(str(path))
        assert path.read_bytes() == old

    def test_load_wal_file_rejects_pickles(self, tmp_path):
        path = str(tmp_path / "pickled.wal")
        with open(path, "wb") as fh:
            pickle.dump([], fh)
        with pytest.raises(ValueError, match="not a durable WAL"):
            load_wal_file(path)
        with pytest.raises(ValueError, match="not a durable WAL"):
            WriteAheadLog.load(path)
        # The incremental writer starts such a file fresh instead.
        with DurableWriteAheadLog(path) as wal:
            assert len(wal) == 0
        assert load_wal_file(path).log.records == []
