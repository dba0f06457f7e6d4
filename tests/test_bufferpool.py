"""The buffer pool: pins, LRU, single writeback, WAL-before-data.

The pool is tested over an instrumented fake disk that records every
``read_page``/``write_page`` in order, and a fake WAL that records when
``sync_to`` was called relative to those writes — the WAL-before-data
assertion is literally "the sync appears in the combined event log
before the page write it covers".
"""

from __future__ import annotations

import pytest

from repro.storage.bufferpool import BufferPool, BufferPoolError


class FakeDisk:
    """In-memory page store recording the exact operation sequence."""

    def __init__(self):
        self.pages: dict[int, bytes] = {}
        self.events: list[tuple] = []

    def read_page(self, page_no):
        self.events.append(("read", page_no))
        return self.pages.get(page_no)

    def write_page(self, page_no, payload):
        self.events.append(("write", page_no, payload))
        self.pages[page_no] = payload

    def writes_of(self, page_no):
        return [e for e in self.events if e[0] == "write" and e[1] == page_no]


class FakeWal:
    """Tracks durable_lsn; logs syncs into the *disk's* event stream."""

    def __init__(self, disk: FakeDisk):
        self._disk = disk
        self.durable_lsn = 0

    def sync_to(self, lsn):
        self._disk.events.append(("sync_to", lsn))
        self.durable_lsn = max(self.durable_lsn, lsn)


def make_pool(capacity=2, with_wal=False):
    disk = FakeDisk()
    wal = FakeWal(disk) if with_wal else None
    return BufferPool(disk, capacity=capacity, wal=wal), disk, wal


class TestPinning:
    def test_miss_then_hit(self):
        pool, disk, __ = make_pool()
        disk.pages[0] = b"zero"
        frame = pool.pin(0)
        assert frame.payload == b"zero"
        pool.unpin(0)
        pool.pin(0)  # hit: no second read
        pool.unpin(0)
        assert disk.events == [("read", 0)]

    def test_pins_nest(self):
        pool, __, __ = make_pool()
        pool.pin(0)
        pool.pin(0)
        pool.unpin(0)
        assert pool.pinned_pages == [0]
        pool.unpin(0)
        assert pool.pinned_pages == []
        with pytest.raises(BufferPoolError, match="not pinned"):
            pool.unpin(0)

    def test_unpin_nonresident_rejected(self):
        pool, __, __ = make_pool()
        with pytest.raises(BufferPoolError, match="not resident"):
            pool.unpin(7)

    def test_put_requires_pin(self):
        pool, __, __ = make_pool()
        pool.pin(0)
        pool.unpin(0)
        with pytest.raises(BufferPoolError, match="must be pinned"):
            pool.put(0, b"data")


class TestEviction:
    def test_pinned_pages_never_evicted(self):
        pool, __, __ = make_pool(capacity=2)
        pool.pin(0)  # stays pinned
        pool.pin(1)
        pool.unpin(1)
        pool.pin(2)  # must evict 1, never 0
        assert pool.frame(0) is not None
        assert pool.frame(1) is None
        pool.check_invariants()

    def test_all_pinned_raises(self):
        pool, __, __ = make_pool(capacity=2)
        pool.pin(0)
        pool.pin(1)
        with pytest.raises(BufferPoolError, match="all 2 frames are pinned"):
            pool.pin(2)

    def test_lru_order(self):
        pool, __, __ = make_pool(capacity=3)
        for page in (0, 1, 2):
            pool.pin(page)
            pool.unpin(page)
        pool.pin(0)  # 0 is now most recent; LRU is 1
        pool.unpin(0)
        pool.pin(3)
        assert pool.frame(1) is None
        assert pool.frame(0) is not None and pool.frame(2) is not None
        pool.pin(4)  # next LRU is 2
        assert pool.frame(2) is None
        pool.check_invariants()

    def test_clean_eviction_never_writes(self):
        pool, disk, __ = make_pool(capacity=1)
        disk.pages[0] = b"zero"
        pool.pin(0)
        pool.unpin(0)  # clean
        pool.pin(1)  # evicts 0
        assert disk.writes_of(0) == []


class TestWriteback:
    def test_dirty_eviction_writes_back_exactly_once(self):
        pool, disk, __ = make_pool(capacity=1)
        pool.pin(0)
        pool.put(0, b"v1")
        pool.unpin(0)
        pool.pin(1)  # evicts dirty 0
        assert disk.writes_of(0) == [("write", 0, b"v1")]
        pool.unpin(1)
        pool.pin(2)  # evicts clean 1 — no extra write of 0
        assert disk.writes_of(0) == [("write", 0, b"v1")]

    def test_flush_marks_clean_so_eviction_skips_disk(self):
        pool, disk, __ = make_pool(capacity=2)
        pool.pin(0)
        pool.put(0, b"v1")
        pool.unpin(0)
        pool.flush_page(0)
        assert disk.writes_of(0) == [("write", 0, b"v1")]
        pool.pin(1)
        pool.unpin(1)
        pool.pin(2)
        pool.pin(3)  # evict both clean frames
        assert disk.writes_of(0) == [("write", 0, b"v1")]  # still exactly one

    def test_flush_all_writes_every_dirty_frame(self):
        pool, disk, __ = make_pool(capacity=4)
        for page in (0, 1, 2):
            pool.pin(page)
            pool.put(page, b"p%d" % page)
            pool.unpin(page)
        pool.pin(3)
        pool.unpin(3)  # clean
        pool.flush_all()
        assert pool.dirty_pages == []
        assert [e[1] for e in disk.events if e[0] == "write"] == [0, 1, 2]
        assert pool.resident == 4  # flush does not evict

    def test_redirtied_after_flush_writes_again(self):
        pool, disk, __ = make_pool()
        pool.pin(0)
        pool.put(0, b"v1")
        pool.unpin(0)
        pool.flush_page(0)
        pool.pin(0)
        pool.put(0, b"v2")
        pool.unpin(0)
        pool.flush_page(0)
        assert disk.writes_of(0) == [("write", 0, b"v1"), ("write", 0, b"v2")]


class TestWalBeforeData:
    def test_sync_precedes_data_write(self):
        pool, disk, wal = make_pool(capacity=1, with_wal=True)
        pool.pin(0)
        pool.put(0, b"v1", lsn=17)
        pool.unpin(0)
        pool.pin(1)  # evict dirty 0: WAL must be durable to 17 first
        ordered = [e for e in disk.events if e[0] in ("sync_to", "write")]
        assert ordered == [("sync_to", 17), ("write", 0, b"v1")]
        assert wal.durable_lsn == 17

    def test_already_durable_skips_sync(self):
        pool, disk, wal = make_pool(capacity=1, with_wal=True)
        wal.durable_lsn = 100
        pool.pin(0)
        pool.put(0, b"v1", lsn=17)
        pool.unpin(0)
        pool.flush_page(0)
        assert [e for e in disk.events if e[0] == "sync_to"] == []

    def test_unpin_dirty_lsn_keeps_maximum(self):
        pool, disk, wal = make_pool(with_wal=True)
        pool.pin(0)
        pool.put(0, b"v1", lsn=9)
        pool.unpin(0, dirty=True, lsn=4)  # lower lsn must not regress
        assert pool.frame(0).page_lsn == 9
        pool.flush_page(0)
        assert ("sync_to", 9) in disk.events


class TestInvariants:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            BufferPool(FakeDisk(), capacity=0)

    def test_check_invariants_catches_corruption(self):
        pool, __, __ = make_pool()
        pool.pin(0)
        pool.frame(0).page_no = 5  # simulate bookkeeping corruption
        with pytest.raises(AssertionError, match="claims"):
            pool.check_invariants()

    def test_metrics_registry_binding(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        disk = FakeDisk()
        pool = BufferPool(disk, capacity=1, metrics=registry)
        pool.pin(0)
        pool.put(0, b"x")
        pool.unpin(0)
        pool.pin(1)  # miss + dirty eviction
        assert registry.counter("bufferpool.misses").value == 2
        assert registry.counter("bufferpool.evictions").value == 1
        assert registry.counter("bufferpool.writebacks").value == 1
        assert registry.gauge("bufferpool.pinned").value == 1
