"""Unit tests for the storage substrate: records, pages, manager."""

from __future__ import annotations

import random

import pytest

from repro.errors import DuplicateRecordError, UnknownObjectError
from repro.objects.oid import Oid
from repro.storage.manager import StorageManager
from repro.storage.page import Page
from repro.storage.record import RecordId


def oid(n: int) -> Oid:
    return Oid("Atom", n)


class TestPage:
    def test_allocate_and_release(self):
        page = Page(0, capacity=2)
        s0 = page.allocate(oid(1))
        s1 = page.allocate(oid(2))
        assert {s0, s1} == {0, 1}
        assert page.occupied == 2
        with pytest.raises(IndexError, match="full"):
            page.allocate(oid(3))
        page.release(s0)
        assert page.free_slots == 1
        assert page.owner_of(s1) == oid(2)

    def test_double_release_rejected(self):
        page = Page(0, capacity=1)
        slot = page.allocate(oid(1))
        page.release(slot)
        with pytest.raises(IndexError, match="already free"):
            page.release(slot)

    def test_owners(self):
        page = Page(0, capacity=3)
        page.allocate(oid(1))
        page.allocate(oid(2))
        assert set(page.owners()) == {oid(1), oid(2)}


class TestStorageManager:
    def test_sequential_clustering(self):
        mgr = StorageManager(records_per_page=2)
        rids = [mgr.allocate(oid(i)) for i in range(4)]
        assert [r.page_no for r in rids] == [0, 0, 1, 1]
        assert mgr.page_count == 2
        assert mgr.co_located(oid(0), oid(1))
        assert not mgr.co_located(oid(1), oid(2))

    def test_hole_reuse(self):
        mgr = StorageManager(records_per_page=2)
        for i in range(4):
            mgr.allocate(oid(i))
        mgr.release(oid(0))
        rid = mgr.allocate(oid(9))
        assert rid.page_no == 0  # hole reused before growing the file
        assert mgr.page_count == 2

    def test_page_oid(self):
        mgr = StorageManager(records_per_page=4)
        mgr.allocate(oid(1))
        page_oid = mgr.page_oid(oid(1))
        assert page_oid.type_name == "Page"
        assert page_oid.number == 0

    def test_duplicate_allocation_rejected(self):
        mgr = StorageManager()
        mgr.allocate(oid(1))
        with pytest.raises(DuplicateRecordError, match="already has a record"):
            mgr.allocate(oid(1))

    def test_duplicate_allocation_error_is_distinct(self):
        """The misfiled case gets its own type, still caught by old handlers.

        Allocating twice is "this object already exists", the opposite of
        "this object is unknown" — callers distinguishing the two (e.g. an
        idempotent loader retrying allocations) need separate types, while
        pre-existing ``except UnknownObjectError`` code keeps working.
        """
        mgr = StorageManager()
        mgr.allocate(oid(1))
        try:
            mgr.allocate(oid(1))
        except UnknownObjectError as exc:  # backwards-compatible catch
            assert isinstance(exc, DuplicateRecordError)
        else:
            pytest.fail("duplicate allocation must raise")
        # and the release path still reports unknown objects as unknown
        with pytest.raises(UnknownObjectError) as info:
            mgr.release(oid(99))
        assert not isinstance(info.value, DuplicateRecordError)

    def test_unknown_queries(self):
        mgr = StorageManager()
        with pytest.raises(UnknownObjectError):
            mgr.record_of(oid(1))
        with pytest.raises(UnknownObjectError):
            mgr.release(oid(1))

    def test_record_count(self):
        mgr = StorageManager(records_per_page=8)
        for i in range(5):
            mgr.allocate(oid(i))
        assert mgr.record_count == 5
        mgr.release(oid(3))
        assert mgr.record_count == 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            StorageManager(records_per_page=0)

    def test_record_id_str(self):
        assert str(RecordId(2, 3)) == "R(2,3)"


class _ScanningStorage(StorageManager):
    """The placement policy as a scan over every page: the reference the
    indexed choice must agree with."""

    def _find_page_with_space(self) -> Page:
        if self._pages and self._pages[-1].free_slots:
            return self._pages[-1]
        for page in self._pages:
            if page.free_slots:
                return page
        page = Page(len(self._pages), self.records_per_page)
        self._pages.append(page)
        return page


class _CountingPages(list):
    """A page list that counts the pages read out of it."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        for page in super().__iter__():
            self.reads += 1
            yield page


class TestPageChoice:
    @pytest.mark.parametrize("seed", range(3))
    def test_placement_matches_the_scanning_policy(self, seed):
        rng = random.Random(seed)
        fast = StorageManager(records_per_page=4)
        slow = _ScanningStorage(records_per_page=4)
        live: list[Oid] = []
        for n in range(3000):
            if live and rng.random() < 0.4:
                owner = live.pop(rng.randrange(len(live)))
                fast.release(owner)
                slow.release(owner)
            else:
                owner = oid(n)
                assert fast.allocate(owner) == slow.allocate(owner)
                live.append(owner)
        assert fast.page_count == slow.page_count

    def test_an_allocation_inspects_a_constant_number_of_pages(self):
        """Without releases an allocation reads only the last page (at
        most twice); with releases each stale hole entry is read once
        more, so reads stay within 3 per allocation plus 2 per release."""
        mgr = StorageManager(records_per_page=4)
        mgr._pages = pages = _CountingPages()
        for n in range(800):  # 200 full pages, none with a hole
            before = pages.reads
            mgr.allocate(oid(n))
            assert pages.reads - before <= 2
        rng = random.Random(7)
        live = list(range(800))
        allocations = releases = 0
        pages.reads = 0
        for n in range(800, 4000):
            if rng.random() < 0.4:
                mgr.release(oid(live.pop(rng.randrange(len(live)))))
                releases += 1
            else:
                mgr.allocate(oid(n))
                live.append(n)
                allocations += 1
        assert pages.reads <= 3 * allocations + 2 * releases
