"""The storage manager: OID → record → page mapping.

Every atomic object and every set object (its membership directory) is
backed by one record.  Records are allocated sequentially onto pages of
configurable capacity, so objects created together cluster on the same
page — the realistic situation in which page-granularity locking causes
false conflicts between logically independent objects.
"""

from __future__ import annotations

import heapq
import threading

from repro.errors import DuplicateRecordError, UnknownObjectError
from repro.objects.oid import Oid
from repro.storage.page import Page
from repro.storage.record import RecordId

PAGE_TYPE_NAME = "Page"


class StorageManager:
    """Allocates records for logical objects and answers page queries."""

    def __init__(self, records_per_page: int = 8) -> None:
        if records_per_page < 1:
            raise ValueError("records_per_page must be >= 1")
        self.records_per_page = records_per_page
        self._pages: list[Page] = []
        # Every page but the last that has a free slot is listed here: a
        # min-heap of page numbers, pushed when a release opens a full
        # page's first hole.  Deletion is lazy: an entry whose page has
        # filled up again is dropped when it reaches the top.
        self._holes: list[int] = []
        self._record_of: dict[Oid, RecordId] = {}
        # Transactions stepping on different worker threads allocate
        # concurrently: slot choice, the record map and the page's
        # persisted image change as one step under this lock.
        self._alloc_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, owner: Oid) -> RecordId:
        """Back *owner* with a new record; returns its RID."""
        with self._alloc_lock:
            if owner in self._record_of:
                raise DuplicateRecordError(f"{owner} already has a record")
            page = self._find_page_with_space()
            slot = page.allocate(owner)
            rid = RecordId(page.number, slot)
            self._record_of[owner] = rid
            self._write_page_image(rid.page_no)
        return rid

    def release(self, owner: Oid) -> None:
        """Free the record backing *owner* (object deletion)."""
        with self._alloc_lock:
            rid = self._record_of.pop(owner, None)
            if rid is None:
                raise UnknownObjectError(f"{owner} has no record")
            page = self._pages[rid.page_no]
            page.release(rid.slot)
            if page.free_slots == 1:
                heapq.heappush(self._holes, page.number)
            self._write_page_image(rid.page_no)

    def _write_page_image(self, page_no: int) -> None:
        """Persist the page's changed slot directory (caller holds the
        allocation lock).  In-memory pages have no image; the durable
        subclass writes through its buffer pool."""

    def _find_page_with_space(self) -> Page:
        # Fill the most recent page first; the lowest-numbered older page
        # with a hole is reused before growing the file.  O(1) amortised:
        # each heap entry is inspected once after its page fills.
        pages = self._pages
        if pages and pages[-1].free_slots:
            return pages[-1]
        holes = self._holes
        while holes:
            page = pages[holes[0]]
            if page.free_slots:
                return page
            heapq.heappop(holes)
        page = Page(len(pages), self.records_per_page)
        pages.append(page)
        return page

    def _index_holes(self) -> None:
        """Rebuild the hole heap after the pages were set wholesale."""
        self._holes = [page.number for page in self._pages if page.free_slots]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def record_of(self, owner: Oid) -> RecordId:
        try:
            return self._record_of[owner]
        except KeyError:
            raise UnknownObjectError(f"{owner} has no record") from None

    def has_record(self, owner: Oid) -> bool:
        return owner in self._record_of

    def page_of(self, owner: Oid) -> int:
        """The page number backing *owner*."""
        return self.record_of(owner).page_no

    def page_oid(self, owner: Oid) -> Oid:
        """An :class:`Oid` naming the page backing *owner*.

        Page OIDs are what the page-granularity baseline protocol locks.
        """
        return Oid(PAGE_TYPE_NAME, self.page_of(owner))

    def co_located(self, a: Oid, b: Oid) -> bool:
        """True if both objects' records live on the same page."""
        return self.page_of(a) == self.page_of(b)

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def record_count(self) -> int:
        return len(self._record_of)

    def page(self, number: int) -> Page:
        return self._pages[number]
