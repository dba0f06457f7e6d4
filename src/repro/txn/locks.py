"""Lock control blocks and per-object lock queues.

A lock is associated with a method name, the object id the method
operates on, the actual parameters, and the subtransaction that holds it
— exactly the "conceptual data structures" of Section 4.2.  The lock
table keeps, per object, the granted locks plus a FCFS queue of pending
requests; a requester is conflict-tested against *both* (footnote 5: "we
require that requested locks are granted in FCFS order"), so a request
cannot overtake an earlier conflicting one.

The conflict test itself is protocol-specific and injected as a callable
(:data:`ConflictTester`): the semantic protocol supplies Fig. 9, the
baselines supply read/write-mode tests.

Subtransaction commit is the hottest event of the retained-lock protocol
(Fig. 8 converts the completed child's locks and wakes its waiters), so
every commit-time operation here is indexed to cost O(affected locks),
not O(table size):

* **owner indices** — ``node -> its locks`` and ``top-level root ->
  every lock of its tree`` — make the tree-scoped release / reassign
  operations and :meth:`LockTable.locks_held_by_tree` proportional to
  the locks of that subtree;
* **dirty marks + a reverse blocker index** (``blocking node -> pending
  requests recorded as waiting on it``) let :meth:`LockTable.reevaluate`
  re-test only the queues whose conflict-test inputs may have changed —
  the object's granted set or earlier queue changed, or a recorded
  blocker completed — instead of conflict-testing every pending request
  table-wide on every lock change.

The skip condition is sound because a conflict test's outcome is a
function of (a) the granted locks and earlier queue entries on the
request's target and (b) the commit status of nodes in the holders'
trees: (a) changes mark the target dirty at the mutation site
(:meth:`LockTable._touch`, a no-op on a target without a queue, whose
first enqueue marks it), and (b)
changes are delivered through :meth:`LockTable.complete_node` (which
first re-dirties the completed node's own lock targets, covering
state-dependent compatibility cells that read the object's state).
``tests/test_lock_differential.py`` enforces behavioural equality with
the scan-based reference implementation kept in ``tests/helpers.py``.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Callable, Optional, Protocol, TYPE_CHECKING

from repro.errors import ProtocolViolation
from repro.objects.oid import Oid
from repro.semantics.invocation import Invocation
from repro.txn.transaction import TransactionNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.scheduler import Signal

# (holder node, holder invocation, requester node, requested invocation,
#  lock target) -> None if no conflict, else the node whose completion must
#  be awaited before the request can be granted
ConflictTester = Callable[
    [TransactionNode, Invocation, TransactionNode, Invocation, Oid],
    Optional[TransactionNode],
]


class Lock:
    """A granted lock: an invocation by a node on a target object."""

    __slots__ = ("lock_id", "node", "target", "invocation", "grant_clock", "tree_root")

    def __init__(
        self, lock_id: int, node: TransactionNode, target: Oid, invocation: Invocation
    ) -> None:
        self.lock_id = lock_id
        self.node = node
        self.target = target
        self.invocation = invocation
        self.grant_clock = 0.0  # virtual time of the grant (hold-time metric)
        # The owning top-level transaction, cached at grant time: release
        # paths must not re-walk the parent chain per lock, and the root
        # never changes (reassign moves a lock between nodes of one tree).
        self.tree_root = node.root()

    @property
    def retained(self) -> bool:
        """True once the lock has been converted into a retained lock.

        Per Fig. 8, the locks acquired for the children of *t* are
        converted into retained locks when *t* completes — i.e. a node's
        lock is retained exactly when its parent subtransaction has
        committed.  (A top-level transaction's own lock is never
        retained; it is released at commit.)
        """
        return self.node.parent is not None and self.node.parent.completed

    def __repr__(self) -> str:
        kind = "retained" if self.retained else "held"
        return f"<Lock#{self.lock_id} {self.invocation} on {self.target} by {self.node.node_id} ({kind})>"


class PendingRequest:
    """A queued lock request awaiting its blockers' completion."""

    __slots__ = (
        "node",
        "target",
        "invocation",
        "signal",
        "blockers",
        "enqueue_seq",
        "enqueue_clock",
    )

    def __init__(
        self,
        node: TransactionNode,
        target: Oid,
        invocation: Invocation,
        signal: "Signal",
        enqueue_seq: int,
    ) -> None:
        self.node = node
        self.target = target
        self.invocation = invocation
        self.signal = signal
        self.blockers: set[TransactionNode] = set()
        self.enqueue_seq = enqueue_seq
        self.enqueue_clock = 0.0  # virtual time of the block (wait-time metric)

    def __repr__(self) -> str:
        return f"<Pending {self.invocation} on {self.target} by {self.node.node_id}>"


class Disposition(enum.Enum):
    """What becomes of the locks under a node when it completes: the
    CC protocol declares it for a subtransaction."""

    RETAIN = "retain"  # Fig. 8: nothing moves, the locks now count as retained
    RELEASE_TREE = "release-tree"  # Fig. 8: "if t.parent = nil then release all locks"
    RELEASE_DESCENDANTS = "release-descendants"  # naive open nesting (Section 3)
    REASSIGN_TO_PARENT = "reassign-to-parent"  # Moss-style closed nesting


class LockTableAPI(Protocol):
    """The lock-table seam: what the kernel and the CC protocols call.

    :class:`LockTable` (both runtimes) and the scan-based reference
    table of the differential tests provide exactly this surface.  A
    table takes no lock of its own: on the threaded runtime the kernel
    makes every call under its kernel lock
    (:meth:`~repro.runtime.scheduler.SchedulerAPI.coordination`), so a
    lock request's test and its grant or enqueue are one step.
    """

    on_waits_changed: Optional[Callable[["PendingRequest"], None]]

    def try_acquire(
        self, node: TransactionNode, target: Oid, invocation: Invocation, tester: ConflictTester
    ) -> set[TransactionNode]: ...

    def enqueue_if_blocked(
        self,
        node: TransactionNode,
        target: Oid,
        invocation: Invocation,
        signal: "Signal",
        blockers: set[TransactionNode],
    ) -> "PendingRequest": ...

    def cancel(self, pending: "PendingRequest") -> None: ...

    def locks_on(self, target: Oid) -> tuple["Lock", ...]: ...

    def pending_of_tree(self, root: TransactionNode) -> list["PendingRequest"]: ...

    def complete_node(
        self, node: TransactionNode, disposition: Disposition, tester: ConflictTester
    ) -> tuple[list["Lock"], list["PendingRequest"]]: ...

    def reevaluate(self, tester: ConflictTester) -> list["PendingRequest"]: ...

    def release_tree(self, root: TransactionNode) -> list["Lock"]: ...

    def release_subtree(self, node: TransactionNode) -> list["Lock"]: ...

    @property
    def lock_count(self) -> int: ...

    @property
    def pending_count(self) -> int: ...

    def check_invariants(self) -> None: ...


class LockTable:
    """Granted locks and FCFS request queues, per object; see module doc."""

    #: Virtual-time upper bounds for the lock-hold histogram — matched
    #: to the bench cost model, where one storage op costs 1.0.
    HOLD_TIME_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500)

    def __init__(self, metrics=None, clock: Optional[Callable[[], float]] = None) -> None:
        self._granted: defaultdict[Oid, list[Lock]] = defaultdict(list)
        self._queues: defaultdict[Oid, list[PendingRequest]] = defaultdict(list)
        # Owner indices: node -> {lock_id: Lock} and tree root ->
        # {lock_id: Lock}, both in grant order (dict insertion order).
        self._locks_by_node: defaultdict[TransactionNode, dict[int, Lock]] = defaultdict(dict)
        self._locks_by_root: defaultdict[TransactionNode, dict[int, Lock]] = defaultdict(dict)
        # Pending requests per owning top-level transaction, in enqueue
        # order (enqueue_seq is monotonic, so insertion order suffices).
        self._pending_by_root: defaultdict[TransactionNode, dict[int, PendingRequest]] = (
            defaultdict(dict)
        )
        # Reverse blocker index: blocking node -> the pending requests
        # whose recorded blocker set contains it.
        self._blocker_index: defaultdict[TransactionNode, dict[int, PendingRequest]] = (
            defaultdict(dict)
        )
        # Re-evaluation work list: objects whose granted set or queue
        # changed, and pending requests whose recorded blocker completed.
        self._dirty_targets: set[Oid] = set()
        self._retest: set[int] = set()
        self._next_lock_id = 0
        self._next_enqueue_seq = 0
        self.total_grants = 0
        self.total_blocks = 0
        # Work accounting, always on and read by a bound registry's
        # collector (:meth:`_collect`): conflict-test invocations are the
        # irreducible cost every release/commit pays, so the bench layer
        # reports tests-per-release from these.
        self.total_conflict_tests = 0
        self.total_release_ops = 0
        self.reeval_passes = 0
        self.reeval_queues_checked = 0
        self.reeval_queues_skipped = 0
        self.conflict_tests_skipped = 0  # what a full scan would have spent
        # Incremental counts: grant/release/enqueue are the hot path, so
        # lock_count/pending_count must not walk the per-object dicts.
        self._n_granted = 0
        self._n_pending = 0
        # Peaks of the lock.* gauges since metrics were bound (or the
        # registry reset): each is raised where its level can rise.
        self._held_peak = 0
        self._pending_peak = 0
        self._owners_peak = 0
        self._blockers_peak = 0
        # Stamps grants and blocks for the hold/wait-time histograms;
        # a table built without one stamps nothing and has neither.
        self._clock = clock
        # Fired whenever a pending request's recorded blocker set changes
        # (block, re-test, grant, cancel) — the kernel maintains the
        # waits-for graph incrementally from these events.
        self.on_waits_changed: Optional[Callable[[PendingRequest], None]] = None
        self._hold_hist = None
        self._wait_hist = None
        if metrics is not None:
            self.bind_metrics(metrics, clock)

    def bind_metrics(self, registry, clock: Optional[Callable[[], float]] = None) -> None:
        """Attach a :class:`~repro.obs.MetricsRegistry` (and a clock).

        The clock (typically the scheduler's virtual clock) stamps
        grants and blocks so releases and wake-ups can feed the
        ``lock.hold_time`` / ``lock.wait_time`` histograms, which only a
        table with a clock binds.  The counts and levels are read by a
        collector (:meth:`_collect`); only the two histograms are pushed.
        """
        if clock is not None:
            self._clock = clock
        if self._clock is not None:
            self._hold_hist = registry.histogram("lock.hold_time", self.HOLD_TIME_BUCKETS)
            self._wait_hist = registry.histogram("lock.wait_time", self.HOLD_TIME_BUCKETS)
        registry.add_collector(self._collect, self._restart_peaks)

    def _collect(self) -> dict:
        return {
            "lock.grants": self.total_grants,
            "lock.blocks": self.total_blocks,
            "lock.conflict_tests": self.total_conflict_tests,
            "lock.conflict_tests_skipped": self.conflict_tests_skipped,
            "lock.release_ops": self.total_release_ops,
            "lock.reeval_passes": self.reeval_passes,
            "lock.reeval_queues_checked": self.reeval_queues_checked,
            "lock.reeval_queues_skipped": self.reeval_queues_skipped,
            "lock.held": (self._n_granted, self._held_peak),
            "lock.queue_depth": (self._n_pending, self._pending_peak),
            "lock.index.owners": (len(self._locks_by_node), self._owners_peak),
            "lock.index.blockers": (len(self._blocker_index), self._blockers_peak),
        }

    def _restart_peaks(self) -> None:
        self._held_peak = self._n_granted
        self._pending_peak = self._n_pending
        self._owners_peak = len(self._locks_by_node)
        self._blockers_peak = len(self._blocker_index)

    def _released(self, locks: list[Lock]) -> None:
        self._n_granted -= len(locks)
        if self._hold_hist is None or not locks:
            return
        now = self._clock()
        for lock in locks:
            self._hold_hist.observe(now - lock.grant_clock)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def locks_on(self, target: Oid) -> tuple[Lock, ...]:
        return tuple(self._granted.get(target, ()))

    def queue_on(self, target: Oid) -> tuple[PendingRequest, ...]:
        return tuple(self._queues.get(target, ()))

    def iter_pending(self) -> list[PendingRequest]:
        """All queued requests across every object, in enqueue order."""
        pending = [p for queue in self._queues.values() for p in queue]
        return sorted(pending, key=lambda p: p.enqueue_seq)

    def pending_of_tree(self, root: TransactionNode) -> list[PendingRequest]:
        """Queued requests of the given top-level transaction, in enqueue order."""
        return list(self._pending_by_root.get(root, {}).values())

    def locks_held_by_tree(self, root: TransactionNode) -> list[Lock]:
        """All granted locks belonging to the given top-level transaction."""
        return list(self._locks_by_root.get(root, {}).values())

    def locks_held_by_node(self, node: TransactionNode) -> list[Lock]:
        """The locks granted to exactly *node* (not its descendants)."""
        return list(self._locks_by_node.get(node, {}).values())

    @property
    def lock_count(self) -> int:
        return self._n_granted

    @property
    def pending_count(self) -> int:
        return self._n_pending

    @property
    def max_locks_held(self) -> int:
        """The most locks held at once: the ``lock.held`` hwm, counted
        since metrics were bound (since construction if they never were)."""
        return self._held_peak

    # ------------------------------------------------------------------
    # Acquisition
    # ------------------------------------------------------------------
    def compute_blockers(
        self,
        node: TransactionNode,
        target: Oid,
        invocation: Invocation,
        tester: ConflictTester,
        before_seq: Optional[int] = None,
    ) -> set[TransactionNode]:
        """Conflict-test a request against held locks and earlier queue entries.

        *before_seq* limits the queue check to requests enqueued earlier
        than the given sequence number (used when re-testing an already
        queued request).
        """
        blockers: set[TransactionNode] = set()
        tests = 0
        for lock in self._granted.get(target, ()):
            tests += 1
            blocker = tester(lock.node, lock.invocation, node, invocation, target)
            if blocker is not None:
                blockers.add(blocker)
        for pending in self._queues.get(target, ()):
            if pending.node is node:
                continue
            if before_seq is not None and pending.enqueue_seq >= before_seq:
                continue
            tests += 1
            blocker = tester(pending.node, pending.invocation, node, invocation, target)
            if blocker is not None:
                blockers.add(blocker)
        self.total_conflict_tests += tests
        return blockers

    def grant(self, node: TransactionNode, target: Oid, invocation: Invocation) -> Lock:
        """Unconditionally add a granted lock (caller performed the test)."""
        self._next_lock_id += 1
        lock = Lock(self._next_lock_id, node, target, invocation)
        self._granted[target].append(lock)
        self._locks_by_node[node][lock.lock_id] = lock
        self._locks_by_root[lock.tree_root][lock.lock_id] = lock
        self._touch(target)
        self.total_grants += 1
        self._n_granted += 1
        # Stamp the grant time even before bind_metrics: a lock granted
        # then must not poison the hold-time histogram with a zero grant
        # clock once metrics are attached mid-run.
        if self._clock is not None:
            lock.grant_clock = self._clock()
        if self._n_granted > self._held_peak:
            self._held_peak = self._n_granted
        if len(self._locks_by_node) > self._owners_peak:
            self._owners_peak = len(self._locks_by_node)
        return lock

    def _touch(self, target: Oid) -> None:
        """Mark *target* for re-test on the next pass, if a request is
        queued on it.  A mark on a target without a queue would be
        dropped unread by that pass, and :meth:`enqueue` marks the
        target it makes a queue on."""
        if self._queues and target in self._queues:
            self._dirty_targets.add(target)

    def enqueue(
        self,
        node: TransactionNode,
        target: Oid,
        invocation: Invocation,
        signal: "Signal",
    ) -> PendingRequest:
        """Queue a blocked request (FCFS position = enqueue order)."""
        self._next_enqueue_seq += 1
        pending = PendingRequest(node, target, invocation, signal, self._next_enqueue_seq)
        if self._clock is not None:
            pending.enqueue_clock = self._clock()
        self._queues[target].append(pending)
        self._pending_by_root[pending.node.root()][pending.enqueue_seq] = pending
        # A fresh request must be re-tested on the next pass even if
        # nothing else touches the object (its blockers may already be
        # gone by then, e.g. the holder released between test and queue).
        self._dirty_targets.add(target)
        self.total_blocks += 1
        self._n_pending += 1
        if self._n_pending > self._pending_peak:
            self._pending_peak = self._n_pending
        return pending

    def set_blockers(self, pending: PendingRequest, blockers: set[TransactionNode]) -> None:
        """Record a pending request's blocker set, keeping the reverse
        blocker index consistent and notifying the waits-for hook."""
        for old in pending.blockers:
            if old not in blockers:
                entry = self._blocker_index.get(old)
                if entry is not None:
                    entry.pop(pending.enqueue_seq, None)
                    if not entry:
                        del self._blocker_index[old]
        for blocker in blockers:
            self._blocker_index[blocker][pending.enqueue_seq] = pending
        if len(self._blocker_index) > self._blockers_peak:
            self._blockers_peak = len(self._blocker_index)
        pending.blockers = blockers
        if self.on_waits_changed is not None:
            self.on_waits_changed(pending)

    def try_acquire(
        self,
        node: TransactionNode,
        target: Oid,
        invocation: Invocation,
        tester: ConflictTester,
    ) -> set[TransactionNode]:
        """Conflict-test a request and grant it when nothing blocks it.

        Returns the blocker set; empty means the lock is now held.
        """
        blockers = self.compute_blockers(node, target, invocation, tester)
        if not blockers:
            self.grant(node, target, invocation)
        return blockers

    def enqueue_if_blocked(
        self,
        node: TransactionNode,
        target: Oid,
        invocation: Invocation,
        signal: "Signal",
        blockers: set[TransactionNode],
    ) -> PendingRequest:
        """Queue a request that :meth:`try_acquire` found blocked, with
        *blockers* (that call's answer, taken as is: the caller made
        both calls in one step) registered in the reverse index and
        reported to the waits-for hook."""
        pending = self.enqueue(node, target, invocation, signal)
        self.set_blockers(pending, blockers)
        return pending

    def complete_node(
        self, node: TransactionNode, disposition: Disposition, tester: ConflictTester
    ) -> tuple[list[Lock], list[PendingRequest]]:
        """One node completion: note the commit, dispose of the node's
        locks as *disposition* says, re-evaluate the queues.  Returns
        ``(locks released or moved, requests granted)``.  When
        :meth:`completion_has_work` says the pass can change nothing,
        dispose and re-evaluation are skipped and only the pass and the
        release are counted, as they would have been."""
        if not self.completion_has_work(node, disposition):
            self.reeval_passes += 1
            if disposition is not Disposition.RETAIN:
                self.total_release_ops += 1
            return [], []
        return self.dispose(node, disposition), self.reevaluate(tester)

    def completion_has_work(self, node: TransactionNode, disposition: Disposition) -> bool:
        """Whether :meth:`complete_node` of *node* can change anything
        here besides :attr:`total_release_ops`: a request is queued, or
        *disposition* releases or moves locks and *node*'s tree holds
        one here.  Otherwise the pass would grant nothing and only drop
        dirty marks, which matter to a queue alone (and every later
        queue marks its own target)."""
        return bool(self._n_pending) or (
            disposition is not Disposition.RETAIN and node.root() in self._locks_by_root
        )

    def dispose(self, node: TransactionNode, disposition: Disposition) -> list[Lock]:
        """:meth:`complete_node` before its re-evaluation.  First flags
        the requests recorded as waiting on *node* (case-2 waits its
        commit relieves) and re-dirties the queued targets of its own
        locks (state-dependent compatibility cells may read state it
        changed) — before a release drops its owner-index entry."""
        entry = self._blocker_index.get(node)
        if entry is not None:
            self._retest.update(entry)
        for lock in self._locks_by_node.get(node, {}).values():
            self._touch(lock.target)
        if disposition is Disposition.RETAIN:
            return []
        if disposition is Disposition.RELEASE_TREE:
            return self.release_tree(node)
        if disposition is Disposition.RELEASE_DESCENDANTS:
            return self.release_descendant_locks(node)
        return self.reassign_locks_to_parent(node)

    def _forget_pending(self, pending: PendingRequest) -> None:
        """Bookkeeping shared by grant-from-queue and cancel."""
        tree = self._pending_by_root.get(pending.node.root())
        if tree is not None:
            tree.pop(pending.enqueue_seq, None)
            if not tree:
                del self._pending_by_root[pending.node.root()]
        self._retest.discard(pending.enqueue_seq)
        self._n_pending -= 1

    def cancel(self, pending: PendingRequest) -> None:
        """Drop a queued request (the requester aborted).

        Clears the recorded blocker set (and its reverse-index entries)
        and fires the waits-for hook, so a cancelled request can never
        contribute stale waits-for edges or stale blocker-index entries.
        """
        queue = self._queues.get(pending.target)
        if queue and pending in queue:
            queue.remove(pending)
            if not queue:
                del self._queues[pending.target]
            self._forget_pending(pending)
            # Later entries of this queue were tested against the
            # cancelled one; their outcome may have changed.
            self._touch(pending.target)
            self.set_blockers(pending, set())

    def reevaluate(self, tester: ConflictTester) -> list[PendingRequest]:
        """Grant every queued request whose blockers are gone.

        Walks the affected objects' queues in FCFS order; a request is
        granted only if it conflicts neither with granted locks nor with
        requests still queued ahead of it.  Only queues whose
        conflict-test inputs may have changed since the last pass — the
        object is dirty, or a queued request's recorded blocker
        completed — are re-tested; the rest are provably still blocked.
        Returns the requests granted in this pass; their signals are
        fired so the blocked coroutines resume.
        """
        self.reeval_passes += 1
        if not self._n_pending:  # and an enqueue dirties its own target
            self._dirty_targets.clear()
            return []
        dirty, self._dirty_targets = self._dirty_targets, set()
        retest, self._retest = self._retest, set()
        granted_now: list[PendingRequest] = []
        for target, queue in list(self._queues.items()):  # a drained queue is deleted
            if not self._queue_needs_retest(target, queue, dirty, retest):
                self.reeval_queues_skipped += 1
                self.conflict_tests_skipped += self._scan_cost_of(target, queue)
                continue
            self.reeval_queues_checked += 1
            self._retest_queue(target, queue, tester, granted_now)
        for pending in granted_now:
            pending.signal.fire()  # no value: the signal must not point back
        return granted_now

    def _queue_needs_retest(
        self,
        target: Oid,
        queue: list[PendingRequest],
        dirty: set[Oid],
        retest: set[int],
    ) -> bool:
        if target in dirty:
            return True
        if retest:
            return any(p.enqueue_seq in retest for p in queue)
        return False

    def _scan_cost_of(self, target: Oid, queue: list[PendingRequest]) -> int:
        """Conflict tests a full table scan would have spent on *queue*:
        each entry against every granted lock plus the entries ahead."""
        n_granted = len(self._granted.get(target, ()))
        n_queued = len(queue)
        return n_queued * n_granted + n_queued * (n_queued - 1) // 2

    def _retest_queue(
        self,
        target: Oid,
        queue: list[PendingRequest],
        tester: ConflictTester,
        granted_now: list[PendingRequest],
    ) -> None:
        still_waiting: list[PendingRequest] = []
        for pending in queue:
            blockers = self.compute_blockers(
                pending.node,
                target,
                pending.invocation,
                tester,
                before_seq=pending.enqueue_seq,
            )
            # Requests that were granted earlier in this pass are
            # already in the granted list and tested above.
            blockers -= {pending.node}
            if blockers:
                self.set_blockers(pending, blockers)
                still_waiting.append(pending)
            else:
                self.grant(pending.node, target, pending.invocation)
                if self._wait_hist is not None:
                    self._wait_hist.observe(self._clock() - pending.enqueue_clock)
                self._forget_pending(pending)
                self.set_blockers(pending, set())
                granted_now.append(pending)
        if still_waiting:
            queue[:] = still_waiting
        else:
            del self._queues[target]

    # ------------------------------------------------------------------
    # Release
    # ------------------------------------------------------------------
    def _count_release_op(self) -> None:
        self.total_release_ops += 1

    def _drop_locks(self, locks: list[Lock]) -> None:
        """Remove already-collected locks from every structure, one lock
        at a time: its node's entry, its tree's root entry (unless
        :meth:`release_tree` popped that entry whole) and its target's
        granted list.
        """
        by_node = self._locks_by_node
        by_root = self._locks_by_root
        granted = self._granted
        for lock in locks:
            node_entry = by_node[lock.node]
            del node_entry[lock.lock_id]
            if not node_entry:
                del by_node[lock.node]
            root_entry = by_root.get(lock.tree_root)
            if root_entry is not None:
                del root_entry[lock.lock_id]
                if not root_entry:
                    del by_root[lock.tree_root]
            target = lock.target
            held = granted[target]
            held.remove(lock)
            if not held:
                del granted[target]
            self._touch(target)
        self._released(locks)

    def release_lock(self, lock: Lock) -> None:
        locks = self._granted.get(lock.target)
        if not locks or lock not in locks:
            raise ProtocolViolation(f"releasing unknown lock {lock!r}")
        self._count_release_op()
        self._drop_locks([lock])

    def release_tree(self, root: TransactionNode) -> list[Lock]:
        """Release every lock of the given top-level transaction.

        This is Fig. 8's "if t.parent = nil then release all locks".
        Returns the released locks (for tracing).
        """
        self._count_release_op()
        entry = self._locks_by_root.pop(root, None)
        if entry is None:
            return []
        released = list(entry.values())
        self._drop_locks(released)
        return released

    def _collect_subtree_locks(
        self, node: TransactionNode, include_self: bool
    ) -> list[Lock]:
        locks: list[Lock] = []
        for member in node.descendants(include_self=include_self):
            entry = self._locks_by_node.get(member)
            if entry:
                locks.extend(entry.values())
        return locks

    def release_descendant_locks(self, node: TransactionNode) -> list[Lock]:
        """Release locks of *node*'s strict descendants.

        Used by the naive Section-3 open nested protocol, which releases
        a subtransaction's locks when it completes (keeping only the
        subtransaction's own semantic lock, held further by its parent).
        """
        self._count_release_op()
        released = self._collect_subtree_locks(node, include_self=False)
        self._drop_locks(released)
        return released

    def release_subtree(self, node: TransactionNode) -> list[Lock]:
        """Release the locks of *node* and all its descendants.

        Used by subtransaction restart: the rolled-back subtree gives up
        everything it acquired and will re-acquire on retry.
        """
        self._count_release_op()
        released = self._collect_subtree_locks(node, include_self=True)
        self._drop_locks(released)
        return released

    def reassign_locks_to_parent(self, node: TransactionNode) -> list[Lock]:
        """Pass *node*'s locks (and its subtree's) up to its parent.

        This is Moss-style *closed* nested locking: on subtransaction
        commit the parent inherits the child's locks.
        """
        if node.parent is None:
            raise ProtocolViolation("cannot reassign locks of a top-level transaction")
        self._count_release_op()
        moved = self._collect_subtree_locks(node, include_self=True)
        parent_entry = self._locks_by_node[node.parent]
        for lock in moved:
            owner_entry = self._locks_by_node.get(lock.node)
            if owner_entry is not None and owner_entry is not parent_entry:
                owner_entry.pop(lock.lock_id, None)
                if not owner_entry:
                    del self._locks_by_node[lock.node]
            lock.node = node.parent
            parent_entry[lock.lock_id] = lock
            # The holder changed, so recorded conflict outcomes on this
            # object may have changed with it.
            self._touch(lock.target)
        if not parent_entry:
            # defaultdict access created an empty entry for a node
            # without locks; do not let it linger in the index.
            del self._locks_by_node[node.parent]
        return moved

    # ------------------------------------------------------------------
    # Invariants (used by tests and the differential oracle)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the indices agree with ``_granted``/``_queues``."""
        by_scan: dict[int, Lock] = {}
        for target, locks in self._granted.items():
            assert locks, f"empty granted entry for {target!r}"
            for lock in locks:
                assert lock.target == target, (lock, target)
                by_scan[lock.lock_id] = lock
        by_node = {
            lock_id: lock
            for entry in self._locks_by_node.values()
            for lock_id, lock in entry.items()
        }
        by_root = {
            lock_id: lock
            for entry in self._locks_by_root.values()
            for lock_id, lock in entry.items()
        }
        assert by_scan == by_node == by_root, (by_scan, by_node, by_root)
        assert len(by_scan) == self._n_granted
        for node, entry in self._locks_by_node.items():
            assert entry, f"empty owner-index entry for {node!r}"
            for lock in entry.values():
                assert lock.node is node
        for root, entry in self._locks_by_root.items():
            assert entry, f"empty root-index entry for {root!r}"
            for lock in entry.values():
                assert lock.tree_root is root
        assert all(self._queues.values()), "empty queue entry"
        queued = {p.enqueue_seq: p for q in self._queues.values() for p in q}
        assert len(queued) == self._n_pending
        by_pending_root = {
            seq: p
            for entry in self._pending_by_root.values()
            for seq, p in entry.items()
        }
        assert queued == by_pending_root, (queued, by_pending_root)
        for blocker, entry in self._blocker_index.items():
            assert entry, f"empty blocker-index entry for {blocker!r}"
            for seq, pending in entry.items():
                assert seq in queued, f"stale blocker-index entry {pending!r}"
                assert blocker in pending.blockers
        for pending in queued.values():
            for blocker in pending.blockers:
                assert pending.enqueue_seq in self._blocker_index.get(blocker, {})
