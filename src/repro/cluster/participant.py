"""The shard-side half of presumed-abort two-phase commit.

One :class:`ClusterParticipant` fronts a shard's
:class:`~repro.server.core.TransactionServer` for cross-shard traffic.
Open-nested semantics make the protocol's branches *semantically*
atomic rather than globally isolated: a branch **commits locally at
PREPARE time** and releases its locks (exactly the paper's open-nested
subtransaction rule lifted one level), and a global abort undoes the
branch by running its registered inverse operations as a compensation
transaction.  Once the branch's own commit record is forced, every
other force on this side is bookkeeping, so a write branch costs two
forces and a read branch none.  The durable ordering that makes this
crash-safe:

1. ``2pc-prepare`` of a write branch: append a
   :class:`~repro.cluster.records.ClusterPrepareRecord` **before** the
   branch runs, then execute the branch as an ordinary admitted request
   (admission can shed it — the vote is then "no").  The record is not
   forced on its own: the log forces in append order and a force writes
   the whole buffer, so whichever force first makes a branch effect
   durable — the branch's commit, a vote-no abort decision, a
   concurrent transaction's commit — makes the prepare record durable
   with it.  No branch effect is ever durable without the evidence that
   the gtid may own it.  A failed branch logs an abort decision durably
   before replying, so recovery never needs the coordinator for it.
2. ``2pc-prepare`` of a read branch (an op in
   :data:`~repro.server.requests.READ_OPS`): the presumed-abort
   read-only vote.  No prepare record; the branch runs as an ordinary
   read, which forces nothing, and the reply carries ``"read_only":
   true``, so the router leaves this shard out of phase 2.  A failed
   read is a plain vote-no and logs nothing: it has nothing to
   compensate.
3. ``2pc-commit``: append a ``commit``
   :class:`~repro.cluster.records.ClusterDecisionRecord` and then a
   :class:`~repro.cluster.records.ClusterAckRecord` carrying the
   coordinator's per-shard decision sequence number, and force both at
   once.  The branch data is already durable (it committed under the
   WAL at prepare).
4. ``2pc-abort``: append + force an ``abort`` decision **first**, then
   compensate.  If the crash lands mid-compensation, the compensation
   transaction is a WAL loser — recovery physically undoes its partial
   effects and re-runs it from the decision record.  Once the
   compensation committed, append + force the ack record.

The ack is what licenses the coordinator to truncate the decision from
its own log, so the seq joins the contiguous ack high-water mark
(:class:`AckBook`) piggybacked on replies only after the force that
holds both records returns — after truncation, this WAL is the only
place the decision exists.

In-doubt resolution (:func:`resolve_in_doubt`) runs at shard boot,
after ordinary recovery, and settles both halves of the crash window:
every prepare record *without* a decision record is resolved by
querying the coordinator's durable decision log over the wire (unknown
gtids are presumed aborted), and every durable ``abort`` decision whose
branch committed but whose compensation did not
(:func:`unfinished_compensations`) has its compensation re-run from the
decision record.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Optional

from repro.cluster.records import (
    ClusterAckRecord,
    ClusterDecisionRecord,
    ClusterPrepareRecord,
)
from repro.errors import CompensationError, TransactionAborted, error_to_payload
from repro.recovery.addresses import resolve_address
from repro.recovery.wal import SubtxnCommitRecord, WriteAheadLog
from repro.server.core import TransactionServer
from repro.server.requests import READ_OPS, Request

__all__ = [
    "AckBook",
    "ClusterParticipant",
    "applied_decisions",
    "branch_inverses",
    "compensation_program",
    "in_doubt_gtids",
    "resolve_in_doubt",
    "unfinished_compensations",
]

#: Crash sites the shard-kill torture sweep drives (docs/CLUSTER.md).
CRASH_SITES = (
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


def _no_crash(site: str) -> None:
    return None


class AckBook:
    """Contiguity tracker over the coordinator's per-shard decision seqs.

    The ack high-water mark must be the largest ``n`` with **all** of
    seqs ``1..n`` durably applied here — a plain max would be unsound: a
    shard can miss a decision send (the router treats a dead shard as
    best-effort) for seq 3 yet apply seq 5, and claiming "everything
    through 5" would license the coordinator to forget a decision this
    shard never heard, turning a committed gtid into a presumed abort at
    the next in-doubt query.  Seqs applied above a gap ride along as
    ``extra`` until the gap fills (via in-doubt resolution at boot).
    """

    def __init__(self) -> None:
        self.hwm = 0
        self._extra: set[int] = set()

    def record(self, seq: int) -> bool:
        """Fold one applied seq in; True when it was new."""
        seq = int(seq)
        if seq <= self.hwm or seq in self._extra:
            return False
        self._extra.add(seq)
        while self.hwm + 1 in self._extra:
            self.hwm += 1
            self._extra.discard(self.hwm)
        return True

    @property
    def extra(self) -> tuple[int, ...]:
        """Applied seqs stranded above the contiguous high-water mark."""
        return tuple(sorted(self._extra))

    @classmethod
    def from_wal(cls, wal: Iterable) -> "AckBook":
        book = cls()
        for record in wal:
            if isinstance(record, ClusterAckRecord):
                book.record(record.shard_seq)
        return book


class ClusterParticipant:
    """Serves the ``2pc-*`` wire ops for one shard server."""

    def __init__(
        self,
        server: TransactionServer,
        wal: WriteAheadLog,
        crash: Callable[[str], None] = _no_crash,
    ) -> None:
        self.server = server
        self.wal = wal
        self._crash = crash
        self._lock = threading.Lock()
        self._branch_committed: set[str] = set()
        self._decided: set[str] = set()
        self._durably_decided: set[str] = set()
        self.acks = AckBook.from_wal(wal)
        obs = server.obs
        self._m_prepares = obs.counter("2pc.prepares")
        self._m_branch_commits = obs.counter("2pc.branch_commits")
        self._m_branch_failed = obs.counter("2pc.branch_failed")
        self._m_read_only = obs.counter("2pc.read_only")
        self._m_commits = obs.counter("2pc.decisions_commit")
        self._m_aborts = obs.counter("2pc.decisions_abort")
        self._m_compensations = obs.counter("2pc.compensations")
        self._m_acks = obs.counter("2pc.ack.logged")

    # ------------------------------------------------------------------
    # Wire ops (installed as WireServer extra_ops)
    # ------------------------------------------------------------------
    def wire_ops(self) -> dict[str, Callable[[dict[str, Any]], dict[str, Any]]]:
        return {
            "2pc-prepare": self.prepare,
            "2pc-commit": self.commit,
            "2pc-abort": self.abort,
            "shard-submit": self.submit,
        }

    def submit(self, message: dict[str, Any]) -> dict[str, Any]:
        """A single-shard request routed through, submitted under a
        stable transaction name (``rq-<request_id>``) so the shard's WAL
        records which acknowledged requests are durably committed."""
        request = Request.from_dict(message["request"])
        name = f"rq-{request.request_id}" if request.request_id is not None else None
        return self.server.submit(request, name=name).to_dict()

    def prepare(self, message: dict[str, Any]) -> dict[str, Any]:
        gtid = str(message["gtid"])
        branch_dict = dict(message["branch"])
        request = Request.from_dict(branch_dict)
        self._m_prepares.inc()
        self._crash("2pc-prepare-received")
        if request.op in READ_OPS:
            return self._prepare_read_only(gtid, request)
        # Intent strictly before any branch effect, in append order: any
        # force that makes an effect durable makes this record durable.
        self.wal.append(
            ClusterPrepareRecord(
                lsn=self.wal.next_lsn(),
                txn=f"2pc-{gtid}",
                gtid=gtid,
                coordinator=str(message.get("coordinator", "")),
                branch=branch_dict,
            )
        )
        self._crash("2pc-prepare-logged")
        response = self.server.submit(request, name=f"2pc-{gtid}")
        if response.ok:
            with self._lock:
                self._branch_committed.add(gtid)
            self._crash("2pc-branch-committed")
            self._m_branch_commits.inc()
            out = response.to_dict()
            out["status"] = "prepared"
            return out
        # Vote no: the branch shed/aborted/failed, so nothing committed
        # here — record the abort decision durably so recovery never has
        # to ask the coordinator about this gtid.
        self._m_branch_failed.inc()
        self._log_decision(gtid, "abort")
        return response.to_dict()

    def _prepare_read_only(self, gtid: str, request: Request) -> dict[str, Any]:
        """The read-only vote: no record, no force, no phase 2."""
        self._m_read_only.inc()
        response = self.server.submit(request, name=f"2pc-{gtid}")
        out = response.to_dict()
        if response.ok:
            out["status"] = "prepared"
        out["read_only"] = True
        return out

    def commit(self, message: dict[str, Any]) -> dict[str, Any]:
        gtid = str(message["gtid"])
        self._crash("2pc-commit-received")
        # The branch data committed durably at prepare, so the decision
        # is fully applied the moment it is durable: its ack shares the
        # decision's force.
        self._log_decision(gtid, "commit", message.get("seq"))
        self._crash("2pc-decision-logged")
        self._m_commits.inc()
        self._crash("2pc-ack-logged")
        return self._decision_reply(gtid, "committed")

    def abort(self, message: dict[str, Any]) -> dict[str, Any]:
        gtid = str(message["gtid"])
        self._crash("2pc-abort-received")
        with self._lock:
            committed = gtid in self._branch_committed
            already = gtid in self._decided
        if not already:
            # Decision before compensation: a crash mid-compensation
            # leaves the abort durable, and boot-time recovery re-runs
            # the (then physically-undone loser) compensation via
            # unfinished_compensations().
            self._log_decision(gtid, "abort")
            self._crash("2pc-abort-logged")
        self._m_aborts.inc()
        if committed and not already:
            self._compensate(gtid)
            self._crash("2pc-compensated")
        if not already:
            # Only ack an abort this call fully applied: the decision is
            # durable and the compensation (if any) committed.  A
            # duplicate send leaves acking to the boot-time announce.
            self._log_ack(gtid, message.get("seq"))
            self._crash("2pc-ack-logged")
        return self._decision_reply(gtid, "aborted")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _decision_reply(self, gtid: str, result: str) -> dict[str, Any]:
        """The decision reply; ``ack_hwm`` is the coordinator's license
        to treat the reply as an ack, so it is only present when the
        decision is durable from this call's point of view — a duplicate
        send that raced `_log_decision`'s idempotency check ahead of the
        first sender's force must not trigger truncation."""
        out: dict[str, Any] = {"status": "ok", "result": result}
        with self._lock:
            if gtid in self._durably_decided:
                out["ack_hwm"] = self.acks.hwm
        return out

    def _log_decision(self, gtid: str, decision: str, seq: Any = None) -> None:
        """Durably log *gtid*'s decision, and with it the ack of *seq*
        when one is given, in one force.  The seq joins the ack book and
        the gtid counts as durably decided only once that force returns,
        so no reply's ``ack_hwm`` covers a decision not yet durable."""
        with self._lock:
            if gtid in self._decided:
                return
            self._decided.add(gtid)
        self.wal.append(
            ClusterDecisionRecord(
                lsn=self.wal.next_lsn(),
                txn=f"2pc-{gtid}",
                gtid=gtid,
                decision=decision,
            )
        )
        if seq is not None:
            self._append_ack(gtid, seq)
        self.wal.sync()
        with self._lock:
            self._durably_decided.add(gtid)
            acked = seq is not None and self.acks.record(int(seq))
        if acked:
            self._m_acks.inc()

    def _log_ack(self, gtid: str, seq: Any) -> None:
        """Durably ack an applied abort by its coordinator seq.

        Guarded on the decision being durable *from this thread's view*:
        a duplicate decision send races `_log_decision`'s idempotency
        check ahead of the first sender's force, and acking then would
        let the coordinator truncate a decision that is not yet anywhere
        durable.  The skipped ack is re-announced at the next boot.
        """
        if seq is None:
            return
        with self._lock:
            if gtid not in self._durably_decided:
                return
            # The book dedups duplicate sends of the same seq; recording
            # before the WAL sync is safe because truncation is licensed
            # by the (already durable) decision record, not the ack — a
            # torn ack record merely re-announces less at the next boot.
            if not self.acks.record(int(seq)):
                return
        self._append_ack(gtid, seq)
        self.wal.sync()
        self._m_acks.inc()

    def _append_ack(self, gtid: str, seq: Any) -> None:
        self.wal.append(
            ClusterAckRecord(
                lsn=self.wal.next_lsn(),
                txn=f"2pc-{gtid}",
                gtid=gtid,
                shard_seq=int(seq),
            )
        )

    def _compensate(self, gtid: str) -> None:
        """Undo a locally-committed branch by running its inverses.

        Driven on this thread directly on the kernel (not through
        admission — an abort decision must not be shed) under the name
        ``comp-<gtid>``, whose durable commit status is what recovery
        checks for idempotency.  The kernel's lock-wait budget bounds
        every wait; a timed-out compensation aborts, and so raises.
        """
        inverses = branch_inverses(self.wal, f"2pc-{gtid}")
        if not inverses:
            return
        program = compensation_program(self.server.built.db, inverses)
        name = f"comp-{gtid}"
        tk = self.server.tk
        handle = tk.drive(name, program)
        tk.reap(name)
        if not handle.committed:
            raise CompensationError(f"compensation {name} failed: {handle.error!r}")
        self._m_compensations.inc()


# ----------------------------------------------------------------------
# Shared with shard-boot recovery
# ----------------------------------------------------------------------
def branch_inverses(
    wal: Iterable, txn: str
) -> list[SubtxnCommitRecord]:
    """The maximal committed subtransactions of *txn*, reversed.

    Compensating a branch means running the inverse of each *top-most*
    committed subtransaction in reverse commit order; records covered by
    a larger committed subtree are already undone by its inverse.
    """
    subs = [
        r
        for r in wal
        if isinstance(r, SubtxnCommitRecord) and r.txn == txn and r.compensates is None
    ]
    covered: set[str] = set()
    for record in subs:
        for node_id in record.subtree_ids:
            if node_id != record.node_id:
                covered.add(node_id)
    return [
        r
        for r in reversed(subs)
        if r.node_id not in covered and r.inverse_operation is not None
    ]


def compensation_program(db, inverses: list[SubtxnCommitRecord]):
    """An async transaction program running *inverses* in order."""
    calls = [
        (resolve_address(db, r.target), r.inverse_operation, tuple(r.inverse_args))
        for r in inverses
    ]

    async def compensate(tx):
        for target, operation, args in calls:
            await tx.call(target, operation, *args)
        return len(calls)

    return compensate


def unfinished_compensations(wal: WriteAheadLog) -> list[str]:
    """Abort-decided gtids whose compensation never durably committed.

    These are *not* in doubt — the decision record exists — but a crash
    between the forced abort decision and the compensation commit
    leaves the locally-committed branch standing while recovery
    physically undoes the partial compensation as a WAL loser.  Boot
    must re-run the compensation for each of these, in log order.
    """
    outcomes = wal.outcomes()
    gtids: list[str] = []
    seen: set[str] = set()
    for record in wal:
        if (
            isinstance(record, ClusterDecisionRecord)
            and record.decision == "abort"
            and record.gtid not in seen
        ):
            seen.add(record.gtid)
            if (
                outcomes.get(f"2pc-{record.gtid}") == "commit"
                and outcomes.get(f"comp-{record.gtid}") != "commit"
            ):
                gtids.append(record.gtid)
    return gtids


def applied_decisions(wal: WriteAheadLog) -> list[str]:
    """Gtids whose decision is fully applied on this shard, in log order.

    The boot-time ack announcement: every gtid with a durable decision
    record — minus abort decisions whose compensation has not committed
    yet (:func:`unfinished_compensations`); those finish applying during
    boot and are covered by the next incarnation's announcement.  Sent
    by gtid (not seq) because decisions learned through in-doubt
    resolution never carried a coordinator seq.
    """
    unfinished = set(unfinished_compensations(wal))
    gtids: list[str] = []
    seen: set[str] = set()
    for record in wal:
        if isinstance(record, ClusterDecisionRecord) and record.gtid not in seen:
            seen.add(record.gtid)
            if record.gtid not in unfinished:
                gtids.append(record.gtid)
    return gtids


def in_doubt_gtids(wal: Iterable) -> list[ClusterPrepareRecord]:
    """Prepare records with no decision record, in log order."""
    prepares: dict[str, ClusterPrepareRecord] = {}
    decided: set[str] = set()
    for record in wal:
        if isinstance(record, ClusterPrepareRecord):
            prepares.setdefault(record.gtid, record)
        elif isinstance(record, ClusterDecisionRecord):
            decided.add(record.gtid)
    return [record for gtid, record in prepares.items() if gtid not in decided]


def resolve_in_doubt(
    db,
    wal: WriteAheadLog,
    query_status: Callable[[str, str], str],
    run_program: Callable[[str, Any], None],
    metrics=None,
) -> dict[str, str]:
    """Resolve every in-doubt gtid after crash recovery; see module doc.

    ``query_status(gtid, coordinator)`` asks the coordinator's durable
    decision log (returning ``commit`` / ``abort`` / ``pending``);
    ``run_program(name, program)`` executes a compensation transaction
    under a WAL-wired kernel so it is itself durable.  Returns
    ``{gtid: outcome}`` where outcome is ``commit``, ``abort``, or
    ``abort+compensated``.
    """
    outcomes: dict[str, str] = {}
    # Decided aborts first: the decision is already durable (no
    # coordinator query needed), only the compensation commit is
    # missing, so re-run it from the decision record.
    for gtid in unfinished_compensations(wal):
        inverses = branch_inverses(wal, f"2pc-{gtid}")
        if not inverses:
            continue
        run_program(f"comp-{gtid}", compensation_program(db, inverses))
        outcomes[gtid] = "abort+compensated"
        if metrics is not None:
            metrics.counter("2pc.compensations").inc()
    for record in in_doubt_gtids(wal):
        gtid = record.gtid
        decision = query_status(gtid, record.coordinator)
        if metrics is not None:
            metrics.counter("2pc.indoubt").inc()
        if decision == "commit":
            # All-prepared implies our branch committed durably before we
            # voted; nothing to redo beyond ordinary recovery.
            outcomes[gtid] = "commit"
        else:
            outcome = "abort"
            branch = f"2pc-{gtid}"
            if (
                wal.status_of(branch) == "commit"
                and wal.status_of(f"comp-{gtid}") != "commit"
            ):
                inverses = branch_inverses(wal, branch)
                if inverses:
                    run_program(f"comp-{gtid}", compensation_program(db, inverses))
                    outcome = "abort+compensated"
                    if metrics is not None:
                        metrics.counter("2pc.compensations").inc()
            outcomes[gtid] = outcome
        # The decision itself becomes durable so the doubt never recurs.
        wal.append(
            ClusterDecisionRecord(
                lsn=wal.next_lsn(),
                txn=f"2pc-{gtid}",
                gtid=gtid,
                decision="commit" if decision == "commit" else "abort",
            )
        )
        wal.sync()
    return outcomes
