"""Cluster 2PC record types in the shard write-ahead log.

These frames ride the same durable WAL as the kernel's update and status
records (:mod:`repro.recovery.wal`), so a shard's vote and the outcome
it learned survive a SIGKILL together with the branch's data records:

* :class:`ClusterPrepareRecord` — the shard's durable *intent* to run a
  cross-shard write branch, appended **before** the branch executes
  and forced by the first force that makes any branch effect durable
  (the log forces in append order).  A read branch writes none.  A
  prepare record with no matching decision record marks the global
  transaction *in doubt*; on restart the shard resolves it by asking
  the coordinator (presumed abort: an unknown gtid means abort).
* :class:`ClusterDecisionRecord` — the durably learned global outcome
  (``commit`` or ``abort``); once present the gtid is never in doubt
  again.
* :class:`ClusterAckRecord` — the shard's durable acknowledgement that
  a decision is *fully applied* here (decision record forced — on
  commit, in the same force as this record — and for aborts the
  compensation committed).  The record carries the coordinator's
  per-shard decision sequence number; at boot the shard folds every ack
  record into its contiguous ack high-water mark
  (:class:`~repro.cluster.participant.AckBook`) and re-announces it to
  the coordinator, which may then truncate fully-acked decisions from
  its own log.

All three carry a ``txn`` field naming the branch transaction
(``2pc-<gtid>``) so generic log consumers can group them, and all are
invisible to recovery's analysis/redo/undo passes (which act only on
the kernel's own record types).  Like those, each is a
:class:`typing.NamedTuple` framed as ``(KIND, *fields)``; the cluster's
frame tags are 3-5, after the kernel's 0-2.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

__all__ = ["ClusterPrepareRecord", "ClusterDecisionRecord", "ClusterAckRecord"]


class ClusterPrepareRecord(NamedTuple):
    """Durable intent to execute one branch of a global transaction."""

    KIND = 3  # frame tag

    lsn: int
    txn: str  # the branch transaction name: "2pc-<gtid>"
    gtid: str
    coordinator: str = ""  # "host:port" of the coordinator's status endpoint
    branch: Optional[dict[str, Any]] = None  # the branch request


class ClusterDecisionRecord(NamedTuple):
    """The durably learned global outcome for one gtid."""

    KIND = 4  # frame tag

    lsn: int
    txn: str
    gtid: str
    decision: str  # "commit" | "abort"


class ClusterAckRecord(NamedTuple):
    """Durable proof that a decision is fully applied on this shard.

    ``shard_seq`` is the coordinator's per-shard decision sequence
    number; the ack high-water mark is the largest ``n`` such that every
    seq in ``1..n`` has an ack record, so a decision the shard never
    received (a lost ``2pc-commit`` send) can never be falsely acked by
    a later one.
    """

    KIND = 5  # frame tag

    lsn: int
    txn: str
    gtid: str
    shard_seq: int
