"""The cluster router: consistent-hash dispatch plus the 2PC coordinator.

A :class:`ClusterRouter` owns one :class:`~repro.cluster.hashring.HashRing`
over the shard addresses and a pooled newline-JSON connection per shard
(:class:`ShardLink`).  Requests that touch a single shard pass through
untouched (one ``shard-submit`` frame, one response).  Requests that
touch several shards — multi-line ``place``, multi-item
``total-payment`` — become presumed-abort two-phase commits:

1. split the request into per-shard branch requests;
2. on the calling thread, write ``2pc-prepare`` to every branch shard in
   ascending shard order, then read every vote; the shards work on their
   branches at once.  A branch commits locally on success (open-nested
   semantic atomicity — locks are not held across the global decision)
   and replies ``prepared``.  The branches are independent precisely
   because they compensate instead of holding each other's locks, so
   nothing orders them during the prepare phase.  A branch whose reply
   says ``read_only`` wrote nothing and leaves the protocol with its
   vote: it is not named in the decision and gets no decision send.  A
   shard that cannot be sent to ends the sends; the shards after it
   never hear of the gtid (presumed abort covers them);
3. if **all** branches prepared: fsync ``commit`` into the
   :class:`CoordinatorLog`, then write best-effort ``2pc-commit`` to
   every writing branch before reading any reply, and merge the votes;
4. otherwise: fsync ``abort`` and send ``2pc-abort`` the same way to
   every *contacted* writing shard (prepared branches compensate),
   surfacing one response — a shed at any shard sheds the whole request
   with a single ``retry_after``.

The coordinator log is the cluster's decision truth: a restarting shard
resolves an in-doubt gtid by asking ``2pc-status`` here.  Unknown gtids
are aborts (presumed abort — the log records only decisions), and gtids
still in flight answer ``pending`` so the shard retries rather than
guessing.

Presumed abort also gives the log a *forget rule*: once every branch
shard has durably applied a decision (decision record — plus, for
aborts, the compensation — fsynced in the shard WAL) and acknowledged
it, the coordinator may drop the entry, because no one can ever ask
about the gtid again except to hear the presumed answer it would give
anyway.  Decision sends carry a per-shard sequence number; shards ack
inline on the decision reply and re-announce their contiguous ack
high-water mark at boot (``2pc-ack``), and :meth:`CoordinatorLog.compact`
atomically rewrites the file keeping only un-acked decisions.
"""

from __future__ import annotations

import itertools
import json
import os
import queue
import threading
import uuid
from typing import Any, Iterable, Optional

from repro.cluster.hashring import DEFAULT_VNODES, HashRing
from repro.errors import ReproError, RequestShed, error_to_payload
from repro.obs.registry import MetricsRegistry
from repro.server.requests import Request, Response
from repro.server.wire import LineServer, TCPClient

__all__ = [
    "CoordinatorLog",
    "ShardLink",
    "ClusterRouter",
    "RouterWireServer",
    "plan_request",
]


def plan_request(request: Request, shard_of_item) -> dict[int, Request]:
    """Split *request* into per-shard branch requests.

    Multi-line ``place`` and multi-item ``total-payment`` group their
    lines/items by owning shard (``shard_of_item(index) -> shard``);
    everything else maps whole to the shard owning its single item.
    Branch request ids are suffixed ``@s{shard}`` so a branch is
    distinguishable from its parent in logs and WAL frames.  A module
    function (not a router method) so the torture oracle can re-derive
    the exact branch a shard ran from just the hash ring.
    """
    if request.op == "place" and request.lines is not None:
        by_shard: dict[int, list[tuple[int, int]]] = {}
        for line in request.lines:
            by_shard.setdefault(shard_of_item(line[0]), []).append(line)
        return {
            shard: Request(
                op="place",
                customer_no=request.customer_no,
                deadline=request.deadline,
                request_id=(
                    f"{request.request_id}@s{shard}"
                    if request.request_id is not None
                    else None
                ),
                lines=tuple(lines),
            )
            for shard, lines in by_shard.items()
        }
    if request.op == "total-payment" and request.items is not None:
        by_shard_items: dict[int, list[int]] = {}
        for item in request.items:
            by_shard_items.setdefault(shard_of_item(item), []).append(item)
        return {
            shard: Request(
                op="total-payment",
                deadline=request.deadline,
                request_id=(
                    f"{request.request_id}@s{shard}"
                    if request.request_id is not None
                    else None
                ),
                items=tuple(items),
            )
            for shard, items in by_shard_items.items()
        }
    return {shard_of_item(request.item): request}


class CoordinatorLog:
    """The coordinator's durable decision log (JSON lines, fsync).

    ``status`` implements presumed abort: decisions answer themselves,
    gtids still in the in-flight set answer ``pending`` (the coordinator
    is mid-protocol; ask again), and everything else answers ``abort``.

    Three kinds of line live in the file:

    * ``{"gtid": g, "decision": d, "shards": {"0": 7, ...}}`` — a
      durable decision (fsynced before any commit send).  ``shards``
      maps each contacted branch shard to the per-shard decision
      sequence number assigned to this send; the shard acks by seq so a
      decision it never received can't be acked by a later one.
    * ``{"ack": {"gtid": g, "shard": s}}`` — advisory: shard *s* has
      durably applied g's decision.  Acks are flushed, not fsynced — a
      lost ack only delays truncation (the shard re-announces its ack
      high-water mark at boot), it never loses a decision.
    * ``{"meta": {...}}`` — first line after a compaction: the per-shard
      sequence counters and the count of forgotten (truncated) entries,
      so a reloaded log keeps assigning fresh seqs.

    :meth:`compact` rewrites the file atomically (temp + fsync +
    ``os.replace`` + directory fsync) keeping only decisions some branch
    has not yet acked.  The presumed-abort forget rule makes dropping a
    fully-acked gtid safe: every branch has the decision in its own WAL,
    so no in-doubt query for it can ever arrive again.  In-memory
    ``_decisions`` stays complete for the process lifetime — ``status``
    and the torture audit see every decision this incarnation made even
    after the file shrank.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._decisions: dict[str, str] = {}
        self._inflight: set[str] = set()
        self._shard_seqs: dict[int, int] = {}  # per-shard decision seq counters
        self._branch_seqs: dict[str, dict[int, int]] = {}  # gtid -> {shard: seq}
        self._pending_acks: dict[str, set[int]] = {}  # gtid -> shards yet to ack
        self._fully_acked: set[str] = set()  # acked but still occupying file lines
        self._forgotten = 0  # decisions dropped by compaction, ever
        if os.path.exists(path):
            self._load(path)
        self._fh = open(path, "a", encoding="utf-8")

    def _load(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                if "meta" in entry:
                    meta = entry["meta"]
                    for shard, seq in meta.get("shard_seqs", {}).items():
                        self._shard_seqs[int(shard)] = max(
                            self._shard_seqs.get(int(shard), 0), int(seq)
                        )
                    self._forgotten = int(meta.get("forgotten", 0))
                    continue
                if "ack" in entry:
                    ack = entry["ack"]
                    self._pending_acks.get(ack["gtid"], set()).discard(int(ack["shard"]))
                    continue
                gtid = entry["gtid"]
                self._decisions[gtid] = entry["decision"]
                # v1 lines carry no "shards" map: nothing to wait for, so
                # they are immediately compactable.
                seqs = {int(s): int(q) for s, q in entry.get("shards", {}).items()}
                self._branch_seqs[gtid] = seqs
                self._pending_acks[gtid] = set(seqs)
                for shard, seq in seqs.items():
                    self._shard_seqs[shard] = max(self._shard_seqs.get(shard, 0), seq)
        for gtid in list(self._pending_acks):
            if not self._pending_acks[gtid]:
                del self._pending_acks[gtid]
                self._fully_acked.add(gtid)

    def begin(self, gtid: str) -> None:
        with self._lock:
            self._inflight.add(gtid)

    def decide(self, gtid: str, decision: str, shards: Any = ()) -> dict[int, int]:
        """Durably record the global outcome; the commit point of 2PC.

        Assigns (and returns) a fresh per-shard decision sequence number
        for every shard in *shards*; the decision send carries the seq
        and the shard acks it back.  Idempotent: a second call returns
        the stored assignment without touching the file.
        """
        with self._lock:
            if gtid in self._decisions:
                return dict(self._branch_seqs.get(gtid, {}))
            seqs: dict[int, int] = {}
            for shard in sorted(set(shards)):
                self._shard_seqs[shard] = self._shard_seqs.get(shard, 0) + 1
                seqs[shard] = self._shard_seqs[shard]
            entry = {
                "gtid": gtid,
                "decision": decision,
                "shards": {str(s): q for s, q in seqs.items()},
            }
            self._fh.write(json.dumps(entry) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._decisions[gtid] = decision
            self._branch_seqs[gtid] = seqs
            if seqs:
                self._pending_acks[gtid] = set(seqs)
            else:
                self._fully_acked.add(gtid)
            self._inflight.discard(gtid)
            return dict(seqs)

    def _ack_locked(self, gtid: str, shard: int) -> bool:
        pending = self._pending_acks.get(gtid)
        if pending is None or shard not in pending:
            return False
        self._fh.write(json.dumps({"ack": {"gtid": gtid, "shard": shard}}) + "\n")
        self._fh.flush()  # advisory: no fsync, a lost ack only delays truncation
        pending.discard(shard)
        if pending:
            return False
        del self._pending_acks[gtid]
        self._fully_acked.add(gtid)
        return True

    def ack(self, gtid: str, shard: int) -> bool:
        """Record shard's durable application of gtid's decision.

        Returns True when this ack made the gtid *fully* acked (every
        contacted branch has it), i.e. newly eligible for truncation.
        """
        with self._lock:
            return self._ack_locked(gtid, shard)

    def ack_upto(
        self,
        shard: int,
        hwm: int = 0,
        extra: Any = (),
        gtids: Any = (),
    ) -> tuple[int, int]:
        """Fold a shard's boot-time ack announcement into the log.

        Clears the shard from every pending gtid whose seq is covered by
        the contiguous high-water mark *hwm* or the out-of-order *extra*
        seqs, or that is named in *gtids*.  Returns ``(branches_acked,
        newly_fully_acked)``.
        """
        extra_set = {int(s) for s in extra}
        named = set(gtids)
        acked = full = 0
        with self._lock:
            for gtid in [g for g, p in self._pending_acks.items() if shard in p]:
                seq = self._branch_seqs.get(gtid, {}).get(shard)
                covered = seq is not None and (seq <= hwm or seq in extra_set)
                if covered or gtid in named:
                    acked += 1
                    if self._ack_locked(gtid, shard):
                        full += 1
        return acked, full

    @property
    def compactable(self) -> int:
        """How many fully-acked decisions still occupy file lines."""
        with self._lock:
            return len(self._fully_acked)

    def compact(self, crash: Any = None) -> tuple[int, int]:
        """Atomically rewrite the file keeping only un-acked decisions.

        Write temp + fsync + ``os.replace`` + directory fsync: a crash
        at any point leaves either the complete old file or the complete
        new one, never a mix.  *crash* is an injectable hook called with
        a site name at each step (test instrument).  Returns ``(kept,
        dropped)`` decision counts.
        """
        hook = crash if crash is not None else (lambda site: None)
        with self._lock:
            dropped = len(self._fully_acked)
            kept_gtids = [g for g in self._decisions if g in self._pending_acks]
            lines = [
                json.dumps(
                    {
                        "meta": {
                            "shard_seqs": {
                                str(s): q for s, q in sorted(self._shard_seqs.items())
                            },
                            "forgotten": self._forgotten + dropped,
                        }
                    }
                )
            ]
            for gtid in kept_gtids:
                seqs = self._branch_seqs.get(gtid, {})
                lines.append(
                    json.dumps(
                        {
                            "gtid": gtid,
                            "decision": self._decisions[gtid],
                            "shards": {str(s): q for s, q in seqs.items()},
                        }
                    )
                )
                for shard in sorted(seqs):
                    if shard not in self._pending_acks[gtid]:
                        lines.append(
                            json.dumps({"ack": {"gtid": gtid, "shard": shard}})
                        )
            tmp = self.path + ".compact"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
                fh.flush()
                os.fsync(fh.fileno())
            hook("compact-temp-written")
            os.replace(tmp, self.path)
            dir_fd = os.open(os.path.dirname(self.path) or ".", os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
            hook("compact-renamed")
            self._fh.close()
            self._fh = open(self.path, "a", encoding="utf-8")
            self._forgotten += dropped
            for gtid in self._fully_acked:
                self._branch_seqs.pop(gtid, None)
            self._fully_acked.clear()
            return len(kept_gtids), dropped

    def status(self, gtid: str) -> str:
        with self._lock:
            if gtid in self._decisions:
                return self._decisions[gtid]
            if gtid in self._inflight:
                return "pending"
            return "abort"

    def decisions(self) -> dict[str, str]:
        """Snapshot of every durably decided gtid (audit / torture)."""
        with self._lock:
            return dict(self._decisions)

    def file_entries(self) -> int:
        """Count decision lines currently in the file (tests / smoke)."""
        count = 0
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and "\"gtid\"" in line and "\"ack\"" not in line:
                    entry = json.loads(line)
                    if "gtid" in entry and "decision" in entry:
                        count += 1
        return count

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()


class ShardLink:
    """A pool of :class:`TCPClient` connections to one shard address.

    A single pipelined connection would serialise the shard to one
    in-flight request; the pool creates connections on demand up to
    ``capacity`` and recycles them LIFO, so concurrent router threads
    drive the shard at its admission-controlled parallelism.

    A request is split in two phases so that one thread can have a
    request in flight at several shards at once: :meth:`send` borrows a
    connection and writes the message, and returns that connection as
    the pending reply; :meth:`receive` reads the reply and pools the
    connection again.  A connection whose send or read failed is
    dropped, never pooled, so a later borrow reconnects.
    """

    def __init__(
        self, host: str, port: int, capacity: int = 8, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.capacity = capacity
        self.timeout = timeout
        self._pool: queue.LifoQueue = queue.LifoQueue()
        self._lock = threading.Lock()
        self._created = 0

    def _borrow(self) -> TCPClient:
        try:
            return self._pool.get_nowait()
        except queue.Empty:
            pass
        with self._lock:
            if self._created < self.capacity:
                self._created += 1
                try:
                    return TCPClient(self.host, self.port, timeout=self.timeout)
                except Exception:
                    self._created -= 1
                    raise
        try:
            return self._pool.get(timeout=self.timeout)
        except queue.Empty:
            # Surface exhaustion as a connection error so callers take
            # the existing shard-down / retry path instead of a bare
            # queue.Empty escaping as a generic failure.
            raise ConnectionError(
                f"shard {self.host}:{self.port}: connection pool exhausted "
                f"({self.capacity} in flight for {self.timeout}s)"
            ) from None

    def _drop(self, client: TCPClient) -> None:
        with self._lock:
            self._created -= 1
        client.close()

    def send(self, message: dict[str, Any]) -> TCPClient:
        """Write *message* on a borrowed connection; returns the pending
        reply for :meth:`receive`."""
        client = self._borrow()
        try:
            client.send(message)
        except Exception:
            self._drop(client)
            raise
        return client

    def receive(self, pending: TCPClient) -> dict[str, Any]:
        """Read the reply to :meth:`send` and pool its connection."""
        try:
            # The reply is parsed before pooling: a connection whose
            # response didn't decode is out of sync and must be
            # discarded, not reused.
            payload = pending.receive()
        except Exception:
            self._drop(pending)
            raise
        self._pool.put(pending)
        return payload

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        return self.receive(self.send(message))

    def close(self) -> None:
        while True:
            try:
                self._pool.get_nowait().close()
            except queue.Empty:
                return


class ClusterRouter:
    """Routes order-entry requests across shard servers; coordinates 2PC."""

    def __init__(
        self,
        shard_addresses: list[tuple[str, int]],
        coordinator_log: CoordinatorLog,
        vnodes: int = DEFAULT_VNODES,
        pool_size: int = 8,
        obs: Optional[MetricsRegistry] = None,
        status_address: str = "",
        shard_timeout: float = 30.0,
        compact_threshold: int = 256,
    ) -> None:
        if not shard_addresses:
            raise ValueError("need at least one shard address")
        self.ring = HashRing(len(shard_addresses), vnodes)
        self.links = [
            ShardLink(host, port, capacity=pool_size, timeout=shard_timeout)
            for host, port in shard_addresses
        ]
        self.log = coordinator_log
        self.status_address = status_address
        self.obs = obs if obs is not None else MetricsRegistry(thread_safe=True)
        # The coordinator log outlives any one router (shard restarts
        # rebuild the router; reruns reuse the --data-dir), so a bare
        # counter would reuse gtids and decide() would silently keep the
        # old decision.  A per-router epoch makes every gtid globally
        # unique; it stays dash-free so the ``-<request_id>`` suffix is
        # still what follows the first dash.
        self._gtid_epoch = uuid.uuid4().hex[:12]
        self._gtids = itertools.count()
        self.compact_threshold = max(1, int(compact_threshold))
        self._m_requests = self.obs.counter("cluster.requests")
        self._m_single = self.obs.counter("cluster.single_shard")
        self._m_cross = self.obs.counter("cluster.cross_shard")
        self._m_shard_down = self.obs.counter("cluster.shard_down")
        self._m_begun = self.obs.counter("2pc.begun")
        self._m_prepared = self.obs.counter("2pc.prepared")
        self._m_prepare_failed = self.obs.counter("2pc.prepare_failed")
        self._m_committed = self.obs.counter("2pc.committed")
        self._m_aborted = self.obs.counter("2pc.aborted")
        self._m_status = self.obs.counter("2pc.status_queries")
        self._m_ack_inline = self.obs.counter("2pc.ack.inline")
        self._m_ack_wire = self.obs.counter("2pc.ack.wire")
        self._m_ack_full = self.obs.counter("2pc.ack.full")
        self._m_compact_runs = self.obs.counter("coordlog.compact.runs")
        self._m_compact_kept = self.obs.counter("coordlog.compact.kept")
        self._m_compact_dropped = self.obs.counter("coordlog.compact.dropped")

    @property
    def n_shards(self) -> int:
        return len(self.links)

    def shard_of_item(self, item: int) -> int:
        return self.ring.shard_for(item)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, request: Request) -> dict[int, Request]:
        """Split a request into per-shard branch requests."""
        return plan_request(request, self.shard_of_item)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_request(self, request: Request) -> Response:
        self._m_requests.inc()
        try:
            branches = self.plan(request)
        except Exception as exc:  # noqa: BLE001 - surfaced to the client
            return Response(
                status="failed",
                op=request.op,
                request_id=request.request_id,
                error=error_to_payload(exc),
            )
        if len(branches) == 1:
            self._m_single.inc()
            (shard, sub), = branches.items()
            return self._submit_single(shard, sub, request)
        self._m_cross.inc()
        return self._run_two_phase(request, branches)

    def route(self, message: dict[str, Any]) -> dict[str, Any]:
        """Wire-level entry: a raw request dict to a response dict."""
        return self.route_request(Request.from_dict(message)).to_dict()

    def _submit_single(self, shard: int, sub: Request, request: Request) -> Response:
        try:
            payload = self.links[shard].request(
                {"op": "shard-submit", "request": sub.to_dict()}
            )
        except (OSError, ConnectionError) as exc:
            self._m_shard_down.inc()
            return self._shard_down_response(request, shard, exc)
        response = Response.from_dict(payload)
        response.op = request.op
        response.request_id = request.request_id
        return response

    def _next_gtid(self, request: Request) -> str:
        gtid = f"g{self._gtid_epoch}.{next(self._gtids)}"
        if request.request_id is not None:
            gtid = f"{gtid}-{request.request_id}"
        return gtid

    def _run_two_phase(self, request: Request, branches: dict[int, Request]) -> Response:
        gtid = self._next_gtid(request)
        self.log.begin(gtid)
        self._m_begun.inc()
        votes, contacted, down = self._prepare(gtid, branches)
        prepared = [s for s, v in votes.items() if v.status == "prepared"]
        if not down and len(prepared) == len(branches):
            # Read-only voters left phase 2 with their vote: the decision
            # names, and is sent to, the writing branches only.
            seqs = self.log.decide(gtid, "commit", contacted)
            self._m_committed.inc()
            self._record_acks(gtid, self._fan_out_decision(gtid, "2pc-commit", seqs))
            return self._merge_commit(request, branches, votes)
        seqs = self.log.decide(gtid, "abort", contacted)
        self._m_aborted.inc()
        self._m_prepare_failed.inc()
        # Every contacted shard learns the abort: prepared branches
        # compensate, failed branches already logged their own abort,
        # and a down shard that durably prepared resolves on restart.
        self._record_acks(gtid, self._fan_out_decision(gtid, "2pc-abort", seqs))
        return self._merge_abort(request, branches, votes, down)

    def _exchange(
        self, messages: Iterable[tuple[int, dict[str, Any]]], stop_at_down: bool
    ) -> tuple[dict[int, dict[str, Any]], list[int]]:
        """Write every ``(shard, message)``, then read every reply, in order.

        Returns the replies by shard and the shards that could not be
        reached (a failed send or read).  With *stop_at_down* the first
        failed send ends the sends, and later shards never see theirs.
        """
        pending: list[tuple[int, Any]] = []
        down: list[int] = []
        for shard, message in messages:
            try:
                pending.append((shard, self.links[shard].send(message)))
            except (OSError, ConnectionError):
                down.append(shard)
                if stop_at_down:
                    break
        replies: dict[int, dict[str, Any]] = {}
        for shard, reply in pending:
            try:
                replies[shard] = self.links[shard].receive(reply)
            except (OSError, ConnectionError):
                down.append(shard)
        if down:
            self._m_shard_down.inc(len(down))
        return replies, down

    def _prepare(
        self, gtid: str, branches: dict[int, Request]
    ) -> tuple[dict[int, Response], set[int], list[int]]:
        """Send every branch's prepare, then read every vote.

        Sends go in ascending shard order.  Each send holds its
        connection until the vote is read, so two coordinators whose
        requests name the same shards in opposite orders could otherwise
        each hold the connection the other waits to borrow.  The first
        shard that cannot be sent to ends the sends: it is down and
        contacted (it may have read the prepare), and the shards after
        it never hear of the gtid, which presumed abort covers.  A
        read-only voter leaves ``contacted``, and so phase 2, with its
        vote.
        """
        replies, down = self._exchange(
            (
                (shard, self._prepare_message(gtid, branches[shard]))
                for shard in sorted(branches)
            ),
            stop_at_down=True,
        )
        votes = {shard: Response.from_dict(payload) for shard, payload in replies.items()}
        contacted = {shard for shard, payload in replies.items() if not payload.get("read_only")}
        return votes, contacted | set(down), down

    def _prepare_message(self, gtid: str, sub: Request) -> dict[str, Any]:
        return {
            "op": "2pc-prepare",
            "gtid": gtid,
            "coordinator": self.status_address,
            "branch": sub.to_dict(),
        }

    def _fan_out_decision(self, gtid: str, op: str, seqs: dict[int, int]) -> list[int]:
        """Best-effort decision sends to the decision's shards, in
        ascending order; every send goes out before any reply is read.

        Returns the shards whose reply confirmed durable application —
        their inline acks.  A failed send is fine: the decision is
        durable at the coordinator, the shard learns it through in-doubt
        resolution on restart, and the un-acked seq keeps the log entry
        alive until the shard's boot-time ack announcement covers it.
        """
        replies, _ = self._exchange(
            (
                (shard, {"op": op, "gtid": gtid, "seq": seq})
                for shard, seq in sorted(seqs.items())
            ),
            stop_at_down=False,
        )
        return [
            shard
            for shard, payload in replies.items()
            if payload.get("status") == "ok" and payload.get("ack_hwm") is not None
        ]

    def _record_acks(self, gtid: str, shards: list[int]) -> None:
        for shard in shards:
            if self.log.ack(gtid, shard):
                self._m_ack_full.inc()
            self._m_ack_inline.inc()
        self.maybe_compact()

    def wire_ack(self, shard: int, hwm: int, extra: Any, gtids: Any) -> int:
        """Fold a shard's boot-time ``2pc-ack`` announcement in."""
        acked, full = self.log.ack_upto(shard, hwm=hwm, extra=extra, gtids=gtids)
        self._m_ack_wire.inc(acked)
        self._m_ack_full.inc(full)
        self.maybe_compact()
        return acked

    def maybe_compact(self) -> Optional[tuple[int, int]]:
        """Compact the coordinator log once enough entries are dead."""
        if self.log.compactable < self.compact_threshold:
            return None
        return self.compact_log()

    def compact_log(self) -> tuple[int, int]:
        """Force a compaction now (CI smoke / tests); returns (kept, dropped)."""
        kept, dropped = self.log.compact()
        self._m_compact_runs.inc()
        self._m_compact_kept.inc(kept)
        self._m_compact_dropped.inc(dropped)
        return kept, dropped

    def _merge_commit(
        self,
        request: Request,
        branches: dict[int, Request],
        votes: dict[int, Response],
    ) -> Response:
        self._m_prepared.inc(len(votes))
        queue_wait = max(v.queue_wait for v in votes.values())
        total_time = max(v.total_time for v in votes.values())
        if request.op == "place":
            assert request.lines is not None
            per_shard = {shard: list(votes[shard].result or []) for shard in branches}
            result = [
                per_shard[self.shard_of_item(item)].pop(0)
                for item, _ in request.lines
            ]
        else:
            result = sum(v.result or 0 for v in votes.values())
        return Response(
            status="ok",
            op=request.op,
            request_id=request.request_id,
            result=result,
            queue_wait=queue_wait,
            total_time=total_time,
        )

    def _merge_abort(
        self,
        request: Request,
        branches: dict[int, Request],
        votes: dict[int, Response],
        down: list[int],
    ) -> Response:
        base = dict(op=request.op, request_id=request.request_id)
        failures = [v for v in votes.values() if v.status != "prepared"]
        sheds = [v for v in failures if v.status == "shed"]
        if sheds:
            # One retry hint for the whole global transaction: the worst
            # (largest) of the branch hints.
            retry_after = max(v.retry_after or 0.0 for v in sheds)
            shed = RequestShed(
                "cluster-branch-shed",
                retry_after,
                f"{len(sheds)} of {len(branches)} branches shed",
            )
            return Response(
                status="shed",
                error=shed.to_payload(),
                retry_after=retry_after,
                **base,
            )
        if down:
            return self._shard_down_response(request, min(down), None)
        first = failures[0] if failures else None
        return Response(
            status=first.status if first is not None else "failed",
            error=first.error if first is not None else None,
            retry_after=first.retry_after if first is not None else None,
            **base,
        )

    def _shard_down_response(
        self, request: Request, shard: int, exc: Optional[BaseException]
    ) -> Response:
        detail = f"shard {shard} unreachable"
        if exc is not None:
            detail += f": {exc}"
        return Response(
            status="failed",
            op=request.op,
            request_id=request.request_id,
            error={"code": "shard-down", "message": detail},
            retry_after=1.0,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def coordinator_status(self, gtid: str) -> str:
        self._m_status.inc()
        return self.log.status(gtid)

    def stats(self) -> dict[str, Any]:
        return {
            "shards": self.n_shards,
            "requests": self._m_requests.value,
            "single_shard": self._m_single.value,
            "cross_shard": self._m_cross.value,
            "2pc_committed": self._m_committed.value,
            "2pc_aborted": self._m_aborted.value,
            "shard_down": self._m_shard_down.value,
            "2pc_acked_inline": self._m_ack_inline.value,
            "2pc_acked_wire": self._m_ack_wire.value,
            "coordlog_compactions": self._m_compact_runs.value,
            "coordlog_compactable": self.log.compactable,
        }

    def close(self) -> None:
        for link in self.links:
            link.close()


# ----------------------------------------------------------------------
# The router's own wire front (status endpoint + routed requests)
# ----------------------------------------------------------------------
class RouterWireServer(LineServer):
    """Serves ``2pc-status`` (and, once attached, routed requests).

    Built around the coordinator log *before* the router exists, because
    restarting shards must resolve in-doubt transactions during boot —
    potentially before the router has live links to every shard.
    """

    def __init__(
        self, log: CoordinatorLog, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.log = log
        self.router: Optional[ClusterRouter] = None
        super().__init__(self.dispatch, host, port)

    def attach_router(self, router: ClusterRouter) -> None:
        self.router = router

    def dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        op = message.get("op")
        if op == "ping":
            return {"status": "ok", "result": "pong"}
        if op == "2pc-status":
            gtid = str(message.get("gtid", ""))
            if self.router is not None:
                return {"status": "ok", "result": self.router.coordinator_status(gtid)}
            return {"status": "ok", "result": self.log.status(gtid)}
        if op == "2pc-ack":
            # A restarting shard re-announces its durable ack high-water
            # mark.  Handled straight off the log when the router isn't
            # attached yet: shards boot (and re-ack) before the router
            # exists.
            shard = int(message.get("shard", -1))
            hwm = int(message.get("hwm", 0))
            extra = message.get("extra") or ()
            gtids = message.get("gtids") or ()
            if self.router is not None:
                acked = self.router.wire_ack(shard, hwm, extra, gtids)
            else:
                acked, _ = self.log.ack_upto(shard, hwm=hwm, extra=extra, gtids=gtids)
            return {"status": "ok", "result": acked}
        if op == "stats":
            if self.router is None:
                return {"status": "ok", "result": {}}
            return {"status": "ok", "result": self.router.stats()}
        if self.router is None:
            raise ReproError("router not attached yet")
        return self.router.route(message)
