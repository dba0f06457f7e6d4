"""Cluster integration: router pass-through and cross-shard 2PC.

One module-scoped two-shard :class:`LocalCluster` (real shard child
processes over durable partitions) serves every test; with
``n_items=8`` the ring places items {3,4,5,6} on shard 0 and
{0,1,2,7} on shard 1, so ``(0, 3)`` is the canonical cross-shard pair.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from contextlib import contextmanager

import pytest

from repro.cluster import LocalCluster, hashring
from repro.cluster.files import WAL_FILENAME
from repro.cluster.participant import ClusterParticipant
from repro.cluster.router import ClusterRouter, CoordinatorLog, ShardLink
from repro.orderentry.schema import build_order_entry_database
from repro.recovery import WriteAheadLog
from repro.server.core import TransactionServer
from repro.server.requests import Request
from repro.storage.durable import DurableWriteAheadLog

from tests.helpers import page_store_files, record_thread_starts

CROSS = (0, 3)  # item 0 -> shard 1, item 3 -> shard 0


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    base = tmp_path_factory.mktemp("cluster-twopc")
    with LocalCluster(
        2, str(base), shard_config={"n_items": 8, "orders_per_item": 2}
    ) as running:
        yield running


class TestRouting:
    def test_items_span_both_shards(self, cluster):
        owners = {cluster.router.shard_of_item(i) for i in range(8)}
        assert owners == {0, 1}
        a, b = CROSS
        assert cluster.router.shard_of_item(a) != cluster.router.shard_of_item(b)

    def test_single_shard_request_passes_through(self, cluster):
        router = cluster.router
        before = router.stats()
        placed = router.route_request(
            Request(op="place", item=CROSS[0], request_id="t-single")
        )
        assert placed.ok, placed.to_dict()
        stock = router.route_request(Request(op="stock-check", item=CROSS[0]))
        assert stock.ok and stock.result == 1000
        after = router.stats()
        assert after["single_shard"] == before["single_shard"] + 2
        assert after["cross_shard"] == before["cross_shard"]

    def test_shards_keep_no_page_store(self, cluster):
        """A shard owns a WAL partition and nothing else: no data_dir
        holds a page-store directory or page file."""
        for shard in cluster.shards:
            assert os.path.exists(os.path.join(shard.data_dir, WAL_FILENAME))
            assert page_store_files(shard.data_dir) == []


class TestTwoPhaseCommit:
    def test_cross_shard_place_commits_on_both_shards(self, cluster):
        router = cluster.router
        before = router.stats()
        placed = router.route_request(
            Request(op="place", request_id="t-cross", lines=((CROSS[0], 2), (CROSS[1], 1)))
        )
        assert placed.ok, placed.to_dict()
        assert isinstance(placed.result, list) and len(placed.result) == 2
        # Each branch's order is real on its own shard: paying it works.
        for item, order_no in zip(CROSS, placed.result):
            paid = router.route_request(
                Request(op="pay", item=item, order_no=order_no)
            )
            assert paid.ok, paid.to_dict()
        after = router.stats()
        assert after["cross_shard"] == before["cross_shard"] + 1
        assert after["2pc_committed"] == before["2pc_committed"] + 1
        assert after["2pc_aborted"] == before["2pc_aborted"]

    def test_cross_shard_total_payment_sums_both_branches(self, cluster):
        router = cluster.router
        singles = [
            router.route_request(Request(op="total-payment", item=item)).result
            for item in CROSS
        ]
        combined = router.route_request(
            Request(op="total-payment", request_id="t-total", items=CROSS)
        )
        assert combined.ok, combined.to_dict()
        assert combined.result == sum(singles)

    def test_failed_branch_aborts_globally_and_compensates(self, cluster):
        router = cluster.router
        probe = router.route_request(Request(op="place", item=CROSS[0]))
        before = router.stats()
        # Index 8 is out of range but hashes to shard 0, so the request
        # still plans as cross-shard: shard 1's branch commits locally,
        # shard 0's branch votes no, and the router must compensate.
        placed = router.route_request(
            Request(op="place", request_id="t-abort", lines=((CROSS[0], 1), (8, 1)))
        )
        assert placed.status == "failed", placed.to_dict()
        assert placed.error["code"] == "unknown-object"
        after = router.stats()
        assert after["2pc_aborted"] == before["2pc_aborted"] + 1
        # The abort decision is durable at the coordinator ...
        aborted = [
            gtid for gtid, decision in cluster.log.decisions().items()
            if gtid.endswith("-t-abort")
        ]
        assert aborted and cluster.log.status(aborted[0]) == "abort"
        # ... and the shard stays fully available afterwards.  The order
        # counter may show a one-number hole: CancelOrder compensates by
        # removing the order without rolling the counter back — exactly
        # the state-based residue semantic atomicity permits.
        recheck = router.route_request(Request(op="place", item=CROSS[0]))
        assert recheck.ok, recheck.to_dict()
        assert recheck.result in (probe.result + 1, probe.result + 2)

    def test_unmeetable_deadline_sheds_through_the_router(self, cluster):
        router = cluster.router
        shed = router.route_request(
            Request(
                op="place",
                request_id="t-shed",
                deadline=1e-9,
                lines=((CROSS[0], 1), (CROSS[1], 1)),
            )
        )
        assert shed.status == "shed", shed.to_dict()
        assert shed.error["reason_code"] == "cluster-branch-shed"
        assert shed.retry_after is not None and shed.retry_after > 0


class TestInProcessParticipant:
    def test_abort_compensates_on_the_deciding_thread(self, monkeypatch):
        """A 2PC abort of a committed branch runs its compensation on the
        thread that handles the abort: one more caller drive, no worker
        thread, the branch's effect undone."""
        started = record_thread_starts(monkeypatch)
        wal = WriteAheadLog()
        server = TransactionServer(
            build_order_entry_database(n_items=2, orders_per_item=2), wal=wal
        ).start()
        participant = ClusterParticipant(server, wal)
        drivers = {}
        finished = server.tk.scheduler.on_task_done

        def record(task):
            drivers[task.name] = task.driver
            finished(task)

        server.tk.scheduler.on_task_done = record
        try:
            branch = Request(op="restock", item=0, quantity=5).to_dict()
            assert participant.prepare({"gtid": "g1", "branch": branch})["status"] == "prepared"
            assert server.submit(Request(op="stock-check", item=0)).result == 1005
            before = server.obs.snapshot().counters["thread.caller_drives"]
            assert participant.abort({"gtid": "g1", "seq": 1})["result"] == "aborted"
            counters = server.obs.snapshot().counters
            stock = server.submit(Request(op="stock-check", item=0)).result
        finally:
            assert server.shutdown().clean
        assert counters["thread.caller_drives"] == before + 1
        assert counters["2pc.compensations"] == 1
        assert drivers["comp-g1"] == threading.current_thread().name
        assert stock == 1000
        assert [name for name in started if name.startswith(("cc-serve-", "cc-worker-"))] == []


class InProcessLink:
    """A ShardLink that hands each message to a participant in this
    process, and records which ops it carried."""

    def __init__(self, participant: ClusterParticipant) -> None:
        self.participant = participant
        self.ops: list[str] = []

    def request(self, message: dict) -> dict:
        self.ops.append(message["op"])
        return self.participant.wire_ops()[message["op"]](message)

    def close(self) -> None:
        return None


@contextmanager
def in_process_cluster(tmp_path, make_wal):
    """A router over two in-process shards, shard *i* on ``make_wal(i)``,
    as ``(router, links, wals)``; on exit the router and the servers shut
    down (the caller closes the WALs)."""
    servers, wals, links = [], [], []
    for shard in range(2):
        wal = make_wal(shard)
        server = TransactionServer(
            build_order_entry_database(n_items=8, orders_per_item=2), wal=wal
        ).start()
        servers.append(server)
        wals.append(wal)
        links.append(InProcessLink(ClusterParticipant(server, wal)))
    log = CoordinatorLog(str(tmp_path / "coordinator.log"))
    router = ClusterRouter([("127.0.0.1", 1), ("127.0.0.1", 2)], log)
    for link in router.links:
        link.close()
    router.links = links  # type: ignore[assignment]
    try:
        yield router, links, wals
    finally:
        router.close()
        log.close()
        for server in servers:
            assert server.shutdown().clean


@pytest.fixture
def forcing_cluster(tmp_path, monkeypatch):
    """A router over two in-process shards, each on its own durable WAL,
    with every ``os.fsync`` counted by file descriptor."""
    fsyncs: Counter = Counter()
    fsync = os.fsync

    def counting_fsync(fd: int) -> None:
        fsyncs[fd] += 1
        fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    with in_process_cluster(
        tmp_path, lambda shard: DurableWriteAheadLog(str(tmp_path / f"shard-{shard}.log"))
    ) as (router, links, wals):

        def forces() -> tuple[int, int, int]:
            """(shard 0, shard 1, coordinator) fsyncs so far."""
            return (
                fsyncs[wals[0]._fd],
                fsyncs[wals[1]._fd],
                fsyncs[router.log._fh.fileno()],
            )

        yield router, links, forces
    for wal in wals:
        wal.close()


class TestForceCounts:
    """Forces per cross-shard commit, as counts: a write branch forces
    twice (its commit carries the prepare record; decision and ack share
    one force), a read branch never, and the coordinator once per gtid."""

    def run(self, router, forces, request: Request) -> tuple[int, int, int]:
        before = forces()
        response = router.route_request(request)
        assert response.ok, response.to_dict()
        return tuple(after - start for after, start in zip(forces(), before))

    def test_cross_shard_write_forces_twice_per_branch(self, forcing_cluster):
        router, links, forces = forcing_cluster
        for n in range(3):
            request = Request(op="place", request_id=f"w{n}", lines=((CROSS[0], 1), (CROSS[1], 1)))
            assert self.run(router, forces, request) == (2, 2, 1)
        assert [link.ops.count("2pc-commit") for link in links] == [3, 3]

    def test_cross_shard_read_forces_nothing_on_the_shards(self, forcing_cluster):
        router, links, forces = forcing_cluster
        for n in range(3):
            request = Request(op="total-payment", request_id=f"r{n}", items=CROSS)
            assert self.run(router, forces, request) == (0, 0, 1)
        # Read-only voters leave phase 2: no decision is sent to them,
        # and the decision names no shard, so it is compactable at once.
        assert [link.ops for link in links] == [["2pc-prepare"] * 3] * 2
        assert router.log.compactable == 3

    def test_no_ack_hwm_before_the_decision_force_returns(self, tmp_path, monkeypatch):
        """While the force holding a commit decision and its ack is held
        at a gate, the ack book does not cover the seq and a duplicate
        decision send's reply carries no ``ack_hwm``; once the force
        returns, the reply acks seq 1."""
        wal = DurableWriteAheadLog(str(tmp_path / "shard.log"))
        server = TransactionServer(
            build_order_entry_database(n_items=2, orders_per_item=2), wal=wal
        ).start()
        participant = ClusterParticipant(server, wal)
        gate, entered = threading.Event(), threading.Event()
        fsync = os.fsync

        def gated_fsync(fd: int) -> None:
            if fd == wal._fd and not gate.is_set():
                entered.set()
                assert gate.wait(10.0)
            fsync(fd)

        try:
            branch = Request(op="restock", item=0, quantity=5).to_dict()
            assert participant.prepare({"gtid": "g1", "branch": branch})["status"] == "prepared"
            monkeypatch.setattr(os, "fsync", gated_fsync)
            replies: list[dict] = []
            sender = threading.Thread(
                target=lambda: replies.append(participant.commit({"gtid": "g1", "seq": 1}))
            )
            sender.start()
            assert entered.wait(10.0)
            duplicate = participant.commit({"gtid": "g1", "seq": 1})
            hwm_while_forcing = participant.acks.hwm
            gate.set()
            sender.join(10.0)
        finally:
            gate.set()
            assert server.shutdown().clean
            wal.close()
        assert "ack_hwm" not in duplicate
        assert hwm_while_forcing == 0
        assert replies == [{"status": "ok", "result": "committed", "ack_hwm": 1}]


class TestRingMemo:
    def test_routing_hashes_each_item_once(self, tmp_path, monkeypatch):
        """200 requests over 8 items, single- and cross-shard, make at most
        8 ring hashes after the router is built: a lookup of a placed key
        (``plan_request``, then ``_merge_commit`` per line) hashes nothing."""
        with in_process_cluster(tmp_path, lambda shard: WriteAheadLog()) as (router, _, __):
            hashes = []
            real_hash64 = hashring._hash64

            def counting_hash64(data: str) -> int:
                hashes.append(data)
                return real_hash64(data)

            monkeypatch.setattr(hashring, "_hash64", counting_hash64)
            for n in range(200):
                a, b = n % 8, (n + 3) % 8
                if n % 4 == 0:
                    request = Request(op="stock-check", item=a)
                elif n % 4 == 1:
                    request = Request(op="total-payment", items=(a, b))
                else:
                    request = Request(op="place", lines=((a, 1), (b, 1)))
                response = router.route_request(request)
                assert response.ok, response.to_dict()
            assert router.stats()["cross_shard"] > 0
            assert len(hashes) <= 8, hashes


class TestShardLink:
    def test_pool_exhaustion_raises_connection_error(self):
        # capacity=0 forces the blocking-get path immediately; it must
        # surface as ConnectionError (the shard-down/retry path), not a
        # bare queue.Empty.
        link = ShardLink("127.0.0.1", 1, capacity=0, timeout=0.05)
        with pytest.raises(ConnectionError, match="pool exhausted"):
            link._borrow()


class TestGtidUniqueness:
    def test_router_rebuilds_over_one_log_never_reuse_gtids(self, tmp_path):
        # The coordinator log persists across router rebuilds (shard
        # restarts, reruns on the same --data-dir); a reused gtid would
        # make decide() a silent no-op serving a stale decision.
        log = CoordinatorLog(str(tmp_path / "coordinator.json"))
        anonymous = Request(op="place", item=0)
        gtids: set[str] = set()
        for _ in range(2):
            router = ClusterRouter([("127.0.0.1", 1)], log)
            for _ in range(5):
                gtid = router._next_gtid(anonymous)
                assert gtid not in gtids
                gtids.add(gtid)
        # The epoch stays dash-free so the request id is still exactly
        # what follows the first dash (the torture oracle parses this).
        named = router._next_gtid(Request(op="place", item=0, request_id="t-a-b"))
        assert named.split("-", 1)[1] == "t-a-b"
        log.close()


class TestWireProtocol:
    def test_router_wire_server_routes_and_reports_stats(self, cluster):
        import json
        import socket

        host, port = cluster.wire.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            fh = sock.makefile("rw")
            fh.write(json.dumps({"op": "stock-check", "item": CROSS[1]}) + "\n")
            fh.flush()
            reply = json.loads(fh.readline())
            assert reply["status"] == "ok"
            fh.write(json.dumps({"op": "stats"}) + "\n")
            fh.flush()
            stats = json.loads(fh.readline())
            assert stats["status"] == "ok"
            assert stats["result"]["shards"] == 2
            assert stats["result"]["requests"] >= 1
