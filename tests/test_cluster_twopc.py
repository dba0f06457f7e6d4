"""Cluster integration: router pass-through and cross-shard 2PC.

One module-scoped two-shard :class:`LocalCluster` (real shard child
processes over durable partitions) serves every test; with
``n_items=8`` the ring places items {3,4,5,6} on shard 0 and
{0,1,2,7} on shard 1, so ``(0, 3)`` is the canonical cross-shard pair.
"""

from __future__ import annotations

import os

import pytest

from repro.cluster import LocalCluster
from repro.cluster.files import WAL_FILENAME
from repro.cluster.router import ClusterRouter, CoordinatorLog, ShardLink
from repro.server.requests import Request

from tests.helpers import page_store_files

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
