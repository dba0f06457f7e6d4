"""TCP wire-protocol tests: newline-JSON round trips against a live server.

A real :class:`WireServer` on an ephemeral port, a real
:class:`TCPClient` over a real socket — the full path a remote client
takes, including the stable error payloads of :mod:`repro.errors`
crossing the wire and reconstructing on the other side.

The framing contract (one reply per non-blank line, bad lines answered
``failed``, the connection survives, bind / start / stop) belongs to the
one :class:`~repro.server.wire.LineServer` under both fronts, so those
tests take ``fronts`` — the shard front and a
:class:`~repro.cluster.router.RouterWireServer` over a bare coordinator
log — and run every input against both.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.cluster.router import CoordinatorLog, RouterWireServer
from repro.errors import AddressInUseError, RequestShed, error_from_payload
from repro.orderentry.schema import build_order_entry_database
from repro.server import Request, TCPClient, TransactionServer, WireServer
from tests.helpers import Caller, wait_until


@pytest.fixture()
def served():
    server = TransactionServer(
        built=build_order_entry_database(n_items=2, orders_per_item=4),
        n_threads=2,
    ).start()
    wire = WireServer(server).start()
    try:
        yield server, wire
    finally:
        wire.stop()
        report = server.shutdown()
        assert report.clean, report.to_dict()


@pytest.fixture()
def fronts(served, tmp_path):
    """Both line servers, each with a constructor for a sibling of its kind."""
    server, wire = served
    log = CoordinatorLog(str(tmp_path / "coordinator.log"))
    router_wire = RouterWireServer(log).start()
    try:
        yield {
            "shard": (wire, lambda **where: WireServer(server, **where)),
            "router": (router_wire, lambda **where: RouterWireServer(log, **where)),
        }
    finally:
        router_wire.stop()
        log.close()


def client_for(wire) -> TCPClient:
    host, port = wire.address
    return TCPClient(host, port, timeout=10.0)


def raw_exchange(wire, *lines: bytes) -> list[bytes]:
    """Pipeline raw *lines* and a ping on one connection; the replies before the pong.

    Returning at all shows the connection survived every line.
    """
    with socket.create_connection(wire.address, timeout=10.0) as sock:
        fh = sock.makefile("rwb")
        fh.write(b"".join(line + b"\n" for line in (*lines, b'{"op": "ping"}')))
        fh.flush()
        replies = []
        while True:
            reply = fh.readline()
            assert reply, "server dropped the connection"
            if json.loads(reply).get("result") == "pong":
                return replies
            replies.append(reply)


#: Lines that fail before dispatch: both fronts answer them byte-identically.
FRAMING_FAILURES = [
    b"this is not json",
    b"[1, 2, 3]",
    b"[" * 100000 + b"]" * 100000,  # RecursionError inside json.loads
]
#: Lines that fail inside dispatch: the reply is each front's own.
DISPATCH_FAILURES = [
    b'{"op": ["x"]}',  # non-hashable op
    b'{"op": {"a": 1}}',
    b'{"op": "frobnicate"}',
]


class TestWireRoundTrip:
    def test_ping(self, served):
        _, wire = served
        with client_for(wire) as client:
            assert client.ping()

    def test_place_and_stock_check(self, served):
        _, wire = served
        with client_for(wire) as client:
            placed = client.request({"op": "place", "item": 0, "customer_no": 9})
            assert placed["status"] == "ok"
            assert isinstance(placed["result"], int)
            stock = client.request({"op": "stock-check", "item": 0})
            assert stock["status"] == "ok" and stock["result"] == 1000

    def test_pipelined_requests_answer_in_order(self, served):
        _, wire = served
        with client_for(wire) as client:
            for index in range(5):
                response = client.request(
                    {"op": "stock-check", "item": index % 2,
                     "request_id": f"p{index}"}
                )
                assert response["request_id"] == f"p{index}"
                assert response["status"] == "ok"

    def test_stats_op(self, served):
        _, wire = served
        with client_for(wire) as client:
            client.request({"op": "place", "item": 0})
            stats = client.stats()
            assert stats["requests"] >= 1
            assert "degraded" in stats and "draining" in stats

    def test_stats_carry_live_metrics(self):
        """``stats`` carries the registry's counters and gauges, read at
        the moment of asking: a request holding its locks through a
        think pause shows as held locks and one in-flight admission,
        and nothing is held once it is done."""
        server = TransactionServer(
            built=build_order_entry_database(n_items=2, orders_per_item=4),
            time_scale=0.002,
            think_cost=150.0,  # ~0.3 s holding its locks
            default_deadline=5.0,
        ).start()
        wire = WireServer(server).start()
        try:
            holder = Caller(server, Request(op="place", item=0))
            with client_for(wire) as client:
                wait_until(
                    lambda: client.stats()["metrics"]["gauges"]["lock.held"]["value"] > 0
                )
                gauges = client.stats()["metrics"]["gauges"]
                assert holder.wait(10.0).ok
                after = client.stats()["metrics"]
        finally:
            wire.stop()
            assert server.shutdown().clean
        assert gauges["admission.inflight"]["value"] == 1
        assert after["gauges"]["lock.held"]["value"] == 0
        assert after["gauges"]["lock.held"]["hwm"] >= gauges["lock.held"]["hwm"] > 0
        assert after["gauges"]["admission.inflight"]["value"] == 0
        assert after["counters"]["server.ok"] == 1
        assert after["counters"]["lock.grants"] >= 1
        assert {"gc.collections.gen0", "gc.collections.gen2", "gc.collected"} <= set(
            after["counters"]
        )

    def test_concurrent_connections(self, served):
        _, wire = served
        results = []
        lock = threading.Lock()

        def worker(index: int) -> None:
            with client_for(wire) as client:
                response = client.request(
                    {"op": "place" if index % 2 else "stock-check",
                     "item": index % 2, "deadline": 5.0}
                )
            with lock:
                results.append(response)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15.0)
        assert len(results) == 8
        assert all(r["status"] in ("ok", "shed") for r in results)


class TestWireErrors:
    def test_unknown_op_carries_stable_code(self, served):
        _, wire = served
        with client_for(wire) as client:
            response = client.request({"op": "frobnicate"})
            assert response["status"] == "failed"
            assert response["error"]["code"] == "unknown-operation"
            exc = error_from_payload(response["error"])
            assert "frobnicate" in str(exc)

    def test_malformed_json_answers_instead_of_dropping(self, fronts, capfd):
        replies = {
            name: raw_exchange(wire, *FRAMING_FAILURES, *DISPATCH_FAILURES)
            for name, (wire, _) in fronts.items()
        }
        for answered in replies.values():
            assert len(answered) == len(FRAMING_FAILURES) + len(DISPATCH_FAILURES)
            for line in answered:
                response = json.loads(line)
                assert response["status"] == "failed"
                assert "code" in response["error"]
        n = len(FRAMING_FAILURES)
        assert replies["shard"][:n] == replies["router"][:n]
        assert "Traceback" not in capfd.readouterr().err

    def test_handler_exception_answers_instead_of_dropping(self, served, monkeypatch):
        server, _ = served

        def boom(message):
            raise KeyError("boom")

        wire = WireServer(server, extra_ops={"boom": boom}).start()
        try:
            (reply,) = raw_exchange(wire, b'{"op": "boom"}')
            assert json.loads(reply)["error"]["type"] == "KeyError"
            # An exception out of server.submit itself is answered too.
            monkeypatch.setattr(server, "submit", boom)
            (reply,) = raw_exchange(wire, b'{"op": "stock-check", "item": 0}')
            assert json.loads(reply)["status"] == "failed"
        finally:
            wire.stop()

    def test_non_object_json_rejected(self, fronts):
        for wire, _ in fronts.values():
            for line in (b"[1, 2, 3]", b'"ping"', b"7", b"null"):
                (reply,) = raw_exchange(wire, line)
                assert json.loads(reply)["status"] == "failed"

    def test_blank_lines_ignored(self, fronts):
        for wire, _ in fronts.values():
            # Two blank lines draw no reply: the ping's pong is the first.
            assert raw_exchange(wire, b"", b"  ") == []

    def test_shed_response_reconstructs_as_request_shed(self):
        server = TransactionServer(
            built=build_order_entry_database(n_items=2, orders_per_item=4),
            n_threads=2,
        ).start()
        wire = WireServer(server).start()
        try:
            server.degrade.force(True)
            with client_for(wire) as client:
                response = client.request({"op": "place", "item": 0})
                assert response["status"] == "shed"
                assert response["retry_after"] > 0
                exc = error_from_payload(response["error"])
                assert isinstance(exc, RequestShed)
                assert exc.reason_code == "degraded-writes"
                assert exc.retry_after == response["retry_after"]
        finally:
            wire.stop()
            report = server.shutdown()
            assert report.clean, report.to_dict()


class TestWireErrorsBinding:
    def test_bound_port_raises_address_in_use_with_stable_code(self, fronts):
        for wire, sibling in fronts.values():
            host, port = wire.address
            with pytest.raises(AddressInUseError) as excinfo:
                sibling(host=host, port=port)
            exc = excinfo.value
            assert exc.code == "address-in-use"
            assert f"{host}:{port}" in str(exc)
            # The original server is unharmed by the failed bind.
            with client_for(wire) as client:
                assert client.ping()


class TestWireLifecycle:
    def test_request_dict_round_trip(self):
        request = Request(op="place", item=1, order_no=3, customer_no=8,
                          quantity=2, deadline=0.5, request_id="x")
        assert Request.from_dict(request.to_dict()) == request

    def test_double_start_rejected(self, fronts):
        for wire, _ in fronts.values():
            with pytest.raises(RuntimeError):
                wire.start()

    def test_stop_closes_listener(self, fronts):
        for _, sibling in fronts.values():
            wire = sibling().start()
            host, port = wire.address
            wire.stop()
            with pytest.raises(OSError):
                socket.create_connection((host, port), timeout=1.0)
