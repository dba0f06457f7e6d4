"""Deterministic interleavings of the router's split-phase 2PC sends.

No real shards: the router's per-shard :class:`ShardLink` objects are
replaced with in-process fakes whose prepare replies are orchestrated by
events, so the interleavings under test — a slow shard still preparing
while another shard votes no, a shard that cannot be reached stopping
the sends after it — happen on every run instead of once in a thousand.
A fake's ``send`` records the message (in its own list and in one log
shared by every fake) and ``receive`` produces the reply, so the tests
assert *wire-visible* behavior: who was prepared, who got the decision,
and in what order the messages went out.
"""

from __future__ import annotations

import threading

import pytest

from repro.cluster.router import ClusterRouter, CoordinatorLog
from repro.server.requests import Request


class FakeLink:
    """Stands in for one shard's ShardLink; scripted per-op behavior."""

    def __init__(self, shard: int, sends: list[tuple[int, str]]) -> None:
        self.shard = shard
        self.sends = sends  # (shard, op) of every send, shared by all fakes
        self.sent: list[dict] = []
        self.lock = threading.Lock()
        self.prepare_gate: threading.Event | None = None  # hold the vote until set
        self.prepare_entered = threading.Event()
        self.fail_prepare = False
        self.down = False

    def send(self, message: dict) -> dict:
        with self.lock:
            self.sent.append(dict(message))
            self.sends.append((self.shard, message["op"]))
        if self.down:
            raise ConnectionError(f"fake shard {self.shard} is down")
        if message["op"] == "2pc-prepare":
            self.prepare_entered.set()
        return message

    def receive(self, message: dict) -> dict:
        op = message["op"]
        if op == "2pc-prepare":
            if self.prepare_gate is not None:
                assert self.prepare_gate.wait(10.0), "prepare gate never opened"
            if self.fail_prepare:
                return {
                    "status": "aborted",
                    "error": {"code": "conflict", "message": "scripted failure"},
                }
            return {"status": "prepared", "result": 1, "queue_wait": 0.0,
                    "total_time": 0.0}
        if op in ("2pc-commit", "2pc-abort"):
            return {
                "status": "ok",
                "result": "committed" if op == "2pc-commit" else "aborted",
                "ack_hwm": 0,
            }
        raise AssertionError(f"unexpected op {op!r}")

    def ops(self, op: str) -> list[dict]:
        with self.lock:
            return [m for m in self.sent if m["op"] == op]

    def close(self) -> None:
        return None


def make_router(tmp_path, n_shards: int = 3, **kwargs) -> tuple[ClusterRouter, list[FakeLink]]:
    log = CoordinatorLog(str(tmp_path / "coordinator.log"))
    router = ClusterRouter(
        [("127.0.0.1", 1 + i) for i in range(n_shards)],
        log,
        **kwargs,
    )
    sends: list[tuple[int, str]] = []
    fakes = [FakeLink(i, sends) for i in range(n_shards)]
    for link in router.links:
        link.close()
    router.links = fakes  # type: ignore[assignment]
    return router, fakes


def cross_request(n: int, rid: str = "t-x") -> Request:
    # total-payment over explicit items; the test bypasses planning by
    # branch count only, so any op with per-shard branches would do.
    return Request(op="total-payment", items=tuple(range(n)), request_id=rid)


def run_branches(router: ClusterRouter, branches: dict) -> object:
    request = cross_request(len(branches))
    return router._run_two_phase(request, branches)


def branch_map(fakes, shards) -> dict:
    return {
        s: Request(op="total-payment", items=(s,), request_id=f"t-x@s{s}")
        for s in shards
    }


class TestEarlyAbortInterleaving:
    @pytest.mark.parametrize("slow_shard", [0, 1, 2])
    def test_slow_prepared_branch_is_compensated_after_early_abort(self, tmp_path, slow_shard):
        """Slow shard + failing shard, the slow one before or after the
        failing one in send order: the slow (prepared) branch gets
        exactly one 2pc-abort and no commit."""
        router, fakes = make_router(tmp_path, n_shards=3)
        slow, failing = fakes[slow_shard], fakes[(slow_shard + 1) % 3]
        slow.prepare_gate = threading.Event()
        failing.fail_prepare = True
        failing.prepare_gate = threading.Event()

        def unblock() -> None:
            # Wait until both the slow and failing prepares are on the
            # wire, let the failure land first, then release the slow one.
            assert slow.prepare_entered.wait(10.0)
            assert failing.prepare_entered.wait(10.0)
            failing.prepare_gate.set()
            slow.prepare_gate.set()

        orchestrator = threading.Thread(target=unblock)
        orchestrator.start()
        try:
            response = run_branches(router, branch_map(fakes, [0, 1, 2]))
        finally:
            orchestrator.join(timeout=10.0)
        assert response.status == "aborted"
        # Every contacted shard got the abort — including the slow one
        # whose branch had locally committed and must compensate.
        assert len(slow.ops("2pc-abort")) == 1
        assert len(failing.ops("2pc-abort")) == 1
        assert slow.ops("2pc-commit") == []
        router.close()
        router.log.close()

    def test_dead_shard_triggers_early_abort_of_prepared_branches(self, tmp_path):
        router, fakes = make_router(tmp_path, n_shards=2)
        fakes[1].down = True
        response = run_branches(router, branch_map(fakes, [0, 1]))
        assert response.status == "failed"
        assert response.error["code"] == "shard-down"
        # The live shard prepared and was told to abort; the dead shard
        # got (at most) failed sends, never a commit.
        assert len(fakes[0].ops("2pc-abort")) == 1
        assert fakes[0].ops("2pc-commit") == []
        gtid = next(iter(router.log.decisions()))
        assert router.log.decisions()[gtid] == "abort"
        router.close()
        router.log.close()

    def test_unreachable_shard_stops_the_later_sends(self, tmp_path):
        """Shard 1 cannot be sent to: the sends stop there, so shard 2
        never hears of the gtid (presumed abort covers it) and is left
        out of the decision's shard list, while shard 1, which may have
        read its prepare, stays in it beside shard 0."""
        router, fakes = make_router(tmp_path, n_shards=3)
        fakes[1].down = True
        response = run_branches(router, branch_map(fakes, [0, 1, 2]))
        assert response.status == "failed"
        assert response.error["code"] == "shard-down"
        assert fakes[2].sent == []
        gtid = next(iter(router.log.decisions()))
        # decide() on a decided gtid returns its stored shard seqs.
        assert set(router.log.decide(gtid, "abort")) == {0, 1}
        assert len(fakes[0].ops("2pc-abort")) == 1
        assert fakes[0].ops("2pc-commit") == []
        router.close()
        router.log.close()

    def test_early_abort_is_decided_once(self, tmp_path):
        # Two failing branches: the log must end up with one abort
        # decision.
        router, fakes = make_router(tmp_path, n_shards=2)
        fakes[0].fail_prepare = True
        fakes[1].fail_prepare = True
        response = run_branches(router, branch_map(fakes, [0, 1]))
        assert response.status == "aborted"
        assert len(router.log.decisions()) == 1
        router.close()
        router.log.close()


class TestSendOrder:
    @pytest.mark.parametrize("fail_shard", [None, 2])
    def test_sends_go_out_in_ascending_shard_order(self, tmp_path, fail_shard):
        """A branch dict built as {2, 0, 1} still sends its prepares,
        then its decision (commit, or abort after shard 2 votes no), to
        shards 0, 1, 2 in that order.  A sent prepare holds its
        connection until its vote is read, so two coordinators that sent
        in their dicts' orders — one {0, 1}, the other {1, 0} — could
        each hold the connection the other waits to borrow: a
        hold-and-wait cycle that only the link pool's 30 s exhaustion
        timeout would end.  One global order rules that cycle out."""
        router, fakes = make_router(tmp_path, n_shards=3)
        if fail_shard is not None:
            fakes[fail_shard].fail_prepare = True
        response = run_branches(router, branch_map(fakes, [2, 0, 1]))
        assert response.status == ("ok" if fail_shard is None else "aborted")
        decision = "2pc-commit" if fail_shard is None else "2pc-abort"
        assert fakes[0].sends == [
            (0, "2pc-prepare"), (1, "2pc-prepare"), (2, "2pc-prepare"),
            (0, decision), (1, decision), (2, decision),
        ]
        router.close()
        router.log.close()


class TestCommitFanOut:
    def test_all_prepared_commits_and_acks_inline(self, tmp_path):
        router, fakes = make_router(tmp_path, n_shards=3)
        response = run_branches(router, branch_map(fakes, [0, 1, 2]))
        assert response.status == "ok"
        for fake in fakes:
            assert len(fake.ops("2pc-commit")) == 1
            # The decision send carries the per-shard seq the shard acks.
            assert fake.ops("2pc-commit")[0]["seq"] == 1
        gtid = next(iter(router.log.decisions()))
        assert router.log.decisions()[gtid] == "commit"
        # All three inline acks landed: the entry is fully acked.
        assert router.log.compactable == 1
        router.close()
        router.log.close()

    def test_threshold_compaction_runs_inline(self, tmp_path):
        router, fakes = make_router(
            tmp_path, n_shards=2, compact_threshold=3
        )
        for i in range(4):
            request = Request(
                op="total-payment", items=(0, 1), request_id=f"t-{i}"
            )
            response = router._run_two_phase(request, branch_map(fakes, [0, 1]))
            assert response.status == "ok"
        assert router.obs.counter("coordlog.compact.runs").value >= 1
        assert router.obs.counter("coordlog.compact.dropped").value >= 3
        # Everything committed and acked: the file is (near) empty while
        # the in-memory decision map stays complete.
        assert router.log.file_entries() <= 1
        assert len(router.log.decisions()) == 4
        router.close()
        router.log.close()


class TestFanOutCount:
    def test_four_branches_are_all_on_the_wire_before_any_reply(self, tmp_path):
        """Parallel prepare as a count, not a timing: with every shard's
        prepare held at its gate, all four prepares are sent before any
        gate opens (a sequential fan-out would wait at the first gate and
        never send the other three)."""
        router, fakes = make_router(tmp_path, n_shards=4)
        for fake in fakes:
            fake.prepare_gate = threading.Event()
        out = []
        coordinator = threading.Thread(
            target=lambda: out.append(run_branches(router, branch_map(fakes, [0, 1, 2, 3])))
        )
        coordinator.start()
        try:
            entered = [fake.prepare_entered.wait(10.0) for fake in fakes]
            opened_early = [fake.prepare_gate.is_set() for fake in fakes]
        finally:
            for fake in fakes:
                fake.prepare_gate.set()
            coordinator.join(timeout=10.0)
        assert entered == [True] * 4
        assert opened_early == [False] * 4
        assert out and out[0].status == "ok", out
        assert [len(fake.ops("2pc-prepare")) for fake in fakes] == [1] * 4
        router.close()
        router.log.close()
