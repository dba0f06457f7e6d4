"""Deterministic interleavings of the router's parallel prepare fan-out.

No real shards: the router's per-shard :class:`ShardLink` objects are
replaced with in-process fakes whose prepare replies are orchestrated by
events, so the interleavings under test — a slow shard still preparing
while a failing shard triggers the early abort, a bounded pool skipping
a branch the abort beat to the socket — happen on every run instead of
once in a thousand.  The fakes record every message, which is how the
tests assert *wire-visible* behavior: who was prepared, who got the
abort, and what the coordinator log said while prepares were still in
flight.
"""

from __future__ import annotations

import threading

from repro.cluster.router import ClusterRouter, CoordinatorLog
from repro.server.requests import Request


class FakeLink:
    """Stands in for one shard's ShardLink; scripted per-op behavior."""

    def __init__(self, shard: int, log: CoordinatorLog) -> None:
        self.shard = shard
        self.log = log
        self.sent: list[dict] = []
        self.lock = threading.Lock()
        self.prepare_gate: threading.Event | None = None  # block prepare until set
        self.prepare_entered = threading.Event()
        self.fail_prepare = False
        self.down = False

    def request(self, message: dict) -> dict:
        with self.lock:
            self.sent.append(dict(message))
        if self.down:
            raise ConnectionError(f"fake shard {self.shard} is down")
        op = message["op"]
        if op == "2pc-prepare":
            self.prepare_entered.set()
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
    fakes = [FakeLink(i, log) for i in range(n_shards)]
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
    def test_slow_prepared_branch_is_compensated_after_early_abort(self, tmp_path):
        """Slow shard + failing shard: the early abort is durable before
        the slow prepare settles, and the slow (prepared) branch still
        gets its 2pc-abort."""
        router, fakes = make_router(tmp_path, n_shards=3, max_fanout=4)
        slow, failing = fakes[0], fakes[1]
        slow.prepare_gate = threading.Event()
        failing.fail_prepare = True
        failing.prepare_gate = threading.Event()

        observed_while_slow_inflight: dict[str, str] = {}

        def unblock() -> None:
            # Wait until both the slow and failing prepares are on the
            # wire, let the failure land first, then observe the log
            # *while the slow prepare is still in flight*, then release it.
            assert slow.prepare_entered.wait(10.0)
            assert failing.prepare_entered.wait(10.0)
            failing.prepare_gate.set()
            deadline = threading.Event()
            for _ in range(2000):
                gtids = [g for g in router.log.decisions()]
                if gtids:
                    observed_while_slow_inflight[gtids[0]] = router.log.decisions()[
                        gtids[0]
                    ]
                    break
                deadline.wait(0.005)
            slow.prepare_gate.set()

        orchestrator = threading.Thread(target=unblock)
        orchestrator.start()
        try:
            response = run_branches(router, branch_map(fakes, [0, 1, 2]))
        finally:
            orchestrator.join(timeout=10.0)
        assert response.status == "aborted"
        # The abort was fsynced while the slow prepare was still blocked.
        assert list(observed_while_slow_inflight.values()) == ["abort"]
        # Every contacted shard got the abort — including the slow one
        # whose branch had locally committed and must compensate.
        assert len(slow.ops("2pc-abort")) == 1
        assert len(failing.ops("2pc-abort")) == 1
        assert slow.ops("2pc-commit") == []
        router.close()
        router.log.close()

    def test_dead_shard_triggers_early_abort_of_prepared_branches(self, tmp_path):
        router, fakes = make_router(tmp_path, n_shards=2, max_fanout=4)
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

    def test_bounded_pool_skips_unsent_branches_after_abort(self, tmp_path):
        """With one worker, a first-branch failure decides abort before
        the other branches' prepares are ever submitted — they are
        skipped entirely (presumed abort covers them) and excluded from
        the decision's shard list."""
        router, fakes = make_router(tmp_path, n_shards=3, max_fanout=1)
        fakes[0].fail_prepare = True
        response = run_branches(router, branch_map(fakes, [0, 1, 2]))
        assert response.status == "aborted"
        # Exactly one prepare hit a socket; shards 1 and 2 never heard
        # of the gtid and get no abort either.
        assert len(fakes[0].ops("2pc-prepare")) == 1
        assert fakes[1].sent == []
        assert fakes[2].sent == []
        skipped = router.obs.counter("2pc.prepare.fanout.skipped").value
        assert skipped == 2
        # The decision's shard list covers only the contacted shard, so
        # the single inline ack from its abort already made the entry
        # compactable.
        gtid = next(iter(router.log.decisions()))
        assert router.log.ack(gtid, 0) is False  # duplicate of the inline ack
        assert router.log.compactable == 1
        router.close()
        router.log.close()

    def test_early_abort_is_decided_once(self, tmp_path):
        # Two failing branches race to decide; the log must end up with
        # one abort decision and the early-abort metric must not double.
        router, fakes = make_router(tmp_path, n_shards=2, max_fanout=4)
        fakes[0].fail_prepare = True
        fakes[1].fail_prepare = True
        response = run_branches(router, branch_map(fakes, [0, 1]))
        assert response.status == "aborted"
        assert len(router.log.decisions()) == 1
        assert router.obs.counter("2pc.prepare.fanout.early_aborts").value == 1
        router.close()
        router.log.close()


class TestCommitFanOut:
    def test_all_prepared_commits_and_acks_inline(self, tmp_path):
        router, fakes = make_router(tmp_path, n_shards=3, max_fanout=4)
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
            tmp_path, n_shards=2, max_fanout=4, compact_threshold=3
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

    def test_sequential_mode_still_commits(self, tmp_path):
        router, fakes = make_router(
            tmp_path, n_shards=2, max_fanout=4, parallel_prepare=False
        )
        assert router._fanout is None
        response = run_branches(router, branch_map(fakes, [0, 1]))
        assert response.status == "ok"
        assert router.obs.counter("2pc.prepare.fanout.waves").value == 0
        assert router.log.compactable == 1
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
