"""Golden tests for the TraceEvent schema and kernel determinism.

The trace log is the kernel's public observability surface: tests, the
timeline renderer, and the JSONL export all consume it.  This module
locks the contract down:

* every emitted event uses a known kind and carries that kind's
  required detail keys, with JSON-serializable values;
* the JSONL export round-trips losslessly, and is byte-identical to
  the export recorded when events were still rendered on emission;
* a run is a deterministic function of (workload, policy, seed) — the
  trace log AND the metrics snapshot of two identical runs are equal.
"""

from __future__ import annotations

import hashlib
import io
import json

from repro.core.kernel import run_transactions
from repro.core.protocol import SemanticLockingProtocol
from repro.objects.oid import Oid
from repro.orderentry.workload import OrderEntryWorkload, WorkloadConfig
from repro.semantics.invocation import Invocation
from repro.util.tracelog import TraceEvent, TraceLog

#: kind -> detail keys every event of that kind must carry.
TRACE_SCHEMA: dict[str, frozenset[str]] = {
    "begin": frozenset(),
    "request": frozenset({"target", "mode"}),
    "grant": frozenset({"target", "mode"}),
    "block": frozenset({"target", "mode", "waits_for"}),
    "wake": frozenset({"target", "mode"}),
    "regrant": frozenset({"target"}),
    "retain": frozenset(),
    "commit": frozenset(),
    "release": frozenset({"count"}),
    "abort": frozenset({"reason"}),
    "deadlock": frozenset({"cycle", "victim", "resolution"}),
    "restart": frozenset(),
    "restart-released": frozenset({"count"}),
    "undo": frozenset({"what"}),
    "compensate": frozenset({"with_"}),
    "structural-undo-fallback": frozenset(),
}

#: Kinds the reference workload below must exercise — keeps the schema
#: assertions from passing vacuously.
CORE_KINDS = frozenset(
    {
        "begin",
        "request",
        "grant",
        "block",
        "wake",
        "regrant",
        "commit",
        "release",
        "abort",
        "deadlock",
        "compensate",
    }
)

SEED = 2  # exercises deadlock resolution and compensation

#: sha256 of the reference workload's ``write_jsonl`` export (228 lines),
#: recorded while the kernel still built and rendered every event when
#: it emitted it.
REFERENCE_EXPORT_SHA256 = "7cf0ba8727ea74a5d6a43fecb7e2fd643ceb8060d71c864bfa11a63187305aab"


def run_reference_workload():
    mix = {"T1": 1.0, "T2": 1.0, "T3": 1.0, "T4": 1.0, "T5": 1.0}
    workload = OrderEntryWorkload(
        WorkloadConfig(n_items=2, orders_per_item=2, mix=mix, seed=SEED)
    )
    programs = dict(workload.take(8))
    return run_transactions(
        workload.db,
        programs,
        protocol=SemanticLockingProtocol(),
        policy="random",
        seed=SEED,
    )


class TestTraceSchema:
    def test_every_event_conforms(self):
        kernel = run_reference_workload()
        for event in kernel.trace:
            assert event.kind in TRACE_SCHEMA, f"unknown trace kind {event.kind!r}"
            missing = TRACE_SCHEMA[event.kind] - event.detail.keys()
            assert not missing, f"{event.kind} event missing detail keys {missing}"

    def test_reference_workload_covers_core_kinds(self):
        kernel = run_reference_workload()
        seen = {event.kind for event in kernel.trace}
        assert CORE_KINDS <= seen, f"missing kinds: {CORE_KINDS - seen}"

    def test_detail_value_shapes(self):
        kernel = run_reference_workload()
        for event in kernel.trace:
            detail = event.detail
            if event.kind in ("request", "grant", "block", "wake"):
                assert isinstance(detail["target"], str)
                assert isinstance(detail["mode"], str)
            if event.kind == "block":
                waits_for = detail["waits_for"]
                assert isinstance(waits_for, list)
                assert all(isinstance(w, str) for w in waits_for)
                assert waits_for == sorted(waits_for)
            if event.kind in ("release", "restart-released"):
                assert isinstance(detail["count"], int)
            if event.kind == "deadlock":
                assert isinstance(detail["cycle"], list)
                assert detail["victim"] in detail["cycle"]
                assert detail["resolution"] in ("abort", "restart")

    def test_events_are_json_serializable(self):
        kernel = run_reference_workload()
        for event in kernel.trace:
            parsed = json.loads(json.dumps(event.to_dict()))
            assert parsed["kind"] == event.kind
            assert parsed["seq"] == event.seq


class TestTraceJsonl:
    def test_round_trip(self):
        kernel = run_reference_workload()
        buffer = io.StringIO()
        written = kernel.trace.write_jsonl(buffer)
        assert written == len(kernel.trace)
        restored = TraceLog.read_jsonl(buffer.getvalue().splitlines())
        assert [e.to_dict() for e in restored] == [e.to_dict() for e in kernel.trace]

    def test_event_dict_round_trip(self):
        event = TraceEvent(
            seq=7, kind="block", node="n1", txn="T1",
            detail={"target": "Oid(3)", "mode": "Get()", "waits_for": ["T2"]},
        )
        assert TraceEvent.from_dict(event.to_dict()) == event


class TestRenderOnRead:
    """The kernel records raw fields and the log builds events on read:
    readers must see exactly what eager rendering gave them."""

    def test_reference_export_is_byte_identical(self):
        buffer = io.StringIO()
        assert run_reference_workload().trace.write_jsonl(buffer) == 228
        digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
        assert digest == REFERENCE_EXPORT_SHA256

    def test_emitted_and_recorded_events_keep_emission_order(self):
        target, mode = Oid("Atom", 3), Invocation("Get")
        log = TraceLog()
        log.record(1, "request", "n1", "T1", {"target": target, "mode": mode})
        log.emit(TraceEvent(seq=1, kind="begin", node="n2", txn="T2"))
        log.record(2, "grant", "n1", "T1", {"target": target, "mode": mode})
        log.emit(
            TraceEvent(seq=2, kind="block", node="n2", txn="T2", detail={
                "target": str(target), "mode": str(mode), "waits_for": ["n1"]})
        )
        log.record(3, "release", "n1", "T1", {"count": 1})
        events = list(log)
        assert [(e.txn, e.kind) for e in events] == [
            ("T1", "request"), ("T2", "begin"), ("T1", "grant"), ("T2", "block"),
            ("T1", "release"),
        ]
        assert events[0].detail == {"target": str(target), "mode": str(mode)}
        assert events[3].detail == events[2].detail | {"waits_for": ["n1"]}
        buffer = io.StringIO()
        assert log.write_jsonl(buffer) == 5
        assert list(TraceLog.read_jsonl(buffer.getvalue().splitlines())) == events


class TestDeterminism:
    """Same workload + policy + seed => identical trace and metrics.

    This is the regression the whole test suite leans on: scripted and
    random-policy scenarios only reproduce if the kernel has no hidden
    nondeterminism (dict ordering, id()-based tie-breaks, wall-clock
    reads) anywhere on the hot path — including the metrics layer.
    """

    def test_trace_and_metrics_reproduce_exactly(self):
        first = run_reference_workload()
        second = run_reference_workload()
        assert [e.to_dict() for e in first.trace] == [e.to_dict() for e in second.trace]
        assert first.obs.snapshot() == second.obs.snapshot()
        assert first.obs.snapshot().to_dict() == second.obs.snapshot().to_dict()

    def test_reference_workload_is_eventful(self):
        """The determinism assertion must cover conflict handling, not
        just straight-line commits."""
        kernel = run_reference_workload()
        assert kernel.metrics.deadlocks > 0
        assert kernel.metrics.compensations > 0
        snapshot = kernel.obs.snapshot()
        assert snapshot.counter("lock.blocks") > 0
