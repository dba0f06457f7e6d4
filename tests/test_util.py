"""Unit tests for the util package: ids, sequence counter, trace log."""

from __future__ import annotations

from repro.util.ids import IdGenerator
from repro.util.seq import SequenceCounter
from repro.util.tracelog import TraceEvent, TraceLog


class TestIdGenerator:
    def test_per_prefix_counters(self):
        gen = IdGenerator()
        assert gen.next_number("a") == 1
        assert gen.next_number("a") == 2
        assert gen.next_number("b") == 1

    def test_next_id_format(self):
        gen = IdGenerator()
        assert gen.next_id("txn") == "txn-1"
        assert gen.next_id("txn") == "txn-2"

    def test_peek_does_not_advance(self):
        gen = IdGenerator()
        assert gen.peek("x") == 0
        gen.next_number("x")
        assert gen.peek("x") == 1
        assert gen.peek("x") == 1

    def test_independent_instances(self):
        a, b = IdGenerator(), IdGenerator()
        a.next_number("p")
        assert b.peek("p") == 0


class TestSequenceCounter:
    def test_tick_monotone(self):
        seq = SequenceCounter()
        values = [seq.tick() for __ in range(5)]
        assert values == [1, 2, 3, 4, 5]
        assert seq.value == 5

    def test_custom_start(self):
        seq = SequenceCounter(start=100)
        assert seq.tick() == 101


class TestTraceLog:
    def event(self, seq, kind, txn="T1", node="n1", **detail):
        return TraceEvent(seq=seq, kind=kind, node=node, txn=txn, detail=detail)

    def test_emit_and_iterate(self):
        log = TraceLog()
        log.emit(self.event(1, "grant"))
        log.emit(self.event(2, "block"))
        assert len(log) == 2
        assert [e.kind for e in log] == ["grant", "block"]

    def test_of_kind(self):
        log = TraceLog()
        for i, kind in enumerate(["grant", "block", "grant", "commit"]):
            log.emit(self.event(i, kind))
        assert [e.seq for e in log.of_kind("grant")] == [0, 2]
        assert [e.seq for e in log.of_kind("grant", "commit")] == [0, 2, 3]

    def test_iteration_is_emission_order_across_transactions(self):
        """Transactions interleave and ``seq`` repeats; iteration still
        yields events exactly as they were emitted."""
        log = TraceLog()
        emitted = [("A", 1), ("B", 1), ("A", 1), ("C", 0), ("B", 2), ("A", 3)]
        for txn, seq in emitted:
            log.emit(self.event(seq, "grant", txn=txn))
        assert [(e.txn, e.seq) for e in log] == emitted

    def test_discard(self):
        log = TraceLog()
        for seq, txn in enumerate(["A", "B", "A", "B"]):
            log.emit(self.event(seq, "grant", txn=txn))
        log.discard("A")
        log.discard("missing")
        assert [(e.txn, e.seq) for e in log] == [("B", 1), ("B", 3)]
        assert len(log) == 2

    def test_str(self):
        text = str(self.event(7, "block", target="Atom#3"))
        assert "block" in text and "T1" in text and "Atom#3" in text
