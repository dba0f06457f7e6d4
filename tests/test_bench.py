"""Tests for the benchmark harness: metrics, closed loop, reporting."""

from __future__ import annotations

import pytest

from repro.bench.harness import DEFAULT_COST_MODEL, run_closed_loop, sweep_protocols
from repro.bench.metrics import RunMetrics, aggregate, percentile
from repro.bench.report import format_markdown_table, format_table
from repro.core.protocol import SemanticLockingProtocol
from repro.orderentry.workload import WorkloadConfig
from repro.protocols.two_phase_object import ObjectRW2PLProtocol


class TestPercentile:
    """Nearest rank: the sample at 1-based rank ceil(p/100 * n)."""

    @pytest.mark.parametrize(
        "n, p, expected",
        [
            (1, 50, 1), (1, 95, 1), (1, 99, 1),
            (4, 50, 2), (4, 95, 4), (4, 99, 4),
            (20, 50, 10), (20, 95, 19), (20, 99, 20),
            (100, 50, 50), (100, 95, 95), (100, 99, 99),
        ],
    )
    def test_rank_table(self, n, p, expected):
        values = [float(v) for v in range(n, 0, -1)]  # unsorted on purpose
        assert percentile(values, p) == float(expected)

    def test_edges(self):
        assert percentile([], 95) == 0.0
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 100.0

    def test_run_metrics_uses_it(self):
        metrics = RunMetrics(protocol="p", response_times=(1.0, 2.0, 3.0, 4.0))
        assert metrics.p50_response == 2.0
        assert metrics.p95_response == 4.0


class TestRunMetrics:
    def test_derived_rates(self):
        metrics = RunMetrics(
            protocol="p",
            committed=10,
            aborted=2,
            blocks=5,
            actions=50,
            clock=100.0,
            total_response=200.0,
        )
        assert metrics.throughput == pytest.approx(0.1)
        assert metrics.mean_response == pytest.approx(20.0)
        assert metrics.blocking_rate == pytest.approx(0.1)
        assert metrics.abort_rate == pytest.approx(2 / 12)

    def test_zero_guards(self):
        metrics = RunMetrics(protocol="p")
        assert metrics.throughput == 0.0
        assert metrics.mean_response == 0.0
        assert metrics.blocking_rate == 0.0
        assert metrics.abort_rate == 0.0

    def test_row_keys(self):
        row = RunMetrics(protocol="p").row()
        assert row["protocol"] == "p"
        assert "throughput" in row and "block_rate" in row
        assert "ct_per_rel" in row

    def test_conflict_tests_per_release(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("lock.conflict_tests").inc(12)
        registry.counter("lock.release_ops").inc(4)
        metrics = RunMetrics(protocol="p", snapshot=registry.snapshot())
        assert metrics.conflict_tests == 12
        assert metrics.release_ops == 4
        assert metrics.conflict_tests_per_release == pytest.approx(3.0)

    def test_conflict_tests_per_release_without_snapshot(self):
        assert RunMetrics(protocol="p").conflict_tests_per_release == 0.0

    def test_aggregate(self):
        a = RunMetrics(protocol="p", committed=3, clock=10.0, max_locks_held=5)
        b = RunMetrics(protocol="p", committed=7, clock=30.0, max_locks_held=9)
        total = aggregate([a, b])
        assert total.committed == 10
        assert total.clock == 40.0
        assert total.max_locks_held == 9

    def test_aggregate_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestClosedLoop:
    def test_all_transactions_finish(self):
        metrics = run_closed_loop(
            SemanticLockingProtocol,
            WorkloadConfig(n_items=2, orders_per_item=2, seed=9),
            n_transactions=10,
            mpl=3,
        )
        assert metrics.committed >= 1
        assert metrics.clock > 0
        assert metrics.protocol == "semantic"

    def test_deterministic_given_seed(self):
        def run():
            return run_closed_loop(
                SemanticLockingProtocol,
                WorkloadConfig(n_items=2, orders_per_item=2, seed=13),
                n_transactions=8,
                mpl=2,
            )

        first, second = run(), run()
        assert first.committed == second.committed
        assert first.clock == second.clock
        assert first.blocks == second.blocks

    def test_identical_stream_across_protocols(self):
        """Different protocols must see the same transaction stream."""
        results = {}
        for factory in (SemanticLockingProtocol, ObjectRW2PLProtocol):
            metrics = run_closed_loop(
                factory,
                WorkloadConfig(n_items=3, orders_per_item=2, seed=17),
                n_transactions=8,
                mpl=1,  # serial: outcomes must coincide exactly
            )
            results[metrics.protocol] = metrics
        assert results["semantic"].committed == results["object-rw-2pl"].committed

    def test_cost_model_drives_clock(self):
        cheap = run_closed_loop(
            SemanticLockingProtocol,
            WorkloadConfig(n_items=2, seed=1),
            n_transactions=5,
            mpl=1,
            cost_model=DEFAULT_COST_MODEL,
        )
        from repro.core.kernel import CostModel

        expensive = run_closed_loop(
            SemanticLockingProtocol,
            WorkloadConfig(n_items=2, seed=1),
            n_transactions=5,
            mpl=1,
            cost_model=CostModel(generic_op=10.0, method_op=5.0, transaction_setup=10.0),
        )
        assert expensive.clock > cheap.clock


class TestSweep:
    def test_sweep_shapes(self):
        results = sweep_protocols(
            {"semantic": SemanticLockingProtocol},
            config_factory=lambda v: WorkloadConfig(n_items=v, orders_per_item=2, seed=v),
            values=[1, 2],
            n_transactions=6,
        )
        assert set(results) == {"semantic"}
        assert len(results["semantic"]) == 2


class TestReport:
    ROWS = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]

    def test_format_table(self):
        text = format_table(self.ROWS, title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "b" in lines[1]
        assert "22" in text

    def test_format_table_empty(self):
        assert format_table([], title="t") == "t"

    def test_markdown_table(self):
        text = format_markdown_table(self.ROWS, title="t")
        assert text.startswith("**t**")
        assert "| a | b |" in text
        assert "| 22 | yy |" in text
