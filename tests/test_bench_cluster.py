"""Tests for the cluster-sweep bench machinery.

Tier-1 pins the deterministic pieces without booting a cluster:
schedule generation and the monotonic-goodput verdict.  The ``slow``
class boots 1/2/4 real shard processes and asserts the relations the
retired cluster baseline recorded as timings (CI ``cluster-smoke`` runs
it with ``-m slow``).
"""

from __future__ import annotations

import pytest

from repro.bench.cluster import (
    ClusterBenchConfig,
    ClusterLoopResult,
    generate_cluster_arrivals,
    goodput_monotonic,
    run_branch_latency_sweep,
    sweep_shards,
)


def result_with(n_shards: int, ok: int, elapsed: float = 1.0) -> ClusterLoopResult:
    return ClusterLoopResult(
        n_shards=n_shards, config=ClusterBenchConfig(), ok=ok, offered=ok,
        elapsed=elapsed,
    )


class TestArrivalSchedule:
    def test_schedule_is_deterministic(self):
        config = ClusterBenchConfig()
        first = generate_cluster_arrivals(config)
        second = generate_cluster_arrivals(config)
        assert [(t, r.to_dict()) for t, r in first] == [
            (t, r.to_dict()) for t, r in second
        ]

    def test_offsets_are_sorted_and_bounded(self):
        arrivals = generate_cluster_arrivals(ClusterBenchConfig())
        offsets = [offset for offset, _ in arrivals]
        assert offsets == sorted(offsets)
        assert all(0 <= offset for offset in offsets)

    def test_cross_fraction_is_roughly_honoured(self):
        config = ClusterBenchConfig(rate=500.0, duration=4.0, cross_fraction=0.2)
        arrivals = generate_cluster_arrivals(config)
        cross = sum(
            1 for _, request in arrivals
            if (request.lines is not None and len(request.lines) > 1)
            or (request.items is not None and len(request.items) > 1)
        )
        fraction = cross / len(arrivals)
        assert 0.1 <= fraction <= 0.3, fraction

    def test_rejects_nonsense_config(self):
        with pytest.raises(ValueError):
            ClusterBenchConfig(rate=0.0).validate()
        with pytest.raises(ValueError):
            ClusterBenchConfig(cross_fraction=1.5).validate()


class TestMonotonicVerdict:
    def test_clean_staircase_passes(self):
        results = [result_with(1, 50), result_with(2, 80), result_with(4, 140)]
        assert goodput_monotonic(results)

    def test_scale_down_fails(self):
        results = [result_with(1, 50), result_with(2, 80), result_with(4, 60)]
        assert not goodput_monotonic(results)

    def test_small_jitter_is_tolerated(self):
        results = [result_with(1, 100), result_with(2, 98), result_with(4, 140)]
        assert goodput_monotonic(results)


@pytest.mark.slow
class TestClusterRelations:
    def test_goodput_scales_with_shards_and_no_shard_drops(self):
        results = sweep_shards((1, 2, 4))
        records = [result.to_dict() for result in results]
        print("goodput 1/2/4 shards: "
              + " / ".join(f"{result.goodput:.1f}" for result in results))
        assert goodput_monotonic(results), records
        for result in results:
            assert result.router_stats.get("shard_down", 0) == 0, records

    def test_parallel_prepare_beats_sequential_at_four_branches(self):
        widest = run_branch_latency_sweep(branch_counts=(4,))[0]
        print(f"4-branch p95: parallel {widest.parallel_p95 * 1e3:.1f} ms, "
              f"sequential {widest.sequential_p95 * 1e3:.1f} ms")
        assert widest.parallel_beats_sequential, widest
