"""Property tests (hypothesis) for the consistent-hash router ring.

The cluster's correctness leans on three ring properties: the mapping
is a pure function of (key, n_shards, vnodes) so every router process
and every shard restart agrees; the keyspace splits near-evenly so one
shard cannot become the cluster; and growing the ring by one shard
relocates only ~1/(N+1) of the keys, so a resharding step is
incremental rather than a full shuffle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.hashring import DEFAULT_VNODES, MEMO_CAP, HashRing

keys = st.one_of(
    st.integers(min_value=0, max_value=2**31),
    st.text(min_size=0, max_size=32),
)


class TestDeterminism:
    @settings(max_examples=80, deadline=None)
    @given(key=keys, n_shards=st.integers(min_value=1, max_value=8))
    def test_two_rings_always_agree(self, key, n_shards):
        a = HashRing(n_shards)
        b = HashRing(n_shards)
        assert a.shard_for(key) == b.shard_for(key)

    @settings(max_examples=80, deadline=None)
    @given(key=keys, n_shards=st.integers(min_value=1, max_value=8))
    def test_owner_is_in_range(self, key, n_shards):
        assert 0 <= HashRing(n_shards).shard_for(key) < n_shards

    def test_assignments_are_pinned_across_releases(self):
        # The torture oracle and the docs both rely on this exact split
        # of item roots 0..7 over two shards; a silent hash change would
        # orphan every durable partition.
        ring = HashRing(2)
        assert [ring.shard_for(i) for i in range(8)] == [1, 1, 1, 0, 0, 0, 0, 1]

    def test_memo_is_capped_and_agrees_with_a_fresh_ring(self):
        ring = HashRing(3)
        keys = list(range(MEMO_CAP + 100))
        owners = [ring.shard_for(key) for key in keys]
        assert len(ring._memo) == MEMO_CAP
        assert [ring.shard_for(key) for key in keys] == owners
        fresh = HashRing(3)
        assert [fresh.shard_for(key) for key in reversed(keys)] == owners[::-1]
        # Keys are remembered by their str, which is what is hashed.
        assert ring.shard_for(True) == fresh.shard_for("True")

    def test_rejects_degenerate_rings(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


class TestUniformity:
    def test_four_shards_split_keys_near_evenly(self):
        ring = HashRing(4, vnodes=DEFAULT_VNODES)
        counts = [0] * 4
        n_keys = 1024
        for key in range(n_keys):
            counts[ring.shard_for(key)] += 1
        expected = n_keys / 4
        for shard, count in enumerate(counts):
            assert expected / 2 <= count <= expected * 2, (
                f"shard {shard} owns {count} of {n_keys} keys: {counts}"
            )


class TestStabilityUnderGrowth:
    @settings(max_examples=6, deadline=None)
    @given(n_shards=st.integers(min_value=1, max_value=6))
    def test_adding_a_shard_relocates_about_one_nth(self, n_shards):
        before = HashRing(n_shards)
        after = HashRing(n_shards + 1)
        n_keys = 1024
        moved = sum(
            1 for key in range(n_keys)
            if before.shard_for(key) != after.shard_for(key)
        )
        ideal = n_keys / (n_shards + 1)
        # Far below modulo hashing's ~n/(n+1) reshuffle, near the 1/(n+1)
        # consistent-hashing ideal (loose bounds: vnode placement jitter).
        assert ideal * 0.35 <= moved <= ideal * 2.2, (
            f"{moved} of {n_keys} keys moved growing {n_shards}->{n_shards + 1} "
            f"(ideal {ideal:.0f})"
        )

    @settings(max_examples=20, deadline=None)
    @given(key=keys, n_shards=st.integers(min_value=1, max_value=6))
    def test_unmoved_keys_keep_their_owner(self, key, n_shards):
        before = HashRing(n_shards)
        after = HashRing(n_shards + 1)
        if after.shard_for(key) != n_shards:
            assert after.shard_for(key) == before.shard_for(key)
