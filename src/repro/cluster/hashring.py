"""Consistent hashing: item roots onto shard servers.

The router places every order-entry root (an item index) on one of N
shards via a classic consistent-hash ring: each shard projects
``vnodes`` virtual points onto a 64-bit circle, and a key belongs to the
first shard point at or after its own hash.  Properties the hypothesis
suite pins down:

* **deterministic** — the mapping is a pure function of (key, n_shards,
  vnodes) built on SHA-256, never Python's per-process-randomised
  ``hash()``, so every router process and every restart agrees;
* **uniform** — with enough vnodes the keyspace splits near-evenly at
  any shard count;
* **stable under growth** — adding one shard relocates only ~1/(N+1) of
  keys; the rest keep their assignment (the point of consistent hashing
  over ``key % N``).
"""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing", "DEFAULT_VNODES"]

#: Virtual points per shard; 64 keeps the N=4 imbalance well under 2x.
DEFAULT_VNODES = 64

#: Keys whose shard a ring remembers; later keys are hashed each time,
#: so arbitrary keys cannot grow the memo.
MEMO_CAP = 4096


def _hash64(data: str) -> int:
    """The first 8 bytes of SHA-256 as an unsigned 64-bit ring position."""
    return int.from_bytes(hashlib.sha256(data.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """An immutable consistent-hash ring over ``n_shards`` shards."""

    def __init__(self, n_shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.n_shards = n_shards
        self.vnodes = vnodes
        points = sorted(
            (_hash64(f"shard-{shard}:vnode-{vnode}"), shard)
            for shard in range(n_shards)
            for vnode in range(vnodes)
        )
        self._positions = [position for position, _ in points]
        self._owners = [shard for _, shard in points]
        # Hashed label -> shard; the ring is immutable, so never stale.
        self._memo: dict[str, int] = {}

    def shard_for(self, key: object) -> int:
        """The shard owning *key* (any object with a stable ``str``)."""
        label = f"key-{key}"
        shard = self._memo.get(label)
        if shard is None:
            position = _hash64(label)
            index = bisect.bisect_right(self._positions, position) % len(self._positions)
            shard = self._owners[index]
            if len(self._memo) < MEMO_CAP:
                self._memo[label] = shard
        return shard
