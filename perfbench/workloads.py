"""The four workloads and their request lists.

A client's request list is a pure function of ``(workload, seed, client,
n)``: the program under test only ever sees the generated requests.
Lists are built from shuffled blocks of 100 requests that each hold the
role's exact operation mix, so the mix does not drift with the seed and
a shorter list is a prefix of a longer one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.cluster.hashring import HashRing
from repro.server.requests import Request

ORDERS_PER_ITEM = 8
INITIAL_STOCK = 1000
CLIENTS = 2
WARMUP_PER_CLIENT = 100
N_SHARDS = 2
BLOCK = 100

# Operation shares in percent; "place2" is a two-line place.
DESK = {"place": 45, "pay": 15, "ship": 10, "restock": 5, "stock-check": 20, "total-payment": 5}
BACK_OFFICE = {"pay": 30, "ship": 25, "restock": 15, "stock-check": 25, "total-payment": 5}
HOT = {"place2": 30, "pay": 20, "ship": 20, "restock": 10, "stock-check": 20}


@dataclass(frozen=True)
class Workload:
    name: str
    stack: str  # "mem" | "wire_durable" | "cluster"
    n_items: int
    ops_per_rep: int  # both clients together, at the default --seconds
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mem_uniform", "mem", 64, 1400,
            "in-memory server, uniform keys, almost no blocking: kernel-dominated; "
            "storage, wire and cluster do no work",
        ),
        Workload(
            "mem_hot", "mem", 2, 1040,
            "same layers on 2 hot items: lock waits, Fig. 9 relief and wake-ups set "
            "latency; a grant-path gain that costs the wait path shows here",
        ),
        Workload(
            "wire_durable", "wire_durable", 64, 1040,
            "mem_uniform's request lists over TCP on a WAL with one fsync per commit "
            "and a 64-frame pool: the gap to mem_uniform is wire plus durability",
        ),
        Workload(
            "cluster_2pc", "cluster", 64, 1040,
            "router in front of 2 shard processes with about 14% cross-shard 2PC: "
            "router, links and coordinator log dominate; the kernel's share is smallest",
        ),
    )
}


def _deck(mix: dict[str, int], rng: random.Random, n: int) -> list[str]:
    ops: list[str] = []
    while len(ops) < n:
        block = [op for op, share in mix.items() for _ in range(share * BLOCK // 100)]
        rng.shuffle(block)
        ops.extend(block)
    return ops[:n]


def _uniform_list(mix, n_items: int, base: str, n: int, tag: str) -> list[Request]:
    # Separate streams for the mix and the keys keep a shorter list a
    # prefix of a longer one.
    rng = random.Random(f"{base}:keys")
    requests = []
    for index, op in enumerate(_deck(mix, random.Random(f"{base}:deck"), n)):
        item = rng.randrange(n_items)
        order_no = rng.randrange(1, ORDERS_PER_ITEM + 1)
        quantity = rng.randrange(1, 4)
        request_id = f"{tag}-{index}"
        if op == "place2":
            lines = ((0, quantity), (1, rng.randrange(1, 4)))
            requests.append(Request(op="place", lines=lines, request_id=request_id))
        else:
            requests.append(
                Request(op=op, item=item, order_no=order_no, quantity=quantity,
                        request_id=request_id)
            )
    return requests


def _other_shard_item(ring: HashRing, item: int, n_items: int, rng: random.Random) -> int:
    home = ring.shard_for(item)
    while True:
        other = rng.randrange(n_items)
        if ring.shard_for(other) != home:
            return other


def _force_cross_shard(requests: list[Request], client: int, n_items: int,
                       rng: random.Random) -> list[Request]:
    """Desk: every second place becomes a two-line place across shards;
    back office: every total-payment becomes a two-item cross-shard read."""
    ring = HashRing(N_SHARDS)
    out, places = [], 0
    for request in requests:
        if client == 0 and request.op == "place":
            places += 1
            if places % 2 == 0:
                other = _other_shard_item(ring, request.item, n_items, rng)
                lines = ((request.item, request.quantity), (other, rng.randrange(1, 4)))
                request = Request(op="place", lines=lines, request_id=request.request_id)
        elif client == 1 and request.op == "total-payment":
            other = _other_shard_item(ring, request.item, n_items, rng)
            request = Request(op="total-payment", items=(request.item, other),
                              request_id=request.request_id)
        out.append(request)
    return out


def request_list(workload: str, seed: int, client: int, n: int,
                 stream: str = "timed") -> list[Request]:
    """Client *client*'s list of *n* requests; ``stream="warmup"`` draws
    from a separate seed stream."""
    spec = WORKLOADS[workload]
    # wire_durable and cluster_2pc replay mem_uniform's lists, so the
    # gaps between those workloads are the added layers alone.
    family = "mem_hot" if workload == "mem_hot" else "mem_uniform"
    base = f"{family}:{seed}:{client}:{stream}"
    tag = f"{stream[0]}{client}"
    if workload == "mem_hot":
        return _uniform_list(HOT, spec.n_items, base, n, tag)
    mix = DESK if client == 0 else BACK_OFFICE
    requests = _uniform_list(mix, spec.n_items, base, n, tag)
    if workload == "cluster_2pc":
        cross_rng = random.Random(f"cross:{seed}:{client}:{stream}")
        requests = _force_cross_shard(requests, client, spec.n_items, cross_rng)
    return requests


def serialise(requests: list[Request]) -> bytes:
    return "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in requests).encode()


def op_kind(request: Request, ring: HashRing | None = None) -> str:
    """The latency class of a request: its op, or ``cross`` when *ring*
    is given and the request spans shards."""
    if ring is not None:
        items = (
            [line[0] for line in request.lines] if request.lines is not None
            else list(request.items) if request.items is not None
            else [request.item]
        )
        if len({ring.shard_for(item) for item in items}) > 1:
            return "cross"
    return request.op
