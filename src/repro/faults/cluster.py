"""Shard-kill torture: SIGKILL a real shard at every 2PC crash site.

:mod:`repro.faults.durable` proves single-node recovery against real
process death; this module does the same for the cluster's two-phase
commit.  For every participant crash site
(:data:`repro.cluster.participant.CRASH_SITES`) on every victim shard,
a fresh 2-shard :class:`~repro.cluster.process.LocalCluster` runs a
seeded mixed workload (single-shard writes, committing cross-shard
places and total-payments, and deliberately aborting cross-shard places
whose surviving branch must be compensated) through the router.  The
armed shard durably drops a crash marker and SIGKILLs itself mid-2PC;
the driver keeps going — shard-down answers are part of the contract —
then restarts the victim over its surviving files, probes the recovered
cluster, shuts everything down cleanly, and audits the wreckage:

1. the victim really died by SIGKILL and its marker names the site;
2. **zero lost committed transactions** — every request the router
   acked ``ok`` is durably committed on every shard it touched (single
   requests as ``rq-{id}`` winners, cross-shard requests as a durable
   ``commit`` decision plus a ``2pc-{gtid}`` branch winner per shard);
3. **no dangling branches** — every branch of an abort-decided gtid
   that did commit locally has a committed ``comp-{gtid}``;
4. **serial equivalence** — each shard's final WAL, recovered onto a
   fresh database, equals a *serial* replay of its durable winners (the
   original sub-requests, with compensations re-derived from the WAL's
   own inverse records): the surviving cluster history is equivalent to
   a serial one, crash or no crash.

A point that misses one carries the named failure on its
:class:`~repro.faults.torture.CrashOutcome` — ``site-never-fired``,
``not-sigkill``, ``marker-mismatch``, ``lost-committed``,
``dangling-branch``, ``state-divergence`` — and the sweep is
:func:`repro.faults.torture.sweep` over ``v{victim}-{site}`` points.
"""

from __future__ import annotations

import json
import os
import signal
from random import Random
from typing import Optional, Sequence

from repro.cluster.files import CRASH_MARKER_FILENAME, WAL_FILENAME
from repro.cluster.hashring import HashRing
from repro.cluster.participant import (
    CRASH_SITES,
    branch_inverses,
    compensation_program,
)
from repro.cluster.process import LocalCluster
from repro.cluster.router import plan_request
from repro.faults.torture import (
    CrashOutcome,
    TortureReport,
    _durable_winners,
    recovered_matches,
    serial_replay,
    state_of,
    sweep,
)
from repro.orderentry.schema import ITEM_TYPE, ORDER_TYPE, build_order_entry_database
from repro.server.requests import Request, Response, build_program
from repro.storage.durable import load_wal_file

__all__ = ["cluster_workload", "run_cluster_torture"]

TYPE_SPECS = {"Item": ITEM_TYPE, "Order": ORDER_TYPE}


# ----------------------------------------------------------------------
# The seeded workload
# ----------------------------------------------------------------------
def _invalid_index_for(ring: HashRing, shard: int, n_items: int) -> int:
    """An out-of-range item index that still routes to *shard*."""
    index = n_items
    while ring.shard_for(index) != shard:
        index += 1
    return index


def cluster_workload(
    seed: int,
    n_requests: int,
    n_items: int,
    ring: HashRing,
    victim: int = 0,
) -> list[Request]:
    """A deterministic ring-aware mixed workload.

    Single-shard writes and reads, committing cross-shard places and
    total-payments, and aborting cross-shard places (one line's item
    index is out of range on the *non-victim* shard, so the victim's
    branch commits first and must be compensated by the global abort) —
    every 2PC crash site on the victim gets hit.
    """
    rng = Random(seed)
    by_shard: dict[int, list[int]] = {}
    for item in range(n_items):
        by_shard.setdefault(ring.shard_for(item), []).append(item)
    if len(by_shard) < 2:
        raise ValueError(
            f"workload needs items on >= 2 shards; got shards {sorted(by_shard)}"
        )
    shards = sorted(by_shard)
    others = [s for s in shards if s != victim]
    requests: list[Request] = []
    for i in range(n_requests):
        rid = f"w{i}"
        kind = rng.random()
        if kind < 0.35:  # single-shard write
            item = rng.choice(by_shard[rng.choice(shards)])
            op = rng.choice(("place", "restock", "pay", "ship"))
            if op == "place":
                requests.append(
                    Request(op="place", item=item, customer_no=200 + i,
                            quantity=1 + i % 3, request_id=rid)
                )
            elif op == "restock":
                requests.append(
                    Request(op="restock", item=item, quantity=5, request_id=rid)
                )
            else:  # pay / ship a pre-built order
                requests.append(
                    Request(op=op, item=item, order_no=1 + i % 2, request_id=rid)
                )
        elif kind < 0.45:  # single-shard read
            item = rng.choice(by_shard[rng.choice(shards)])
            requests.append(Request(op="stock-check", item=item, request_id=rid))
        elif kind < 0.70:  # committing cross-shard place
            a = rng.choice(by_shard[victim])
            b = rng.choice(by_shard[rng.choice(others)])
            requests.append(
                Request(op="place", customer_no=300 + i, request_id=rid,
                        lines=((a, 1 + i % 2), (b, 1)))
            )
        elif kind < 0.85:  # cross-shard read
            a = rng.choice(by_shard[victim])
            b = rng.choice(by_shard[rng.choice(others)])
            requests.append(
                Request(op="total-payment", items=(a, b), request_id=rid)
            )
        else:  # aborting cross-shard place: victim's branch commits, then compensates
            a = rng.choice(by_shard[victim])
            bad = _invalid_index_for(ring, rng.choice(others), n_items)
            requests.append(
                Request(op="place", customer_no=400 + i, request_id=rid,
                        lines=((a, 1), (bad, 1)))
            )
    return requests


# ----------------------------------------------------------------------
# One crash point
# ----------------------------------------------------------------------
def _gtid_of(rid: str, decisions: dict[str, str]) -> Optional[str]:
    for gtid in decisions:
        if gtid.split("-", 1)[1:] == [rid]:
            return gtid
    return None


def _audit_shard(
    shard_dir: str,
    build_config: dict[str, int],
    requests_by_id: dict[str, Request],
    decisions: dict[str, str],
    ring: HashRing,
    shard: int,
) -> tuple[list[str], bool, list[str]]:
    """(durable winners, serial-equivalence verdict, dangling branches)."""
    scan = load_wal_file(os.path.join(shard_dir, WAL_FILENAME))
    winners = _durable_winners(scan.log)
    oracle = build_order_entry_database(**build_config)

    def program_for(txn: str):
        if txn.startswith("comp-"):
            gtid = txn[len("comp-"):]
            return compensation_program(oracle.db, branch_inverses(scan.log, f"2pc-{gtid}"))
        if txn.startswith("rq-"):
            rid = txn[len("rq-"):]
        elif txn.startswith("2pc-"):
            rid = txn[len("2pc-"):].split("-", 1)[1]
        else:
            raise RuntimeError(f"shard {shard}: unexpected durable winner {txn!r}")
        sub = plan_request(requests_by_id[rid], ring.shard_for)[shard]
        return build_program(oracle, sub)

    serial_replay(oracle.db, winners, program_for)
    recovered = build_order_entry_database(**build_config)
    state_ok, __ = recovered_matches(recovered.db, scan.log, TYPE_SPECS, state_of(oracle.db))

    # A committed branch of an abort-decided gtid must have a committed
    # compensation — unless it was readonly (no inverse records to run).
    dangling = [
        f"s{shard}:{gtid}"
        for gtid, decision in decisions.items()
        if decision == "abort"
        and f"2pc-{gtid}" in winners
        and f"comp-{gtid}" not in winners
        and branch_inverses(scan.log, f"2pc-{gtid}")
    ]
    return winners, state_ok, dangling


def _drive_point(
    label: str,
    site: str,
    victim: int,
    workdir: str,
    workload: Sequence[Request],
    ring: HashRing,
    build_config: dict[str, int],
    ready_timeout: float,
) -> tuple[CrashOutcome, list[tuple[Request, Response]], dict[str, str]]:
    """Drive *workload* through a cluster whose *victim* is armed at *site*.

    Returns the outcome so far (did the site fire, how did the victim
    die, what does its marker say), every (request, response) the router
    answered — probes of the recovered cluster included — and the
    coordinator's durable decisions.
    """
    outcome = CrashOutcome(label=label, crashed=False)
    acked: list[tuple[Request, Response]] = []
    decisions: dict[str, str] = {}
    cluster = LocalCluster(
        ring.n_shards,
        workdir,
        shard_config=build_config,
        crash_specs={victim: {"site": site, "hits": 1}},
        # A deliberately tiny threshold so coordinator-log compaction
        # runs repeatedly *during* the crash workload: the audit then
        # proves in-doubt resolution and the zero-lost-commit invariant
        # hold across truncation, not just on an ever-growing log.
        compact_threshold=4,
    ).start(ready_timeout)
    try:
        victim_proc = cluster.shards[victim]
        for request in workload:
            acked.append((request, cluster.router.route_request(request)))
            if not outcome.crashed and victim_proc.returncode is not None:
                # Mid-load death: restart over the surviving files right
                # away, then keep driving the recovered cluster.
                outcome.crashed = True
                outcome.process_killed = victim_proc.returncode == -signal.SIGKILL
                marker_path = os.path.join(
                    victim_proc.data_dir, CRASH_MARKER_FILENAME
                )
                if os.path.exists(marker_path):
                    with open(marker_path, encoding="utf-8") as fh:
                        outcome.crash_site = json.load(fh).get("site", "")
                outcome.detail["recovery"] = cluster.restart_shard(
                    victim, clear_crash=True, ready_timeout=ready_timeout
                )["recovery"]

        if not outcome.crashed:
            # The armed site never fired: finish cleanly, nothing to audit.
            outcome.failures = ("site-never-fired",)
            return outcome, acked, decisions

        # Post-recovery probes: the revived cluster must serve both paths.
        items = range(build_config["n_items"])
        probe_item = min(i for i in items if ring.shard_for(i) == victim)
        other_item = min(i for i in items if ring.shard_for(i) != victim)
        probes = [
            Request(op="place", item=probe_item, customer_no=900,
                    quantity=1, request_id="probe-single"),
            Request(op="place", customer_no=901, request_id="probe-cross",
                    lines=((probe_item, 1), (other_item, 1))),
        ]
        for request in probes:
            acked.append((request, cluster.router.route_request(request)))
        decisions = cluster.log.decisions()
    finally:
        cluster.stop()
    if not outcome.process_killed:
        outcome.failures += ("not-sigkill",)
    if outcome.crash_site != site:
        outcome.failures += ("marker-mismatch",)
    return outcome, acked, decisions


def _audit_point(
    outcome: CrashOutcome,
    workdir: str,
    ring: HashRing,
    build_config: dict[str, int],
    acked: Sequence[tuple[Request, Response]],
    decisions: dict[str, str],
) -> None:
    """Read every shard's surviving files; add what they disprove to *outcome*."""
    requests_by_id = {request.request_id: request for request, __ in acked}
    winners_by_shard: dict[int, list[str]] = {}
    diverged: list[int] = []
    dangling: list[str] = []
    for shard in range(ring.n_shards):
        shard_dir = os.path.join(workdir, f"shard-{shard}")
        winners, state_ok, shard_dangling = _audit_shard(
            shard_dir, build_config, requests_by_id, decisions, ring, shard
        )
        winners_by_shard[shard] = winners
        if not state_ok:
            diverged.append(shard)
        dangling.extend(shard_dangling)

    lost: list[str] = []
    acked_ok = 0
    for request, response in acked:
        if response.status != "ok":
            continue
        acked_ok += 1
        if request.op in ("stock-check", "total-payment"):
            continue  # reads cannot be "lost"
        rid = request.request_id
        branches = plan_request(request, ring.shard_for)
        if len(branches) == 1:
            (shard,) = branches
            if f"rq-{rid}" not in winners_by_shard[shard]:
                lost.append(f"rq-{rid}@s{shard}")
            continue
        gtid = _gtid_of(rid, decisions)
        if gtid is None or decisions.get(gtid) != "commit":
            lost.append(f"{rid}:no-commit-decision")
            continue
        for shard in branches:
            if f"2pc-{gtid}" not in winners_by_shard[shard]:
                lost.append(f"2pc-{gtid}@s{shard}")

    outcome.winners = tuple(
        f"s{shard}:{txn}" for shard, txns in winners_by_shard.items() for txn in txns
    )
    outcome.detail.update(
        acked_ok=acked_ok,
        acked_failed=len(acked) - acked_ok,
        winners_per_shard=[len(winners) for winners in winners_by_shard.values()],
        lost_committed=lost,
        dangling_branches=dangling,
        diverged_shards=diverged,
    )
    if lost:
        outcome.failures += ("lost-committed",)
    if dangling:
        outcome.failures += ("dangling-branch",)
    if diverged:
        outcome.failures += ("state-divergence",)


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def run_cluster_torture(
    seed: int = 0,
    n_requests: int = 24,
    n_shards: int = 2,
    n_items: int = 8,
    orders_per_item: int = 2,
    sites: Optional[Sequence[str]] = None,
    victims: Optional[Sequence[int]] = None,
    workdir: Optional[str] = None,
    max_seconds: Optional[float] = None,
    ready_timeout: float = 30.0,
) -> TortureReport:
    """SIGKILL a shard at every 2PC crash site; audit every recovery.

    Each (victim, site) point gets a fresh cluster directory and a full
    workload/crash/restart/audit cycle, under the shared
    :func:`~repro.faults.torture.sweep` loop.
    """
    sites = tuple(sites) if sites is not None else CRASH_SITES
    victims = tuple(victims) if victims is not None else tuple(range(n_shards))
    unknown = [s for s in sites if s not in CRASH_SITES]
    if unknown:
        raise ValueError(f"unknown crash sites {unknown}; know {list(CRASH_SITES)}")
    ring = HashRing(n_shards)
    build_config = {"n_items": n_items, "orders_per_item": orders_per_item}

    def run_point(label: str, point: tuple[int, str], point_dir: str) -> CrashOutcome:
        victim, site = point
        workload = cluster_workload(seed, n_requests, n_items, ring, victim=victim)
        outcome, acked, decisions = _drive_point(
            label, site, victim, point_dir, workload, ring, build_config, ready_timeout
        )
        if outcome.crashed:
            _audit_point(outcome, point_dir, ring, build_config, acked, decisions)
        return outcome

    report = TortureReport(
        f"cluster(seed={seed}, shards={n_shards}, requests={n_requests})",
        seed,
        {"harness": "shard-kill", "n_shards": n_shards, "n_requests": n_requests},
    )
    points = [(f"v{victim}-{site}", (victim, site)) for victim in victims for site in sites]
    return sweep(report, points, run_point, workdir, max_seconds)
