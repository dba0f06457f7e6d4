"""Correctness audit: what the clients were told must be what is stored.

The audit takes every (request, response) exchanged with a stack so far
and clients of the stack (or of a recovery of it), and checks that

* every acknowledged ``place`` order number is unique per item and the
  order can be paid afterwards (``"paid"``, never ``no-such-order``) —
  for a two-line place on both of its items;
* per item ``stock-check`` equals the initial stock plus the quantities
  of acknowledged restocks minus the quantities of ``"shipped"`` answers.

Each breach is one violation; after a recovery the count of violations
is the number of acknowledged commits lost.
"""

from __future__ import annotations

from collections import Counter

from repro.server.requests import Request

from perfbench.loop import replay
from perfbench.workloads import INITIAL_STOCK, ORDERS_PER_ITEM


def placed_orders(exchanges) -> list[tuple[int, int, int]]:
    """``(item, order_no, quantity)`` of every acknowledged place line."""
    placed = []
    for request, response in exchanges:
        if request.op != "place" or not response.ok:
            continue
        if request.lines is None:
            placed.append((request.item, response.result, request.quantity))
        else:
            for (item, quantity), order_no in zip(request.lines, response.result):
                placed.append((item, order_no, quantity))
    return placed


def expected_stock(exchanges, n_items: int) -> list[int]:
    quantity_of = {(item, no): qty for item, no, qty in placed_orders(exchanges)}
    stock = [INITIAL_STOCK] * n_items
    for request, response in exchanges:
        if not response.ok:
            continue
        if request.op == "restock":
            stock[request.item] += request.quantity
        elif request.op == "ship" and response.result == "shipped":
            # Orders the database was built with have quantity 1.
            stock[request.item] -= quantity_of.get((request.item, request.order_no), 1)
    return stock


def _ask(clients, requests):
    """Send *requests* spread over *clients*; answers in request order."""
    samples = replay(clients, [requests[i::len(clients)] for i in range(len(clients))])
    by_id = {s.request.request_id: s.response for s in samples}
    return [by_id[r.request_id] for r in requests]


def audit(exchanges, clients, n_items: int) -> list[str]:
    """Return the violations found by asking the stack through *clients*."""
    violations = []
    placed = placed_orders(exchanges)
    for (item, order_no), times in Counter((i, no) for i, no, _ in placed).items():
        if times > 1:
            violations.append(f"item {item}: order number {order_no} acknowledged {times} times")
        if not isinstance(order_no, int) or order_no <= ORDERS_PER_ITEM:
            violations.append(f"item {item}: order number {order_no} collides with a built order")
    pays = [Request(op="pay", item=item, order_no=order_no, request_id=f"audit-pay-{index}")
            for index, (item, order_no, _) in enumerate(placed)]
    for (item, order_no, _), answer in zip(placed, _ask(clients, pays)):
        if not answer.ok or answer.result != "paid":
            violations.append(
                f"item {item}: acknowledged order {order_no} not payable: "
                f"{answer.status} {answer.result!r}")
    checks = [Request(op="stock-check", item=item, request_id=f"audit-stock-{item}")
              for item in range(n_items)]
    stock = expected_stock(exchanges, n_items)
    for item, (expected, answer) in enumerate(zip(stock, _ask(clients, checks))):
        if not answer.ok or answer.result != expected:
            violations.append(
                f"item {item}: stock {answer.result!r} ({answer.status}), expected {expected}")
    return violations
