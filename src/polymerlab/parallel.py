"""Deterministic fan-out of environment replicas for ``gibbs.quenched_average``.

Work items carry their own seeds, so results are identical whatever the
thread count; outputs are collected in submission order.  The suites of
``verify all`` do not come through here: ``cli.cmd_verify`` runs them in
forked worker processes, and there each suite's replicas come through here
in one thread at d = 1.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn, items, threads: int = 1) -> list:
    """Map ``fn`` over ``items``, optionally on a thread pool, order-preserving."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
