"""Deterministic fan-out: environment replicas for ``gibbs.quenched_average``, suites for ``verify``.

Work items carry their own seeds, so results are identical whatever the
thread count; outputs are collected in submission order.  ``cli.cmd_verify``
runs the suites of ``verify all`` through it, and each suite's replicas go
through it again, in one thread at d = 1 when other suites run beside it.
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
