"""Deterministic work sharding.

A sweep splits its input into fixed shards and merges the results in
shard order, so the outcome is byte-identical no matter how many worker
threads run them.  Only the theorem63 suite shards its work.  It runs in
the calling thread unless the HOMREC_THREADS environment variable asks
for more than one thread: one thread measured faster than a pool.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def thread_count() -> int:
    """HOMREC_THREADS as a count of at least 1; 1 when it is unset, 0 or
    not an integer."""
    try:
        return max(1, int(os.environ.get("HOMREC_THREADS", "")))
    except ValueError:
        return 1


def run_sharded(fn: Callable[[T], R], shards: Sequence[T]) -> list[R]:
    """Apply ``fn`` to every shard, returning results in shard order."""
    threads = thread_count()
    if threads <= 1 or len(shards) <= 1:
        return [fn(s) for s in shards]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, shards))
