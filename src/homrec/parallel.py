"""Deterministic work sharding.

A sweep splits its input into fixed shards and merges the results in
shard order, so the outcome is byte-identical no matter how many worker
threads run them.  Only the theorem63 suite shards its work.  The
thread count comes from the HOMREC_THREADS environment variable (0 or
unset means automatic).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_AUTO_CAP = 8


def thread_count() -> int:
    raw = os.environ.get("HOMREC_THREADS", "").strip()
    if raw in ("", "0"):
        return max(1, min(_AUTO_CAP, os.cpu_count() or 1))
    try:
        value = int(raw)
    except ValueError:
        return 1
    return max(1, value)


def run_sharded(fn: Callable[[T], R], shards: Sequence[T]) -> list[R]:
    """Apply ``fn`` to every shard, returning results in shard order."""
    threads = thread_count()
    if threads <= 1 or len(shards) <= 1:
        return [fn(s) for s in shards]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, shards))
