"""Shard helpers kept for the benchmark harness.

Every suite runs in the calling thread: one thread measured faster than a
pool on the suites' default scale.  The theorem63 suite still hands its
inputs to ``run_sharded`` because ``perfbench/run.py`` reads
``thread_count()`` and ``perfbench/tracing.py`` wraps ``run_sharded``;
ROADMAP item 1 deletes this module together with those benchmark lines.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def thread_count() -> int:
    """The number of threads a suite runs in: always 1."""
    return 1


def run_sharded(fn: Callable[[T], R], shards: Sequence[T]) -> list[R]:
    """``fn`` applied to every shard, in shard order."""
    return [fn(s) for s in shards]
