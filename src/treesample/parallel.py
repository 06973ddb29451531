"""Order-preserving parallel map whose output is independent of job count."""

from __future__ import annotations

import os
from collections import deque
from itertools import chain, islice
from typing import Iterable, Iterator

from .seeding import positive_int

# Items per chunk once the input fills the read-ahead of two chunks per worker.
CHUNK = 16


def parallel_map(fn, items: Iterable, jobs: int = 1) -> Iterator:
    """Apply fn to items, optionally across processes; yield the results in
    item order.

    All randomness must come from the items (derived from a master seed and
    the item's index), so the results are identical for any jobs value. jobs
    is checked at the call; items are read lazily, as the results are taken.
    """
    positive_int(jobs, "jobs must be positive")
    return _results(fn, iter(items), min(jobs, os.cpu_count() or 1))


def _results(fn, items: Iterator, workers: int) -> Iterator:
    # The pool forks all its workers at its first submit: with more than one
    # worker, read up to two CHUNKs per worker first, start no more workers
    # than items read, and size every chunk so those items fill two per worker.
    head = list(islice(items, 2 * workers * CHUNK if workers > 1 else 0))
    if len(head) <= 1:
        yield from map(fn, chain(head, items))
        return
    # Imported here, so a serial run loads no concurrent.futures modules.
    from concurrent.futures import ProcessPoolExecutor

    workers = min(workers, len(head))
    size = -(-len(head) // (2 * workers))
    items, head = chain(head, items), None  # only the chain holds them
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # At most two chunks per worker are in flight, so the parent holds a
        # bounded window of items and results whatever the item count.
        window = deque()
        while chunk := list(islice(items, size)):
            window.append(pool.submit(_apply, fn, chunk))
            if len(window) == 2 * workers:
                yield from window.popleft().result()
        while window:
            yield from window.popleft().result()


def _apply(fn, chunk: list) -> list:
    return [fn(item) for item in chunk]


__all__ = ["parallel_map"]
