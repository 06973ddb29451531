"""Order-preserving parallel map whose output is independent of job count."""

from __future__ import annotations

import os
from collections import deque
from itertools import chain, islice
from typing import Iterable, Iterator

from .seeding import positive_int

# Items per submitted chunk after the first, one-item chunks.
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
    # The pool forks all its workers at its first submit: peek at up to
    # `workers` items, so it never starts more workers than there are items.
    head = list(islice(items, workers))
    if len(head) <= 1:
        yield from map(fn, chain(head, items))
        return
    # Imported here: a serial run (and every command at start-up) loads no
    # concurrent.futures or multiprocessing modules.
    from concurrent.futures import ProcessPoolExecutor

    workers = len(head)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # One item per worker starts the pool before the parent reads on; then
        # at most two chunks per worker are in flight, so the parent holds a
        # bounded window of items and results whatever the item count.
        window = deque(pool.submit(_apply, fn, [item]) for item in head)
        head.clear()
        for chunk in iter(lambda: list(islice(items, CHUNK)), []):
            if len(window) >= 2 * workers:
                yield from window.popleft().result()
            window.append(pool.submit(_apply, fn, chunk))
        while window:
            yield from window.popleft().result()


def _apply(fn, chunk: list) -> list:
    return [fn(item) for item in chunk]


__all__ = ["parallel_map"]
