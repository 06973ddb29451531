"""Order-preserving parallel map whose output is independent of job count."""

from __future__ import annotations

import os

from .seeding import positive_int


def parallel_map(fn, items: list, jobs: int = 1) -> list:
    """Apply fn to items, optionally across processes.

    All randomness must already be baked into the items (derived sub-seeds), so
    the result list is identical for any jobs value.
    """
    positive_int(jobs, "jobs must be positive")
    # The pool forks all its workers at once: start no more than items or CPUs.
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    # Imported here: a serial run (and every command at start-up) loads no
    # concurrent.futures or multiprocessing modules.
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


__all__ = ["parallel_map"]
