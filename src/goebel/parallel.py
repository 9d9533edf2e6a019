"""Process-pool helper for embarrassingly parallel prime and k ranges."""

import os


def pmap(fn, items, workers: int) -> list:
    """map(fn, items) preserving input order, across worker processes.

    Runs inline for workers <= 1 or at most one item; otherwise starts at
    most min(workers, len(items), os.cpu_count()) processes, each taking
    items in chunks of len(items) // (16 * workers), at least 1.  fn must
    be picklable: a top-level function or a functools.partial of one.
    """
    items = list(items)
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, len(items) // (16 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
