"""Process-pool helper for embarrassingly parallel prime and k ranges."""

from concurrent.futures import ProcessPoolExecutor


def pmap(fn, items, workers: int = 1, chunksize: int = 1) -> list:
    """map(fn, items) preserving input order, across worker processes.

    workers <= 1 runs inline.  fn must be a picklable top-level callable.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(workers, len(items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
