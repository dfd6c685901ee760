"""Small shared helpers."""

from concurrent.futures import ThreadPoolExecutor


def parallel_map(fn, items, threads):
    """Order-preserving map, sequential when ``threads`` is 1.

    Work items must be independent and pure; with more than one thread
    they run on a thread pool (numpy releases the GIL in the kernels
    that dominate the per-item cost).
    """
    items = list(items)
    threads = max(1, int(threads))
    if threads == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
