"""The process fan-out and the tree split behind `enumerate --jobs`:
`spawn` workers, never more than tasks or CPUs, with the pool modules
imported only when a pool starts, so importing the toolkit stays cheap."""

from __future__ import annotations

import os

from .graph import ResourceLimit


def pool_size(jobs: int, task_count: int) -> int:
    """Worker processes started for `task_count` tasks under `jobs`."""
    return max(1, min(jobs, task_count, os.cpu_count() or 1))


def run_tree(expand, complete, root, jobs: int) -> list:
    """[complete(node) for node in frontier], run by run_tasks.

    The frontier is [root] when jobs == 1.  Otherwise it grows level by
    level, each node replaced in place by expand(node): its children in
    preorder, [] if nothing lies below it, or None (the node stays) if it
    does not split.  A node that stays is not expanded again.  Growth stops
    at a level of at least 4 nodes for every worker that would start, or
    when every node stays, so the frontier is in preorder of the tree."""
    frontier = [(root, False)]             # (node, stays)
    target = 4 * pool_size(jobs, jobs) if jobs > 1 else 1
    while len(frontier) < target and not all(stays for _, stays in frontier):
        grown = []
        for node, stays in frontier:
            children = None if stays else expand(node)
            grown += [(node, True)] if children is None else \
                [(child, False) for child in children]
        frontier = grown
    return run_tasks(complete, [node for node, _ in frontier], jobs)


def run_tasks(fn, tasks, jobs: int) -> list:
    """[fn(task) for task in tasks], in this process when jobs == 1 or there
    is at most one task, and in worker processes otherwise, where fn and the
    list tasks must pickle.  An exception raised by fn reaches the caller
    unchanged; a dead worker is a ResourceLimit; an interrupt stops the
    workers and reaches the caller."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    import concurrent.futures
    import multiprocessing
    pool = concurrent.futures.ProcessPoolExecutor(
        max_workers=pool_size(jobs, len(tasks)),
        mp_context=multiprocessing.get_context("spawn"))
    try:
        return list(pool.map(fn, tasks))
    except concurrent.futures.BrokenExecutor as exc:
        raise ResourceLimit(f"a worker process died: {exc}") from None
    except KeyboardInterrupt:
        # a worker would run its queued tasks to the end before shutdown
        # returned; the executor has no public way to stop them
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
