"""The one process fan-out behind every `--jobs` option: `spawn` workers,
never more than tasks or CPUs, with the pool modules imported only when a
pool starts, so importing the toolkit stays cheap."""

from __future__ import annotations

import os

from .graph import ResourceLimit


def split_depth(jobs: int, per_job: int) -> int:
    """Branch depth, at most 8, whose 2**depth subtrees give every job
    `per_job` of them; 0 when jobs == 1."""
    return 0 if jobs <= 1 else min(8, (per_job * jobs - 1).bit_length())


def pool_size(jobs: int, task_count: int) -> int:
    """Worker processes started for `task_count` tasks under `jobs`."""
    return max(1, min(jobs, task_count, os.cpu_count() or 1))


def run_tasks(fn, tasks, jobs: int) -> list:
    """[fn(task) for task in tasks], in this process when jobs == 1 and in
    worker processes otherwise, where fn and the list tasks must pickle.  An
    exception raised by fn reaches the caller unchanged; a dead worker is a
    ResourceLimit; an interrupt stops the workers and reaches the caller."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
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
