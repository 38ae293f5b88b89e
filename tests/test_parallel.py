import os

import pytest

from errold.graph import ResourceLimit
from errold.parallel import pool_size, run_tasks, split_depth


def test_results_come_back_in_task_order():
    assert run_tasks(abs, [-3, 1, -2, 0], 2) == [3, 1, 2, 0]


def test_one_job_runs_in_this_process():
    # a lambda cannot be pickled, so only an in-process run can call it
    assert run_tasks(lambda x: x + 1, [1, 2], 1) == [2, 3]


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_rejected(jobs):
    with pytest.raises(ValueError):
        run_tasks(abs, [1], jobs)


def test_worker_error_reaches_the_caller_unchanged():
    with pytest.raises(ValueError, match="invalid literal"):
        run_tasks(int, ["1", "x"], 2)


def test_dead_worker_is_a_resource_limit():
    with pytest.raises(ResourceLimit):
        run_tasks(os._exit, [3, 3], 2)


def test_pool_never_exceeds_tasks_or_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert pool_size(1000, 3) == 2
    assert pool_size(1000, 1) == 1
    assert pool_size(2, 100) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert pool_size(1000, 3) == 3
    assert pool_size(4, 100) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_size(1000, 100) == 1


def test_split_depth():
    assert split_depth(1, 4) == 0
    assert split_depth(2, 2) == 2      # 4 subtrees for 2 jobs
    assert split_depth(3, 4) == 4      # 16 >= 12
    assert split_depth(1000, 4) == 8   # capped
