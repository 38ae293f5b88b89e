import os

import pytest

import errold.parallel
from errold.graph import ResourceLimit
from errold.parallel import pool_size, run_tasks, run_tree


def test_results_come_back_in_task_order():
    assert run_tasks(abs, [-3, 1, -2, 0], 2) == [3, 1, 2, 0]


def test_one_job_runs_in_this_process():
    # a lambda cannot be pickled, so only an in-process run can call it
    assert run_tasks(lambda x: x + 1, [1, 2], 1) == [2, 3]


def test_one_task_runs_in_this_process():
    # a root that stays is a frontier of one task, which starts no pool
    # even under jobs=2: only an in-process run can call the lambda
    assert run_tree(lambda node: None, lambda node: node + 1, 1, 2) == [2]
    assert run_tasks(lambda x: x + 1, [1], 2) == [2]


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


def test_run_tree_frontier(monkeypatch):
    # a binary tree of strings below "": "10" has nothing below it, "00"
    # and the nodes of length 5 do not split
    monkeypatch.setattr(errold.parallel, "run_tasks",
                        lambda fn, tasks, jobs: [fn(task) for task in tasks])
    expanded = []

    def expand(node):
        expanded.append(node)
        if node == "10":
            return []
        if node == "00" or len(node) == 5:
            return None
        return [node + "0", node + "1"]

    def frontier(cpus, jobs):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        expanded.clear()
        return run_tree(expand, lambda node: node, "", jobs)

    assert frontier(2, 1) == [""] and expanded == []
    # 4 tasks per worker started, however many jobs are asked for
    assert frontier(1, 64) == ["00", "01", "10", "11"]
    assert frontier(2, 64) == ["00", "0100", "0101", "0110", "0111",
                               "1100", "1101", "1110", "1111"]
    assert frontier(2, 2) == frontier(2, 64)
    # growth stops when no node splits, and a node that stays is expanded once
    assert frontier(64, 64) == ["00"] + [p + format(i, "03b") for p in ("01", "11")
                                         for i in range(8)]
    assert sorted(expanded) == sorted(set(expanded)) and "00" in expanded
