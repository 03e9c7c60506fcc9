"""Independent units of work on a thread pool sized from the BLAS thread
variables."""
import os
import threading
import time

import pytest

from aksvd import parallel


@pytest.mark.parametrize("environ, cpus, size", [
    ({}, 2, 1),
    ({}, 16, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
    ({"GOTO_NUM_THREADS": "2"}, 8, 4),
    ({"OMP_NUM_THREADS": "1"}, 4, 4),
    # OpenBLAS's order: OPENBLAS_, then GOTO_, then OMP_NUM_THREADS
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "4"}, 8, 8),
    ({"GOTO_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 2),
    # zero, empty, negative and non-numeric values count as unset
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "two", "OMP_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "-1", "OMP_NUM_THREADS": "2"}, 8, 4),
    ({"OPENBLAS_NUM_THREADS": "0"}, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "x", "GOTO_NUM_THREADS": ""}, 8, 1),
    # other libraries' variables are not OpenBLAS's
    ({"MKL_NUM_THREADS": "1"}, 8, 1),
    # the floor of cpus / blas, at least one
    ({"OPENBLAS_NUM_THREADS": "3"}, 8, 2),
    ({"OPENBLAS_NUM_THREADS": "16"}, 8, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
])
def test_pool_size_rule(environ, cpus, size):
    assert parallel.pool_size(environ, cpus) == size


@pytest.mark.parametrize("size", [1, 2])
def test_results_in_item_order(monkeypatch, size):
    monkeypatch.setattr(parallel, "POOL_SIZE", size)

    def unit(i):
        time.sleep(0.01 * (5 - i))  # later items finish first
        return i * i

    assert parallel.parallel_map(unit, range(6)) == [i * i for i in range(6)]


def test_first_failure_in_item_order(monkeypatch):
    monkeypatch.setattr(parallel, "POOL_SIZE", 2)
    finished = []

    def unit(i):
        if i == 2:
            time.sleep(0.2)  # unit 3 fails first
            raise ValueError("unit 2")
        if i == 3:
            raise KeyError("unit 3")
        finished.append(i)

    with pytest.raises(ValueError, match="unit 2"):
        parallel.parallel_map(unit, range(6))
    # units 4 and 5 started while unit 2 slept, and had finished
    assert sorted(finished) == [0, 1, 4, 5]


def test_units_never_nest(monkeypatch):
    monkeypatch.setattr(parallel, "POOL_SIZE", 2)

    def unit(i):
        # with both workers busy, a nested unit sent to the pool would
        # wait for ever; it runs in its caller's thread instead
        here = threading.current_thread()
        return parallel.parallel_map(
            lambda j: (j, threading.current_thread() is here), range(3))

    results = []
    caller = threading.Thread(target=lambda: results.append(
        parallel.parallel_map(unit, range(2))), daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert results == [[[(0, True), (1, True), (2, True)]] * 2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool(monkeypatch):
    monkeypatch.setattr(parallel, "POOL_SIZE", 2)
    assert parallel.parallel_map(abs, [-1, -2]) == [1, 2]
    pid = os.fork()
    if pid == 0:  # the parent's workers are not in the child
        ok = parallel._pool is None and \
            parallel.parallel_map(abs, [-3, -4]) == [3, 4]
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
