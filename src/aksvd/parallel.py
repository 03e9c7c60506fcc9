"""Independent units of work on a thread pool sized from the BLAS thread
variables.

``parallel_map`` runs units of work that share no state, such as the
chunks of new points that ``ksvd.transform_oos`` projects, on one lazily
made thread pool of ``POOL_SIZE`` workers, fixed at import as
max(1, cpus // blas): cpus the cores this process may run on, blas the
first positive integer in ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` (OpenBLAS's own order), or cpus when none is set
(``pool_size``). With no thread variable set BLAS takes every core and
units run one after another in the caller's thread; with
``OPENBLAS_NUM_THREADS=1`` each core takes a unit. A unit computes exactly
what it would alone, so results are the same bits at any pool size. Only
the out-of-sample projection uses the pool; nothing that ``fit`` or the
Nystrom solver runs does.

The pool lives in a module of its own so that the package's largest
module, ``kernels``, compiles no larger for it: where bytecode is not
cached, that compile sets the process's peak memory at import.
"""
from __future__ import annotations

import os
import threading

# OpenBLAS's own lookup order for its thread count
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")


def pool_size(environ, cpus: int) -> int:
    """Worker threads for independent units: max(1, cpus // blas), blas the
    first positive integer among ``_BLAS_THREAD_VARS`` in ``environ`` (an
    empty, zero, negative or non-numeric value counts as unset), or
    ``cpus`` when none is set."""
    blas = cpus
    for var in _BLAS_THREAD_VARS:
        try:
            value = int(environ.get(var, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return max(1, cpus // blas)


def _cpus() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# fixed at import, as BLAS fixes its own thread count
POOL_SIZE = pool_size(os.environ, _cpus())
_pool: tuple | None = None  # (size, executor), made on first use
_pool_lock = threading.Lock()


class _Worker(threading.local):
    """True in the pool's own threads, where units run inline."""

    active = False


_worker = _Worker()


def _mark_worker() -> None:
    _worker.active = True


def _drop_pool() -> None:
    """A forked child has none of its parent's threads: it makes its own
    pool if it needs one."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor():
    """The pool's ThreadPoolExecutor, made on first use. concurrent.futures
    is imported here, so that a process that never uses the pool does not
    load it (with ``logging``, a quarter of a megabyte)."""
    from concurrent.futures import ThreadPoolExecutor
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != POOL_SIZE:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            _pool = (POOL_SIZE, ThreadPoolExecutor(
                POOL_SIZE, thread_name_prefix="aksvd",
                initializer=_mark_worker))
        return _pool[1]


def parallel_map(func, items) -> list:
    """``[func(item) for item in items]``, each call one unit of work on
    ``POOL_SIZE`` threads. Units run inline when the pool has one thread,
    when there is one unit, or when called from a unit, so units never
    nest. An exception is raised in item order, the first failing unit's,
    once every started unit has finished; units not yet started by then
    are dropped. A unit must not change state that another reads or
    writes."""
    items = list(items)
    if POOL_SIZE == 1 or len(items) < 2 or _worker.active:
        return [func(item) for item in items]
    from concurrent.futures import wait
    futures = [_executor().submit(func, item) for item in items]
    try:
        return [future.result() for future in futures]
    finally:
        for future in futures:
            future.cancel()
        wait(futures)
