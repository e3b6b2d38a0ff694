"""Process-pool fan-out for trace generation.

A paper sweep re-times cheaply (the batch engine) but still has to
*generate* one trace per (kernel, implementation) pair — functional
execution of the kernel through the RVV intrinsics layer, the expensive
stage of the pipeline. Those generations are independent, so the sweep
harness fans them out across worker processes.

Workers receive (kernel-name, workload, knobs) task tuples, rebuild the
spec from the :data:`repro.kernels.KERNELS` registry, and return only the
finished :class:`repro.core.measurements.Measurement` rows — traces never
cross the process boundary (they are large; measurements are tiny).

The worker pool is **persistent**: the first parallel ``run_tasks`` call
spawns it, and later calls with the same shape (worker count, initializer)
reuse the same processes. A figure suite — latency sweep, then bandwidth
sweep, then attribution ladders over the same kernels — therefore pays
interpreter start-up and module import once, and per-worker caches
installed by the ``initializer`` (e.g. the sweep harness's loaded-trace
memo, :func:`repro.core.sweeps._sweep_worker_init`) stay warm across
figures. ``shutdown_pool`` tears it down explicitly; it is also
registered with :mod:`atexit`.

``run_tasks`` degrades gracefully: if the platform cannot spawn worker
processes (sandboxes without fork/semaphores) or the pool dies mid-run
(a worker was OOM-killed), it rebuilds the pool once and, failing that,
falls back to in-process execution so ``jobs=N`` is always safe to
request.
"""

from __future__ import annotations

import atexit
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def default_jobs() -> int:
    """Worker count for ``jobs=0`` requests: one per available CPU."""
    return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: int) -> int:
    """Normalize a ``jobs`` knob: 0 means "all CPUs", floor at 1."""
    if jobs == 0:
        return default_jobs()
    return max(1, jobs)


#: the one live pool, as (shape key, executor); replaced when a call asks
#: for a different shape, torn down at interpreter exit
_pool: tuple[tuple, ProcessPoolExecutor] | None = None

#: pid that built (or last replaced) ``_pool`` — a forked child inherits
#: the handle but must never use it: the queues belong to the parent
_pool_pid: int = os.getpid()


def _get_pool(workers: int, initializer: Callable[..., None] | None,
              initargs: tuple) -> ProcessPoolExecutor:
    global _pool, _pool_pid
    key = (workers, initializer, initargs)
    if _pool is not None and _pool_pid != os.getpid():
        # foreign pool: this process forked after the parent built the
        # pool. Submitting here would race the parent's own dispatch,
        # and shutting it down would kill the parent's workers — so the
        # handle is abandoned (never shut down) and a fresh pool built.
        _pool = None
    if _pool is not None:
        if _pool[0] == key:
            return _pool[1]
        # wait for the old workers to exit before the new shape comes up:
        # an abandoned worker still draining a task would outlive the
        # pool that owned it and race whatever the caller tears down
        # right after this call returns
        _pool[1].shutdown(wait=True, cancel_futures=True)
        _pool = None
    pool = ProcessPoolExecutor(max_workers=workers,
                               initializer=initializer,
                               initargs=initargs)
    _pool = (key, pool)
    _pool_pid = os.getpid()
    return pool


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (no-op if none is live)."""
    global _pool
    if _pool is not None:
        pool = _pool[1]
        _pool = None
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pool)


def run_tasks(fn: Callable[[T], R], tasks: Sequence[T], *,
              jobs: int = 1,
              on_result: Callable[[int, R], None] | None = None,
              initializer: Callable[..., None] | None = None,
              initargs: tuple = ()) -> list[R]:
    """``[fn(t) for t in tasks]``, fanned across ``jobs`` processes.

    Results come back in task order. ``fn`` and every task must be
    picklable (module-level function, plain-data arguments). With
    ``jobs<=1``, a single task, or an unusable multiprocessing platform,
    runs everything in-process.

    ``on_result(task_index, result)`` fires in the parent as each task
    finishes, in *completion* order — the sweep harness uses it for
    progress heartbeats while slower workers are still running.

    ``initializer(*initargs)`` runs once in each worker process when the
    pool comes up (and in-process before a serial run), so it must be
    idempotent. Calls with the same ``(jobs, initializer, initargs)``
    shape reuse the persistent pool — and with it whatever per-process
    state the initializer set up.
    """
    jobs = resolve_jobs(jobs)
    tasks = list(tasks)

    # on_result must fire exactly once per task even when the pool dies
    # mid-run and tasks are re-dispatched: without the dedup, every task
    # that completed before the crash reported again on the retry
    # (duplicate heartbeats, double-merged worker metrics)
    reported: set[int] = set()

    def _report(i: int, r: R) -> None:
        if on_result is not None and i not in reported:
            reported.add(i)
            on_result(i, r)

    def _serial() -> list[R]:
        if initializer is not None:
            initializer(*initargs)
        out = []
        for i, t in enumerate(tasks):
            r = fn(t)
            _report(i, r)
            out.append(r)
        return out

    if jobs <= 1 or len(tasks) <= 1:
        return _serial()

    def _dispatch() -> list[R]:
        pool = _get_pool(jobs, initializer, initargs)
        futures = [pool.submit(fn, t) for t in tasks]
        index = {f: i for i, f in enumerate(futures)}
        for f in as_completed(futures):
            _report(index[f], f.result())
        return [f.result() for f in futures]

    try:
        try:
            return _dispatch()
        except BrokenProcessPool:
            # a worker died mid-run; rebuild the pool and retry once
            _note_pool_event("parallel.pool_rebuilt", jobs=jobs,
                             tasks=len(tasks))
            shutdown_pool()
            return _dispatch()
    except (OSError, PermissionError, NotImplementedError,
            BrokenProcessPool):
        # no fork/semaphores available (restricted sandbox) or the pool
        # died twice: run serially
        _note_pool_event("parallel.serial_fallback", jobs=jobs,
                         tasks=len(tasks))
        shutdown_pool()
        return _serial()


def _note_pool_event(name: str, **attrs: Any) -> None:
    """Surface a pool failure: metrics counter + structured run-log event
    (replacing what used to be a silent rebuild)."""
    from repro.obs.metrics import get_metrics
    from repro.obs.runlog import get_runlog

    get_metrics().counter(name).inc()
    get_runlog().event(name, level="warn", **attrs)
