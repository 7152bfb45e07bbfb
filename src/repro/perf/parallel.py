"""Process-level fan-out for design-space evaluation.

The combos x grid sweep behind Table 9 is embarrassingly parallel: every
design point builds, factorizes, and solves its own stack.
:func:`map_design_points` submits each item to a ``ProcessPoolExecutor``
as its own future, at most one per worker in flight, returns the
results in input order, and runs a plain serial loop when one worker is
requested.

It handles the one failure a pool really meets, a dead worker (the OOM
killer, an injected ``worker_crash``): the broken pool is shut down and
rebuilt, only the items that were in flight (at most one per worker)
are re-queued, and completed results are kept.  After
:data:`POOL_REBUILDS` rebuilds, or when no pool can start at all
(sandboxes, restricted containers), the remaining items finish serially
in this process.  An exception raised by the function
itself is deterministic, so it fails its item at once and the
lowest-index one is re-raised after the run.  What a run survived lands
in the ``resil.{pool_rebuilds,task_failures,serial_fallbacks}`` counters.

Pools are forked, except while the resource profiler's sampler thread
runs (``--profile``): that thread takes the trace and profile locks, and
a fork landing while it holds one would hand the child a lock nobody
releases, deadlocking the child on its first span.  Those pools are
spawned instead.

Observability crosses the process boundary on one path: each worker
task runs inside :class:`_Task`, which marks the span buffer, the
metrics registry and the profiler buffer before the call and ships
what the task added back with the result.  Spans carry everything
about "what ran" -- the ``--perf-report`` timers are their per-name
sums -- and the metric delta carries the labelled
``plan.touch.<benchmark>.<hash>`` counters, so the parent's single
:func:`_merge_worker_return` makes ``--perf-report``, ``--metrics-out``,
``--trace-out`` and manifests report true totals for parallel runs:
solve counts from a ``--workers 4`` sweep equal the serial run's, and
every plan a worker built is labelled by benchmark.

Worker count resolution order:

1. explicit ``workers`` argument (``None``/``0`` mean "decide for me"),
2. the ``REPRO_WORKERS`` environment variable (the CLI ``--workers``
   flag sets it so experiment drivers inherit the knob) -- malformed
   values warn and fall back to the default (:mod:`repro.envcfg`)
   instead of crashing a sweep,
3. one worker per CPU this process may run on -- every design point is
   an independent build, factorization and solve, so a sweep uses the
   whole machine by default.  ``workers=1`` or ``REPRO_WORKERS=1`` runs
   serially in this process.

:func:`map_design_points` never starts more processes than it has
items, and a sweep that resolves to one worker runs serially.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import envcfg
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
from repro.obs import trace as _trace
from repro.obs.log import get_logger
from repro.perf.timers import timed
from repro.resil import faults as _faults

_log = get_logger("perf.parallel")

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"

#: Pool reconstructions after worker deaths before the rest runs serially.
POOL_REBUILDS = 8


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity masks on this platform
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a worker count from the argument or the environment.

    ``workers=None`` or ``0`` consults ``REPRO_WORKERS``; when that is
    unset or ``0`` the count is the number of CPUs this process may run
    on, and invalid values warn and fall back to that same default.
    ``1`` means serial.  Counts are clamped to at least 1 and at most
    the machine's CPU count times 2 (oversubscribing beyond that only
    adds scheduler churn for this CPU-bound work).
    """
    if workers is None or workers == 0:
        # Env values degrade instead of crashing a sweep.
        cpus = _usable_cpus()
        workers = envcfg.env_int(WORKERS_ENV, cpus, minimum=0) or cpus
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    limit = max(1, (os.cpu_count() or 1) * 2)
    return max(1, min(workers, limit))


@dataclass
class _WorkerReturn:
    """One task's result plus the telemetry it added."""

    result: Any
    spans: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, Dict[str, object]] = field(default_factory=dict)
    profile: List[Dict[str, object]] = field(default_factory=list)


class _Task:
    """Picklable worker-side task: fault check, ``fn``, telemetry home.

    Called with ``(index, tries, item)``: the fault-injection draw is
    keyed by the item *and* its submission count, so a re-queued item
    re-rolls instead of crashing identically forever.  Marking (rather
    than reset-and-export) keeps the telemetry delta correct under both
    fork (workers inherit parent buffer state) and spawn (fresh
    buffers), and across the items one worker runs.  The resource
    profiler is started lazily in the worker when ``REPRO_PROFILE``
    asks for it -- spawn children don't inherit the parent's sampler
    thread.
    """

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, payload: Tuple[int, int, T]) -> _WorkerReturn:
        index, tries, item = payload
        _profile.ensure_profiler()
        spans_before = _trace.span_count()
        metrics_before = _metrics.snapshot()
        samples_before = _profile.sample_count()
        _faults.check_task(str(index), attempt=tries)
        result = self.fn(item)
        return _WorkerReturn(
            result=result,
            spans=_trace.export_spans(since=spans_before),
            metrics=_metrics.registry.diff(metrics_before, _metrics.snapshot()),
            profile=_profile.export_samples(since=samples_before),
        )


def _merge_worker_return(wr: _WorkerReturn) -> Any:
    """Fold one worker's telemetry into this process; return the result."""
    _trace.absorb_spans(wr.spans)
    _metrics.merge(wr.metrics)
    _profile.absorb_samples(wr.profile)
    _metrics.inc("parallel.worker_tasks_merged")
    return wr.result


def _new_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool: forked, or spawned while the profiler thread runs."""
    if _profile.profiler_running():
        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
        )
    return ProcessPoolExecutor(max_workers=max_workers)


def _submit(pool: ProcessPoolExecutor, task: _Task, payload: tuple) -> Future:
    """``pool.submit``, or a failed future when the pool already broke."""
    try:
        return pool.submit(task, payload)
    except BrokenProcessPool as exc:
        fut: Future = Future()
        fut.set_exception(exc)
        return fut


def _run_serial(
    fn: Callable[[T], R],
    items: Sequence[T],
    indices: Sequence[int],
    results: List[Any],
    failures: Dict[int, Exception],
) -> None:
    """Run ``items[i]`` for ascending ``indices`` in this process.

    Stops at the first failure: every later index is higher, so its
    result could not be returned.  No fault is drawn here.
    """
    for i in indices:
        try:
            results[i] = fn(items[i])
        except Exception as exc:
            failures[i] = exc
            return


def _run_pooled(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    results: List[Any],
    failures: Dict[int, Exception],
) -> None:
    """Fill ``results``/``failures`` over a pool rebuilt on worker death.

    At most ``workers`` items are in flight; the next is submitted as
    each result merges.  A dead worker breaks every unfinished future
    of its pool, so the window bounds what one crash re-queues to the
    items that were running.
    """
    task = _Task(fn)
    todo = deque(range(len(items)))
    tries = [0] * len(items)
    for rebuild in range(POOL_REBUILDS + 1):
        try:
            pool = _new_pool(workers)
        except OSError as exc:
            warnings.warn(
                f"process pool unavailable ({exc}); falling back to serial",
                RuntimeWarning,
                stacklevel=3,
            )
            break
        try:
            pending: Dict[Future, int] = {}
            requeued: List[int] = []
            while pending or (todo and not requeued):
                # Once a crash is seen the pool is broken: submit nothing
                # more, collect what was in flight, then rebuild.
                while todo and not requeued and len(pending) < workers:
                    i = todo.popleft()
                    pending[_submit(pool, task, (i, tries[i], items[i]))] = i
                # Futures are dropped as they are merged, so no task's
                # telemetry delta outlives its merge.
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    i = pending.pop(fut)
                    try:
                        results[i] = _merge_worker_return(fut.result())
                    except BrokenProcessPool:
                        tries[i] += 1
                        requeued.append(i)
                    except Exception as exc:
                        failures[i] = exc
        except BaseException:
            # Ctrl-C and friends: leave at once, do not wait for workers.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=True)
        if not requeued:
            return
        todo = deque(sorted(requeued + list(todo)))
        if rebuild == POOL_REBUILDS:
            _log.warning(
                "pool rebuild budget exhausted; finishing %d tasks serially",
                len(todo),
                extra={"fields": {"remaining": len(todo)}},
            )
            break
        _metrics.inc("resil.pool_rebuilds")
        left = POOL_REBUILDS - rebuild - 1
        _log.warning(
            "process pool broke; rebuilding (%d rebuilds left, %d tasks re-queued)",
            left,
            len(requeued),
            extra={"fields": {"rebuilds_left": left, "requeued": len(requeued)}},
        )
    _metrics.inc("resil.serial_fallbacks")
    _run_serial(fn, items, todo, results, failures)


def map_design_points(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: Optional[int] = None,
) -> List[R]:
    """``[fn(item) for item in items]`` fanned over worker processes.

    Results are returned in input order regardless of worker count, so
    callers see identical output from serial and parallel runs.
    ``workers`` resolves as :func:`resolve_workers` describes (one per
    usable CPU by default); at most one process per item is started,
    and a single resolved worker runs the loop in this process.  ``fn``
    and the items must be picklable when that count exceeds 1.  A dead
    worker costs a pool rebuild and a re-run of the items in flight,
    never completed results (see the module docstring).  Worker spans,
    metrics and profiler samples are merged back into this process, so
    observability output matches a serial run.  Every worker has exited
    when this returns.

    An exception raised by ``fn`` is re-raised, lowest input index first.
    """
    items = list(items)
    workers = min(resolve_workers(workers), len(items))
    results: List[Any] = [None] * len(items)
    failures: Dict[int, Exception] = {}
    if workers <= 1:
        with timed("parallel.serial_map"):
            _run_serial(fn, items, range(len(items)), results, failures)
    else:
        with timed("parallel.process_map"):
            _run_pooled(fn, items, workers, results, failures)
    if failures:
        _metrics.inc("resil.task_failures", len(failures))
        raise failures[min(failures)]
    return results


__all__ = [
    "POOL_REBUILDS",
    "WORKERS_ENV",
    "map_design_points",
    "resolve_workers",
]
