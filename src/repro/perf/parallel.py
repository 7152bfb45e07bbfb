"""Process-level fan-out for design-space evaluation.

The combos x grid sweep behind Table 9 is embarrassingly parallel: every
design point builds, factorizes, and solves its own stack.
:func:`map_design_points` fans a picklable function over items with a
``ProcessPoolExecutor``, preserving input order, and falls back to a
plain serial loop when one worker is requested or when the platform
cannot spawn processes (sandboxes, restricted containers).

Execution is fault-tolerant (:mod:`repro.resil.execute`): every item is
its own future, a broken pool (a dead worker) is rebuilt -- re-queueing
only in-flight items, keeping completed results -- a hung task is
resubmitted past its deadline, and the remaining work degrades to a
serial run when the pool cannot be restored.  An exception raised by
the function itself is deterministic: the lowest-index one is
re-raised.

Observability crosses the process boundary on one path: each worker
task runs inside :class:`_ObsTask`, which marks the span buffer, the
metrics registry and the profiler buffer before the call and ships
what the task added back with the result.  Spans carry everything
about "what ran" -- the ``--perf-report`` timers are their per-name
sums, and plan labels ride on ``plan.hash`` spans -- so the parent's
single :func:`_merge_worker_return` makes ``--perf-report``,
``--metrics-out``, ``--trace-out`` and manifests report true totals for
parallel runs: solve counts from a ``--workers 4`` sweep equal the
serial run's, and every plan a worker built is labelled by benchmark.

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

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import envcfg
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
from repro.obs import trace as _trace
from repro.perf.timers import timed
from repro.resil import faults as _faults
from repro.resil.execute import run_tasks

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


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


class _ObsTask:
    """Picklable wrapper shipping per-task telemetry home.

    Marking (rather than reset-and-export) keeps the scheme correct
    under both fork (workers inherit parent buffer state) and spawn
    (fresh buffers), and under executor reuse across items.  The
    resource profiler is started lazily in the worker when
    ``REPRO_PROFILE`` asks for it -- spawn children don't inherit the
    parent's sampler thread.
    """

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, item: T) -> _WorkerReturn:
        _profile.ensure_profiler()
        spans_before = _trace.span_count()
        metrics_before = _metrics.snapshot()
        samples_before = _profile.sample_count()
        result = self.fn(item)
        return _WorkerReturn(
            result=result,
            spans=_trace.export_spans(since=spans_before),
            metrics=_metrics.registry.diff(metrics_before, _metrics.snapshot()),
            profile=_profile.export_samples(since=samples_before),
        )


class _ResilTask:
    """Payload-form :class:`_ObsTask` for the fault-tolerant executor.

    Receives ``(index, tries, item)`` so the worker-side fault-injection
    decision point is keyed by the task *and* its submission attempt --
    a resubmitted task re-rolls its fault draw instead of crashing
    identically forever.  The fault check runs inside the obs window, so
    a ``slow_task`` fault ships its ``resil.fault.*`` counts home; a
    ``worker_crash`` ships nothing, exactly like a real crash.
    """

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, payload: Tuple[int, int, T]) -> _WorkerReturn:
        index, tries, item = payload

        def faulted(item: T) -> R:
            _faults.check_task(str(index), attempt=tries)
            return self.fn(item)

        return _ObsTask(faulted)(item)


def _merge_worker_return(wr: _WorkerReturn) -> Any:
    """Fold one worker's telemetry into this process; return the result."""
    # Lazy: repro.pdn imports repro.perf, so a module-level import would
    # be circular.
    from repro.pdn import plan as _plan

    _trace.absorb_spans(wr.spans)
    _plan.absorb_plan_labels(wr.spans)
    _metrics.merge(wr.metrics)
    _profile.absorb_samples(wr.profile)
    _metrics.inc("parallel.worker_tasks_merged")
    return wr.result


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
    and the items must be picklable when that count exceeds 1.  Execution
    runs on the fault-tolerant engine (:mod:`repro.resil.execute`): a
    broken pool is rebuilt (completed results kept), and if the executor
    cannot start or stay up, the remaining items degrade to a serial
    loop instead of discarding finished work.  Worker spans, metrics and
    profiler samples are merged back into this process (see module
    docstring), so observability output matches a serial run.

    An exception raised by ``fn`` (or a task that timed out on every
    attempt) is re-raised, lowest input index first.
    """
    items = list(items)
    workers = min(resolve_workers(workers), len(items))
    if workers <= 1:
        with timed("parallel.serial_map"):
            return run_tasks(fn, items, workers=1)
    with timed("parallel.process_map"):
        return run_tasks(
            fn,
            items,
            workers=workers,
            task_factory=_ResilTask,
            merge=_merge_worker_return,
        )


__all__ = [
    "WORKERS_ENV",
    "map_design_points",
    "resolve_workers",
    "run_tasks",
]
