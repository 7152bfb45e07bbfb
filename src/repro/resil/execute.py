"""Submit-per-item task execution with retries, timeouts, and rebuilds.

:func:`run_tasks` is the engine under
:func:`repro.perf.parallel.map_design_points`.  Where the old
``ex.map`` path was all-or-nothing -- the first worker exception (or a
``BrokenProcessPool`` from an OOM-killed worker) discarded every
completed solve -- this one tracks each item as its own future and
degrades stepwise:

* a failed task is retried (transient errors only, bounded attempts
  with backoff -- see :class:`~repro.resil.retry.RetryPolicy`);
* a task past its deadline is abandoned and resubmitted
  (``task_timeout_s``);
* a broken pool is torn down and rebuilt (up to ``pool_rebuilds``
  times), re-queueing only the in-flight items -- completed results
  are kept;
* when the pool cannot be rebuilt (or cannot start at all: sandboxes,
  restricted containers), the remaining items run serially in the
  parent;
* a task that exhausts its attempts becomes a
  :class:`~repro.resil.retry.TaskFailure` record, not a crash.

The return value is a :class:`TaskReport`: results in input order
(``None`` holes where a task failed) plus the failure records and
retry/timeout/rebuild counters, which also land in the obs metrics
registry under ``resil.*``.

Observability still crosses the process boundary exactly as before:
every worker task runs inside :class:`~repro.perf.parallel._ObsTask`,
and its span/metric/profile deltas are merged parent-side as each
future completes.

Pools are forked, except while the resource profiler's sampler thread
runs (``--profile``): that thread takes the trace and profile locks, and
a fork landing while it holds one would hand the child a lock nobody
releases, deadlocking the child on its first span.  Those pools are
spawned instead.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
from repro.obs.log import get_logger
from repro.resil import faults
from repro.resil.retry import RetryPolicy, TaskFailure

_log = get_logger("resil.execute")

T = TypeVar("T")
R = TypeVar("R")

#: Poll period while waiting on futures; short enough that deadline
#: enforcement is responsive, long enough to stay off the hot path.
_WAIT_SLICE_S = 0.1


@dataclass
class TaskReport:
    """Partial results plus everything that went wrong getting them."""

    results: List[Any] = field(default_factory=list)
    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    serial_fallback: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def completed(self) -> int:
        return len(self.results) - len(self.failures)

    def raise_first(self) -> None:
        """Re-raise the first (by input order) failure's exception.

        Compatibility shim for all-or-nothing callers
        (:func:`~repro.perf.parallel.map_design_points`): the historical
        contract was "first exception propagates".
        """
        if not self.failures:
            return
        first = min(self.failures, key=lambda f: f.index)
        if first.exception is not None:
            raise first.exception
        raise TimeoutError(
            f"task {first.index} ({first.item}) timed out after "
            f"{first.attempts} attempts"
        )

    def summary(self) -> Dict[str, object]:
        return {
            "tasks": len(self.results),
            "completed": self.completed,
            "failures": [f.to_dict() for f in self.failures],
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "serial_fallback": self.serial_fallback,
        }


@dataclass
class _TaskState:
    """Parent-side bookkeeping for one item across its attempts."""

    index: int
    item: Any
    tries: int = 0  # submissions so far (fault-injection re-roll key)
    failures: int = 0  # failed attempts counted against the budget
    deadline: Optional[float] = None
    last_exc: Optional[BaseException] = None


def _observe_report(report: TaskReport) -> None:
    if report.retries:
        _metrics.inc("resil.retries", report.retries)
    if report.timeouts:
        _metrics.inc("resil.task_timeouts", report.timeouts)
    if report.pool_rebuilds:
        _metrics.inc("resil.pool_rebuilds", report.pool_rebuilds)
    if report.failures:
        _metrics.inc("resil.task_failures", len(report.failures))
    if report.serial_fallback:
        _metrics.inc("resil.serial_fallbacks")


def _run_serial(
    fn: Callable[[T], R],
    states: Sequence[_TaskState],
    policy: RetryPolicy,
    report: TaskReport,
) -> None:
    """Run task states in the parent process, with retry + faults.

    The serial path cannot preempt itself, so ``task_timeout_s`` is not
    enforced here -- timeouts are a parallel-executor feature.
    """
    for st in states:
        while True:
            try:
                faults.check_task(f"{st.index}", attempt=st.tries)
                report.results[st.index] = fn(st.item)
                break
            except Exception as exc:
                st.tries += 1
                st.failures += 1
                st.last_exc = exc
                if policy.is_transient(exc) and st.failures < policy.max_attempts:
                    report.retries += 1
                    delay = policy.backoff_s(st.failures, key=str(st.index))
                    if delay > 0:
                        time.sleep(delay)
                    continue
                report.failures.append(
                    TaskFailure.from_exception(
                        st.index, st.item, exc, attempts=st.failures
                    )
                )
                break


def _drain_broken_pool(
    ex: ProcessPoolExecutor, pending: Dict[Future, _TaskState]
) -> List[_TaskState]:
    """Collect every in-flight task from a broken pool and shut it down.

    Futures that completed before the breakage already delivered their
    results; everything still pending is re-queued with a bumped try
    counter (so deterministic fault draws re-roll).
    """
    requeue: List[_TaskState] = []
    for fut, st in pending.items():
        fut.cancel()
        st.tries += 1
        requeue.append(st)
    pending.clear()
    ex.shutdown(wait=False, cancel_futures=True)
    requeue.sort(key=lambda s: s.index)
    return requeue


def _new_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool: forked, or spawned while the profiler thread runs."""
    if _profile.profiler_running():
        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
        )
    return ProcessPoolExecutor(max_workers=max_workers)


def run_tasks(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    policy: Optional[RetryPolicy] = None,
    task_factory: Optional[Callable[[Callable[[T], R]], Callable]] = None,
    merge: Optional[Callable[[Any], Any]] = None,
) -> TaskReport:
    """Fan ``fn`` over ``items``; always returns a :class:`TaskReport`.

    ``workers`` must already be resolved (see
    :func:`repro.perf.parallel.resolve_workers`).  ``task_factory``
    wraps ``fn`` for worker-side execution (the obs-delta shipping
    wrapper); ``merge`` post-processes each worker return parent-side
    and yields the bare result.  Both default to identity, which is
    what the serial path uses.
    """
    items = list(items)
    policy = policy or RetryPolicy.from_env()
    report = TaskReport(results=[None] * len(items))
    states = [_TaskState(index=i, item=item) for i, item in enumerate(items)]
    if not items:
        return report

    if workers <= 1 or len(items) <= 1:
        _run_serial(fn, states, policy, report)
        _observe_report(report)
        return report

    task = task_factory(fn) if task_factory is not None else fn
    unwrap = merge if merge is not None else (lambda wr: wr)
    max_workers = min(workers, len(items))
    rebuilds_left = policy.pool_rebuilds
    queue: List[_TaskState] = list(states)
    pending: Dict[Future, _TaskState] = {}
    ex: Optional[ProcessPoolExecutor] = None

    def _submit(st: _TaskState) -> None:
        assert ex is not None
        fut = ex.submit(task, (st.index, st.tries, st.item))
        if policy.task_timeout_s:
            st.deadline = time.monotonic() + policy.task_timeout_s
        pending[fut] = st

    def _record_failure(st: _TaskState, timed_out: bool = False) -> None:
        exc = st.last_exc
        if exc is None:
            exc = TimeoutError(
                f"task timed out after {policy.task_timeout_s}s"
            )
        report.failures.append(
            TaskFailure.from_exception(
                st.index, st.item, exc, attempts=st.failures, timed_out=timed_out
            )
        )

    def _handle_error(st: _TaskState, exc: BaseException) -> None:
        st.tries += 1
        st.failures += 1
        st.last_exc = exc
        if policy.is_transient(exc) and st.failures < policy.max_attempts:
            report.retries += 1
            delay = policy.backoff_s(st.failures, key=str(st.index))
            if delay > 0:
                time.sleep(delay)
            queue.append(st)
        else:
            _record_failure(st)

    try:
        ex = _new_pool(max_workers)
    except (OSError, PermissionError) as exc:
        warnings.warn(
            f"process pool unavailable ({exc}); falling back to serial",
            RuntimeWarning,
            stacklevel=2,
        )
        report.serial_fallback = True
        _run_serial(fn, states, policy, report)
        _observe_report(report)
        return report

    try:
        while queue or pending:
            pool_broken = False
            while queue and not pool_broken:
                st = queue.pop(0)
                try:
                    _submit(st)
                except (BrokenProcessPool, RuntimeError) as exc:
                    # submit() raises once the pool is already broken.
                    queue.insert(0, st)
                    st.last_exc = exc
                    pool_broken = True
            if not pool_broken and pending:
                timeout = _WAIT_SLICE_S
                now = time.monotonic()
                deadlines = [
                    st.deadline for st in pending.values() if st.deadline
                ]
                if deadlines:
                    timeout = max(0.0, min(min(deadlines) - now, timeout))
                done, _ = wait(
                    set(pending), timeout=timeout, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    st = pending.pop(fut)
                    try:
                        wr = fut.result()
                    except BrokenProcessPool as exc:
                        st.last_exc = exc
                        st.tries += 1
                        queue.append(st)
                        pool_broken = True
                    except Exception as exc:
                        _handle_error(st, exc)
                    else:
                        report.results[st.index] = unwrap(wr)
                # Deadline sweep: abandon overdue futures and retry.
                if policy.task_timeout_s:
                    now = time.monotonic()
                    for fut, st in list(pending.items()):
                        if st.deadline is not None and now >= st.deadline:
                            del pending[fut]
                            fut.cancel()
                            st.tries += 1
                            st.failures += 1
                            st.last_exc = None
                            report.timeouts += 1
                            if st.failures < policy.max_attempts:
                                report.retries += 1
                                queue.append(st)
                            else:
                                _record_failure(st, timed_out=True)
            if pool_broken:
                queue.extend(_drain_broken_pool(ex, pending))
                queue.sort(key=lambda s: s.index)
                if rebuilds_left > 0:
                    rebuilds_left -= 1
                    report.pool_rebuilds += 1
                    _log.warning(
                        "process pool broke; rebuilding (%d rebuilds left, "
                        "%d tasks re-queued)",
                        rebuilds_left,
                        len(queue),
                        extra={
                            "fields": {
                                "rebuilds_left": rebuilds_left,
                                "requeued": len(queue),
                            }
                        },
                    )
                    ex = _new_pool(max_workers)
                else:
                    # Rebuild budget exhausted: finish the remaining
                    # items serially rather than lose completed work.
                    _log.warning(
                        "pool rebuild budget exhausted; finishing %d tasks "
                        "serially",
                        len(queue),
                        extra={"fields": {"remaining": len(queue)}},
                    )
                    report.serial_fallback = True
                    _run_serial(fn, queue, policy, report)
                    queue = []
    finally:
        if ex is not None:
            ex.shutdown(wait=False, cancel_futures=True)

    _observe_report(report)
    return report
