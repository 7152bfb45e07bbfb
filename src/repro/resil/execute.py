"""Submit-per-item task execution with timeouts and pool rebuilds.

:func:`run_tasks` is the engine under
:func:`repro.perf.parallel.map_design_points`.  It handles the two
failures a sweep can really meet, and nothing else:

* a pool worker that dies (the OOM killer, an injected
  ``worker_crash``): the broken pool is torn down and rebuilt (up to
  ``pool_rebuilds`` times), re-queueing only the in-flight items --
  completed results are kept -- and once the rebuild budget is spent
  (or no pool can start at all: sandboxes, restricted containers) the
  remaining items run serially in the parent;
* a task that hangs past ``task_timeout_s``: it is abandoned and
  resubmitted, at most ``max_attempts`` times in all.

An exception raised by ``fn`` itself is deterministic -- a singular
matrix is singular on every retry -- so it fails its task at once.
:func:`run_tasks` returns the results in input order, or re-raises the
lowest-index failure once the run is over.  The events land in the obs
metrics registry as ``resil.{retries,task_timeouts,pool_rebuilds,
task_failures,serial_fallbacks}``.

Observability still crosses the process boundary exactly as before:
every worker task runs inside :class:`~repro.perf.parallel._ObsTask`,
and its span/metric/profile deltas are merged parent-side as each
future completes.

Pools are forked, except while the resource profiler's sampler thread
runs (``--profile``): that thread takes the trace and profile locks, and
a fork landing while it holds one would hand the child a lock nobody
releases, deadlocking the child on its first span.  Those pools are
spawned instead.

Env knobs (all warn-and-default via :mod:`repro.envcfg`):
``REPRO_RETRY_MAX`` (attempts per timed-out task), ``REPRO_TASK_TIMEOUT``
(seconds, 0 disables), ``REPRO_POOL_REBUILDS``.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, TypeVar

from repro import envcfg
from repro.obs import metrics as _metrics
from repro.obs import profile as _profile
from repro.obs.log import get_logger

_log = get_logger("resil.execute")

T = TypeVar("T")
R = TypeVar("R")

RETRY_MAX_ENV = "REPRO_RETRY_MAX"
TASK_TIMEOUT_ENV = "REPRO_TASK_TIMEOUT"
POOL_REBUILDS_ENV = "REPRO_POOL_REBUILDS"

DEFAULT_MAX_ATTEMPTS = 4
DEFAULT_POOL_REBUILDS = 8

#: Poll period while waiting on futures; short enough that deadline
#: enforcement is responsive, long enough to stay off the hot path.
_WAIT_SLICE_S = 0.1


@dataclass(frozen=True)
class RetryPolicy:
    """How long a task may run, how often it is resubmitted, how often
    a broken pool is rebuilt."""

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    task_timeout_s: Optional[float] = None
    pool_rebuilds: int = DEFAULT_POOL_REBUILDS

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        timeout = envcfg.env_float(TASK_TIMEOUT_ENV, 0.0, minimum=0.0)
        return cls(
            max_attempts=envcfg.env_int(
                RETRY_MAX_ENV, DEFAULT_MAX_ATTEMPTS, minimum=1
            ),
            task_timeout_s=timeout if timeout > 0 else None,
            pool_rebuilds=envcfg.env_int(
                POOL_REBUILDS_ENV, DEFAULT_POOL_REBUILDS, minimum=0
            ),
        )


@dataclass
class _TaskState:
    """Parent-side bookkeeping for one item across its submissions."""

    index: int
    item: Any
    tries: int = 0  # submissions so far (fault-injection re-roll key)
    timeouts: int = 0  # timed-out attempts counted against the budget
    deadline: Optional[float] = None


def _run_serial(
    fn: Callable[[T], R],
    states: Sequence[_TaskState],
    results: List[Any],
    failures: Dict[int, BaseException],
) -> None:
    """Run task states (sorted by index) in the parent process.

    Stops at the first failure: every later state has a higher index,
    so its result could not be returned.  The serial path cannot
    preempt itself, so ``task_timeout_s`` is not enforced here.
    """
    for st in states:
        try:
            results[st.index] = fn(st.item)
        except Exception as exc:
            failures[st.index] = exc
            return


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
    return requeue


def _new_pool(max_workers: int) -> ProcessPoolExecutor:
    """A process pool: forked, or spawned while the profiler thread runs."""
    if _profile.profiler_running():
        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
        )
    return ProcessPoolExecutor(max_workers=max_workers)


def _finish(results: List[Any], failures: Dict[int, BaseException]) -> List[Any]:
    """The ordered results, or the lowest-index failure re-raised."""
    if failures:
        _metrics.inc("resil.task_failures", len(failures))
        raise failures[min(failures)]
    return results


def run_tasks(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int,
    policy: Optional[RetryPolicy] = None,
    task_factory: Optional[Callable[[Callable[[T], R]], Callable]] = None,
    merge: Optional[Callable[[Any], Any]] = None,
) -> List[Any]:
    """``[fn(item) for item in items]``, fanned over ``workers`` processes.

    ``workers`` must already be resolved (see
    :func:`repro.perf.parallel.resolve_workers`).  ``task_factory``
    wraps ``fn`` for worker-side execution (the obs-delta shipping
    wrapper) and is called with ``(index, tries, item)``; ``merge``
    post-processes each worker return parent-side and yields the bare
    result.  Both default to identity; the serial path, including the
    fallback after the rebuild budget is spent, calls ``fn`` directly.
    """
    items = list(items)
    policy = policy or RetryPolicy.from_env()
    results: List[Any] = [None] * len(items)
    failures: Dict[int, BaseException] = {}
    states = [_TaskState(index=i, item=item) for i, item in enumerate(items)]

    if workers <= 1 or len(items) <= 1:
        _run_serial(fn, states, results, failures)
        return _finish(results, failures)

    task = task_factory(fn) if task_factory is not None else fn
    unwrap = merge if merge is not None else (lambda wr: wr)
    max_workers = min(workers, len(items))
    rebuilds_left = policy.pool_rebuilds
    queue: List[_TaskState] = list(states)
    pending: Dict[Future, _TaskState] = {}

    try:
        ex = _new_pool(max_workers)
    except (OSError, PermissionError) as exc:
        warnings.warn(
            f"process pool unavailable ({exc}); falling back to serial",
            RuntimeWarning,
            stacklevel=2,
        )
        _metrics.inc("resil.serial_fallbacks")
        _run_serial(fn, states, results, failures)
        return _finish(results, failures)

    def _submit(st: _TaskState) -> None:
        fut = ex.submit(task, (st.index, st.tries, st.item))
        if policy.task_timeout_s:
            st.deadline = time.monotonic() + policy.task_timeout_s
        pending[fut] = st

    try:
        while queue or pending:
            pool_broken = False
            while queue and not pool_broken:
                st = queue.pop(0)
                try:
                    _submit(st)
                except (BrokenProcessPool, RuntimeError):
                    # submit() raises once the pool is already broken.
                    queue.insert(0, st)
                    pool_broken = True
            if not pool_broken and pending:
                timeout = _WAIT_SLICE_S
                deadlines = [
                    st.deadline for st in pending.values() if st.deadline
                ]
                if deadlines:
                    timeout = max(
                        0.0, min(min(deadlines) - time.monotonic(), timeout)
                    )
                done, _ = wait(
                    set(pending), timeout=timeout, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    st = pending.pop(fut)
                    try:
                        wr = fut.result()
                    except BrokenProcessPool:
                        st.tries += 1
                        queue.append(st)
                        pool_broken = True
                    except Exception as exc:
                        failures[st.index] = exc
                    else:
                        results[st.index] = unwrap(wr)
                # Deadline sweep: abandon overdue futures and resubmit.
                if policy.task_timeout_s:
                    now = time.monotonic()
                    for fut, st in list(pending.items()):
                        if st.deadline is not None and now >= st.deadline:
                            del pending[fut]
                            fut.cancel()
                            st.tries += 1
                            st.timeouts += 1
                            _metrics.inc("resil.task_timeouts")
                            if st.timeouts < policy.max_attempts:
                                _metrics.inc("resil.retries")
                                queue.append(st)
                            else:
                                failures[st.index] = TimeoutError(
                                    f"task {st.index} ({st.item!r:.200}) "
                                    f"timed out after {st.timeouts} attempts "
                                    f"of {policy.task_timeout_s}s"
                                )
            if pool_broken:
                queue.extend(_drain_broken_pool(ex, pending))
                queue.sort(key=lambda s: s.index)
                if rebuilds_left > 0:
                    rebuilds_left -= 1
                    _metrics.inc("resil.pool_rebuilds")
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
                    _metrics.inc("resil.serial_fallbacks")
                    _run_serial(fn, queue, results, failures)
                    queue = []
    finally:
        ex.shutdown(wait=False, cancel_futures=True)

    return _finish(results, failures)
