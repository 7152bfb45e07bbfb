"""Hierarchical run tracing: nested spans with Chrome trace export.

Every timed region of the flow opens a *span*: a named interval with a
start, a duration, free-form attributes, and a position in the nesting
tree (stack assembly contains factorization contains nothing; an
experiment contains its sampling which contains its solves).  Spans are
recorded into a process-global buffer and can be

* exported as Chrome trace-event JSON (``chrome://tracing`` or
  https://ui.perfetto.dev load the file directly),
* shipped across process boundaries -- :mod:`repro.perf.parallel`
  returns each worker's spans and absorbs them into the parent buffer,
  so a parallel run's trace covers the workers too,
* read back as views: the flat ``--perf-report`` table
  (:mod:`repro.perf.timers`) is the per-name aggregate of this buffer.

Because every one of those is a span, the buffer is the only record of
"what ran" that crosses a process boundary.

The span stack is thread-local (concurrent threads nest independently);
the completed-span buffer is shared and lock-protected.  Worker spans
keep their own process's timebase: Chrome renders each pid as its own
lane, so cross-process alignment is cosmetic only.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional

_lock = threading.Lock()
_spans: List["SpanRecord"] = []
_dropped = 0
_t0: Optional[float] = None
_tls = threading.local()
#: Live span stacks by thread ident -- lets the resource profiler
#: (:mod:`repro.obs.profile`) attach samples to the active span tree
#: without touching thread-local state it does not own.
_active_stacks: Dict[int, List["SpanRecord"]] = {}
#: Identity keys of spans absorbed from other processes, so a repeated
#: absorb of the same worker export is a no-op instead of a duplicate.
_absorbed_keys: set = set()

#: Buffer cap: long sweeps produce tens of thousands of solve spans; the
#: cap bounds memory while keeping every realistic run complete.
MAX_SPANS = 200_000


@dataclass
class SpanRecord:
    """One completed (or in-flight, while inside ``span``) trace span."""

    name: str
    ts_us: float = 0.0
    dur_us: float = 0.0
    pid: int = 0
    tid: int = 0
    depth: int = 0
    parent: Optional[str] = None
    #: event multiplicity for the flat timer aggregate (e.g. a batched
    #: solve of k right-hand sides counts as k events in one span).
    count: int = 1
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span duration in seconds."""
        return self.dur_us / 1e6


def _origin() -> float:
    """Per-process trace epoch (perf_counter at first span / last reset)."""
    global _t0
    if _t0 is None:
        with _lock:
            if _t0 is None:
                _t0 = time.perf_counter()
    return _t0


def _stack() -> List[SpanRecord]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
        with _lock:
            _active_stacks[threading.get_ident()] = stack
    return stack


def now_us() -> float:
    """Microseconds since this process's trace epoch (span timebase)."""
    return (time.perf_counter() - _origin()) * 1e6


def current_span() -> Optional[SpanRecord]:
    """The deepest span currently open in any thread, if one exists.

    List append/pop are atomic under the GIL, so reading another
    thread's stack is safe; a pop racing the read is caught and treated
    as "no span".  Used by the resource profiler to label each sample
    with the region it fell inside.
    """
    with _lock:
        stacks = list(_active_stacks.values())
    best: Optional[SpanRecord] = None
    for stack in stacks:
        try:
            candidate = stack[-1]
        except IndexError:
            continue
        if best is None or candidate.depth > best.depth:
            best = candidate
    return best


@contextmanager
def span(name: str, count: int = 1, **attrs: object) -> Iterator[SpanRecord]:
    """Open a nested span; yields the mutable record.

    Attributes can be added during the block (``sp.attrs["k"] = v``) and
    ``sp.count`` adjusted for batched work; ``sp.duration`` is valid
    after the block exits.  The span is recorded even when the block
    raises, so failed regions still show up in the trace and the timer
    aggregate.
    """
    stack = _stack()
    rec = SpanRecord(
        name=name,
        pid=os.getpid(),
        tid=threading.get_ident(),
        depth=len(stack),
        parent=stack[-1].name if stack else None,
        count=count,
        attrs=dict(attrs),
    )
    origin = _origin()  # before perf_counter(): first span must get ts >= 0
    start = time.perf_counter()
    rec.ts_us = (start - origin) * 1e6
    stack.append(rec)
    try:
        yield rec
    finally:
        rec.dur_us = (time.perf_counter() - start) * 1e6
        stack.pop()
        _record(rec)


def _record(rec: SpanRecord) -> None:
    global _dropped
    with _lock:
        if len(_spans) < MAX_SPANS:
            _spans.append(rec)
        else:
            _dropped += 1


def reset_trace() -> None:
    """Drop all recorded spans and restart the process timebase."""
    global _dropped, _t0
    with _lock:
        _spans.clear()
        _absorbed_keys.clear()
        _dropped = 0
        _t0 = None


def span_count() -> int:
    """Number of completed spans currently buffered."""
    with _lock:
        return len(_spans)


def dropped_count() -> int:
    """Spans discarded because the buffer cap was reached."""
    with _lock:
        return _dropped


def spans(since: int = 0) -> List[SpanRecord]:
    """Copy of the completed-span buffer (optionally from an index)."""
    with _lock:
        return list(_spans[since:])


def export_spans(since: int = 0) -> List[Dict[str, object]]:
    """Spans as plain dicts -- picklable across process boundaries."""
    return [asdict(rec) for rec in spans(since)]


def _span_key(data: Dict[str, object]) -> tuple:
    """Identity of an absorbed span: where and when it ran."""
    return (
        data.get("pid"),
        data.get("tid"),
        data.get("name"),
        data.get("ts_us"),
        data.get("dur_us"),
    )


def absorb_spans(records: List[Dict[str, object]]) -> None:
    """Merge spans exported by another process into this buffer.

    Worker spans keep their own pid/timebase; Chrome shows them as
    separate lanes.  Used by ``map_design_points`` to stitch parallel
    runs into one trace.

    Two guarantees beyond a blind append: the absorbed batch lands in
    monotonic start-time order (workers record spans in *completion*
    order, so a parent's per-task digests would otherwise interleave
    children before the parents that contain them), and a span already
    absorbed -- an executor retry, a caller merging the same worker
    return twice -- is dropped instead of duplicated, so trace-derived
    aggregates stay exact under re-absorption.
    """
    global _dropped
    ordered = sorted(
        records, key=lambda d: (d.get("pid", 0), d.get("ts_us", 0.0))
    )
    with _lock:
        for data in ordered:
            key = _span_key(data)
            if key in _absorbed_keys:
                continue
            if len(_spans) < MAX_SPANS:
                _absorbed_keys.add(key)
                _spans.append(SpanRecord(**data))
            else:
                _dropped += 1


def summary() -> Dict[str, object]:
    """Compact span-tree digest for manifests: root spans by duration.

    When the process-wide root span is still open (a manifest built
    inside the CLI's ``cli.<command>`` wrapper), no depth-0 span has
    closed yet -- fall back to the shallowest *closed* spans so the
    digest still names the run's top-level phases.
    """
    all_spans = spans()
    min_depth = min((r.depth for r in all_spans), default=0)
    roots = [r for r in all_spans if r.depth == min_depth]
    roots.sort(key=lambda r: r.dur_us, reverse=True)
    return {
        "num_spans": len(all_spans),
        "dropped": dropped_count(),
        "roots": [
            {
                "name": r.name,
                "ts_us": round(r.ts_us, 1),
                "dur_us": round(r.dur_us, 1),
                "count": r.count,
            }
            for r in roots[:20]
        ],
    }


def to_chrome_trace() -> Dict[str, object]:
    """The buffer as a Chrome trace-event JSON object.

    Spans become ``ph: X`` duration events; when the resource profiler
    (:mod:`repro.obs.profile`) has samples, they are interleaved as
    ``ph: C`` counter tracks (RSS, CPU time, GC collections) on the
    same per-process timebase -- Perfetto renders them as counter lanes
    above each process's span lanes, so a memory ramp lines up with the
    span that caused it.
    """
    events = []
    for rec in spans():
        args: Dict[str, object] = dict(rec.attrs)
        if rec.parent is not None:
            args["parent"] = rec.parent
        if rec.count != 1:
            args["count"] = rec.count
        events.append(
            {
                "name": rec.name,
                "ph": "X",
                "ts": rec.ts_us,
                "dur": rec.dur_us,
                "pid": rec.pid,
                "tid": rec.tid,
                "args": args,
            }
        )
    # Imported lazily: profile builds on trace, not the reverse.
    from repro.obs.profile import counter_events

    events.extend(counter_events())
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path) -> None:
    """Serialize the buffer to ``path`` as Chrome-loadable trace JSON.

    The write is atomic (temp sibling + ``os.replace``): a crashed or
    concurrent run can never leave a truncated trace artifact.
    """
    from repro.obs.atomic import atomic_write_text

    atomic_write_text(path, json.dumps(to_chrome_trace(), default=str) + "\n")
