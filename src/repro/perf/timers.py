"""Named wall-clock timers: the flat, per-name view of the trace.

Every hot path of the flow (stack assembly, factorization, solves,
design-space sampling, LUT builds) opens a :func:`timed` region, which
is simply a :func:`repro.obs.trace.span`.  There is no separate timer
registry: :func:`snapshot` sums the span buffer by name when it is
called, so the table behind ``repro3d ... --perf-report``, the
``timers`` field of manifests and ``--metrics-out`` files, and the
Chrome trace all read the same records.

Parallel runs need nothing extra: :mod:`repro.perf.parallel` absorbs
each worker task's spans into the parent buffer, so the totals cover
the workers too.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.obs import trace as _trace

#: Context manager timing a block as a trace span (nested regions nest
#: in the exported trace).
timed = _trace.span

#: Clearing the timers is clearing the span buffer they are read from.
reset_timers = _trace.reset_trace


def snapshot() -> Dict[str, Tuple[float, int]]:
    """``{name: (total_seconds, count)}`` summed over the span buffer.

    Zero-count spans are :func:`repro.obs.trace.event` records, not
    timed regions, and are left out.
    """
    totals: Dict[str, Tuple[float, int]] = {}
    for rec in _trace.spans():
        if rec.count:
            total, count = totals.get(rec.name, (0.0, 0))
            totals[rec.name] = (total + rec.duration, count + rec.count)
    return totals


def report() -> str:
    """Human-readable table of accumulated timers, slowest first."""
    snap = snapshot()
    if not snap:
        return "perf: no timers recorded"
    width = max(len(name) for name in snap)
    lines = [f"{'timer':<{width}}  {'total':>9}  {'calls':>7}  {'mean':>9}"]
    for name, (total, count) in sorted(
        snap.items(), key=lambda kv: kv[1][0], reverse=True
    ):
        mean = total / count if count else 0.0
        lines.append(
            f"{name:<{width}}  {total:>8.3f}s  {count:>7d}  {mean * 1e3:>7.2f}ms"
        )
    dropped = _trace.dropped_count()
    if dropped:
        lines.append(
            f"({dropped} spans dropped at the {_trace.MAX_SPANS}-span trace cap; "
            "totals exclude them)"
        )
    return "\n".join(lines)
