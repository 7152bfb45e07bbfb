"""Resource profile read at span boundaries: RSS / CPU / GC on the span timebase.

A run that slows down under load needs more than span durations to
debug: *what* grew while the slow span ran?  With profiling on, every
span close (:func:`repro.obs.trace.span`) stores one :func:`read_sample`
on its record: the current resident set size, the process's peak RSS
and CPU time (one ``getrusage`` call), and the garbage collector's
collection count.  The sample's timestamp is the span's end, so samples
interleave exactly with the trace (:func:`repro.obs.trace.to_chrome_trace`
renders them as Perfetto counter tracks above the span lanes).

The reading is passive: ``/proc/self/statm`` (peak-RSS fallback
elsewhere), ``getrusage`` and ``gc.get_stats``; it never calls
``gc.collect`` or touches solver state, so recorded physics is bitwise
identical with profiling on or off.  With profiling off a span close
stores nothing.

Samples live on the span records, so they cross process boundaries with
the spans: :mod:`repro.perf.parallel` ships each worker task's spans
home and the parent absorbs them, each keeping its own pid.  Everything
else here is a read-only view over profiled spans: :func:`summary` (the
manifest digest) and :func:`counter_events` (the Perfetto tracks).

Resolution follows the spans.  A long leaf span (the single ``sim.run``
around the engine) is one step on the RSS curve, not a series; in
exchange the peak RSS it carries (``ru_maxrss``) catches transient peaks
inside it, such as a SuperLU factorization's, that a periodic sampler
can miss between two ticks.

Enable with ``repro3d --profile`` or ``REPRO_PROFILE=1``; pool workers
inherit the environment, so their spans carry samples too.
"""

from __future__ import annotations

import gc
import os
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.trace import SpanRecord

#: Environment switch: any value but ""/"0" enables profiling.
PROFILE_ENV = "REPRO_PROFILE"

#: Max points carried by a manifest/store profile curve.
SUMMARY_CURVE_CAP = 256

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def profiling_enabled() -> bool:
    """Whether the environment asks for resource profiling."""
    return os.environ.get(PROFILE_ENV, "") not in ("", "0")


def rusage() -> Tuple[float, float]:
    """(peak RSS in KiB, user+system CPU seconds) from one ``getrusage``."""
    import resource  # deferred: a CLI cold start imports this module

    ru = resource.getrusage(resource.RUSAGE_SELF)
    return float(ru.ru_maxrss), ru.ru_utime + ru.ru_stime


def _read_rss_kb() -> float:
    """Current RSS in KiB: /proc on Linux, peak-RSS fallback elsewhere."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE / 1024.0
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-Linux
        return rusage()[0]


def read_sample() -> Dict[str, float]:
    """One reading of this process, as stored on a closing span."""
    peak_rss_kb, cpu_s = rusage()
    return {
        "rss_kb": _read_rss_kb(),
        "peak_rss_kb": peak_rss_kb,
        "cpu_s": cpu_s,
        "gc_collections": sum(s.get("collections", 0) for s in gc.get_stats()),
    }


def _profiled(records: Sequence["SpanRecord"]) -> List["SpanRecord"]:
    """Spans carrying a sample, by (pid, end time)."""
    return sorted(
        (r for r in records if r.sample is not None),
        key=lambda r: (r.pid, r.ts_us + r.dur_us),
    )


def summary(records: Sequence["SpanRecord"]) -> Dict[str, object]:
    """Compact profile digest for manifests and the run-history store.

    Empty when no span in ``records`` carries a sample.  ``peak_rss_kb``
    is the highest peak over every process; ``cpu_s`` is this process's
    CPU time between its first and last sampled span end.  ``curve`` is
    this process's bounded ``[ts_us, rss_kb, cpu_s, gc_collections]``
    series (at most :data:`SUMMARY_CURVE_CAP` points, endpoints kept).
    """
    profiled = _profiled(records)
    if not profiled:
        return {}
    own = [r for r in profiled if r.pid == os.getpid()] or profiled
    keep = _downsample_indices(len(own), SUMMARY_CURVE_CAP)
    return {
        "samples": len(profiled),
        "peak_rss_kb": round(max(r.sample["peak_rss_kb"] for r in profiled), 1),
        "cpu_s": round(own[-1].sample["cpu_s"] - own[0].sample["cpu_s"], 6),
        "pids": sorted({r.pid for r in profiled}),
        "curve": [
            [
                round(own[i].ts_us + own[i].dur_us, 1),
                round(own[i].sample["rss_kb"], 1),
                round(own[i].sample["cpu_s"], 6),
                own[i].sample["gc_collections"],
            ]
            for i in keep
        ],
    }


def _downsample_indices(n: int, cap: int) -> List[int]:
    """Indices of an evenly-spaced subset of ``range(n)``, endpoints kept."""
    if n <= cap:
        return list(range(n))
    step = (n - 1) / (cap - 1)
    keep = {round(i * step) for i in range(cap)}
    keep.add(0)
    keep.add(n - 1)
    return sorted(keep)


def counter_events(records: Sequence["SpanRecord"]) -> List[Dict[str, object]]:
    """Profiled spans as Chrome trace-event counter (``ph: C``) events.

    Three tracks per pid -- RSS, CPU time, and GC collections -- each
    point at its span's end on the span timebase, so the unified export
    interleaves resource curves with the span tree.
    """
    events: List[Dict[str, object]] = []
    for r in _profiled(records):
        s = r.sample
        base = {"ph": "C", "ts": r.ts_us + r.dur_us, "pid": r.pid, "tid": 0}
        events.append(
            {**base, "name": "profile.rss_kb", "args": {"rss_kb": s["rss_kb"]}}
        )
        events.append(
            {**base, "name": "profile.cpu_s", "args": {"cpu_s": s["cpu_s"]}}
        )
        events.append(
            {
                **base,
                "name": "profile.gc_collections",
                "args": {"collections": s["gc_collections"]},
            }
        )
    return events
