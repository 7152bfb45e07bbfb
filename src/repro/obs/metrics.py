"""Process-global metrics registry: counters, gauges, histograms.

Counters count events (LU factorizations, cache hits, solved right-hand
sides); gauges hold the latest value of a level (last solve's relative
residual norm); histograms summarize a distribution (RHS batch sizes,
per-state DRAM IR maxima, controller queue depths) as count/total/min/
max plus p50/p95/p99 estimates -- enough for run manifests and CI
artifacts while staying one dict-update per observation.

Percentiles come from a bounded first-N sample reservoir
(:data:`HIST_SAMPLE_CAP` values per histogram): exact while a histogram
holds fewer observations than the cap, an early-sample estimate beyond
it.  The reservoir rides inside snapshots, so ``diff`` ships a worker's
new samples back with its delta and ``merge`` folds them into the
parent -- percentile estimates survive process fan-out the same way the
counters do.

Snapshots are plain JSON-able dicts.  ``diff`` and ``merge`` exist for
the parallel executor: a worker snapshots around each task, ships the
delta back, and the parent merges it -- so the parent registry reports
*true* totals for a fanned-out run instead of only its own work.

Merge semantics: counters add; histograms add counts/totals and widen
min/max; gauges take the maximum (every gauge in this codebase is a
"worst observed level", so max is the honest combination).
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Mapping, Optional

Snapshot = Dict[str, Dict[str, object]]

#: Per-histogram sample-reservoir bound: keeps snapshots and manifests a
#: few KiB while making percentiles exact for every realistic CI run.
HIST_SAMPLE_CAP = 512

#: The percentile estimates attached to histogram summaries.
PERCENTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))

#: Derived keys recomputed on read; never merged or diffed directly.
_DERIVED_KEYS = frozenset(name for name, _ in PERCENTILES)


def _quantile(ordered, q: float) -> float:
    """Linear-interpolation quantile of a pre-sorted, non-empty list."""
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    frac = pos - lo
    if frac == 0.0:
        return ordered[lo]
    return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac


def _with_percentiles(hist: Dict[str, object]) -> Dict[str, object]:
    """A read-side copy of a histogram dict with p50/p95/p99 attached."""
    out = {
        key: (list(value) if key == "samples" else value)
        for key, value in hist.items()
        if key not in _DERIVED_KEYS
    }
    samples = sorted(out.get("samples", ()))
    for name, q in PERCENTILES:
        out[name] = _quantile(samples, q) if samples else None
    return out


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histogram summaries."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, Dict[str, float]] = {}

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                self._hists[name] = {
                    "count": 1,
                    "total": value,
                    "min": value,
                    "max": value,
                    "samples": [value],
                }
            else:
                h["count"] += 1
                h["total"] += value
                h["min"] = min(h["min"], value)
                h["max"] = max(h["max"], value)
                if len(h["samples"]) < HIST_SAMPLE_CAP:
                    h["samples"].append(value)

    # -- reading -------------------------------------------------------------

    def get_counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def get_gauge(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def get_histogram(self, name: str) -> Optional[Dict[str, float]]:
        with self._lock:
            h = self._hists.get(name)
            return _with_percentiles(h) if h is not None else None

    def snapshot(self) -> Snapshot:
        """JSON-able copy: ``{"counters": ..., "gauges": ..., "histograms": ...}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: _with_percentiles(v) for k, v in self._hists.items()
                },
            }

    # -- cross-process plumbing ----------------------------------------------

    @staticmethod
    def diff(before: Snapshot, after: Snapshot) -> Snapshot:
        """The work recorded between two snapshots (worker task delta).

        Counter and histogram count/total deltas are exact; histogram
        min/max and gauges are taken from ``after`` (a bound, not a
        delta -- fine for "worst observed" metrics).  The sample
        reservoir is append-only, so the delta's samples (and the
        percentiles computed from them) are exactly the observations
        made between the snapshots, until the cap truncates them.
        """
        counters = {
            name: value - before["counters"].get(name, 0)
            for name, value in after["counters"].items()
            if value - before["counters"].get(name, 0)
        }
        hists: Dict[str, Dict[str, float]] = {}
        for name, h in after["histograms"].items():
            prev = before["histograms"].get(name, {"count": 0, "total": 0.0})
            dcount = h["count"] - prev["count"]
            if dcount:
                new_samples = list(
                    h.get("samples", ())[len(prev.get("samples", ())):]
                )
                hists[name] = _with_percentiles(
                    {
                        "count": dcount,
                        "total": h["total"] - prev["total"],
                        "min": h["min"],
                        "max": h["max"],
                        "samples": new_samples,
                    }
                )
        return {
            "counters": counters,
            "gauges": dict(after["gauges"]),
            "histograms": hists,
        }

    def merge(self, snap: Mapping[str, Mapping[str, object]]) -> None:
        """Fold a snapshot (typically a worker delta) into this registry."""
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snap.get("gauges", {}).items():
                value = float(value)
                self._gauges[name] = max(self._gauges.get(name, value), value)
            for name, h in snap.get("histograms", {}).items():
                incoming = list(h.get("samples", ()))[:HIST_SAMPLE_CAP]
                mine = self._hists.get(name)
                if mine is None:
                    self._hists[name] = {
                        "count": h["count"],
                        "total": h["total"],
                        "min": h["min"],
                        "max": h["max"],
                        "samples": incoming,
                    }
                else:
                    mine["count"] += h["count"]
                    mine["total"] += h["total"]
                    mine["min"] = min(mine["min"], h["min"])
                    mine["max"] = max(mine["max"], h["max"])
                    room = HIST_SAMPLE_CAP - len(mine["samples"])
                    if room > 0:
                        mine["samples"].extend(incoming[:room])

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


#: The process-global registry every instrumented module records into.
registry = MetricsRegistry()

# Module-level conveniences bound to the global registry.
inc = registry.inc
set_gauge = registry.set_gauge
observe = registry.observe
get_counter = registry.get_counter
get_gauge = registry.get_gauge
get_histogram = registry.get_histogram
snapshot = registry.snapshot
merge = registry.merge
diff = MetricsRegistry.diff


def reset_metrics() -> None:
    """Clear the global registry (tests, fresh benchmark runs)."""
    registry.reset()


def full_snapshot() -> Dict[str, object]:
    """Metrics plus the flat timer aggregate, for ``--metrics-out`` files."""
    # Imported lazily: repro.perf depends on repro.obs, not the reverse.
    from repro.perf.timers import snapshot as timers_snapshot

    return {
        "metrics": registry.snapshot(),
        "timers": {
            name: {"total_s": total, "count": count}
            for name, (total, count) in sorted(timers_snapshot().items())
        },
    }


def write_metrics(path) -> None:
    """Write the full metrics + timers snapshot to ``path`` as JSON.

    Atomic (temp sibling + ``os.replace``): a crashed or concurrent run
    never leaves a truncated snapshot for the comparator to choke on.
    """
    from repro.obs.atomic import atomic_write_text

    atomic_write_text(path, json.dumps(full_snapshot(), indent=2) + "\n")
