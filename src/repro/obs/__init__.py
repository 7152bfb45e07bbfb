"""Observability layer: structured logs, span traces, metrics, manifests.

Gives every run a complete, machine-readable account of itself:

* :mod:`repro.obs.log` -- per-module structured logging with a
  JSON-lines sink (``--log-json``) and a byte-compatible stdout mode;
* :mod:`repro.obs.trace` -- hierarchical spans around assembly,
  factorization, solves, rasterization, sampling, and controller
  simulation, exportable as Chrome trace-event JSON (``--trace-out``);
* :mod:`repro.obs.metrics` -- counters/gauges/histograms (cache hit
  rates, factorization counts, RHS batch sizes, residual norms, IR-drop
  summaries, queue depths) with cross-process snapshot merging
  (``--metrics-out``);
* :mod:`repro.obs.manifest` -- per-experiment provenance records (git
  SHA, config hash, seeds, environment, metric delta, span digest);
* :mod:`repro.obs.profile` -- resource samples (RSS, peak RSS, CPU
  time, GC collections) read at each span end under ``--profile`` and
  stored on the span record, so they ship with the spans and
  interleave with trace exports as Perfetto counter tracks;
* :mod:`repro.obs.store` -- append-only run-history store with
  run-vs-run drift attribution (``repro3d obs``);
* :mod:`repro.obs.atomic` -- atomic artifact writes (temp sibling +
  ``os.replace``) shared by every JSON emitter above.

Dependency direction: ``repro.perf`` (and the rest of the library)
builds on ``repro.obs``; nothing in this package imports ``repro.perf``
at module level.
"""

from repro.obs.log import (
    JsonLinesFormatter,
    configure,
    get_logger,
    log_event,
    resolve_level,
)
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    config_hash_of,
    git_revision,
    load_manifest,
    validate_manifest,
)
from repro.obs.atomic import atomic_write_text
from repro.obs.metrics import (
    MetricsRegistry,
    full_snapshot,
    registry,
    reset_metrics,
    write_metrics,
)
from repro.obs.profile import profiling_enabled
from repro.obs.store import RunHistoryStore, diff_runs
from repro.obs.trace import (
    SpanRecord,
    reset_trace,
    span,
    to_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "JsonLinesFormatter",
    "MetricsRegistry",
    "RunHistoryStore",
    "RunManifest",
    "SpanRecord",
    "atomic_write_text",
    "build_manifest",
    "config_hash_of",
    "configure",
    "diff_runs",
    "full_snapshot",
    "get_logger",
    "git_revision",
    "load_manifest",
    "log_event",
    "profiling_enabled",
    "registry",
    "reset_metrics",
    "reset_trace",
    "resolve_level",
    "span",
    "to_chrome_trace",
    "validate_manifest",
    "write_chrome_trace",
    "write_metrics",
]
