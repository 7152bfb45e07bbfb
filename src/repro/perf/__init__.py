"""Performance layer: timers, solver/stack caching, process fan-out.

The paper's headline engineering result is turning a projected 4637-hour
brute-force HSPICE sweep into a ~10-hour R-Mesh flow (section 6.1).  This
package holds the pieces that keep the reproduction on the same curve as
the design space grows:

* :mod:`repro.perf.timers` -- named wall-clock timers wired into the
  solver, stack assembly, sampling, and LUT build, surfaced via
  ``repro3d ... --perf-report``; a per-name view of the span trace.
* :mod:`repro.perf.cache` -- keyed LRU caches for built stacks (assembly
  + SuperLU factorization) and rasterized power maps, so repeated
  configurations across experiments reuse work instead of rebuilding.
* :mod:`repro.perf.parallel` -- process-level fan-out with a serial
  fallback, used by design-space sampling and the co-optimizer.  Each
  worker task ships its spans (profile samples included) and metric
  delta back in one return with one merge, so parallel runs report
  true totals.

This package builds on :mod:`repro.obs`: every ``timed`` region is a
trace span, and the caches/fan-out report into the metrics registry.
"""

from repro.perf.cache import (
    assembly_session,
    cache_stats,
    cached_build_stack,
    clear_caches,
    stack_cache,
)
from repro.perf.parallel import map_design_points, resolve_workers
from repro.perf.timers import report, reset_timers, snapshot, timed

__all__ = [
    "assembly_session",
    "cache_stats",
    "cached_build_stack",
    "clear_caches",
    "map_design_points",
    "report",
    "reset_timers",
    "resolve_workers",
    "snapshot",
    "stack_cache",
    "timed",
]
