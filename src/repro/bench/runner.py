"""Unified benchmark runner: drive every registered bench with telemetry.

``run_suite`` discovers the registered benches, executes each inside a
trace span with a metrics snapshot around it, and assembles one
:class:`~repro.bench.record.SuiteRecord`: median-of-k wall time,
solver/cache/sim counter deltas, peak RSS, the worst DRAM IR observed,
and per-row paper-anchor deviations for experiment-backed benches.

The runner drives the *same* functions pytest collects, by satisfying
their harness parameter (see :mod:`repro.bench.registry`): the
``run_paper_experiment`` contract is reimplemented with telemetry
capture, and pytest-benchmark's ``benchmark.pedantic`` gets a minimal
shim.  A failing bench is recorded (``status: "failed"``) and the suite
continues -- the comparator and CI gate decide what a failure means.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence

from repro.bench.record import BenchmarkEntry, SuiteRecord
from repro.bench.registry import (
    HARNESS_EXPERIMENT,
    HARNESS_PEDANTIC,
    BenchSpec,
    benchmarks_dir,
    discover,
    select,
)
from repro.obs import metrics as _metrics
from repro.obs.log import get_logger
from repro.obs.manifest import build_manifest
from repro.obs.profile import rusage
from repro.obs.trace import span

_log = get_logger("bench")

#: Environment flags the bench scripts themselves honour.
SMOKE_ENV = "REPRO_BENCH_SMOKE"
FAST_ENV = "REPRO_FAST"

#: Histogram whose max is the suite's headline physics number.
IR_HIST = "ir.dram_max_mv"


class _PedanticShim:
    """Stand-in for pytest-benchmark's fixture: run once, no stats."""

    def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
        return fn(*args, **(kwargs or {}))


def extract_anchors(result) -> List[Dict[str, object]]:
    """Per-row paper-anchor deviations from an ExperimentResult."""
    anchors: List[Dict[str, object]] = []
    for row in result.rows:
        for metric in row.paper:
            paper = row.paper.get(metric)
            model = row.model.get(metric)
            if not isinstance(paper, (int, float)) or not isinstance(
                model, (int, float)
            ):
                continue
            anchors.append(
                {
                    "row": row.label,
                    "metric": metric,
                    "paper": float(paper),
                    "model": float(model),
                    "deviation_pct": row.deviation_percent(metric),
                }
            )
    return anchors


def _make_experiment_runner(sink: Dict[str, object], fast: bool, archive: bool):
    """The ``run_paper_experiment`` contract with telemetry capture.

    Mirrors the pytest fixture in ``benchmarks/conftest.py``: runs the
    experiment, archives its table under ``benchmarks/results/``
    (created on demand), and returns the result for the bench's checks.
    Anchor deviations land in ``sink``.
    """

    def runner(experiment_id: str, **checks):
        from repro.experiments import run_experiment

        result = run_experiment(experiment_id, fast=fast)
        sink["experiment_id"] = experiment_id
        sink["anchors"] = extract_anchors(result)
        if archive:
            results_dir = benchmarks_dir() / "results"
            results_dir.mkdir(parents=True, exist_ok=True)
            (results_dir / f"{experiment_id}.txt").write_text(
                result.fmt() + "\n"
            )
        return result

    return runner


@contextmanager
def _suite_env(smoke: bool):
    """Expose the suite mode to bench scripts via their historical flags."""
    saved = {k: os.environ.get(k) for k in (SMOKE_ENV, FAST_ENV)}
    os.environ[SMOKE_ENV] = "1" if smoke else "0"
    os.environ[FAST_ENV] = "1" if smoke else "0"
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_bench(
    spec: BenchSpec,
    fast: bool = True,
    repeats: int = 1,
    archive: bool = True,
    isolate: bool = False,
    merge_into=None,
) -> BenchmarkEntry:
    """Run one registered bench ``repeats`` times; median the wall time.

    ``isolate`` resets the process-global metrics registry first, so the
    bench's histogram min/max (and therefore ``max_ir_mv``) are exact
    rather than suite-running bounds -- the suite runner owns its
    process and always isolates.  It also clears the perf-layer
    stack/power-map caches before *every* repeat, so each wall sample is
    a cold-cache measurement: without this, a median-of-k baseline is a
    warm-cache number (repeats 2..k reuse the factorization) that any
    single-repeat run "regresses" against by the full cache-miss cost.
    ``merge_into`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
    accumulates the bench's metric delta for suite-level reporting
    despite the resets.
    """
    entry = BenchmarkEntry(name=spec.name, heavy=spec.heavy)
    if isolate:
        _metrics.reset_metrics()
    before = _metrics.snapshot()
    walls: List[float] = []
    sink: Dict[str, object] = {}
    with span(f"bench.{spec.name}", harness=spec.harness):
        for _ in range(max(1, repeats)):
            if isolate:
                from repro.perf.cache import clear_caches

                clear_caches()
            t0 = time.perf_counter()
            try:
                if spec.harness == HARNESS_EXPERIMENT:
                    spec.func(_make_experiment_runner(sink, fast, archive))
                elif spec.harness == HARNESS_PEDANTIC:
                    spec.func(_PedanticShim())
                else:
                    spec.func()
            except BaseException as exc:  # noqa: BLE001 - suite must survive
                entry.status = "failed"
                entry.error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                _log.warning("bench %s FAILED: %s", spec.name, entry.error)
                walls.append(time.perf_counter() - t0)
                break
            walls.append(time.perf_counter() - t0)
    delta = _metrics.diff(before, _metrics.snapshot())
    if merge_into is not None:
        merge_into.merge(delta)
    entry.wall_s_all = [round(w, 6) for w in walls]
    entry.wall_s = round(statistics.median(walls), 6)
    entry.peak_rss_kb = rusage()[0]
    entry.counters = dict(sorted(delta.get("counters", {}).items()))
    # Structural provenance: every stack plan this bench touched.
    from repro.pdn.plan import plans_from_counters

    entry.plan_hashes = sorted(plans_from_counters(entry.counters))
    ir_hist = delta.get("histograms", {}).get(IR_HIST)
    if ir_hist is not None:
        # The sample reservoir is exact per-interval; the histogram max
        # is only an upper bound when the registry was not reset.
        samples = ir_hist.get("samples") or ()
        entry.max_ir_mv = float(max(samples) if samples else ir_hist["max"])
    entry.anchors = list(sink.get("anchors", []))
    return entry


def run_suite(
    names: Optional[Sequence[str]] = None,
    smoke: bool = True,
    repeats: int = 1,
    bench_dir=None,
    archive: bool = True,
) -> SuiteRecord:
    """Discover, select, and run benches; return the suite record.

    ``names`` restricts the run (and may include heavy benches);
    otherwise ``smoke`` selects the sub-second set.  ``repeats`` re-runs
    each bench for median-of-k timing (physics results are deterministic,
    so repeats only firm up the perf numbers).
    """
    registry = discover(bench_dir)
    specs = select(names, smoke=smoke, registry=registry)
    if not specs:
        from repro.errors import ConfigurationError

        raise ConfigurationError("no benches selected")
    suite = "custom" if names else ("smoke" if smoke else "full")
    _log.info(
        "bench suite %r: %d benches, repeats=%d", suite, len(specs), repeats
    )
    accumulator = _metrics.MetricsRegistry()
    entries: List[BenchmarkEntry] = []
    with _suite_env(smoke):
        with span("bench.suite", suite=suite, repeats=repeats) as sp:
            for spec in specs:
                entry = run_bench(
                    spec,
                    fast=smoke,
                    repeats=repeats,
                    archive=archive,
                    isolate=True,
                    merge_into=accumulator,
                )
                _log.info(
                    "  %-28s %-6s %8.3fs%s",
                    spec.name,
                    entry.status,
                    entry.wall_s,
                    f"  maxIR {entry.max_ir_mv:.2f} mV"
                    if entry.max_ir_mv is not None
                    else "",
                )
                entries.append(entry)
    manifest = build_manifest(
        experiment_id="bench.suite",
        title=f"benchmark suite ({suite})",
        config={
            "suite": suite,
            "smoke": smoke,
            "repeats": repeats,
            "benches": [s.name for s in specs],
        },
        duration_s=sp.duration,
        metrics_snapshot=accumulator.snapshot(),
    )
    manifest_dict = manifest.to_dict()
    return SuiteRecord(
        suite=suite,
        created=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        smoke=smoke,
        repeats=max(1, repeats),
        git=dict(manifest_dict["git"]),
        workers=manifest_dict["workers"],
        environment=dict(manifest_dict["environment"]),
        manifest=manifest_dict,
        benchmarks=entries,
    )


def default_record_path(record: SuiteRecord, root=None):
    """Repository-root path for a record's canonical ``BENCH_*`` name."""
    root = root if root is not None else benchmarks_dir().parent
    return root / record.record_name()
