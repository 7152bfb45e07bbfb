"""Benchmark telemetry and regression tracking (``repro.bench``).

Layers on :mod:`repro.obs`: a registry of the repository's bench
scripts, a unified runner that wraps each in spans and metric
snapshots, and a schema-versioned ``BENCH_*.json`` suite record -- the
machinery behind ``repro3d bench`` / ``python -m repro.bench``.  The CI
regression gate compares records with :func:`repro.obs.store.diff_runs`.
See ``docs/benchmarks.md``.
"""

from repro.bench.record import (
    BENCH_SCHEMA_VERSION,
    BenchmarkEntry,
    SuiteRecord,
    baseline_path,
    find_records,
    load_baseline,
    load_record,
    load_trajectory,
    validate_record,
)
from repro.bench.registry import (
    REGISTRY,
    BenchSpec,
    benchmarks_dir,
    discover,
    register_bench,
    select,
)
from repro.bench.runner import default_record_path, run_bench, run_suite

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchSpec",
    "BenchmarkEntry",
    "REGISTRY",
    "SuiteRecord",
    "baseline_path",
    "benchmarks_dir",
    "default_record_path",
    "discover",
    "find_records",
    "load_baseline",
    "load_record",
    "load_trajectory",
    "register_bench",
    "run_bench",
    "run_suite",
    "select",
    "validate_record",
]
