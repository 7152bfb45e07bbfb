"""Schema-versioned benchmark suite records: the ``BENCH_*.json`` trajectory.

One suite run produces one record file at the repository root, named
``BENCH_<UTC timestamp>_<short sha>.json``.  Committed across PRs these
files form the longitudinal perf/accuracy trajectory the run comparator
(:func:`repro.obs.store.diff_runs`) reads its noise bands from -- the
same role SRAM-PG-style PDN benchmark suites give their standardized
result tables: numbers are only comparable when every run records them
the same way.  The committed baseline (``benchmarks/BASELINE.json``) is
one such record, blessed with ``repro3d bench --update-baseline``.

A record is manifest-stamped: it embeds a full
:class:`repro.obs.manifest.RunManifest` (validated on write *and* load)
so the provenance machinery CI already checks covers bench artifacts
too.  Like the manifest schema, validation is hand-rolled -- no
jsonschema dependency.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.errors import ConfigurationError
from repro.obs.manifest import field_problems, validate_manifest

#: Bump when the record layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1

#: ``BENCH_20260806T120000Z_ab12cd3.json``
RECORD_NAME_RE = re.compile(
    r"^BENCH_(?P<stamp>\d{8}T\d{6}Z)_(?P<sha>[0-9a-f]{7}|nogit)\.json$"
)

#: Required per-benchmark entry fields and their types.
ENTRY_SCHEMA: Dict[str, tuple] = {
    "name": (str,),
    "status": (str,),
    "heavy": (bool,),
    "wall_s": (int, float),
    "wall_s_all": (list,),
    "peak_rss_kb": (int, float, type(None)),
    "counters": (dict,),
    "max_ir_mv": (int, float, type(None)),
    "anchors": (list,),
    "error": (str, type(None)),
}

#: Optional per-benchmark entry fields (validated only when present, so
#: records written before the field existed stay valid).
OPTIONAL_ENTRY_FIELDS: Dict[str, tuple] = {
    "plan_hashes": (list,),
}

#: Committed-baseline location relative to the repo root.
BASELINE_RELPATH = Path("benchmarks") / "BASELINE.json"

#: Allowed per-benchmark statuses.
ENTRY_STATUSES = ("ok", "failed")

#: Required suite-level fields and their types.
RECORD_SCHEMA: Dict[str, tuple] = {
    "schema_version": (int,),
    "suite": (str,),
    "created": (str,),
    "smoke": (bool,),
    "repeats": (int,),
    "git": (dict,),
    "workers": (int,),
    "environment": (dict,),
    "manifest": (dict,),
    "benchmarks": (list,),
}


@dataclass
class BenchmarkEntry:
    """Telemetry for one benchmark inside a suite run."""

    name: str
    status: str = "ok"
    heavy: bool = False
    #: Median wall time over ``repeats`` runs (seconds).
    wall_s: float = 0.0
    #: Every individual repeat's wall time, for noise analysis.
    wall_s_all: List[float] = field(default_factory=list)
    #: Process peak RSS high-water mark after this bench (KiB; monotone
    #: within a suite run, so per-bench growth is the interesting signal).
    peak_rss_kb: Optional[float] = None
    #: Counter deltas recorded while the bench ran (solver.factorizations,
    #: solver.rhs_solved, cache.* hits/misses, sim.* ...).
    counters: Dict[str, int] = field(default_factory=dict)
    #: Worst DRAM IR drop observed during the bench (mV), if any solve ran.
    max_ir_mv: Optional[float] = None
    #: Per-row paper-anchor deviations: {"row", "metric", "paper",
    #: "model", "deviation_pct"} -- only for experiment-backed benches.
    anchors: List[Dict[str, object]] = field(default_factory=list)
    #: Traceback summary when status == "failed".
    error: Optional[str] = None
    #: Sorted plan hashes of every stack structure the bench built or
    #: reused (``plan.touch.*`` counter deltas) -- lets the comparator
    #: attribute accuracy drift to structural vs. numerical change.
    plan_hashes: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class SuiteRecord:
    """One suite run: provenance plus a list of benchmark entries."""

    suite: str
    created: str
    smoke: bool
    repeats: int
    git: Dict[str, object]
    workers: int
    environment: Dict[str, object]
    manifest: Dict[str, object]
    benchmarks: List[BenchmarkEntry] = field(default_factory=list)
    schema_version: int = BENCH_SCHEMA_VERSION

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["benchmarks"] = [
            e.to_dict() if isinstance(e, BenchmarkEntry) else dict(e)
            for e in self.benchmarks
        ]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str) + "\n"

    def write(self, path) -> Path:
        """Validate and atomically write the record; returns the path."""
        from repro.obs.atomic import atomic_write_text

        data = self.to_dict()
        validate_record(data)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write_text(path, self.to_json())

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SuiteRecord":
        validate_record(data)
        known = set(RECORD_SCHEMA)
        kwargs = {k: v for k, v in data.items() if k in known}
        entry_fields = set(ENTRY_SCHEMA) | set(OPTIONAL_ENTRY_FIELDS)
        kwargs["benchmarks"] = [
            BenchmarkEntry(**{k: v for k, v in e.items() if k in entry_fields})
            for e in data["benchmarks"]
        ]
        return cls(**kwargs)

    def entry(self, name: str) -> Optional[BenchmarkEntry]:
        for e in self.benchmarks:
            if e.name == name:
                return e
        return None

    def names(self) -> List[str]:
        return [e.name for e in self.benchmarks]

    def record_name(self) -> str:
        """Canonical trajectory file name for this record."""
        stamp = re.sub(r"[-:]", "", self.created.split(".")[0].split("+")[0])
        stamp = stamp if stamp.endswith("Z") else stamp + "Z"
        sha = str(self.git.get("sha", ""))
        short = sha[:7] if re.fullmatch(r"[0-9a-f]{7,40}", sha) else "nogit"
        return f"BENCH_{stamp}_{short}.json"


def validate_record(data: Mapping[str, object]) -> None:
    """Raise :class:`ConfigurationError` unless ``data`` fits the schema."""
    problems = field_problems(data, RECORD_SCHEMA)
    if not problems and data["schema_version"] != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version {data['schema_version']} != {BENCH_SCHEMA_VERSION}"
        )
    if not problems:
        seen = set()
        for i, entry in enumerate(data["benchmarks"]):
            if not isinstance(entry, Mapping):
                problems.append(f"benchmarks[{i}] is not a mapping")
                continue
            problems += field_problems(
                entry, ENTRY_SCHEMA, OPTIONAL_ENTRY_FIELDS, where=f"benchmarks[{i}] "
            )
            status = entry.get("status")
            if status is not None and status not in ENTRY_STATUSES:
                problems.append(
                    f"benchmarks[{i}].status {status!r} not in {ENTRY_STATUSES}"
                )
            name = entry.get("name")
            if name in seen:
                problems.append(f"duplicate benchmark entry {name!r}")
            seen.add(name)
    if not problems:
        try:
            validate_manifest(data["manifest"])
        except ConfigurationError as exc:
            problems.append(f"embedded manifest invalid ({exc})")
    if problems:
        raise ConfigurationError(
            "invalid bench suite record: " + "; ".join(problems)
        )


def load_record(path) -> SuiteRecord:
    """Read, validate, and return a record written by :meth:`write`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"bench record {path} is not JSON: {exc}")
    return SuiteRecord.from_dict(data)


def baseline_path(root) -> Path:
    """The committed baseline location for a repository root."""
    return Path(root) / BASELINE_RELPATH


def load_baseline(path) -> Optional[SuiteRecord]:
    """The blessed record, or None when no baseline is committed yet."""
    path = Path(path)
    return load_record(path) if path.is_file() else None


def find_records(root) -> List[Path]:
    """Trajectory files under ``root``, oldest first (timestamp in name)."""
    root = Path(root)
    paths = [p for p in root.glob("BENCH_*.json") if RECORD_NAME_RE.match(p.name)]
    return sorted(paths, key=lambda p: p.name)


def load_trajectory(root, exclude=()) -> List[SuiteRecord]:
    """Load every valid trajectory record under ``root``, oldest first.

    Unreadable or schema-stale files are skipped -- the trajectory may
    span schema versions, and an old record should not break the gate.
    """
    excluded = {Path(p).resolve() for p in exclude}
    records = []
    for path in find_records(root):
        if path.resolve() in excluded:
            continue
        try:
            records.append(load_record(path))
        except ConfigurationError:
            continue
    return records
