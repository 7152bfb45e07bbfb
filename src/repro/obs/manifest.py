"""Run provenance manifests: every experiment writes its own receipt.

A manifest is one JSON document recording everything needed to interpret
(or re-run) an experiment's numbers: the git revision, a hash of the run
configuration, the RNG seeds, the worker count, the environment, the
per-run metric delta, and a digest of the span tree.  PDN benchmark
suites make the same point this module enforces: solver results without
recorded diagnostics and provenance are not reproducible results.

The schema is hand-validated (:func:`validate_manifest`) so CI can
assert artifact integrity without a jsonschema dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.errors import ConfigurationError

#: Bump when the manifest layout changes incompatibly.
SCHEMA_VERSION = 1

#: Required top-level fields and their types (the validated schema).
MANIFEST_SCHEMA: Dict[str, tuple] = {
    "schema_version": (int,),
    "experiment_id": (str,),
    "title": (str,),
    "created": (str,),
    "duration_s": (int, float),
    "git": (dict,),
    "config_hash": (str, type(None)),
    "config": (dict,),
    "seeds": (dict,),
    "workers": (int,),
    "environment": (dict,),
    "metrics": (dict,),
    "timers": (dict,),
    "trace": (dict,),
    "extra": (dict,),
}

#: Optional fields (validated only when present).  Added after schema v1
#: shipped; absence keeps old manifests -- including those embedded in
#: committed BENCH records -- valid.  Fields a manifest carries beyond
#: these (the retired iterative solver's ``convergence`` traces) are
#: ignored on load.
OPTIONAL_MANIFEST_FIELDS: Dict[str, tuple] = {
    # ``{plan hash: benchmark name}`` of every stack plan the run built
    # or reused -- the structural identity behind the run's IR numbers.
    "plans": (dict,),
    # Resource-profiler digest (:func:`repro.obs.profile.summary`):
    # sample count, peak RSS, CPU time, bounded RSS/CPU curve.
    "profile": (dict,),
    # Physics attribution summaries by benchmark
    # (:func:`repro.pdn.diagnose.attribution_snapshot`): worst-drop
    # supply-path decomposition per design the run explained.
    "attribution": (dict,),
}


@dataclass
class RunManifest:
    """Machine-readable provenance record of one run."""

    experiment_id: str
    title: str = ""
    created: str = ""
    duration_s: float = 0.0
    git: Dict[str, object] = field(default_factory=dict)
    config_hash: Optional[str] = None
    config: Dict[str, object] = field(default_factory=dict)
    seeds: Dict[str, int] = field(default_factory=dict)
    workers: int = 1
    environment: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, object] = field(default_factory=dict)
    timers: Dict[str, object] = field(default_factory=dict)
    trace: Dict[str, object] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)
    #: Stack plans the run touched: {plan hash: benchmark name}.
    plans: Dict[str, object] = field(default_factory=dict)
    #: Resource-profiler digest (empty when profiling was off).
    profile: Dict[str, object] = field(default_factory=dict)
    #: Worst-drop attribution summaries by benchmark (empty when the
    #: run never diagnosed a design).
    attribution: Dict[str, object] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str) + "\n"

    def write(self, path) -> Path:
        """Validate and atomically write the manifest; returns the path."""
        from repro.obs.atomic import atomic_write_text

        data = self.to_dict()
        validate_manifest(data)
        return atomic_write_text(path, self.to_json())

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunManifest":
        validate_manifest(data)
        known = set(MANIFEST_SCHEMA) | set(OPTIONAL_MANIFEST_FIELDS)
        return cls(**{k: v for k, v in data.items() if k in known})


def field_problems(
    data: Mapping[str, object],
    required: Mapping[str, tuple],
    optional: Optional[Mapping[str, tuple]] = None,
    where: str = "",
) -> List[str]:
    """Missing ``required`` and mistyped fields of ``data``, one line each.

    Shared by the manifest and bench-record validators (hand-rolled, no
    jsonschema dependency); ``where`` prefixes every line.
    """
    problems = [f"{where}missing field {k!r}" for k in required if k not in data]
    for key, types in {**(optional or {}), **required}.items():
        if key in data and not isinstance(data[key], types):
            problems.append(
                f"{where}field {key!r} has type {type(data[key]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    return problems


def validate_manifest(data: Mapping[str, object]) -> None:
    """Raise :class:`ConfigurationError` unless ``data`` fits the schema."""
    problems = field_problems(data, MANIFEST_SCHEMA, OPTIONAL_MANIFEST_FIELDS)
    if not problems and data["schema_version"] != SCHEMA_VERSION:
        problems.append(
            f"schema_version {data['schema_version']} != {SCHEMA_VERSION}"
        )
    if not problems and "sha" not in data["git"]:
        problems.append("git record lacks 'sha'")
    if problems:
        raise ConfigurationError(
            "invalid run manifest: " + "; ".join(problems)
        )


def load_manifest(path) -> RunManifest:
    """Read, validate, and return a manifest written by :meth:`write`."""
    return RunManifest.from_dict(json.loads(Path(path).read_text()))


def git_revision(cwd=None) -> Dict[str, object]:
    """Current git SHA and dirty flag; degrades to ``unknown`` gracefully."""
    cwd = cwd or os.path.dirname(os.path.abspath(__file__))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=5, check=True,
        ).stdout.strip()
        return {"sha": sha, "dirty": bool(status)}
    except (OSError, subprocess.SubprocessError):
        return {"sha": "unknown", "dirty": None}


def config_hash_of(config: Mapping[str, object]) -> str:
    """Deterministic short hash of a run-configuration mapping."""
    text = json.dumps(
        {str(k): config[k] for k in sorted(config, key=str)},
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def default_seeds() -> Dict[str, int]:
    """Every RNG seed the platform uses (currently: the workload stream)."""
    # Imported lazily to keep the obs package import-light.
    from repro.controller.request import WorkloadConfig

    return {"workload": WorkloadConfig().seed}


def _plans_of(metrics: Mapping[str, object]) -> Dict[str, object]:
    """``{plan hash: benchmark}`` from a metrics snapshot's touch counters.

    ``plan.touch.<benchmark>.<hash>`` counters survive cross-process
    metric merges, label included, so a fanned-out sweep's manifest
    names every structure its workers solved by benchmark.
    """
    counters = metrics.get("counters")
    if not isinstance(counters, Mapping) or not counters:
        return {}
    # Lazy import: repro.obs must stay importable without repro.pdn.
    from repro.pdn.plan import plans_from_counters

    return dict(plans_from_counters(counters))


def _attributions_of() -> Dict[str, object]:
    """Physics attribution summaries recorded by this process, if any.

    Lazy for the same reason as :func:`_plans_of`: the diagnose module
    lives in ``repro.pdn``, which ``repro.obs`` must not require.
    """
    from repro.pdn.diagnose import attribution_snapshot

    return dict(attribution_snapshot())


def build_manifest(
    experiment_id: str,
    title: str = "",
    config: Optional[Mapping[str, object]] = None,
    duration_s: float = 0.0,
    workers: Optional[int] = None,
    seeds: Optional[Mapping[str, int]] = None,
    metrics_snapshot: Optional[Mapping[str, object]] = None,
    extra: Optional[Mapping[str, object]] = None,
) -> RunManifest:
    """Assemble a manifest from the current process state.

    ``metrics_snapshot`` defaults to the global registry's current state;
    callers that track a per-run delta (``run_experiment`` does) pass it
    explicitly.  ``workers`` defaults to the resolved ``REPRO_WORKERS``
    setting, matching what the sweeps actually used.  The profile
    digest is included whenever a recorded span carries a sample.
    """
    # Lazy imports: repro.perf depends on repro.obs, not the reverse.
    from repro.obs import metrics as _metrics
    from repro.obs import profile as _profile
    from repro.obs import trace as _trace
    from repro.perf.parallel import resolve_workers
    from repro.perf.timers import snapshot as timers_snapshot

    config = dict(config or {})
    metrics = dict(
        metrics_snapshot
        if metrics_snapshot is not None
        else _metrics.snapshot()
    )
    return RunManifest(
        experiment_id=experiment_id,
        title=title,
        created=datetime.now(timezone.utc).isoformat(),
        duration_s=round(float(duration_s), 6),
        git=git_revision(),
        config_hash=config_hash_of(config) if config else None,
        config=config,
        seeds=dict(seeds if seeds is not None else default_seeds()),
        workers=workers if workers is not None else resolve_workers(None),
        environment={
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        metrics=metrics,
        plans=_plans_of(metrics),
        attribution=_attributions_of(),
        profile=_profile.summary(_trace.spans()),
        timers={
            name: {"total_s": total, "count": count}
            for name, (total, count) in sorted(timers_snapshot().items())
        },
        trace=_trace.summary(),
        extra=dict(extra or {}),
    )
