"""Append-only run-history store with run-vs-run drift attribution.

Every manifest, metric snapshot, span digest, convergence trace, and
``BENCH_*.json`` record answers "what did *this* run do"; none of them
answer "how does it compare to the last hundred".  This module is that
longitudinal memory: a JSONL index (one normalized record per line,
append-only, atomic at line granularity) plus a content-addressed plan
directory, both under ``benchmarks/results/history/`` (git-ignored,
like every generated artifact).

A stored record is keyed by run id (content hash), git sha, and the set
of plan hashes the run touched.  Plan *bodies* are stored once per hash
under ``plans/<hash>.json``, so a diff between two historical runs can
render a real :class:`repro.pdn.plan.PlanDiff` -- the ops that changed
-- instead of only reporting that hashes differ.

Drift between two runs is *attributed*, not just detected, following
the measured-vs-modeled discipline of Ghose et al. (arXiv:1807.05102):

``structural``
    The runs solved different structures (plan-hash sets differ).  The
    evidence is the plan diff itself; comparing their IR numbers as if
    they were the same experiment would be meaningless.

``numerical``
    Same structures, different numbers: IR-drop extrema moved, solver
    residual curves converge to different floors (a perturbed ``rtol``
    shows up here), or iteration counts shifted.  The evidence is the
    metric and residual-curve deltas.

``none``
    Same structures, numbers within tolerance -- the CI smoke gate
    (``repro3d obs diff --gate``) requires exactly this for a run
    diffed against a repeat of itself.

When both runs are ``BENCH_*.json`` suite records, the comparison is
per bench instead: every bench of the newer run gets a verdict
(``ok`` / ``new_benchmark`` / ``perf_regression`` / ``accuracy_drift``
/ ``failed``) and the drift class follows from the ``accuracy_drift``
rows.  ``repro3d bench --gate`` is a view over exactly this diff.

The CLI front end is ``repro3d obs`` (list/show/diff/attribute/export);
see :mod:`repro.cli`.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs.atomic import atomic_write_text
from repro.obs.log import get_logger

_log = get_logger("obs.store")

#: Bump when the normalized record layout changes incompatibly.
STORE_SCHEMA_VERSION = 1

#: Environment override for the store location.
HISTORY_DIR_ENV = "REPRO_HISTORY_DIR"

#: Index file name inside the store root.
INDEX_NAME = "runs.jsonl"

#: Default max delta (mV) between any two IR values the diff compares
#: (run extrema, bench max IR, attribution components) before it flips
#: to numerical drift.  The golden IR baseline is bitwise, so any real
#: change lands far above this.
IR_DRIFT_MV = 1e-6

#: Default allowed fractional slowdown of a bench vs its historical
#: median wall time (0.5 = +50%).
PERF_REL_TOL = 0.5

#: Perf band width in median absolute deviations of the wall samples.
PERF_MAD_K = 4.0

#: Benches faster than this (s) are never perf-gated: pure jitter.
PERF_MIN_WALL_S = 0.1

#: Max delta in a paper anchor's deviation (percentage points).
ANCHOR_PCT_TOL = 1e-6

#: Wall-clock-derived anchor metrics (fig4's reference ``speedup``),
#: matched by substring: perf-noisy, so never physics drift.
NOISY_ANCHOR_METRICS = ("speedup",)

#: Per-bench verdicts, mildest first; a suite takes its worst.
BENCH_VERDICTS = ("ok", "new_benchmark", "perf_regression", "accuracy_drift", "failed")

#: Residual-floor ratio between matched convergence-trace groups above
#: which the attribution flips to numerical drift (a one-notch rtol
#: perturbation moves the floor by orders of magnitude).
RESIDUAL_DRIFT_RATIO = 10.0

#: Relative iteration-count change between matched trace groups above
#: which numerical drift is reported.
ITERATION_DRIFT_REL = 0.25


def default_history_dir() -> Path:
    """Store root: ``$REPRO_HISTORY_DIR`` > ``benchmarks/results/history``."""
    env = os.environ.get(HISTORY_DIR_ENV)
    if env:
        return Path(env)
    try:
        # Lazy: obs must stay importable without the bench package.
        from repro.bench.registry import benchmarks_dir

        return benchmarks_dir() / "results" / "history"
    except Exception:  # pragma: no cover - outside a repo checkout
        return Path.cwd() / "benchmarks" / "results" / "history"


def _strip_samples(histograms: Mapping[str, object]) -> Dict[str, object]:
    """Histogram stats without the raw sample reservoirs (index stays lean)."""
    out: Dict[str, object] = {}
    for name, h in histograms.items():
        if isinstance(h, Mapping):
            out[name] = {k: v for k, v in h.items() if k != "samples"}
    return out


def normalize_manifest(
    data: Mapping[str, object], source=None, kind: str = "experiment"
) -> Dict[str, object]:
    """Flatten a run manifest into the store's normalized record shape."""
    git = data.get("git") or {}
    metrics = data.get("metrics") or {}
    if not isinstance(git, Mapping):
        git = {}
    if not isinstance(metrics, Mapping):
        metrics = {}
    return {
        "schema_version": STORE_SCHEMA_VERSION,
        "kind": kind,
        "experiment_id": str(data.get("experiment_id", "")),
        "title": str(data.get("title", "")),
        "created": str(data.get("created", "")),
        "duration_s": float(data.get("duration_s", 0.0) or 0.0),
        "sha": str(git.get("sha", "unknown")),
        "dirty": bool(git.get("dirty")),
        "config_hash": data.get("config_hash"),
        "workers": int(data.get("workers", 1) or 1),
        "plans": dict(data.get("plans") or {}),
        "counters": dict(metrics.get("counters") or {}),
        "gauges": dict(metrics.get("gauges") or {}),
        "histograms": _strip_samples(metrics.get("histograms") or {}),
        "trace": dict(data.get("trace") or {}),
        "profile": dict(data.get("profile") or {}),
        "convergence": list(data.get("convergence") or []),
        "attribution": dict(data.get("attribution") or {}),
        "benches": [],
        "source": str(source) if source is not None else None,
    }


def normalize_bench_record(
    data: Mapping[str, object], source=None
) -> Dict[str, object]:
    """Flatten a ``BENCH_*.json`` suite record into the store shape."""
    manifest = data.get("manifest") or {}
    record = normalize_manifest(
        manifest if isinstance(manifest, Mapping) else {},
        source=source,
        kind="bench_suite",
    )
    git = data.get("git") or {}
    record["experiment_id"] = str(data.get("suite", "bench"))
    record["title"] = (
        f"bench suite ({'smoke' if data.get('smoke') else 'full'}, "
        f"repeats={data.get('repeats', '?')})"
    )
    record["created"] = str(data.get("created", record["created"]))
    if isinstance(git, Mapping) and git.get("sha"):
        record["sha"] = str(git["sha"])
        record["dirty"] = bool(git.get("dirty"))
    record["workers"] = int(data.get("workers", record["workers"]) or 1)
    plans = dict(record["plans"])
    benches: List[Dict[str, object]] = []
    for entry in data.get("benchmarks") or []:
        if not isinstance(entry, Mapping):
            continue
        hashes = [str(h) for h in entry.get("plan_hashes") or []]
        benches.append(
            {
                "name": str(entry.get("name", "")),
                "status": str(entry.get("status", "")),
                "wall_s": entry.get("wall_s"),
                "wall_s_all": list(entry.get("wall_s_all") or []),
                "max_ir_mv": entry.get("max_ir_mv"),
                "anchors": list(entry.get("anchors") or []),
                "error": entry.get("error"),
                "plan_hashes": hashes,
            }
        )
        for h in hashes:
            plans.setdefault(h, str(entry.get("name", h)))
    record["benches"] = benches
    record["plans"] = plans
    return record


def _run_id(record: Mapping[str, object]) -> str:
    """Content address of a normalized record (12 hex chars)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


class RunHistoryStore:
    """The append-only run index plus its content-addressed plan bodies."""

    def __init__(self, root=None) -> None:
        self.root = Path(root) if root is not None else default_history_dir()
        self.index_path = self.root / INDEX_NAME
        self.plans_dir = self.root / "plans"

    # -- writing --------------------------------------------------------------

    def append(self, record: Dict[str, object]) -> str:
        """Append one normalized record; returns its run id.

        The id is the content hash of the record *without* the id field,
        so re-ingesting identical content yields the same id (and is
        skipped).  The JSONL line is written with a single ``write`` +
        flush -- appends from concurrent runs interleave at line
        granularity, never mid-line, on POSIX append-mode files.
        """
        record = dict(record)
        record.pop("run_id", None)
        run_id = _run_id(record)
        if any(r.get("run_id") == run_id for r in self.runs()):
            _log.debug("run %s already in history; skipping", run_id)
            return run_id
        record["run_id"] = run_id
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with open(self.index_path, "a", encoding="utf-8") as fh:
            if self._tail_missing_newline():
                # A killed writer left a truncated trailing line; start a
                # fresh one so this record stays parseable (the partial
                # line is skipped -- with a warning -- on read).
                fh.write("\n")
            fh.write(line)
            fh.flush()
        return run_id

    def _tail_missing_newline(self) -> bool:
        """Whether the index ends mid-line (killed-process artifact)."""
        try:
            size = self.index_path.stat().st_size
        except OSError:
            return False
        if size == 0:
            return False
        with open(self.index_path, "rb") as fh:
            fh.seek(-1, os.SEEK_END)
            return fh.read(1) != b"\n"

    def ingest_manifest(self, manifest, source=None, kind: str = "experiment") -> str:
        """Ingest a :class:`RunManifest` (or its dict form); returns run id."""
        data = manifest.to_dict() if hasattr(manifest, "to_dict") else dict(manifest)
        return self.append(normalize_manifest(data, source=source, kind=kind))

    def ingest_bench_record(self, data: Mapping[str, object], source=None) -> str:
        """Ingest a ``BENCH_*.json`` suite record dict; returns run id."""
        return self.append(normalize_bench_record(data, source=source))

    def ingest_path(self, path) -> str:
        """Ingest a JSON artifact, sniffing manifest vs. bench record."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot ingest {path}: {exc}")
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"{path} is not a JSON object")
        if "benchmarks" in data and "suite" in data:
            return self.ingest_bench_record(data, source=path)
        if "experiment_id" in data:
            return self.ingest_manifest(data, source=path)
        raise ConfigurationError(
            f"{path} is neither a run manifest nor a bench suite record"
        )

    def ingest_live_run(self, manifest, source=None, kind: str = "cli") -> str:
        """Ingest the *current process's* run: manifest plus live buffers.

        Beyond the manifest content, this persists the plan bodies of
        every plan the process built (content-addressed, so repeats are
        free) and backfills profile/convergence from the live buffers
        when the manifest predates them.
        """
        data = manifest.to_dict() if hasattr(manifest, "to_dict") else dict(manifest)
        record = normalize_manifest(data, source=source, kind=kind)
        if not record["profile"]:
            from repro.obs import profile as _profile

            if _profile.sample_count():
                record["profile"] = _profile.summary()
        if not record["convergence"]:
            from repro.rmesh.backends import traces

            record["convergence"] = [t.to_dict() for t in traces()]
        # Persist the bodies of every plan this process actually built.
        from repro.pdn.plan import observed_plan_objects

        for plan_hash, plan in observed_plan_objects().items():
            if plan_hash in record["plans"]:
                self.store_plan(plan)
        return self.append(record)

    def store_plan(self, plan) -> Path:
        """Persist one plan body content-addressed; idempotent."""
        self.plans_dir.mkdir(parents=True, exist_ok=True)
        path = self.plans_dir / f"{plan.plan_hash}.json"
        if not path.exists():
            atomic_write_text(path, plan.to_json())
        return path

    # -- reading --------------------------------------------------------------

    def runs(self) -> List[Dict[str, object]]:
        """All stored records, oldest first; corrupt lines are skipped."""
        if not self.index_path.exists():
            return []
        out: List[Dict[str, object]] = []
        for lineno, line in enumerate(
            self.index_path.read_text().splitlines(), start=1
        ):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                # Truncated trailing line from a killed process (or a
                # corrupted interior one): skip it with a structured
                # warning -- `repro3d obs list/diff` must keep working
                # on the surviving records.
                _metrics.inc("obs.store.corrupt_lines")
                _log.warning(
                    "skipping corrupt history line %d in %s",
                    lineno,
                    self.index_path,
                    extra={
                        "fields": {
                            "path": str(self.index_path),
                            "line": lineno,
                            "error": str(exc),
                        }
                    },
                )
                continue
            if isinstance(data, dict):
                out.append(data)
        return out

    def resolve(self, ref: str) -> Dict[str, object]:
        """A record by reference: ``last``, ``last~N``, or a run-id prefix."""
        runs = self.runs()
        if not runs:
            raise ConfigurationError(
                f"run history at {self.index_path} is empty; ingest a run "
                "first (repro3d obs ingest <manifest>, or --history)"
            )
        ref = ref.strip()
        if ref == "last":
            return runs[-1]
        if ref.startswith("last~"):
            try:
                back = int(ref[len("last~"):])
            except ValueError:
                raise ConfigurationError(f"bad run reference {ref!r}")
            if back < 0 or back >= len(runs):
                raise ConfigurationError(
                    f"{ref!r} is out of range: history holds {len(runs)} runs"
                )
            return runs[-1 - back]
        matches = [
            r for r in runs if str(r.get("run_id", "")).startswith(ref)
        ]
        if not matches:
            raise ConfigurationError(
                f"no stored run matches {ref!r}; see repro3d obs list"
            )
        # A full-id (or unambiguous-prefix) match wins; re-ingested ids
        # are identical records, so taking the newest is safe either way.
        return matches[-1]

    def load_plan(self, plan_hash: str):
        """The stored :class:`StackPlan` body for a hash, or None."""
        path = self.plans_dir / f"{plan_hash}.json"
        if not path.exists():
            return None
        from repro.pdn.plan import StackPlan

        try:
            return StackPlan.from_json(path.read_text())
        except ConfigurationError:  # pragma: no cover - corrupted body
            _log.warning("stored plan %s failed validation", plan_hash)
            return None


# ---------------------------------------------------------------------------
# Run-vs-run deltas and drift attribution
# ---------------------------------------------------------------------------


@dataclass
class RunDelta:
    """The comparison of two stored runs, drift attributed."""

    a: Dict[str, object]
    b: Dict[str, object]
    #: ``none`` | ``structural`` | ``numerical``
    drift: str = "none"
    #: Human-readable evidence lines for the verdict.
    evidence: List[str] = field(default_factory=list)
    #: Rendered :class:`PlanDiff` text per benchmark (structural drift).
    plan_diffs: List[str] = field(default_factory=list)
    #: ``(metric, a value, b value)`` rows that moved.
    metric_deltas: List[tuple] = field(default_factory=list)
    #: Per trace-group residual comparisons (numerical drift evidence).
    residual_deltas: List[Dict[str, object]] = field(default_factory=list)
    #: One-line physics-axis status (``attribution: ...``); always set.
    attribution_note: str = ""
    #: Per-benchmark component rows that moved (physics-axis evidence):
    #: ``{benchmark, component, a_mv, b_mv}``.
    attribution_deltas: List[Dict[str, object]] = field(default_factory=list)
    #: One verdict row per bench of ``b`` when both runs are bench
    #: suites: ``{name, status, detail, drift, wall_s, median_s, tol_s,
    #: max_ir_mv, base_max_ir_mv}``.
    benches: List[Dict[str, object]] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """The worst per-bench verdict (``ok`` without bench rows)."""
        return max((r["status"] for r in self.benches), key=BENCH_VERDICTS.index, default="ok")

    @property
    def regressed(self) -> bool:
        """The bench gate's verdict: any drift, slowdown or failed bench."""
        return self.drift != "none" or self.verdict in ("perf_regression", "failed")


def _ir_extremum(record: Mapping[str, object]) -> Optional[float]:
    """Worst DRAM IR drop (mV) a run observed (histogram max, else gauge).

    Bench suites compare their benches' own max IR instead (see
    :func:`_bench_row`).
    """
    hists = record.get("histograms") or {}
    h = hists.get("ir.dram_max_mv") if isinstance(hists, Mapping) else None
    if isinstance(h, Mapping) and isinstance(h.get("max"), (int, float)):
        return float(h["max"])
    gauges = record.get("gauges") or {}
    g = gauges.get("ir.dram_max_mv") if isinstance(gauges, Mapping) else None
    return float(g) if isinstance(g, (int, float)) else None


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _trace_groups(
    record: Mapping[str, object],
) -> Dict[tuple, Dict[str, float]]:
    """Convergence traces grouped by (backend, preconditioner, nodes).

    Each group reduces to its median final residual, median iteration
    count, and the rtol it ran at -- the comparable fingerprint of "how
    did solves of this system behave".
    """
    groups: Dict[tuple, Dict[str, List[float]]] = {}
    for t in record.get("convergence") or []:
        if not isinstance(t, Mapping):
            continue
        key = (t.get("backend"), t.get("preconditioner"), t.get("nodes"))
        g = groups.setdefault(
            key, {"final": [], "iterations": [], "rtol": []}
        )
        if isinstance(t.get("final_residual"), (int, float)):
            g["final"].append(float(t["final_residual"]))
        if isinstance(t.get("iterations"), (int, float)):
            g["iterations"].append(float(t["iterations"]))
        if isinstance(t.get("rtol"), (int, float)):
            g["rtol"].append(float(t["rtol"]))
    out: Dict[tuple, Dict[str, float]] = {}
    for key, g in groups.items():
        if not g["final"]:
            continue
        out[key] = {
            "final": _median(g["final"]),
            "iterations": _median(g["iterations"]) if g["iterations"] else 0.0,
            "rtol": _median(g["rtol"]) if g["rtol"] else 0.0,
            "count": float(len(g["final"])),
        }
    return out


def _structural_evidence(
    plans_a: Mapping[str, str],
    plans_b: Mapping[str, str],
    store: Optional[RunHistoryStore],
    delta: RunDelta,
    scope: str = "",
) -> None:
    """Fill plan-diff evidence for two differing ``{hash: name}`` maps."""
    gone = sorted(set(plans_a) - set(plans_b))
    new = sorted(set(plans_b) - set(plans_a))
    delta.evidence.append(
        f"{scope}plan-hash sets differ: -{len(gone)} +{len(new)} "
        f"({len(set(plans_a) & set(plans_b))} shared)"
    )
    # One name labels every plan its benchmark touched, so an op diff is
    # only meaningful when exactly one of its plans went and one came;
    # any other change is listed hash by hash.
    gone_by_name: Dict[str, List[str]] = {}
    new_by_name: Dict[str, List[str]] = {}
    for h in gone:
        gone_by_name.setdefault(plans_a[h], []).append(h)
    for h in new:
        new_by_name.setdefault(plans_b[h], []).append(h)
    rendered = set()
    if store is not None:
        from repro.pdn.plan import PlanDiff

        for name in sorted(set(gone_by_name) & set(new_by_name)):
            if len(gone_by_name[name]) != 1 or len(new_by_name[name]) != 1:
                continue
            (ha,), (hb,) = gone_by_name[name], new_by_name[name]
            pa, pb = store.load_plan(ha), store.load_plan(hb)
            if pa is None or pb is None:
                continue
            diff = PlanDiff.between(pa, pb)
            delta.plan_diffs.append(f"[{name}]\n{diff.describe()}")
            rendered.update((ha, hb))
    for h in gone:
        if h not in rendered:
            delta.evidence.append(f"  - plan {h} ({plans_a[h]}) no longer touched")
    for h in new:
        if h not in rendered:
            delta.evidence.append(f"  + plan {h} ({plans_b[h]}) newly touched")


def _numerical_evidence(
    a: Mapping[str, object],
    b: Mapping[str, object],
    delta: RunDelta,
    ir_abs_mv: float,
) -> bool:
    """Fill metric/residual evidence; returns True when drift was found."""
    found = False
    ir_a, ir_b = _ir_extremum(a), _ir_extremum(b)
    if ir_a is not None and ir_b is not None:
        if abs(ir_a - ir_b) > ir_abs_mv:
            found = True
            delta.evidence.append(
                f"worst DRAM IR drop moved: {ir_a:.6f} -> {ir_b:.6f} mV"
            )
            delta.metric_deltas.append(("ir.dram_max_mv (max)", ir_a, ir_b))
    groups_a, groups_b = _trace_groups(a), _trace_groups(b)
    for key in sorted(
        set(groups_a) & set(groups_b), key=lambda k: tuple(map(str, k))
    ):
        ga, gb = groups_a[key], groups_b[key]
        label = f"{key[0]}/{key[1]}@{key[2]} nodes"
        row: Dict[str, object] = {
            "group": label,
            "final_a": ga["final"],
            "final_b": gb["final"],
            "iterations_a": ga["iterations"],
            "iterations_b": gb["iterations"],
            "rtol_a": ga["rtol"],
            "rtol_b": gb["rtol"],
        }
        drifted = False
        lo, hi = sorted((ga["final"], gb["final"]))
        if lo > 0 and hi / lo > RESIDUAL_DRIFT_RATIO:
            drifted = True
            delta.evidence.append(
                f"residual floor of {label} moved {hi / lo:.1e}x: "
                f"{ga['final']:.3e} -> {gb['final']:.3e}"
            )
        elif lo == 0 and hi > 0:  # pragma: no cover - exact-zero floor
            drifted = True
            delta.evidence.append(
                f"residual floor of {label}: {ga['final']:.3e} -> {gb['final']:.3e}"
            )
        base = max(ga["iterations"], 1.0)
        if abs(gb["iterations"] - ga["iterations"]) / base > ITERATION_DRIFT_REL:
            drifted = True
            delta.evidence.append(
                f"median iterations of {label}: "
                f"{ga['iterations']:.0f} -> {gb['iterations']:.0f}"
            )
        if ga["rtol"] != gb["rtol"] and ga["rtol"] and gb["rtol"]:
            drifted = True
            delta.evidence.append(
                f"solver rtol of {label}: {ga['rtol']:.1e} -> {gb['rtol']:.1e}"
            )
        if drifted:
            found = True
            delta.residual_deltas.append(row)
    for gauge in ("solver.residual_norm",):
        ga_ = (a.get("gauges") or {}).get(gauge)
        gb_ = (b.get("gauges") or {}).get(gauge)
        if isinstance(ga_, (int, float)) and isinstance(gb_, (int, float)):
            lo, hi = sorted((float(ga_), float(gb_)))
            if lo > 0 and hi / lo > RESIDUAL_DRIFT_RATIO:
                found = True
                delta.evidence.append(
                    f"{gauge} gauge moved {hi / lo:.1e}x: {ga_:.3e} -> {gb_:.3e}"
                )
                delta.metric_deltas.append((gauge, float(ga_), float(gb_)))
    return found


def _attribution_evidence(
    a: Mapping[str, object],
    b: Mapping[str, object],
    delta: RunDelta,
    ir_abs_mv: float,
) -> bool:
    """Fill the physics axis: compare worst-drop attribution summaries.

    Records ingested before attribution existed lack the key entirely --
    those degrade to an explicit ``attribution: n/a`` note instead of a
    comparison (never a crash).  Returns True when the decomposition
    moved between two comparable records.
    """
    missing = [f"`{_run_label(r)}`" for r in (a, b) if "attribution" not in r]
    if missing:
        plural = len(missing) > 1
        delta.attribution_note = (
            f"attribution: n/a (run{'s' if plural else ''} {', '.join(missing)} "
            f"predate{'' if plural else 's'} attribution records)"
        )
        return False
    attr_a = a.get("attribution") or {}
    attr_b = b.get("attribution") or {}
    if not isinstance(attr_a, Mapping) or not isinstance(attr_b, Mapping):
        delta.attribution_note = "attribution: n/a (malformed records)"
        return False
    if not attr_a or not attr_b:
        delta.attribution_note = (
            "attribution: none recorded (run the diagnostics via "
            "`repro3d explain --history`)"
        )
        return False
    shared = sorted(set(attr_a) & set(attr_b))
    if not shared:
        delta.attribution_note = (
            "attribution: no common benchmarks between the runs"
        )
        return False
    found = False
    for name in shared:
        sa, sb = attr_a[name], attr_b[name]
        if not isinstance(sa, Mapping) or not isinstance(sb, Mapping):
            continue
        comp_a = dict(sa.get("components_mv") or {})
        comp_b = dict(sb.get("components_mv") or {})
        for cat in sorted(set(comp_a) | set(comp_b)):
            va = float(comp_a.get(cat, 0.0) or 0.0)
            vb = float(comp_b.get(cat, 0.0) or 0.0)
            if abs(va - vb) > ir_abs_mv:
                found = True
                delta.attribution_deltas.append(
                    {"benchmark": name, "component": cat, "a_mv": va, "b_mv": vb}
                )
        if sa.get("worst_layer") != sb.get("worst_layer"):
            found = True
            delta.evidence.append(
                f"worst-drop layer of {name} moved: "
                f"{sa.get('worst_layer')} -> {sb.get('worst_layer')}"
            )
    if found:
        moved = len(delta.attribution_deltas)
        delta.attribution_note = (
            f"attribution: drifted ({moved} component"
            f"{'s' if moved != 1 else ''} moved)"
        )
        delta.evidence.append(
            f"worst-drop decomposition moved across {moved} component"
            f"{'s' if moved != 1 else ''}"
        )
    else:
        delta.attribution_note = (
            f"attribution: unchanged across {len(shared)} benchmark"
            f"{'s' if len(shared) != 1 else ''}"
        )
    return found


def plan_drift(
    plans_a: Optional[Iterable[str]], plans_b: Optional[Iterable[str]]
) -> str:
    """Classify drift between two runs by the plan hashes they solved.

    ``structural`` when the sets differ (a planner or geometry edit),
    ``numerical`` when they match (same structures, so any drift is in
    the assembler/solver arithmetic), ``unknown`` when either run
    recorded no plan hashes (records predating the field).
    :func:`diff_runs` classifies whole runs and single benches here.
    """
    set_a, set_b = set(plans_a or ()), set(plans_b or ())
    if not set_a or not set_b:
        return "unknown"
    return "structural" if set_a != set_b else "numerical"


#: Suffix of an accuracy-drift detail, by :func:`plan_drift` class.
_DRIFT_TAGS = {
    "structural": " [structural: stack plans changed]",
    "numerical": " [numerical: identical stack plans]",
}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _wall_samples(name: str, records: Iterable[Mapping[str, object]]) -> List[float]:
    """Every healthy wall time (repeats included) of bench ``name``."""
    samples: List[float] = []
    for record in records:
        for bench in record.get("benches") or []:
            if bench.get("name") == name and bench.get("status") == "ok":
                walls = bench.get("wall_s_all") or [bench.get("wall_s")]
                samples.extend(float(w) for w in walls if _is_number(w))
    return samples


def _physics_moved(
    prev: Mapping[str, object], cur: Mapping[str, object], ir_abs_mv: float
) -> str:
    """Why a shared bench's physics numbers moved; empty when they did not."""
    ir_a, ir_b = prev.get("max_ir_mv"), cur.get("max_ir_mv")
    if _is_number(ir_a) and _is_number(ir_b) and abs(ir_b - ir_a) > ir_abs_mv:
        return (
            f"max IR {ir_a:.6f} -> {ir_b:.6f} mV "
            f"(|delta| {abs(ir_b - ir_a):.2e} > {ir_abs_mv:.0e})"
        )
    before = {(x.get("row"), x.get("metric")): x for x in prev.get("anchors") or []}
    for anchor in cur.get("anchors") or []:
        old = before.get((anchor.get("row"), anchor.get("metric")))
        metric = str(anchor.get("metric", ""))
        if old is None or any(m in metric for m in NOISY_ANCHOR_METRICS):
            continue  # a new row/metric is a model extension, not drift
        dev_a, dev_b = old.get("deviation_pct"), anchor.get("deviation_pct")
        if _is_number(dev_a) and _is_number(dev_b) and abs(dev_b - dev_a) > ANCHOR_PCT_TOL:
            return f"anchor {anchor.get('row')}/{metric} deviation {dev_a:+.4f}% -> {dev_b:+.4f}%"
    return ""


def _bench_row(
    cur: Mapping[str, object],
    prev: Optional[Mapping[str, object]],
    samples: Sequence[float],
    perf_rel_tol: float,
    ir_abs_mv: float,
) -> Dict[str, object]:
    """The verdict for one bench of the newer suite against its baseline."""
    row: Dict[str, object] = dict(
        name=cur.get("name"), status="ok", detail="", drift="", wall_s=cur.get("wall_s"),
        median_s=None, tol_s=None, max_ir_mv=cur.get("max_ir_mv"),
        base_max_ir_mv=(prev or {}).get("max_ir_mv"),
    )
    if cur.get("status") == "failed":
        row.update(status="failed", detail=cur.get("error") or "bench raised")
        return row
    if prev is None or prev.get("status") != "ok":
        row.update(status="new_benchmark", detail="no healthy baseline entry")
        return row
    # Physics first: deterministic, so drift trumps perf noise.  Plan
    # hashes are judged on this bench's own, so a partial suite never
    # reads as structural drift against a fuller baseline.
    kind = plan_drift(prev.get("plan_hashes"), cur.get("plan_hashes"))
    moved = _physics_moved(prev, cur, ir_abs_mv)
    if not moved and kind == "structural":
        moved = "stack plan hashes changed"
    if moved:
        row.update(
            status="accuracy_drift",
            detail=moved + _DRIFT_TAGS.get(kind, ""),
            drift="structural" if kind == "structural" else "numerical",
        )
        return row
    wall = cur.get("wall_s")
    if not samples or not _is_number(wall):
        return row
    med = _median(samples)
    mad = _median([abs(s - med) for s in samples])
    tol = max(perf_rel_tol * med, PERF_MAD_K * mad)
    row.update(median_s=round(med, 6), tol_s=round(tol, 6))
    if wall > med + tol and wall > PERF_MIN_WALL_S and med > 0:
        row.update(
            status="perf_regression",
            detail=(
                f"{wall:.3f}s vs median {med:.3f}s "
                f"(+{(wall / med - 1) * 100:.0f}%, "
                f"tolerance +{tol:.3f}s over {len(samples)} samples)"
            ),
        )
    return row


def _bench_evidence(
    a: Mapping[str, object],
    b: Mapping[str, object],
    store: Optional[RunHistoryStore],
    history: Sequence[Mapping[str, object]],
    perf_rel_tol: float,
    ir_abs_mv: float,
    delta: RunDelta,
) -> None:
    """Give every bench of ``b`` a verdict; drift follows from the rows."""
    previous = {bench.get("name"): bench for bench in a.get("benches") or []}
    for cur in b.get("benches") or []:
        name = cur.get("name")
        prev = previous.get(name)
        row = _bench_row(cur, prev, _wall_samples(name, (*history, a)), perf_rel_tol, ir_abs_mv)
        delta.benches.append(row)
        if row["drift"] == "structural":
            _structural_evidence(
                {h: name for h in prev.get("plan_hashes") or []},
                {h: name for h in cur.get("plan_hashes") or []},
                store,
                delta,
                scope=f"{name}: ",
            )
    kinds = {row["drift"] for row in delta.benches}
    delta.drift = next((k for k in ("structural", "numerical") if k in kinds), "none")


def diff_runs(
    a: Mapping[str, object],
    b: Mapping[str, object],
    store: Optional[RunHistoryStore] = None,
    history: Sequence[Mapping[str, object]] = (),
    perf_rel_tol: float = PERF_REL_TOL,
    ir_abs_mv: float = IR_DRIFT_MV,
) -> RunDelta:
    """Compare record ``b`` against the older ``a`` and attribute any drift.

    Two bench suites compare bench by bench, with ``history`` (older
    records) widening the perf band; any other pair compares run-level
    plan sets, IR extrema and solver traces.  ``ir_abs_mv`` bounds every
    mV comparison, ``perf_rel_tol`` the allowed slowdown.
    """
    delta = RunDelta(a=dict(a), b=dict(b))
    attribution_drift = _attribution_evidence(a, b, delta, ir_abs_mv)
    if a.get("benches") and b.get("benches"):
        _bench_evidence(a, b, store, history, perf_rel_tol, ir_abs_mv, delta)
        return delta
    if plan_drift(a.get("plans"), b.get("plans")) == "structural":
        delta.drift = "structural"
        _structural_evidence(
            dict(a.get("plans") or {}), dict(b.get("plans") or {}), store, delta
        )
        return delta
    if _numerical_evidence(a, b, delta, ir_abs_mv) or attribution_drift:
        delta.drift = "numerical"
    return delta


# ---------------------------------------------------------------------------
# Markdown rendering (the `repro3d obs` output surface)
# ---------------------------------------------------------------------------


def _run_label(record: Mapping[str, object]) -> str:
    """Run id, or the source file name of a record never stored."""
    return str(record.get("run_id") or Path(str(record.get("source") or "?")).name)


def _describe_run(record: Mapping[str, object]) -> str:
    rid = _run_label(record)
    exp = record.get("experiment_id") or record.get("kind", "?")
    sha = str(record.get("sha", "unknown"))[:7]
    return f"`{rid}` ({exp} @ {sha})"


def run_summary_line(record: Mapping[str, object]) -> str:
    """One ``obs list`` table row for a record."""
    rid = record.get("run_id", "?")
    created = str(record.get("created", ""))[:19]
    kind = record.get("kind", "?")
    exp = record.get("experiment_id", "")
    sha = str(record.get("sha", "unknown"))[:7]
    plans = len(record.get("plans") or {})
    traces = len(record.get("convergence") or [])
    prof = (record.get("profile") or {}).get("samples", 0)
    dur = record.get("duration_s", 0.0)
    return (
        f"| {rid} | {created} | {kind} | {exp} | {sha} | {plans} "
        f"| {traces} | {prof} | {dur:.2f} |"
    )


def list_markdown(records: Sequence[Mapping[str, object]]) -> str:
    """The ``obs list`` table, newest last."""
    lines = [
        "| run | created | kind | experiment | sha | plans | traces "
        "| profile samples | duration s |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    lines.extend(run_summary_line(r) for r in records)
    return "\n".join(lines)


def show_markdown(record: Mapping[str, object]) -> str:
    """The ``obs show`` rendering of one record."""
    lines = [f"# run {_run_label(record)}", ""]
    for key in (
        "kind",
        "experiment_id",
        "title",
        "created",
        "sha",
        "dirty",
        "config_hash",
        "workers",
        "duration_s",
        "source",
    ):
        value = record.get(key)
        if value not in (None, ""):
            lines.append(f"- **{key}**: {value}")
    plans = record.get("plans") or {}
    if plans:
        lines.append(f"- **plans** ({len(plans)}):")
        for h in sorted(plans):
            lines.append(f"  - `{h}` {plans[h]}")
    profile = record.get("profile") or {}
    if profile.get("samples"):
        lines.append(
            f"- **profile**: {profile['samples']} samples, peak RSS "
            f"{profile.get('peak_rss_kb', '?')} KiB, CPU "
            f"{profile.get('cpu_s', '?')} s"
        )
    conv = record.get("convergence") or []
    if conv:
        lines.append(f"- **convergence traces**: {len(conv)}")
        for key, g in sorted(
            _trace_groups(record).items(), key=lambda kv: tuple(map(str, kv[0]))
        ):
            lines.append(
                f"  - {key[0]}/{key[1]}@{key[2]} nodes: {g['count']:.0f} "
                f"traces, median {g['iterations']:.0f} iters to "
                f"{g['final']:.3e} (rtol {g['rtol']:.1e})"
            )
    benches = record.get("benches") or []
    if benches:
        lines.append(f"- **benches** ({len(benches)}):")
        for bench in benches:
            ir = bench.get("max_ir_mv")
            lines.append(
                f"  - {bench.get('name')}: {bench.get('status')}, "
                f"{bench.get('wall_s')} s"
                + (f", max IR {ir:.2f} mV" if _is_number(ir) else "")
                + f", {len(bench.get('anchors') or [])} anchors"
            )
    trace = record.get("trace") or {}
    roots = trace.get("roots") or []
    if roots:
        lines.append(f"- **trace**: {trace.get('num_spans', 0)} spans; roots:")
        for r in roots[:8]:
            lines.append(
                f"  - {r.get('name')}: {float(r.get('dur_us', 0.0)) / 1e6:.3f} s"
            )
    return "\n".join(lines)


def delta_markdown(delta: RunDelta) -> str:
    """The ``obs diff`` / ``obs attribute`` rendering of a comparison.

    The first body line is always ``drift: <verdict>`` -- CI greps it.
    """
    lines = [
        f"# {_describe_run(delta.a)} vs {_describe_run(delta.b)}",
        "",
        f"drift: {delta.drift}",
        "",
    ]
    if delta.benches:
        lines.extend(_bench_section(delta))
    elif delta.drift == "none":
        lines.append(
            "Same plan-hash set, IR extrema and solver behavior within "
            "tolerance."
        )
    for line in delta.evidence:
        lines.append(f"- {line}")
    if delta.plan_diffs:
        lines.append("")
        lines.append("## Plan diff (structural evidence)")
        for text in delta.plan_diffs:
            lines.append("")
            lines.append("```")
            lines.append(text)
            lines.append("```")
    if delta.residual_deltas:
        lines.append("")
        lines.append("## Residual-curve deltas (numerical evidence)")
        lines.append(
            "| group | final A | final B | iters A | iters B | rtol A | rtol B |"
        )
        lines.append("|---|---|---|---|---|---|---|")
        for row in delta.residual_deltas:
            lines.append(
                f"| {row['group']} | {row['final_a']:.3e} | {row['final_b']:.3e} "
                f"| {row['iterations_a']:.0f} | {row['iterations_b']:.0f} "
                f"| {row['rtol_a']:.1e} | {row['rtol_b']:.1e} |"
            )
    if delta.metric_deltas:
        lines.append("")
        lines.append("## Metric deltas")
        lines.append("| metric | A | B |")
        lines.append("|---|---|---|")
        for name, va, vb in delta.metric_deltas:
            lines.append(f"| {name} | {va:.6g} | {vb:.6g} |")
    lines.append("")
    lines.append("## Attribution (physics axis)")
    lines.append("")
    lines.append(delta.attribution_note or "attribution: n/a")
    if delta.attribution_deltas:
        lines.append("")
        lines.append(attribution_table(delta.attribution_deltas))
    return "\n".join(lines)


def _fmt(value, spec: str) -> str:
    return format(value, spec) if _is_number(value) else "--"


def _bench_section(delta: RunDelta) -> List[str]:
    """The per-bench verdict table, suite verdict line and details."""
    lines = [
        "| bench | verdict | base s | now s | delta | tol s | base mV | now mV |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in delta.benches:
        status = str(row["status"])
        # Flag every failing verdict with "!!" so greps find regressions.
        flag = {"ok": "", "new_benchmark": " *"}.get(status, " !!")
        med, wall = row["median_s"], row["wall_s"]
        change = f"{(wall / med - 1) * 100:+.0f}%" if med and _is_number(wall) else "--"
        lines.append(
            f"| {row['name']} | {status}{flag} "
            f"| {_fmt(med, '.3f')} | {_fmt(wall, '.3f')} | {change} "
            f"| {_fmt(row['tol_s'], '.3f')} | {_fmt(row['base_max_ir_mv'], '.2f')} "
            f"| {_fmt(row['max_ir_mv'], '.2f')} |"
        )
    counts = Counter(str(row["status"]) for row in delta.benches)
    summary = ", ".join(f"{k}: {n}" for k, n in sorted(counts.items()))
    lines += ["", f"**suite verdict: {delta.verdict}** ({summary})"]
    for row in delta.benches:
        if row["detail"] and row["status"] not in ("ok", "new_benchmark"):
            lines.append(f"- `{row['name']}`: {row['detail']}")
    return lines


def attribution_table(rows: Sequence[Mapping[str, object]]) -> str:
    """Markdown table of moved worst-drop components (physics evidence)."""
    lines = [
        "| benchmark | component | A mV | B mV | delta mV |",
        "|---|---|---|---|---|",
    ]
    for row in rows:
        va = float(row.get("a_mv", 0.0) or 0.0)
        vb = float(row.get("b_mv", 0.0) or 0.0)
        lines.append(
            f"| {row.get('benchmark')} | {row.get('component')} "
            f"| {va:.6f} | {vb:.6f} | {vb - va:+.6f} |"
        )
    return "\n".join(lines)


def attribution_markdown(delta: RunDelta) -> str:
    """The ``repro3d explain --diff`` rendering: physics axis only.

    Same comparison machinery as :func:`delta_markdown`, scoped to the
    worst-drop attribution -- where the drop comes from and how that
    changed between two stored runs.
    """
    lines = [
        f"# attribution drift: {_describe_run(delta.a)} vs "
        f"{_describe_run(delta.b)}",
        "",
        delta.attribution_note or "attribution: n/a",
    ]
    if delta.attribution_deltas:
        lines.append("")
        lines.append(attribution_table(delta.attribution_deltas))
    layer_moves = [
        line for line in delta.evidence if "worst-drop layer" in line
    ]
    if layer_moves:
        lines.append("")
        lines.extend(f"- {line}" for line in layer_moves)
    return "\n".join(lines)


def export_chrome_trace(record: Mapping[str, object]) -> Dict[str, object]:
    """A stored record as Chrome trace-event JSON.

    Root spans from the record's trace digest become ``ph: X`` duration
    events; the profiler's bounded RSS/CPU curve becomes ``ph: C``
    counter tracks on the same timebase -- the offline equivalent of the
    live :func:`repro.obs.trace.to_chrome_trace` export.
    """
    events: List[Dict[str, object]] = []
    trace = record.get("trace") or {}
    for r in trace.get("roots") or []:
        events.append(
            {
                "name": r.get("name", "?"),
                "ph": "X",
                "ts": float(r.get("ts_us", 0.0)),
                "dur": float(r.get("dur_us", 0.0)),
                "pid": 1,
                "tid": 1,
                "args": {"count": r.get("count", 1)},
            }
        )
    profile = record.get("profile") or {}
    for point in profile.get("curve") or []:
        try:
            ts, rss, cpu = float(point[0]), float(point[1]), float(point[2])
        except (TypeError, ValueError, IndexError):
            continue
        base = {"ph": "C", "ts": ts, "pid": 1, "tid": 0}
        events.append(
            {**base, "name": "profile.rss_kb", "args": {"rss_kb": rss}}
        )
        events.append(
            {**base, "name": "profile.cpu_s", "args": {"cpu_s": cpu}}
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": {
            "run_id": record.get("run_id"),
            "experiment_id": record.get("experiment_id"),
            "sha": record.get("sha"),
            "created": record.get("created"),
        },
    }
