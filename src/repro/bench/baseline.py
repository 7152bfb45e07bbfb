"""Baseline store and noise-aware regression comparator.

The committed baseline (``benchmarks/BASELINE.json``) is the blessed
suite record CI gates against; the ``BENCH_*.json`` files at the repo
root are the longitudinal trajectory that widens the comparator's
timing sample.  The two signals are treated differently:

* **perf** -- wall times are noisy, so the tolerance band is
  ``max(rel_tol * median, mad_k * MAD)`` over the baseline + trajectory
  samples (median absolute deviation is robust to the odd cold-cache
  outlier).  Sub-``min_wall_s`` benches are never perf-gated: at that
  scale the measurement is pure jitter.
* **physics** -- IR numbers and paper-anchor deviations are
  deterministic re-runs of the same model, so they compare with tight
  epsilons: any real change is a model change and must be blessed
  explicitly (``repro bench --update-baseline``).

Verdicts per bench: ``ok`` / ``perf_regression`` / ``accuracy_drift`` /
``new_benchmark`` (plus ``failed`` when the bench itself errored).  The
suite verdict is the worst of its benches.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.bench.record import SuiteRecord, load_record, load_trajectory
from repro.obs.store import plan_drift

#: Verdict severity, mildest first; the suite takes the worst.
VERDICT_ORDER = (
    "ok",
    "new_benchmark",
    "perf_regression",
    "accuracy_drift",
    "failed",
)

#: Default committed-baseline location relative to the repo root.
BASELINE_RELPATH = Path("benchmarks") / "BASELINE.json"


@dataclass(frozen=True)
class Thresholds:
    """Comparator tolerances; see the module docstring for rationale."""

    #: Allowed fractional slowdown vs the trajectory median (0.5 = +50%).
    perf_rel_tol: float = 0.5
    #: Noise band width in median-absolute-deviations.
    mad_k: float = 4.0
    #: Benches faster than this are never perf-gated (seconds).
    min_wall_s: float = 0.1
    #: Max allowed |delta| in the worst DRAM IR (mV); deterministic model.
    ir_abs_mv: float = 1e-6
    #: Max allowed |delta| in an anchor's deviation-% (percentage points).
    anchor_pct_tol: float = 1e-6
    #: Anchor metrics that are wall-clock-derived (fig4's reference
    #: ``speedup``), matched by substring: perf-noisy, so never treated
    #: as physics drift.
    noisy_metrics: tuple = ("speedup",)


@dataclass
class BenchVerdict:
    """Comparator output for one bench."""

    name: str
    status: str
    detail: str = ""
    wall_s: float = 0.0
    baseline_wall_s: Optional[float] = None
    tol_s: Optional[float] = None
    max_ir_mv: Optional[float] = None
    baseline_max_ir_mv: Optional[float] = None


@dataclass
class SuiteComparison:
    """All verdicts plus the suite-level worst-case status."""

    verdicts: List[BenchVerdict] = field(default_factory=list)

    @property
    def status(self) -> str:
        worst = "ok"
        for v in self.verdicts:
            if VERDICT_ORDER.index(v.status) > VERDICT_ORDER.index(worst):
                worst = v.status
        return worst

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "new_benchmark")

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.verdicts:
            out[v.status] = out.get(v.status, 0) + 1
        return out

    def by_status(self, status: str) -> List[BenchVerdict]:
        return [v for v in self.verdicts if v.status == status]


def _timing_samples(
    name: str, baseline: SuiteRecord, trajectory: Sequence[SuiteRecord]
) -> List[float]:
    """Every historical wall time for ``name`` (repeats included)."""
    samples: List[float] = []
    for record in (*trajectory, baseline):
        entry = record.entry(name)
        if entry is not None and entry.status == "ok":
            samples.extend(entry.wall_s_all or [entry.wall_s])
    return samples


def _anchor_key(anchor) -> tuple:
    return (anchor.get("row"), anchor.get("metric"))


def compare(
    current: SuiteRecord,
    baseline: SuiteRecord,
    trajectory: Sequence[SuiteRecord] = (),
    thresholds: Optional[Thresholds] = None,
) -> SuiteComparison:
    """Compare a fresh suite record against the baseline (+ trajectory)."""
    th = thresholds or Thresholds()
    comparison = SuiteComparison()
    for entry in current.benchmarks:
        verdict = BenchVerdict(
            name=entry.name,
            status="ok",
            wall_s=entry.wall_s,
            max_ir_mv=entry.max_ir_mv,
        )
        if entry.status == "failed":
            verdict.status = "failed"
            verdict.detail = entry.error or "bench raised"
            comparison.verdicts.append(verdict)
            continue
        base = baseline.entry(entry.name)
        if base is None or base.status != "ok":
            verdict.status = "new_benchmark"
            verdict.detail = "no healthy baseline entry"
            comparison.verdicts.append(verdict)
            continue
        verdict.baseline_max_ir_mv = base.max_ir_mv

        # -- physics first: deterministic, so drift trumps perf noise ----
        drift = _accuracy_drift(entry, base, th)
        if drift:
            verdict.status = "accuracy_drift"
            verdict.detail = drift
            comparison.verdicts.append(verdict)
            continue

        # -- perf: noise-aware band over the historical samples ----------
        samples = _timing_samples(entry.name, baseline, trajectory)
        med = statistics.median(samples)
        mad = statistics.median(abs(s - med) for s in samples)
        tol = max(th.perf_rel_tol * med, th.mad_k * mad)
        verdict.baseline_wall_s = round(med, 6)
        verdict.tol_s = round(tol, 6)
        if (
            entry.wall_s > med + tol
            and entry.wall_s > th.min_wall_s
            and med > 0
        ):
            verdict.status = "perf_regression"
            verdict.detail = (
                f"{entry.wall_s:.3f}s vs median {med:.3f}s "
                f"(+{(entry.wall_s / med - 1) * 100:.0f}%, "
                f"tolerance +{tol:.3f}s over {len(samples)} samples)"
            )
        comparison.verdicts.append(verdict)
    return comparison


#: Suffix of an accuracy-drift verdict, by :func:`plan_drift` class.
_DRIFT_TAGS = {
    "structural": " [structural: stack plans changed]",
    "numerical": " [numerical: identical stack plans]",
}


def _accuracy_drift(entry, base, th: Thresholds) -> str:
    """Non-empty description when the physics numbers moved.

    The description ends in a structural/numerical tag when both
    records carry the plan hashes their bench solved.
    """
    tag = _DRIFT_TAGS.get(plan_drift(entry.plan_hashes, base.plan_hashes), "")
    if entry.max_ir_mv is not None and base.max_ir_mv is not None:
        delta = abs(entry.max_ir_mv - base.max_ir_mv)
        if delta > th.ir_abs_mv:
            return (
                f"max IR {base.max_ir_mv:.6f} -> {entry.max_ir_mv:.6f} mV "
                f"(|delta| {delta:.2e} > {th.ir_abs_mv:.0e})"
                + tag
            )
    base_anchors = {_anchor_key(a): a for a in base.anchors}
    for anchor in entry.anchors:
        prev = base_anchors.get(_anchor_key(anchor))
        if prev is None:
            continue  # new row/metric: a model extension, not drift
        metric = str(anchor.get("metric", ""))
        if any(noisy in metric for noisy in th.noisy_metrics):
            continue
        cur_dev = anchor.get("deviation_pct")
        prev_dev = prev.get("deviation_pct")
        if cur_dev is None or prev_dev is None:
            continue
        if abs(cur_dev - prev_dev) > th.anchor_pct_tol:
            return (
                f"anchor {anchor['row']}/{anchor['metric']} deviation "
                f"{prev_dev:+.4f}% -> {cur_dev:+.4f}%"
                + tag
            )
    return ""


def baseline_path(root) -> Path:
    """The committed baseline location for a repository root."""
    return Path(root) / BASELINE_RELPATH


def load_baseline(path) -> Optional[SuiteRecord]:
    """The blessed record, or None when no baseline is committed yet."""
    path = Path(path)
    if not path.is_file():
        return None
    return load_record(path)


def update_baseline(record: SuiteRecord, path) -> Path:
    """Bless ``record`` as the new committed baseline."""
    return record.write(path)


def compare_against_root(
    current: SuiteRecord,
    root,
    thresholds: Optional[Thresholds] = None,
    exclude=(),
) -> Optional[SuiteComparison]:
    """Convenience: compare vs the committed baseline + root trajectory.

    Returns None when no baseline exists (first ever run).
    """
    baseline = load_baseline(baseline_path(root))
    if baseline is None:
        return None
    trajectory = load_trajectory(root, exclude=exclude)
    return compare(current, baseline, trajectory, thresholds)


def scaled(th: Thresholds, perf_rel_tol=None, ir_abs_mv=None) -> Thresholds:
    """A copy of ``th`` with selected tolerances overridden (CLI knobs)."""
    kwargs = {}
    if perf_rel_tol is not None:
        kwargs["perf_rel_tol"] = perf_rel_tol
    if ir_abs_mv is not None:
        kwargs["ir_abs_mv"] = ir_abs_mv
    return replace(th, **kwargs) if kwargs else th
