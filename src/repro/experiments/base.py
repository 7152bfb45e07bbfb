"""Experiment framework: results, rows, registry, run provenance.

Every :func:`run_experiment` call executes inside a trace span and
captures the metric delta it produced; the pair feeds a
:class:`repro.obs.manifest.RunManifest` attached to the result (and
optionally written to disk), so each experiment ships its own receipt.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Mapping, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.obs.manifest import RunManifest


@dataclass
class Row:
    """One table row: a label, the paper's value(s), the model's value(s).

    Values are kept as raw floats (or strings for categorical cells) so
    benches can assert on them; ``fmt`` renders aligned text.
    """

    label: str
    paper: Dict[str, object] = field(default_factory=dict)
    model: Dict[str, object] = field(default_factory=dict)

    def deviation_percent(self, key: str) -> Optional[float]:
        """Relative deviation of the model from the paper for one metric.

        Returns None when either value is non-numeric (bools are
        rejected: ``True`` is an ``int`` but "deviation from True" is
        meaningless) and when the paper value is exactly 0 -- relative
        deviation has no defined denominator there, so a zero anchor is
        reported without a percentage rather than silently skipped as
        falsy input.
        """
        p = self.paper.get(key)
        m = self.model.get(key)
        if isinstance(p, bool) or isinstance(m, bool):
            return None
        if not isinstance(p, (int, float)) or not isinstance(m, (int, float)):
            return None
        if p == 0:
            return None  # zero denominator: relative deviation undefined
        return (m - p) / p * 100.0


@dataclass
class ExperimentResult:
    """Output of one experiment driver."""

    experiment_id: str
    title: str
    rows: List[Row]
    notes: List[str] = field(default_factory=list)
    #: Provenance record attached by :func:`run_experiment`; ``None`` when
    #: a driver is invoked directly (tests calling ``registry[id]()``).
    manifest: Optional["RunManifest"] = field(
        default=None, repr=False, compare=False
    )

    def fmt(self) -> str:
        """Render as an aligned text table (paper | model | deviation)."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        metric_keys: List[str] = []
        for row in self.rows:
            for key in list(row.paper) + list(row.model):
                if key not in metric_keys:
                    metric_keys.append(key)
        width = max((len(r.label) for r in self.rows), default=10) + 2
        for row in self.rows:
            cells = []
            for key in metric_keys:
                p, m = row.paper.get(key), row.model.get(key)
                if p is None and m is None:
                    continue
                text = f"{key}: "
                text += _fmt_value(p) if p is not None else "--"
                if m is not None:
                    text += f" -> {_fmt_value(m)}"
                    dev = row.deviation_percent(key)
                    if dev is not None:
                        text += f" ({dev:+.1f}%)"
                cells.append(text)
            lines.append(f"  {row.label:<{width}} " + " | ".join(cells))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def row(self, label: str) -> Row:
        """Look a row up by label."""
        for row in self.rows:
            if row.label == label:
                return row
        raise ConfigurationError(
            f"{self.experiment_id}: no row labelled {label!r}"
        )


def _fmt_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


#: experiment id -> driver module under ``repro.experiments``.  Listing
#: the ids reads this table only; a driver is imported on first lookup.
DRIVERS: Dict[str, str] = {
    "ext_crowding": "ext_crowding",
    "ext_hmc": "ext_hmc_scheduling",
    "ext_transient": "ext_transient",
    "fig4": "fig4_validation",
    "fig5": "fig5_tsv_count_alignment",
    "fig9": "fig9_constraint_sweep",
    "sec31": "sec31_mounting",
    "sec3_metal": "sec3_metal_usage",
    "sec61": "sec61_regression",
    "table1": "table1_specs",
    "table2": "table2_tsv_rdl",
    "table3": "table3_wirebond",
    "table4": "table4_f2f_overlap",
    "table5": "table5_state_ioactivity",
    "table6": "table6_policies",
    "table8": "table8_cost_model",
    "table9": "table9_cooptimization",
}


class _Registry(Mapping[str, Callable[..., ExperimentResult]]):
    """Experiment id -> driver ``run``; keys come from :data:`DRIVERS`.

    ``registry[id]`` imports that id's driver module the first time
    (its ``@register`` fills the slot); iterating, ``len`` and ``in``
    import nothing.
    """

    def __init__(self) -> None:
        self._runs: Dict[str, Callable[..., ExperimentResult]] = {}

    def __getitem__(self, experiment_id: str) -> Callable[..., ExperimentResult]:
        if experiment_id not in self._runs:
            importlib.import_module(f"repro.experiments.{DRIVERS[experiment_id]}")
        return self._runs[experiment_id]

    def __contains__(self, experiment_id: object) -> bool:
        return experiment_id in DRIVERS

    def __iter__(self) -> Iterator[str]:
        return iter(DRIVERS)

    def __len__(self) -> int:
        return len(DRIVERS)


#: experiment id -> run callable.
registry = _Registry()


def register(experiment_id: str):
    """Decorator registering a driver's run() under an experiment id.

    The id must be in :data:`DRIVERS`, and only the module the table
    names may register it.
    """
    if experiment_id not in DRIVERS:
        raise ConfigurationError(
            f"experiment id {experiment_id!r} has no entry in DRIVERS"
        )
    module = f"repro.experiments.{DRIVERS[experiment_id]}"

    def deco(func: Callable[..., ExperimentResult]):
        if func.__module__ != module:
            raise ConfigurationError(
                f"experiment id {experiment_id!r} belongs to {module}, "
                f"not {func.__module__}"
            )
        if experiment_id in registry._runs:
            raise ConfigurationError(f"duplicate experiment id {experiment_id}")
        registry._runs[experiment_id] = func
        return func

    return deco


def run_experiment(
    experiment_id: str,
    fast: bool = True,
    manifest_out=None,
) -> ExperimentResult:
    """Run one experiment by id.

    The run executes inside an ``experiment.<id>`` trace span; the
    metric delta it produced (solve counts, cache hits, IR summaries --
    including work merged back from worker processes) lands in a
    :class:`~repro.obs.manifest.RunManifest` attached to the result.
    ``manifest_out`` additionally writes the manifest to that path.
    The first call for an id imports its driver module inside the span.
    """
    if experiment_id not in registry:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: "
            f"{sorted(registry)}"
        )
    # Local imports keep ``repro.experiments`` importable without pulling
    # the observability stack into every driver module's import chain.
    from repro.obs import metrics as _metrics
    from repro.obs.manifest import build_manifest
    from repro.obs.trace import span

    before = _metrics.snapshot()
    with span(f"experiment.{experiment_id}", fast=fast) as sp:
        result = registry[experiment_id](fast=fast)
    result.manifest = build_manifest(
        experiment_id=experiment_id,
        title=result.title,
        config={"experiment": experiment_id, "fast": fast},
        duration_s=sp.duration,
        metrics_snapshot=_metrics.diff(before, _metrics.snapshot()),
    )
    if manifest_out is not None:
        result.manifest.write(manifest_out)
    return result
