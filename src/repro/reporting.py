"""Render experiment results as markdown reports.

Turns :class:`repro.experiments.ExperimentResult` objects (or a directory
of archived bench tables) into a single markdown document -- the
machinery behind ``scripts/generate_report.py``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Sequence

from repro.experiments.base import ExperimentResult, Row


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "--"
        if value == float("inf"):
            return "inf"
        return f"{value:.2f}"
    return str(value)


def row_to_markdown(row: Row, metric_keys: Sequence[str]) -> str:
    """One markdown table row: label, then paper/model cell per metric."""
    cells = [row.label]
    for key in metric_keys:
        paper = row.paper.get(key)
        model = row.model.get(key)
        if paper is None and model is None:
            cells.append("")
        elif paper is None:
            cells.append(_fmt(model))
        else:
            text = f"{_fmt(paper)} -> {_fmt(model)}"
            dev = row.deviation_percent(key)
            if dev is not None:
                text += f" ({dev:+.1f}%)"
            cells.append(text)
    return "| " + " | ".join(cells) + " |"


def result_to_markdown(result: ExperimentResult) -> str:
    """One experiment as a markdown section with a table."""
    metric_keys: List[str] = []
    for row in result.rows:
        for key in list(row.paper) + list(row.model):
            if key not in metric_keys:
                metric_keys.append(key)
    lines = [f"## {result.experiment_id} — {result.title}", ""]
    header = ["case"] + metric_keys
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for row in result.rows:
        lines.append(row_to_markdown(row, metric_keys))
    if result.notes:
        lines.append("")
        for note in result.notes:
            lines.append(f"*{note}*")
    return "\n".join(lines)


def manifest_to_markdown(manifest) -> str:
    """Render a run manifest as a markdown provenance section.

    Accepts a :class:`repro.obs.manifest.RunManifest` or its dict form;
    surfaces the fields a reader needs to trust (or re-run) the numbers:
    git revision, configuration hash, RNG seeds, worker count, duration.
    """
    data = manifest.to_dict() if hasattr(manifest, "to_dict") else dict(manifest)
    git = data.get("git", {})
    sha = str(git.get("sha", "unknown"))
    if git.get("dirty"):
        sha += " (dirty)"
    seeds = data.get("seeds", {})
    rows = [
        ("git sha", sha),
        ("config hash", str(data.get("config_hash") or "--")),
        (
            "seeds",
            ", ".join(f"{k}={v}" for k, v in sorted(seeds.items())) or "--",
        ),
        ("workers", str(data.get("workers", 1))),
        ("duration", f"{float(data.get('duration_s', 0.0)):.2f} s"),
        ("created", str(data.get("created") or "--")),
    ]
    lines = ["## Provenance", "", "| field | value |", "|---|---|"]
    for name, value in rows:
        lines.append(f"| {name} | {value} |")
    return "\n".join(lines)


def results_to_markdown(
    results: Iterable[ExperimentResult],
    title: str = "Reproduction report",
    manifest=None,
) -> str:
    """A full markdown report from several experiment results.

    When ``manifest`` is given (or any result carries one from
    :func:`repro.experiments.run_experiment`), a provenance section is
    appended so the report records which revision produced it.
    """
    sections = [f"# {title}", ""]
    for result in results:
        sections.append(result_to_markdown(result))
        sections.append("")
        if manifest is None and result.manifest is not None:
            manifest = result.manifest
    if manifest is not None:
        sections.append(manifest_to_markdown(manifest))
        sections.append("")
    return "\n".join(sections)


def archived_tables_to_markdown(
    results_dir: Path, title: str = "Archived bench tables"
) -> str:
    """Bundle the plain-text tables archived by the bench harness.

    The bench harness writes ``benchmarks/results/<id>.txt``; this wraps
    them in fenced blocks so the archive reads as one document without
    re-running anything.
    """
    results_dir = Path(results_dir)
    lines = [f"# {title}", ""]
    for path in sorted(results_dir.glob("*.txt")):
        lines.append(f"## {path.stem}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)
