"""Resilience gate: faults must never change the physics.

Three legs over the fault-injection harness of :mod:`repro.resil`
(spec grammar in ``docs/robustness.md``), all driving the fig5
TSV-count sweep because it exercises the full pipeline -- plan,
assembly, checkpointed solve -- per point:

* **baseline** -- fault-free fig5; its rows are the bitwise reference
  for every other leg.
* **chaos** -- the same sweep under ``worker_crash:p=0.3:seed=1`` plus
  ``transient:p=0.2:seed=2``.  Every injected fault must be retried
  away: the run completes, at least one retry fires, and every row is
  *bitwise* identical to the baseline (retries recompute deterministic
  work, they do not perturb it).
* **resume** -- fig5 journaled to a scratch checkpoint, then "killed"
  (caches + process-global checkpoint dropped) and re-run: the second
  pass must re-solve **zero** points (``solver.rhs_solved`` delta of
  exactly 0) while reproducing the first pass bitwise from the journal.

Numbers land in the ``bench.resilience.*`` gauges and a JSON artifact
under ``benchmarks/results/``.  Run directly
(``python benchmarks/bench_resilience.py``) or under pytest; the legs
use the fast fig5 sweep either way, so smoke and full mode coincide.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.bench import register_bench

RESULTS_DIR = Path(__file__).parent / "results"

#: Fault spec for the chaos leg: crash ~30% of task attempts and throw
#: transient exceptions into ~20% on an independent stream.
CHAOS_SPEC = "worker_crash:p=0.3:seed=1,transient:p=0.2:seed=2"

#: Env keys the legs mutate; saved/restored around the whole bench so a
#: suite run (repro3d bench) does not leak chaos into later benches.
_MUTATED_ENV = (
    "REPRO_FAULT_SPEC",
    "REPRO_CHECKPOINT",
    "REPRO_RETRY_MAX",
    "REPRO_RETRY_DELAY",
)


def _rows(result):
    """Rows as comparable (label, model-values) pairs; floats stay raw
    so ``==`` is a bitwise check."""
    return [(row.label, dict(row.model)) for row in result.rows]


def _fresh_run(experiment_id: str):
    """Run one experiment from cold caches and return (rows, manifest)."""
    from repro.experiments import run_experiment
    from repro.perf.cache import clear_caches

    clear_caches()
    result = run_experiment(experiment_id, fast=True)
    return _rows(result), result.manifest


def _counter(name: str) -> int:
    from repro.obs import metrics as _metrics

    return _metrics.registry.get_counter(name)


def _bench_chaos_bitwise() -> dict:
    """Legs 1+2: fault-free baseline, then crash/transient chaos."""
    baseline_rows, _ = _fresh_run("fig5")

    os.environ["REPRO_FAULT_SPEC"] = CHAOS_SPEC
    os.environ["REPRO_RETRY_MAX"] = "6"
    os.environ["REPRO_RETRY_DELAY"] = "0.001"
    retries0 = _counter("resil.retries")
    faults0 = _counter("resil.faults_injected")
    try:
        chaos_rows, manifest = _fresh_run("fig5")
    finally:
        del os.environ["REPRO_FAULT_SPEC"]
    retries = _counter("resil.retries") - retries0
    faults = _counter("resil.faults_injected") - faults0

    assert faults > 0, f"fault plan {CHAOS_SPEC!r} never fired"
    assert retries > 0, "chaos run completed without a single retry"
    assert chaos_rows == baseline_rows, (
        "rows diverged under fault injection (retried work must be "
        "bitwise deterministic):\n"
        f"  baseline: {baseline_rows}\n  chaos:    {chaos_rows}"
    )
    assert manifest.metrics.get("counters", {}).get("resil.retries"), (
        "manifest lost the retry telemetry"
    )
    return {
        "spec": CHAOS_SPEC,
        "rows": len(baseline_rows),
        "faults_injected": faults,
        "retries": retries,
        "bitwise_identical": True,
    }


def _bench_resume(ckpt_path: Path) -> dict:
    """Leg 3: kill + resume re-solves zero completed points."""
    from repro.perf.cache import clear_caches
    from repro.resil.checkpoint import reset_default_checkpoint

    if ckpt_path.exists():
        ckpt_path.unlink()
    os.environ["REPRO_CHECKPOINT"] = str(ckpt_path)
    reset_default_checkpoint()
    try:
        first_rows, _ = _fresh_run("fig5")
        solved_first = _counter("solver.rhs_solved")

        # "Kill" the run: drop every in-process cache and the global
        # checkpoint handle; only the journal file survives.
        clear_caches()
        reset_default_checkpoint()
        before = _counter("solver.rhs_solved")
        second_rows, manifest = _fresh_run("fig5")
        resolves = _counter("solver.rhs_solved") - before
    finally:
        del os.environ["REPRO_CHECKPOINT"]
        reset_default_checkpoint()

    assert second_rows == first_rows, "resumed rows differ from the run"
    assert resolves == 0, (
        f"resume re-solved {resolves} RHS despite a complete checkpoint"
    )
    resume = (manifest.extra or {}).get("resume", {})
    assert resume.get("misses", 1) == 0, resume
    assert resume.get("hits", 0) > 0, resume
    return {
        "checkpoint": ckpt_path.name,
        "first_run_rhs_solved": solved_first,
        "resume_rhs_solved": resolves,
        "checkpoint_hits": resume.get("hits"),
        "journal_entries": resume.get("entries"),
    }


def run_benchmark() -> dict:
    from repro.obs import metrics as _metrics
    from repro.perf.cache import clear_caches

    saved = {k: os.environ.get(k) for k in _MUTATED_ENV}
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    try:
        chaos = _bench_chaos_bitwise()
        resume = _bench_resume(RESULTS_DIR / "resilience_resume.ckpt.jsonl")
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        clear_caches()

    _metrics.set_gauge("bench.resilience.retries", chaos["retries"])
    _metrics.set_gauge(
        "bench.resilience.resume_rhs_solved", resume["resume_rhs_solved"]
    )
    result = {
        "benchmark": "resilience: chaos bitwise, checkpoint resume",
        "chaos": chaos,
        "resume": resume,
    }
    (RESULTS_DIR / "resilience.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return result


@register_bench("resilience")
def test_resilience_gate():
    """Faults retried away bitwise; resume solves 0."""
    result = run_benchmark()
    print("\n" + json.dumps(result, indent=2))
    assert result["chaos"]["bitwise_identical"]
    assert result["resume"]["resume_rhs_solved"] == 0


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
