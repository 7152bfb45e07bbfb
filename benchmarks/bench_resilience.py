"""Resilience gate: pool worker crashes must never change the physics.

One pooled leg over the fault-injection harness of :mod:`repro.resil`
(spec grammar in ``docs/robustness.md``).  It drives the design-space
sampler, the only fan-out over a process pool and the cost that
dominates Table 9 and fig9 -- plan, assembly, factorization and solve
per point, six combos x 8 grid points on two workers:

* **baseline** -- the fault-free sample; its IR values are the bitwise
  reference.
* **chaos** -- the same sample under ``worker_crash:p=0.3:seed=1``:
  pool workers die like OOM-killed processes, the pool is rebuilt (or
  the rest finishes serially), and every ``ir_mv`` must be *bitwise*
  identical to the baseline (re-queued work recomputes deterministic
  work, it does not perturb it).  At least one pool rebuild must occur.

The bench registers as ``resilience_pool``.

Numbers land in the ``bench.resilience.*`` gauges and a JSON artifact
under ``benchmarks/results/``.  Run directly
(``python benchmarks/bench_resilience.py``) or under pytest; smoke and
full mode coincide.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.bench import register_bench

RESULTS_DIR = Path(__file__).parent / "results"

#: Fault spec for the chaos leg: crash ~30% of task submissions.
CHAOS_SPEC = "worker_crash:p=0.3:seed=1"


def _sample():
    """IR values of the pooled sample, from cold caches, and its wall time."""
    from repro.designs import off_chip_ddr3
    from repro.perf.cache import clear_caches
    from repro.regress.model import sample_design_space, valid_discrete_combos

    clear_caches()
    bench = off_chip_ddr3()
    t0 = time.perf_counter()
    samples = sample_design_space(
        bench,
        m2_points=2,
        m3_points=2,
        tc_points=2,
        combos=valid_discrete_combos(bench)[:6],
        workers=2,
    )
    return [s.ir_mv for s in samples], time.perf_counter() - t0


def _counter(name: str) -> int:
    from repro.obs import metrics as _metrics

    return _metrics.registry.get_counter(name)


def run_benchmark() -> dict:
    from repro.obs import metrics as _metrics
    from repro.perf.cache import clear_caches

    saved = os.environ.get("REPRO_FAULT_SPEC")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    try:
        baseline, baseline_s = _sample()
        os.environ["REPRO_FAULT_SPEC"] = CHAOS_SPEC
        rebuilds0 = _counter("resil.pool_rebuilds")
        fallbacks0 = _counter("resil.serial_fallbacks")
        chaos, chaos_s = _sample()
        rebuilds = _counter("resil.pool_rebuilds") - rebuilds0
        fallbacks = _counter("resil.serial_fallbacks") - fallbacks0
    finally:
        if saved is None:
            os.environ.pop("REPRO_FAULT_SPEC", None)
        else:
            os.environ["REPRO_FAULT_SPEC"] = saved
        clear_caches()

    assert rebuilds > 0, f"fault plan {CHAOS_SPEC!r} never broke the pool"
    assert chaos == baseline, (
        "ir_mv diverged under worker crashes (re-queued work must be "
        "bitwise deterministic)"
    )
    _metrics.set_gauge("bench.resilience.pool_rebuilds", rebuilds)
    result = {
        "benchmark": "resilience: pooled sampling bitwise under worker crashes",
        "spec": CHAOS_SPEC,
        "samples": len(baseline),
        "pool_rebuilds": rebuilds,
        "serial_fallbacks": fallbacks,
        "bitwise_identical": True,
        "baseline_s": round(baseline_s, 3),
        "chaos_s": round(chaos_s, 3),
    }
    (RESULTS_DIR / "resilience.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return result


@register_bench("resilience_pool")
def test_resilience_gate():
    """Worker crashes rebuilt away, samples bitwise."""
    result = run_benchmark()
    print("\n" + json.dumps(result, indent=2))
    assert result["bitwise_identical"]
    assert result["pool_rebuilds"] > 0


if __name__ == "__main__":
    print(json.dumps(run_benchmark(), indent=2))
