"""Before/after benchmark of the design-space evaluation engine.

Measures the off-chip DDR3 design-space sample three ways:

* **seed** -- the seed's serial path: one stack rebuilt per design point,
  single-RHS solves, all perf caches disabled;
* **serial-opt** -- the optimized engine on one worker (power-map cache,
  vectorized assembly);
* **parallel-opt** -- the optimized engine fanned over processes
  (``REPRO_BENCH_WORKERS``, default 4).

It also times the controller LUT build and records how far its
superposed entries sit from whole-state solves (at most 1e-12
relative).  Per-sample IR values from every path must agree within
1e-9 mV -- the engine trades no accuracy for speed.  Results land in
``benchmarks/results/perf_sampling.json`` so speedups are tracked across
PRs; the machine's CPU count is recorded because process fan-out can
only help where cores exist.

Run directly (``python benchmarks/bench_perf_sampling.py``) or under
pytest (``pytest benchmarks/bench_perf_sampling.py -s``).  Set
``REPRO_BENCH_SMOKE=1`` for a reduced sweep (CI artifact mode) and
``REPRO_BENCH_STRICT=1`` to additionally assert the >= 3x speedup target
(meaningful only on a multi-core machine).

Direct runs accept the observability output flags (``--trace-out``,
``--metrics-out``, ``--manifest-out``) so CI archives a span trace,
metric snapshot, and provenance manifest next to the timing numbers.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from repro.bench import register_bench

RESULTS_DIR = Path(__file__).parent / "results"


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"


def _bench_workers() -> int:
    """Fan-out width for the parallel leg (``REPRO_BENCH_WORKERS``).

    Any explicit value >= 1 is respected -- single-worker CI runs are
    legitimate -- falling back to 4 only when the variable is missing,
    unparsable, or nonsensical (< 1).
    """
    try:
        workers = int(os.environ.get("REPRO_BENCH_WORKERS", "4"))
    except ValueError:
        return 4
    return workers if workers >= 1 else 4


def run_benchmark() -> dict:
    from repro.controller import IRDropLUT
    from repro.designs import off_chip_ddr3
    from repro.pdn.stackup import build_stack
    from repro.perf.cache import clear_caches
    from repro.perf.timers import reset_timers
    from repro.power.state import MemoryState
    from repro.regress.model import (
        config_from_parts,
        continuous_sample_grid,
        sample_design_space,
        valid_discrete_combos,
    )

    bench = off_chip_ddr3()
    if _smoke():
        combos = valid_discrete_combos(bench)[:4]
        grid_kwargs = dict(m2_points=2, m3_points=2, tc_points=1)
    else:
        combos = valid_discrete_combos(bench)
        grid_kwargs = dict(m2_points=3, m3_points=3, tc_points=2)
    grid = continuous_sample_grid(bench, **grid_kwargs)
    state = bench.reference_state()
    reset_timers()

    # --- seed serial path: rebuild per point, single RHS, no caches -------
    # Every point starts from empty caches, so nothing is memoized
    # across points.
    t0 = time.perf_counter()
    seed_values = []
    for key in combos:
        for m2, m3, tc in grid:
            clear_caches()
            config = config_from_parts(bench, key, m2, m3, tc)
            stack = build_stack(bench.stack, config)
            seed_values.append(stack.dram_max_mv(state))
    seed_s = time.perf_counter() - t0

    # --- optimized engine, serial ------------------------------------------
    clear_caches()
    t0 = time.perf_counter()
    serial = sample_design_space(bench, combos=combos, workers=1, **grid_kwargs)
    serial_s = time.perf_counter() - t0

    # --- optimized engine, process fan-out ---------------------------------
    workers = _bench_workers()
    clear_caches()
    t0 = time.perf_counter()
    parallel = sample_design_space(
        bench, combos=combos, workers=workers, **grid_kwargs
    )
    parallel_s = time.perf_counter() - t0

    # --- accuracy: every path must agree to 1e-9 mV -------------------------
    num = len(seed_values)
    assert len(serial) == len(parallel) == num
    max_dev = max(
        max(abs(sv - s.ir_mv), abs(sv - p.ir_mv))
        for sv, s, p in zip(seed_values, serial, parallel)
    )
    assert max_dev <= 1e-9, f"IR values diverged by {max_dev} mV"

    # --- LUT build, and its superposed entries vs whole-state solves -------
    lut_stack = build_stack(bench.stack, bench.baseline)
    _ = lut_stack.solver  # factorize outside the timed region
    t0 = time.perf_counter()
    lut = IRDropLUT(lut_stack)
    lut_build_s = time.perf_counter() - t0
    floorplan = bench.stack.dram_floorplan
    lut_rel_err = max(
        abs(value - lut_stack.dram_max_mv(MemoryState.from_counts(counts, floorplan)))
        / value
        for counts, value in lut.as_dict().items()
        if any(counts)
    )
    assert lut_rel_err <= 1e-12, f"LUT entries diverged by {lut_rel_err} rel"

    result = {
        "benchmark": "ddr3_off design-space sample",
        "smoke": _smoke(),
        "num_samples": num,
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "seed_serial_s": round(seed_s, 3),
        "optimized_serial_s": round(serial_s, 3),
        "optimized_parallel_s": round(parallel_s, 3),
        "speedup_serial": round(seed_s / serial_s, 3),
        "speedup_parallel": round(seed_s / parallel_s, 3),
        "solves_per_sec_seed": round(num / seed_s, 2),
        "solves_per_sec_optimized": round(num / min(serial_s, parallel_s), 2),
        "max_ir_deviation_mv": max_dev,
        "lut_build_s": round(lut_build_s, 3),
        "lut_superposed_max_rel_err": lut_rel_err,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "perf_sampling.json").write_text(
        json.dumps(result, indent=2) + "\n"
    )
    return result


@register_bench("perf_sampling", heavy=True)
def test_perf_sampling_speedup():
    """Record the perf artifact; assert accuracy always, speedup if strict."""
    result = run_benchmark()
    print("\n" + json.dumps(result, indent=2))
    assert result["max_ir_deviation_mv"] <= 1e-9
    # The engine must not be slower than the seed path it replaces (with
    # a noise margin: smoke sweeps are sub-second and timing-jittery).
    assert result["speedup_serial"] >= 0.75
    if os.environ.get("REPRO_BENCH_STRICT", "0") == "1":
        assert result["speedup_parallel"] >= 3.0


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="design-space sampling benchmark (see module docstring)"
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write the benchmark's span tree as Chrome trace-event JSON",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics + timers snapshot as JSON",
    )
    parser.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help="write a run provenance manifest",
    )
    args = parser.parse_args(argv)

    from repro.obs.manifest import build_manifest
    from repro.obs.metrics import write_metrics
    from repro.obs.trace import span, write_chrome_trace

    with span("bench.perf_sampling", smoke=_smoke()) as sp:
        result = run_benchmark()
    print(json.dumps(result, indent=2))
    if args.trace_out:
        write_chrome_trace(args.trace_out)
    if args.metrics_out:
        write_metrics(args.metrics_out)
    if args.manifest_out:
        build_manifest(
            experiment_id="bench_perf_sampling",
            title="design-space sampling benchmark",
            config={"smoke": _smoke(), "workers": _bench_workers()},
            duration_s=sp.duration,
            extra={"results": result},
        ).write(args.manifest_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
