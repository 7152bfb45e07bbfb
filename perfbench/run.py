"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dse_table9 --seed 1 --seconds 20 --trace 0

The parent makes the workload's input file, if it has one, at set-up.
Each iteration runs the workload's whole command once on that file in a
fresh child interpreter, so every iteration is as cold as a CLI
invocation and its peak RSS holds no input generation.  Children run one
after another until the next would end after ``--seconds``.
``--trace 0`` reports the end-to-end metrics of plain iterations;
``--trace 1`` alternates plain and traced iterations and reports the
per-layer metrics of the traced ones.  Every iteration's outputs are
checked against ``references.json``.  The last line of standard output
is the result object; progress, failed checks and the traced self-time
breakdown go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKDIR = BENCH_DIR / ".work"
SPEC = ROOT / "BENCHMARK.json"
#: set-up repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: longest one child iteration may take, seconds (a run must end within 180 s).
ITERATION_TIMEOUT = 150


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one iteration on the set-up's input file and print its
    # record (the child side).
    parser.add_argument("--iteration", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--input", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program() -> None:
    """Import the checkout's ``src/repro``, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'repro'}")
    # The program runs with its defaults: no REPRO_* settings.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {SRC}")


def cold_start() -> None:
    """Drop the process-global state a fresh CLI invocation would not have."""
    from repro.obs.metrics import reset_metrics
    from repro.obs.trace import reset_trace
    from repro.perf.cache import clear_caches
    from repro.perf.timers import reset_timers

    clear_caches()
    reset_metrics()
    reset_trace()
    reset_timers()
    gc.collect()


def remove_inputs() -> None:
    """Delete this process's input files, and the work directory if empty."""
    for leftover in WORKDIR.glob(f"*_{os.getpid()}.*"):
        leftover.unlink()
    if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
        WORKDIR.rmdir()


def run_iteration(workload: Any, path: Optional[Path], traced: bool) -> Dict[str, Any]:
    """Run one iteration on input file ``path``; return its JSON-ready record."""
    from repro.obs.metrics import get_counter
    from repro.perf.cache import cache_stats

    from perfbench.tracing import Tracer, layer_metrics, self_time_breakdown

    cold_start()
    before = cache_stats()
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        outcome = workload.run(path)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    record: Dict[str, Any] = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outcome.outputs,
        "requests": outcome.requests,
        "design_points": outcome.design_points,
        "traced": traced,
    }
    if tracer is not None:
        after = cache_stats()
        delta = {
            name: {k: after[name][k] - before[name][k] for k in ("hits", "misses")}
            for name in after
        }
        assemble_counts = {
            "reused": get_counter("assemble.layers_reused"),
            "built": get_counter("assemble.layers_built"),
        }
        record["layers"] = layer_metrics(
            tracer, wall, outcome.sim_cycles, outcome.sim_requests, delta, assemble_counts
        )
        record["calls"] = dict(tracer.calls)
        record["breakdown"] = self_time_breakdown(tracer, wall)
    return record


def _child(args: argparse.Namespace, path: Optional[Path], traced: bool) -> Dict[str, Any]:
    """One iteration in a fresh interpreter, reading the input at ``path``."""
    proc = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", "0",
            "--trace", str(int(traced)),
            "--iteration",
        ]
        + (["--input", str(path)] if path is not None else []),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=ITERATION_TIMEOUT,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: iteration exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    print(
        f"{args.workload}: {'traced' if traced else 'plain'} iteration {record['wall_s']:.3f} s",
        file=sys.stderr,
    )
    return record


def _import_cli() -> None:
    """Import the program's CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        cwd=ROOT,
        env=env,
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )


def _setup(workload: Any, seed: int) -> Tuple[float, Optional[Path]]:
    """Median set-up time (a cold import of the CLI plus input generation)
    and the input file the iterations read, if the workload has one."""
    WORKDIR.mkdir(exist_ok=True)
    times: List[float] = []
    path = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _import_cli()
        path = workload.setup(seed, WORKDIR)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), path


def _measure(args: argparse.Namespace, path: Optional[Path]) -> List[Dict[str, Any]]:
    """Iterate until the next iteration would end after ``--seconds``.

    With tracing, plain and traced iterations alternate, plain first,
    and at least one of each runs.
    """
    minimum = 2 if args.trace else 1
    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        records.append(_child(args, path, traced=bool(args.trace) and len(records) % 2 == 1))
        last = time.perf_counter() - t0
        if len(records) >= minimum and time.perf_counter() - start + last > args.seconds:
            return records


def _check(workload: Any, seed: int, records: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    """Outputs vs the references; traced vs plain outputs; span coverage."""
    from perfbench.checks import compare, load_references

    attempted, failed, messages = 0, 0, []

    def tally(result: Tuple[int, int, List[str]], label: str) -> None:
        nonlocal attempted, failed
        attempted += result[0]
        failed += result[1]
        messages.extend(f"{label}: {m}" for m in result[2])

    key = workload.reference_key(seed)
    reference = load_references().get(workload.name, {}).get(key)
    plain = [r for r in records if not r["traced"]]
    for n, record in enumerate(records):
        if reference is None:
            tally((1, 1, [f"no reference for key {key!r}"]), workload.name)
        else:
            tally(compare(record["outputs"], reference), f"iteration {n}")
        if record["traced"]:
            tally(compare(record["outputs"], plain[0]["outputs"], rel_tol=0.0), "traced vs plain")
            for span in workload.required_spans:
                ok = record["calls"].get(span, 0) >= 1
                tally((1, 0 if ok else 1, [] if ok else [f"span {span} recorded no call"]), "trace")
    return attempted, failed, messages


def _end_to_end(setup_s: float, records: List[Dict[str, Any]]) -> Dict[str, float]:
    plain = [r for r in records if not r["traced"]]

    def median(key: Any) -> float:
        return statistics.median(key(r) for r in plain)

    return {
        "setup_s": setup_s,
        "wall_s": median(lambda r: r["wall_s"]),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "design_points_per_s": median(lambda r: r["design_points"] / r["wall_s"]),
        "requests_per_s": median(lambda r: r["requests"] / r["wall_s"]),
    }


def _per_layer(records: List[Dict[str, Any]]) -> Dict[str, float]:
    traced = [r for r in records if r["traced"]]
    plain_wall = statistics.median(r["wall_s"] for r in records if not r["traced"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]
    }
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    last = traced[-1]
    print(f"self time of the last traced iteration ({last['wall_s']:.3f} s):", file=sys.stderr)
    for name, self_s, calls in last["breakdown"]:
        share = 100.0 * self_s / last["wall_s"]
        print(f"  {name:28s} {self_s:9.3f} s {share:5.1f}%  {calls:7d} calls", file=sys.stderr)
    return metrics


def _with_units(metrics: Dict[str, float], declared: List[Dict[str, str]]) -> Dict[str, Any]:
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(
            f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    return {name: {"value": float(metrics[name]), "unit": units[name]} for name in sorted(units)}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    spec = json.loads(SPEC.read_text())
    load_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    if args.iteration:
        print(json.dumps(run_iteration(workload, args.input, bool(args.trace))))
        return 0
    try:
        setup_s, path = _setup(workload, args.seed)
        records = _measure(args, path)
    finally:
        remove_inputs()
    attempted, failed, messages = _check(workload, args.seed, records)
    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        metrics = _with_units(_per_layer(records), spec["per_layer"])
    else:
        metrics = _with_units(_end_to_end(setup_s, records), spec["end_to_end"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
