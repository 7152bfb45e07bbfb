"""Command-line interface: run paper experiments from the shell.

Examples::

    repro3d list                  # available experiments
    repro3d run table6            # one experiment (fast variant)
    repro3d run table9 --full     # full (slow) variant
    repro3d all                   # every experiment, fast variants
    repro3d solve ddr3_off 0-0-0-2 --f2f   # ad-hoc IR solve
    repro3d explain ddr3_off      # attribute the worst drop to its path
    repro3d explain --diff last~1 last     # attribution drift, stored runs
    repro3d bench --smoke         # telemetry suite + regression check
    repro3d bench --update-baseline        # bless intentional changes

Observability flags (global, any command)::

    --log-level debug             # surface library diagnostics
    --log-json run.jsonl          # JSON-lines structured log sink
    --quiet                       # errors only on stdout
    --trace-out trace.json        # Chrome trace-event span tree
    --metrics-out metrics.json    # counters/gauges/histograms + timers
    --manifest-out manifest.json  # run provenance receipt

All output goes through the ``repro`` logger hierarchy; at the default
``info`` level stdout is byte-identical to the historical ``print``
output, so scripts that parse it keep working.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.obs.log import configure, get_logger
from repro.obs.manifest import build_manifest
from repro.obs.metrics import write_metrics
from repro.obs.profile import PROFILE_ENV
from repro.obs.store import IR_DRIFT_MV, PERF_REL_TOL
from repro.obs.trace import span, write_chrome_trace
from repro.perf.parallel import WORKERS_ENV

_log = get_logger("cli")

_LOG_LEVELS = ("debug", "info", "warning", "error")


def _manifest_path(args: argparse.Namespace) -> Optional[Path]:
    """Where this invocation's manifest goes, if anywhere.

    ``--manifest-out`` wins; otherwise asking for metrics or a trace
    implies provenance, so the manifest lands next to that artifact.
    """
    if args.manifest_out:
        return Path(args.manifest_out)
    for candidate in (args.metrics_out, args.trace_out):
        if candidate:
            return Path(candidate).with_suffix(".manifest.json")
    return None


def _cmd_list(_: argparse.Namespace) -> int:
    from repro.designs import all_benchmarks
    from repro.experiments import registry

    _log.info("available experiments:")
    for exp_id in sorted(registry):
        _log.info("  %s", exp_id)
    _log.info("\nbenchmarks: %s", ", ".join(sorted(all_benchmarks())))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment

    manifest_out = _manifest_path(args)
    result = run_experiment(
        args.experiment, fast=not args.full, manifest_out=manifest_out
    )
    if manifest_out is not None:
        args._manifest_written = True
    args._last_manifest = result.manifest
    _log.info("%s", result.fmt())
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.experiments import registry, run_experiment

    for exp_id in sorted(registry):
        result = run_experiment(exp_id, fast=not args.full)
        _log.info("%s\n", result.fmt())
    return 0


def _configured(benchmark_name: str, args: argparse.Namespace):
    """One benchmark and its baseline config with the CLI's
    ``--f2f`` / ``--wirebond`` / ``--tsv-count`` overrides applied
    (``solve`` has no ``--tsv-count``)."""
    from repro.designs import benchmark
    from repro.pdn.config import Bonding

    bench = benchmark(benchmark_name)
    config = bench.baseline
    if args.f2f:
        config = config.with_options(bonding=Bonding.F2F)
    if args.wirebond:
        config = config.with_options(wire_bond=True)
    tsv_count = getattr(args, "tsv_count", None)
    if tsv_count is not None:
        config = config.with_options(tsv_count=tsv_count)
    return bench, config


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.experiments.common import solve_design
    from repro.power.state import MemoryState

    bench, config = _configured(args.benchmark, args)
    state = (
        MemoryState.from_string(args.state, bench.stack.dram_floorplan)
        if args.state
        else bench.reference_state()
    )
    result = solve_design(bench, config, state)
    _log.info("%s [%s]", bench.title, config.label())
    _log.info("  %s", result)
    for die, mv in result.per_die_mv.items():
        _log.info("  %s: %.2f mV", die, mv)
    return 0


def _plan_for(benchmark_name: str, args: argparse.Namespace):
    """Plan one benchmark's stack with the CLI's config overrides."""
    from repro.pdn.stackup import plan_stack

    bench, config = _configured(benchmark_name, args)
    return bench, config, plan_stack(bench.stack, config)


def _cmd_plan(args: argparse.Namespace) -> int:
    """Dump or diff declarative stack build plans (docs/architecture.md)."""
    from repro.pdn.plan import StackPlan

    bench, config, plan = _plan_for(args.benchmark, args)

    if args.diff:
        if Path(args.diff).is_file():
            other = StackPlan.from_json(Path(args.diff).read_text())
            other_label = args.diff
        else:
            _, _, other = _plan_for(args.diff, args)
            other_label = args.diff
        diff = plan.diff(other)
        _log.info(
            "%s (%s) vs %s:", args.benchmark, config.label(), other_label
        )
        _log.info("%s", diff.describe())
        return 0

    if args.out:
        Path(args.out).write_text(plan.to_json())
        _log.info("plan written: %s", args.out)
        return 0
    if args.json:
        _log.info("%s", plan.to_json().rstrip("\n"))
        return 0

    summary = plan.summary()
    _log.info("%s [%s]", bench.title, config.label())
    _log.info("  plan hash: %s", summary["plan_hash"])
    _log.info("  pitch: %.3f mm, %d DRAM dies", plan.pitch, plan.num_dram_dies)
    _log.info(
        "  %d ops, %d mesh nodes, %d layers",
        summary["num_ops"],
        summary["num_nodes"],
        len(plan.layer_keys()),
    )
    for kind, count in sorted(summary["ops"].items()):
        _log.info("    %-18s %d", kind, count)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Diagnose a solved design: recovered branch currents, KCL check,
    worst-node supply-path decomposition, per-plan-op attribution.

    ``--diff A B`` instead compares the worst-drop attribution of two
    stored runs (the physics axis of ``repro3d obs diff``).
    """
    import numpy as np

    from repro.obs.atomic import atomic_write_text

    if args.diff:
        from repro.obs.store import attribution_markdown, diff_runs

        store = _obs_store(args)
        delta = diff_runs(
            store.resolve(args.diff[0]), store.resolve(args.diff[1]), store
        )
        text = attribution_markdown(delta)
        _log.info("%s", text)
        if args.out:
            atomic_write_text(args.out, text + "\n")
        return 0

    if not args.benchmark:
        _log.error("explain needs a benchmark (or --diff RUN RUN)")
        return 2

    from repro.experiments.common import explain_design
    from repro.pdn.diagnose import validate_explain_dict
    from repro.power.state import MemoryState

    bench, config = _configured(args.benchmark, args)
    state = (
        MemoryState.from_string(args.state, bench.stack.dram_floorplan)
        if args.state
        else bench.reference_state()
    )
    diag = explain_design(bench, config, state)
    data = diag.to_dict()
    validate_explain_dict(data)

    if args.format == "json":
        text = diag.to_json().rstrip("\n")
    else:
        text = diag.markdown()
    _log.info("%s", text)
    if args.out:
        artifact = diag.to_json() if args.out.endswith(".json") else text + "\n"
        atomic_write_text(args.out, artifact)
        _log.info("explain artifact written: %s", args.out)
    if args.heatmaps:
        _log.info("\n%s", diag.raw.ascii_heatmap_stack())
    if args.heatmap_out:
        fields = {}
        for key in diag.raw.model.layer_keys:
            tag = key.replace("/", "__")
            fields[f"drop_mv__{tag}"] = diag.raw.layer_drops(key) * 1e3
            fields[f"dissipation_w__{tag}"] = diag.branches.layer_dissipation_map(key)
        np.savez_compressed(args.heatmap_out, **fields)
        _log.info(
            "heatmaps written: %s (%d layers x drop/dissipation)",
            args.heatmap_out,
            len(diag.raw.model.layer_keys),
        )
    return 0


_SIM_TIMINGS = ("ddr3", "wideio", "hmc")


def _sim_timing(name: str):
    from repro.dram.timing import TimingParams

    return {
        "ddr3": TimingParams.ddr3_1600,
        "wideio": TimingParams.wideio_200,
        "hmc": TimingParams.hmc_2500,
    }[name]()


def _cmd_sim(args: argparse.Namespace) -> int:
    """Run the event-driven controller on a memory trace.

    The trace streams through the engine (constant memory in trace
    length).
    """
    import time

    from repro.controller.engine import EventDrivenEngine, SimConfig
    from repro.controller.lut import IRDropLUT
    from repro.controller.policies import (
        IRAwareDistR,
        IRAwareFCFS,
        StandardJEDEC,
    )
    from repro.controller.request import TraceMapping, read_trace
    from repro.errors import ConfigurationError, RequestRangeError, TraceError
    from repro.power.model import (
        DDR3_POWER,
        HMC_POWER,
        WIDEIO_POWER,
        CommandEnergySpec,
        energy_ledger,
    )

    timing = _sim_timing(args.timing)
    try:
        config = SimConfig(
            timing=timing,
            num_dies=args.dies,
            banks_per_die=args.banks_per_die,
            num_channels=args.channels,
            queue_depth=args.queue_depth,
            max_banks_per_die=args.max_banks_per_die,
            close_window=args.close_window,
            refresh_enabled=args.refresh,
        )
        mapping = TraceMapping(
            num_dies=args.dies, banks_per_die=args.banks_per_die
        )
    except ConfigurationError as exc:
        _log.error("%s", exc)
        return 2

    # Every bad input -- an unreadable or malformed LUT or trace, a
    # request outside the stack, an impossible constraint -- ends in one
    # error line and exit code 2.  A fault of the engine itself, such as
    # a stall, keeps its traceback.
    lut = None
    if args.lut:
        try:
            lut = IRDropLUT.from_json(Path(args.lut).read_text())
        except (OSError, ValueError, KeyError) as exc:
            _log.error("cannot load --lut %s: %s", args.lut, exc)
            return 2
    try:
        if args.policy == "standard":
            policy = StandardJEDEC(timing)
        else:
            if lut is None:
                _log.error(
                    "policy %s needs an IR-drop table: pass --lut FILE "
                    "(serialize one with IRDropLUT.to_json)",
                    args.policy,
                )
                return 2
            cls = IRAwareFCFS if args.policy == "ir_fcfs" else IRAwareDistR
            policy = cls(lut, constraint_mv=args.constraint)
        workload = read_trace(
            args.trace,
            fmt=args.format,
            mapping=mapping,
            arrival_interval=args.arrival_interval,
        )
        start = time.perf_counter()
        engine = EventDrivenEngine(config, policy, workload, lut)
        # The trace streams, so a missing file or a malformed line only
        # shows once the run reaches it.
        result = engine.run(max_cycles=args.max_cycles)
    except (ConfigurationError, RequestRangeError, TraceError) as exc:
        _log.error("%s", exc)
        return 2
    except OSError as exc:
        _log.error("cannot read --trace %s: %s", args.trace, exc)
        return 2
    wall_s = time.perf_counter() - start

    _log.info("trace: %s", args.trace)
    _log.info(
        "engine: event  policy: %s  timing: %s  %dch x %d banks/die x %d dies",
        result.policy_name,
        args.timing,
        args.channels,
        args.banks_per_die,
        args.dies,
    )
    _log.info(
        "  %d requests (%d RD / %d WR) in %d cycles (%.2f us)",
        result.completed,
        result.reads,
        result.writes,
        result.cycles,
        result.runtime_us,
    )
    _log.info(
        "  bandwidth %.3f reads/clk, mean latency %.1f cycles, "
        "mean queue %.1f",
        result.bandwidth_reads_per_clk,
        result.mean_latency_cycles,
        result.mean_queue_depth,
    )
    _log.info(
        "  commands: %s",
        "  ".join(f"{k}={v}" for k, v in result.commands.items()),
    )
    if result.max_ir_mv is not None:
        _log.info("  max IR drop: %.2f mV", result.max_ir_mv)
    if result.states_dropped:
        _log.info(
            "  state histogram overflow: %d cycles beyond the "
            "%d-state cap",
            result.states_dropped,
            config.max_tracked_states,
        )
    if not result.finished:
        _log.warning(
            "  hit --max-cycles=%d before draining the trace", args.max_cycles
        )
    if args.energy:
        power = {"ddr3": DDR3_POWER, "wideio": WIDEIO_POWER, "hmc": HMC_POWER}[
            args.timing
        ]
        spec = CommandEnergySpec.from_power(
            power, timing, banks_per_die=args.banks_per_die
        )
        report = energy_ledger(
            result.commands,
            result.state_occupancy,
            power,
            timing,
            num_dies=args.dies,
            banks_per_die=args.banks_per_die,
            states_dropped=result.states_dropped,
        )
        _log.info("  energy (command path): %.1f nJ", report.command_total_nj)
        _log.info(
            "  energy (occupancy path): %.1f nJ  (mismatch %.1f%%)",
            report.occupancy_nj,
            100.0 * report.mismatch_fraction,
        )
        _log.info(
            "  per-command charge: %s",
            "  ".join(
                f"{c}={spec.energy_nj(c):.2f}nJ"
                for c in ("ACT", "PRE", "RD", "WR", "REF")
            ),
        )
    _log.info(
        "  wall %.2f s  (%.0f requests/s)",
        wall_s,
        result.completed / wall_s if wall_s > 0 else float("inf"),
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Unified benchmark runner + regression gate (see docs/benchmarks.md).

    The gate is a view over :func:`repro.obs.store.diff_runs`: the
    baseline, the trajectory and this run are normalized like any
    stored bench record and diffed bench by bench.
    """
    from repro.bench import (
        baseline_path,
        default_record_path,
        discover,
        load_baseline,
        load_trajectory,
        run_suite,
        select,
    )
    from repro.bench.registry import benchmarks_dir
    from repro.obs.atomic import atomic_write_text
    from repro.obs.store import (
        delta_markdown,
        diff_runs,
        normalize_bench_record,
        show_markdown,
    )

    if args.list_benches:
        for spec in select(None, smoke=False, registry=discover()):
            _log.info(
                "  %-28s %s%s",
                spec.name,
                "heavy" if spec.heavy else "smoke",
                f"  [{spec.harness}]",
            )
        return 0

    record = run_suite(
        names=args.only or None,
        smoke=not args.full,
        repeats=args.repeats,
    )
    root = benchmarks_dir().parent
    out = Path(args.out) if args.out else default_record_path(record, root)
    record.write(out)
    args._bench_record = record
    args._bench_record_path = out
    current = normalize_bench_record(record.to_dict(), source=out)
    _log.info("%s", show_markdown(current))
    _log.info("suite record: %s", out)

    base_path = Path(args.baseline) if args.baseline else baseline_path(root)
    if args.update_baseline:
        record.write(base_path)
        _log.info("baseline updated: %s", base_path)
        return 0
    if args.no_compare:
        return 0

    baseline = load_baseline(base_path)
    if baseline is None:
        _log.info(
            "no baseline at %s -- every bench is new_benchmark; bless one "
            "with --update-baseline",
            base_path,
        )
        return 0
    # The trajectory lives next to the emitted record, so a redirected
    # --out (tests, scratch dirs) never picks up the repo-root history.
    history = [
        normalize_bench_record(r.to_dict())
        for r in load_trajectory(out.parent, exclude=(out,))
    ]
    delta = diff_runs(
        normalize_bench_record(baseline.to_dict(), source=base_path),
        current,
        history=history,
        perf_rel_tol=args.perf_tol,
        ir_abs_mv=args.ir_tol,
    )
    text = delta_markdown(delta)
    _log.info("\n%s", text)
    if args.delta_out:
        atomic_write_text(args.delta_out, text + "\n")
    if delta.regressed:
        _log.warning(
            "bench suite verdict: %s (drift: %s)", delta.verdict, delta.drift
        )
    return 1 if args.gate and delta.regressed else 0


def _obs_store(args: argparse.Namespace):
    """The run-history store an ``obs`` action operates on."""
    from repro.obs.store import RunHistoryStore

    return RunHistoryStore(args.store)


def _cmd_obs_ingest(args: argparse.Namespace) -> int:
    """Ingest manifests / BENCH records into the run-history store."""
    store = _obs_store(args)
    for path in args.paths:
        run_id = store.ingest_path(path)
        _log.info("ingested %s -> run %s", path, run_id)
    return 0


def _cmd_obs_list(args: argparse.Namespace) -> int:
    """List stored runs, newest last."""
    from repro.obs.store import list_markdown

    store = _obs_store(args)
    records = store.runs()
    if not records:
        _log.info("run history at %s is empty", store.index_path)
        return 0
    _log.info("%s", list_markdown(records))
    return 0


def _cmd_obs_show(args: argparse.Namespace) -> int:
    """Show one stored run in full."""
    from repro.obs.store import show_markdown

    store = _obs_store(args)
    _log.info("%s", show_markdown(store.resolve(args.run)))
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    """Diff two stored runs; attribute drift; optionally gate on it.

    Backs both ``obs diff`` and ``obs attribute`` -- attribution *is*
    the diff's verdict plus its evidence; the commands differ only in
    emphasis, so they share one implementation and output format.
    """
    from repro.obs.atomic import atomic_write_text
    from repro.obs.store import delta_markdown, diff_runs

    store = _obs_store(args)
    refs = args.runs or ["last~1", "last"]
    if len(refs) != 2:
        _log.error("expected exactly two run references, got %d", len(refs))
        return 2
    delta = diff_runs(store.resolve(refs[0]), store.resolve(refs[1]), store)
    text = delta_markdown(delta)
    _log.info("%s", text)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    if getattr(args, "gate", False) and delta.drift != "none":
        _log.warning("drift gate failed: %s", delta.drift)
        return 1
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    """Export a stored run as unified Chrome/Perfetto trace JSON."""
    import json as _json

    from repro.obs.atomic import atomic_write_text
    from repro.obs.store import export_chrome_trace

    store = _obs_store(args)
    doc = export_chrome_trace(store.resolve(args.run))
    atomic_write_text(args.out, _json.dumps(doc, default=str) + "\n")
    _log.info(
        "trace written: %s (%d events)", args.out, len(doc["traceEvents"])
    )
    return 0


def _workers_arg(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0 (0 means one per CPU), got {count}"
        )
    return count


def _experiment_ids() -> List[str]:
    from repro.experiments import registry

    return sorted(registry)


def _benchmark_names() -> List[str]:
    from repro.designs import all_benchmarks

    return sorted(all_benchmarks())


class _Parser(argparse.ArgumentParser):
    """An argument parser whose ``choices`` may be a zero-argument
    callable.  The callable runs the first time this parser parses, so
    building the CLI imports no experiment driver or design until a
    subcommand needs its names."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._deferred_choices: List[tuple] = []

    def add_argument(self, *args, **kwargs):
        choices = kwargs.get("choices")
        if not callable(choices):
            return super().add_argument(*args, **kwargs)
        del kwargs["choices"]
        action = super().add_argument(*args, **kwargs)
        self._deferred_choices.append((action, choices))
        return action

    def parse_known_args(self, args=None, namespace=None):
        # A subcommand's --help and usage errors are printed while it parses.
        for action, choices in self._deferred_choices:
            action.choices = choices()
        self._deferred_choices.clear()
        return super().parse_known_args(args, namespace)


#: Defaults for the global flags; applied after parsing because the
#: shared option group uses ``SUPPRESS`` (see :func:`_global_options`).
_GLOBAL_DEFAULTS = {
    "perf_report": False,
    "workers": None,
    "log_level": "info",
    "log_json": None,
    "quiet": False,
    "trace_out": None,
    "metrics_out": None,
    "manifest_out": None,
    "profile": False,
    "history": False,
}


def _global_options() -> argparse.ArgumentParser:
    """The shared flag group, usable before *or* after the subcommand.

    ``argument_default=SUPPRESS`` keeps the subparser copy from
    clobbering a value the main parser already set; :func:`main` fills
    in :data:`_GLOBAL_DEFAULTS` for anything never given.
    """
    common = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    common.add_argument(
        "--perf-report",
        action="store_true",
        help="print accumulated solver/assembly timers after the command",
    )
    common.add_argument(
        "--workers",
        type=_workers_arg,
        metavar="N",
        help="process count for design-space sweeps (default: the "
        f"{WORKERS_ENV} environment variable, else one per CPU; 1 is serial)",
    )
    common.add_argument(
        "--log-level",
        choices=_LOG_LEVELS,
        help="stdout/log verbosity (default: info)",
    )
    common.add_argument(
        "--log-json",
        metavar="PATH",
        help="also write structured JSON-lines log records to PATH",
    )
    common.add_argument(
        "--quiet",
        action="store_true",
        help="suppress normal stdout output (errors still print)",
    )
    common.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the run's span tree as Chrome trace-event JSON "
        "(load in chrome://tracing or Perfetto)",
    )
    common.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the metrics registry + timer snapshot as JSON",
    )
    common.add_argument(
        "--manifest-out",
        metavar="PATH",
        help="write a run provenance manifest (defaults to "
        "<metrics/trace path>.manifest.json when those flags are set)",
    )
    common.add_argument(
        "--profile",
        action="store_true",
        help="sample RSS/CPU/GC at every span end "
        f"(sets {PROFILE_ENV}=1 so worker processes profile too); samples "
        "land in the manifest and interleave with --trace-out as counter "
        "tracks",
    )
    common.add_argument(
        "--history",
        action="store_true",
        help="record this run in the run-history store when the command "
        "finishes (query it with `repro3d obs`)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro3d argument parser (exposed for tests/docs)."""
    common = _global_options()
    parser = _Parser(
        prog="repro3d",
        description="3D DRAM DC power-integrity co-optimization platform "
        "(DAC'15 reproduction)",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list experiments and benchmarks", parents=[common]
    ).set_defaults(func=_cmd_list)

    run_p = sub.add_parser("run", help="run one experiment", parents=[common])
    run_p.add_argument("experiment", choices=_experiment_ids)
    run_p.add_argument(
        "--full", action="store_true", help="full sweeps (slower)"
    )
    run_p.set_defaults(func=_cmd_run)

    all_p = sub.add_parser("all", help="run every experiment", parents=[common])
    all_p.add_argument("--full", action="store_true")
    all_p.set_defaults(func=_cmd_all)

    solve_p = sub.add_parser("solve", help="ad-hoc IR-drop solve", parents=[common])
    solve_p.add_argument("benchmark", choices=_benchmark_names)
    solve_p.add_argument(
        "state", nargs="?", help='memory state, e.g. "0-0-0-2" (default: '
        "the benchmark's reference state)"
    )
    solve_p.add_argument("--f2f", action="store_true", help="F2F bonding")
    solve_p.add_argument("--wirebond", action="store_true", help="add bond wires")
    solve_p.set_defaults(func=_cmd_solve)

    explain_p = sub.add_parser(
        "explain",
        help="diagnose a solved design: branch currents, worst-path "
        "decomposition, per-plan-op attribution",
        parents=[common],
    )
    explain_p.add_argument(
        "benchmark",
        nargs="?",
        choices=_benchmark_names,
        help="benchmark to explain (omit only with --diff)",
    )
    explain_p.add_argument(
        "state",
        nargs="?",
        help='memory state, e.g. "0-0-0-2" (default: the benchmark\'s '
        "reference state)",
    )
    explain_p.add_argument("--f2f", action="store_true", help="F2F bonding")
    explain_p.add_argument(
        "--wirebond", action="store_true", help="add bond wires"
    )
    explain_p.add_argument(
        "--tsv-count",
        type=int,
        default=None,
        metavar="N",
        help="override the baseline TSV count",
    )
    explain_p.add_argument(
        "--format",
        choices=("text", "markdown", "json"),
        default="text",
        help="report format on stdout (text and markdown render the same "
        "report; json prints the artifact)",
    )
    explain_p.add_argument(
        "--out",
        metavar="PATH",
        help="write the report to PATH (a .json suffix writes the JSON "
        "artifact regardless of --format)",
    )
    explain_p.add_argument(
        "--heatmaps",
        action="store_true",
        help="also print per-layer ascii drop heatmaps on one shared scale",
    )
    explain_p.add_argument(
        "--heatmap-out",
        metavar="PATH",
        help="export per-layer drop (mV) and dissipation (W) grids as a "
        "compressed .npz",
    )
    explain_p.add_argument(
        "--diff",
        nargs=2,
        metavar=("RUN_A", "RUN_B"),
        help="render the attribution drift between two stored runs "
        "(references as in `repro3d obs`: last, last~N, id prefix)",
    )
    explain_p.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="history store directory for --diff (default: "
        "benchmarks/results/history, or $REPRO_HISTORY_DIR)",
    )
    explain_p.set_defaults(func=_cmd_explain)

    plan_p = sub.add_parser(
        "plan",
        help="dump or diff a benchmark's declarative stack build plan",
        parents=[common],
    )
    plan_p.add_argument("benchmark", choices=_benchmark_names)
    plan_p.add_argument("--f2f", action="store_true", help="F2F bonding")
    plan_p.add_argument(
        "--wirebond", action="store_true", help="add bond wires"
    )
    plan_p.add_argument(
        "--tsv-count",
        type=int,
        default=None,
        metavar="N",
        help="override the baseline TSV count",
    )
    plan_p.add_argument(
        "--json",
        action="store_true",
        help="print the full plan JSON instead of the summary",
    )
    plan_p.add_argument(
        "--out", metavar="PATH", help="write the plan JSON to PATH"
    )
    plan_p.add_argument(
        "--diff",
        metavar="TARGET",
        help="diff against another benchmark's plan (same overrides) or a "
        "plan JSON file",
    )
    plan_p.set_defaults(func=_cmd_plan)

    sim_p = sub.add_parser(
        "sim",
        help="run the event-driven memory controller on a trace file",
        parents=[common],
    )
    sim_p.add_argument(
        "--trace",
        required=True,
        metavar="FILE",
        help="memory trace (ramulator '0xADDR R|W' lines or DRAMPower "
        "'cycle,command,die,bank,row' CSV)",
    )
    sim_p.add_argument(
        "--format",
        choices=("auto", "ramulator", "drampower"),
        default="auto",
        help="trace format (auto: .csv -> drampower, else ramulator)",
    )
    sim_p.add_argument(
        "--policy",
        choices=("standard", "ir_fcfs", "ir_distr"),
        default="standard",
        help="scheduling policy (IR-aware ones need --lut)",
    )
    sim_p.add_argument(
        "--lut",
        metavar="FILE",
        help="serialized IR-drop table (IRDropLUT.to_json) for the "
        "IR-aware policies",
    )
    sim_p.add_argument(
        "--constraint",
        type=float,
        default=30.0,
        metavar="MV",
        help="IR-drop constraint in mV for the IR-aware policies",
    )
    sim_p.add_argument(
        "--timing",
        choices=_SIM_TIMINGS,
        default="ddr3",
        help="timing preset (default ddr3 = DDR3-1600)",
    )
    sim_p.add_argument("--dies", type=int, default=4, metavar="N")
    sim_p.add_argument("--banks-per-die", type=int, default=8, metavar="N")
    sim_p.add_argument("--channels", type=int, default=1, metavar="N")
    sim_p.add_argument("--queue-depth", type=int, default=32, metavar="N")
    sim_p.add_argument(
        "--max-banks-per-die",
        type=int,
        default=2,
        metavar="N",
        help="interleave limit (section 2.3's charge-pump cap)",
    )
    sim_p.add_argument("--close-window", type=int, default=8, metavar="N")
    sim_p.add_argument(
        "--refresh",
        action="store_true",
        help="issue periodic per-die refreshes (tREFI/tRFC)",
    )
    sim_p.add_argument(
        "--arrival-interval",
        type=float,
        default=1.0,
        metavar="CLK",
        help="synthesized request spacing for timestamp-free ramulator "
        "traces (default 1.0 = one per cycle)",
    )
    sim_p.add_argument(
        "--max-cycles", type=int, default=50_000_000, metavar="N"
    )
    sim_p.add_argument(
        "--energy",
        action="store_true",
        help="append the per-command energy ledger to the report",
    )
    sim_p.set_defaults(func=_cmd_sim)

    bench_p = sub.add_parser(
        "bench",
        help="run the benchmark suite and gate against the baseline",
        parents=[common],
    )
    mode = bench_p.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke",
        action="store_true",
        help="sub-second bench set, fast experiment variants (default)",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="every registered bench, full experiment variants",
    )
    bench_p.add_argument(
        "--only",
        nargs="+",
        metavar="NAME",
        help="run only the named benches (see --list)",
    )
    bench_p.add_argument(
        "--repeats",
        type=int,
        default=1,
        metavar="K",
        help="median-of-K timing per bench (default 1)",
    )
    bench_p.add_argument(
        "--out",
        metavar="PATH",
        help="suite record path (default: BENCH_<stamp>_<sha>.json at the "
        "repo root)",
    )
    bench_p.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline record to compare against (default: "
        "benchmarks/BASELINE.json)",
    )
    bench_p.add_argument(
        "--update-baseline",
        action="store_true",
        help="bless this run as the new committed baseline and exit",
    )
    bench_p.add_argument(
        "--no-compare",
        action="store_true",
        help="emit the record without comparing against the baseline",
    )
    bench_p.add_argument(
        "--gate",
        action="store_true",
        help="exit nonzero on any drift, perf_regression or failed "
        "(the CI mode)",
    )
    bench_p.add_argument(
        "--perf-tol",
        type=float,
        default=PERF_REL_TOL,
        metavar="FRAC",
        help="allowed fractional slowdown vs the baseline median "
        f"(default {PERF_REL_TOL}; raise across machines)",
    )
    bench_p.add_argument(
        "--ir-tol",
        type=float,
        default=IR_DRIFT_MV,
        metavar="MV",
        help=f"allowed |delta| in IR values in mV (default {IR_DRIFT_MV:g}; "
        "raise across BLAS builds)",
    )
    bench_p.add_argument(
        "--delta-out",
        metavar="PATH",
        help="also write the markdown delta table to PATH",
    )
    bench_p.add_argument(
        "--list",
        dest="list_benches",
        action="store_true",
        help="list registered benches and exit",
    )
    bench_p.set_defaults(func=_cmd_bench)

    obs_p = sub.add_parser(
        "obs",
        help="query the run-history store: list/show/diff/attribute/export",
        parents=[common],
    )
    obs_sub = obs_p.add_subparsers(dest="obs_command", required=True)

    def _store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--store",
            metavar="DIR",
            default=None,
            help="history store directory (default: "
            "benchmarks/results/history, or $REPRO_HISTORY_DIR)",
        )

    ingest_p = obs_sub.add_parser(
        "ingest",
        help="ingest run manifests or BENCH_*.json suite records",
        parents=[common],
    )
    ingest_p.add_argument("paths", nargs="+", metavar="PATH")
    _store_arg(ingest_p)
    ingest_p.set_defaults(func=_cmd_obs_ingest)

    list_p = obs_sub.add_parser(
        "list", help="list stored runs", parents=[common]
    )
    _store_arg(list_p)
    list_p.set_defaults(func=_cmd_obs_list)

    show_p = obs_sub.add_parser(
        "show", help="show one stored run in full", parents=[common]
    )
    show_p.add_argument(
        "run",
        nargs="?",
        default="last",
        help="run reference: last, last~N, or a run-id prefix (default last)",
    )
    _store_arg(show_p)
    show_p.set_defaults(func=_cmd_obs_show)

    for name, help_text in (
        ("diff", "render the delta between two stored runs as markdown"),
        ("attribute", "attribute run-vs-run drift: structural (plan diff) "
         "vs numerical (metric/residual deltas)"),
    ):
        action_p = obs_sub.add_parser(name, help=help_text, parents=[common])
        action_p.add_argument(
            "runs",
            nargs="*",
            metavar="RUN",
            help="two run references (default: last~1 last)",
        )
        action_p.add_argument(
            "--out", metavar="PATH", help="also write the markdown to PATH"
        )
        action_p.add_argument(
            "--gate",
            action="store_true",
            help="exit nonzero when any drift is detected (the CI mode)",
        )
        _store_arg(action_p)
        action_p.set_defaults(func=_cmd_obs_diff)

    export_p = obs_sub.add_parser(
        "export",
        help="export a stored run as unified Chrome/Perfetto trace JSON "
        "(spans + profiler counter tracks)",
        parents=[common],
    )
    export_p.add_argument("run", nargs="?", default="last")
    export_p.add_argument(
        "--out",
        metavar="PATH",
        default="obs_trace.json",
        help="output path (default obs_trace.json)",
    )
    _store_arg(export_p)
    export_p.set_defaults(func=_cmd_obs_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    configure(level=args.log_level, json_path=args.log_json, quiet=args.quiet)
    if args.workers is not None:
        # Experiment drivers resolve workers from the environment, so the
        # flag reaches every sweep without threading it through each API.
        os.environ[WORKERS_ENV] = str(args.workers)
    if args.profile:
        # Span closes read the switch from the environment, and worker
        # processes inherit it.
        os.environ[PROFILE_ENV] = "1"
    with span(f"cli.{args.command}") as sp:
        code = args.func(args)
    if args.perf_report:
        from repro.perf.timers import report as perf_report

        _log.info("\n%s", perf_report())
    if args.trace_out:
        write_chrome_trace(args.trace_out)
    if args.metrics_out:
        write_metrics(args.metrics_out)
    manifest_path = _manifest_path(args)
    fallback_manifest = None
    if manifest_path is not None and not getattr(args, "_manifest_written", False):
        # Commands without a dedicated manifest (list/all/solve) still
        # get a provenance receipt covering the whole invocation.
        fallback_manifest = build_manifest(
            experiment_id=f"cli.{args.command}",
            title=f"repro3d {args.command}",
            config={"command": args.command, "full": getattr(args, "full", False)},
            duration_s=sp.duration,
        )
        fallback_manifest.write(manifest_path)
    if args.history:
        from repro.obs.store import RunHistoryStore

        store = RunHistoryStore()
        record = getattr(args, "_bench_record", None)
        if record is not None:
            run_id = store.ingest_bench_record(
                record.to_dict(),
                source=getattr(args, "_bench_record_path", None),
            )
        else:
            manifest = getattr(args, "_last_manifest", None) or fallback_manifest
            if manifest is None:
                manifest = build_manifest(
                    experiment_id=f"cli.{args.command}",
                    title=f"repro3d {args.command}",
                    config={
                        "command": args.command,
                        "full": getattr(args, "full", False),
                    },
                    duration_s=sp.duration,
                )
            run_id = store.ingest_live_run(manifest)
        _log.info("run recorded in history: %s", run_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
