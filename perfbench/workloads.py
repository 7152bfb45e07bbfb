"""The benchmark's workloads, driven through the program's public API.

Each workload has two steps.  ``setup`` makes the input file, if the
workload reads one, from the seed; it is timed as ``setup_s`` and runs in
the parent, so an iteration's peak RSS holds none of its cost.  ``run``
is the timed iteration: it does what the named CLI command does, from a
cold program state, and returns an :class:`Outcome` whose ``outputs``
are checked against ``references.json``.

A seeded workload uses ``seed % VARIANTS`` as its generator seed, so the
references recorded for the variants check every run, whatever the seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.controller import IRAwareDistR, IRDropLUT, SimConfig, WorkloadConfig, generate_workload
from repro.controller.engine import EventDrivenEngine, SimResult
from repro.controller.request import TraceMapping, read_trace, write_ramulator_trace
from repro.designs import off_chip_ddr3
from repro.dram.timing import TimingParams
from repro.experiments import ExperimentResult, run_experiment
from repro.pdn import build_stack
from repro.power.model import DDR3_POWER, energy_ledger
from repro.regress.model import IRDropSurrogate

#: distinct input variants of a seeded workload (one reference each).
VARIANTS = 16


@dataclasses.dataclass
class Outcome:
    """What one iteration produced."""

    #: checked against the references (nested dicts of numbers/strings).
    outputs: Dict[str, Any]
    #: user-level work items completed: memory requests on the simulator
    #: workloads, design-point evaluations on the design-space sweep.
    requests: int
    #: R-Mesh design points (stacks) built and solved.
    design_points: int
    sim_cycles: int = 0
    sim_requests: int = 0


@contextlib.contextmanager
def returns_of(cls: type, name: str) -> Iterator[List[Any]]:
    """Collect what method ``cls.name`` returns while the block runs.

    This is how a workload that times a whole experiment sees the values
    the experiment does not put in its result rows.
    """
    original = cls.__dict__[name]
    seen: List[Any] = []

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result = original(*args, **kwargs)
        seen.append(result)
        return result

    setattr(cls, name, wrapper)
    try:
        yield seen
    finally:
        setattr(cls, name, original)


def _sim_fields(res: SimResult) -> Dict[str, Any]:
    return {
        "cycles": res.cycles,
        "completed": res.completed,
        "reads": res.reads,
        "writes": res.writes,
        "activations": res.activations,
        "precharges": res.precharges,
        "refreshes": res.refreshes,
        "finished": res.finished,
        "max_ir_mv": res.max_ir_mv,
    }


def _rows(result: ExperimentResult) -> Dict[str, Any]:
    return {"rows": {row.label: row.model for row in result.rows}, "notes": result.notes}


class DseTable9:
    """``repro3d run table9`` in fast mode: the ddr3_off design space.

    Times ``run_experiment("table9")``: 288 cold samples, the surrogate
    fit, the baseline verification and the alpha sweep {0, 0.3, 1}, so
    292 design points.  The sample grid is fixed, so the seed is ignored.
    """

    name = "dse_table9"
    required_spans = (
        "regress.sample",
        "regress.fit",
        "opt.optimize",
        "pdn.plan",
        "pdn.assemble",
        "pdn.build",
        "rmesh.factorize",
        "rmesh.solve",
        "power.rasterize",
        "pdn.solve_state",
    )

    def reference_key(self, seed: int) -> str:
        return "any"

    def setup(self, seed: int, workdir: Path) -> Optional[Path]:
        return None

    def run(self, path: Optional[Path]) -> Outcome:
        with returns_of(IRDropSurrogate, "fit") as reports:
            result = run_experiment("table9", fast=True)
        (report,) = reports
        points = report.num_samples + len(result.rows)
        return Outcome(
            outputs=dict(
                _rows(result),
                samples=report.num_samples,
                rmse_mv=report.rmse_mv,
                r_squared=report.r_squared,
            ),
            requests=points,
            design_points=points,
        )


class HmcIrSched:
    """``repro3d run ext_hmc`` in fast mode.

    Times ``run_experiment("ext_hmc")``: one HMC baseline stack with a
    lazily filled LUT; standard, IR-aware FCFS and IR-aware DistR on
    saturating read-only traffic over 4 dies x 32 banks and 16 channels.
    The experiment's traffic is fixed, so the seed is ignored.
    """

    name = "hmc_ir_sched"
    required_spans = (
        "pdn.plan",
        "pdn.assemble",
        "pdn.build",
        "rmesh.factorize",
        "rmesh.solve",
        "power.rasterize",
        "pdn.solve_state",
        "controller.engine",
    )

    def reference_key(self, seed: int) -> str:
        return "any"

    def setup(self, seed: int, workdir: Path) -> Optional[Path]:
        return None

    def run(self, path: Optional[Path]) -> Outcome:
        with returns_of(EventDrivenEngine, "run") as sims:
            result = run_experiment("ext_hmc", fast=True)
        completed = sum(r.completed for r in sims)
        return Outcome(
            outputs=dict(_rows(result), policies={r.policy_name: _sim_fields(r) for r in sims}),
            requests=completed,
            design_points=1,
            sim_cycles=sum(r.cycles for r in sims),
            sim_requests=completed,
        )


class Ddr3TraceMixed:
    """``repro3d sim --trace --energy`` on the stacked DDR3, refresh on.

    The ramulator trace (30% writes) is written at setup.  IR-aware DistR
    at 24 mV runs on the precomputed 81-state LUT of the ddr3_off
    baseline, then the energy ledger is built.
    """

    name = "ddr3_trace_mixed"
    required_spans = (
        "pdn.plan",
        "pdn.assemble",
        "pdn.build",
        "rmesh.factorize",
        "rmesh.solve",
        "power.rasterize",
        "pdn.solve_state",
        "controller.lut.precompute",
        "controller.ingest",
        "controller.engine",
        "power.ledger",
    )
    constraint_mv = 24.0
    mapping = TraceMapping(num_dies=4, banks_per_die=8)

    def __init__(self, num_requests: int = 60_000) -> None:
        self.num_requests = num_requests

    def reference_key(self, seed: int) -> str:
        return str(seed % VARIANTS)

    def setup(self, seed: int, workdir: Path) -> Optional[Path]:
        path = workdir / f"ddr3_mixed_{os.getpid()}.trace"
        requests = generate_workload(
            WorkloadConfig(
                num_requests=self.num_requests,
                write_fraction=0.3,
                seed=seed % VARIANTS,
            )
        )
        write_ramulator_trace(path, requests, self.mapping)
        return path

    def run(self, path: Optional[Path]) -> Outcome:
        bench = off_chip_ddr3()
        stack = build_stack(bench.stack, bench.baseline)
        lut = IRDropLUT(stack)
        timing = TimingParams.ddr3_1600()
        cfg = SimConfig(timing=timing, refresh_enabled=True)
        workload = read_trace(path, mapping=self.mapping)
        res = EventDrivenEngine(cfg, IRAwareDistR(lut, self.constraint_mv), workload, lut).run(
            max_cycles=50_000_000
        )
        ledger = energy_ledger(
            res.commands,
            res.state_occupancy,
            DDR3_POWER,
            timing,
            num_dies=cfg.num_dies,
            banks_per_die=cfg.banks_per_die,
            states_dropped=res.states_dropped,
        )
        return Outcome(
            outputs={
                "sim": _sim_fields(res),
                "ledger": {
                    "command_total_nj": ledger.command_total_nj,
                    "occupancy_nj": ledger.occupancy_nj,
                },
            },
            requests=res.completed,
            design_points=1,
            sim_cycles=res.cycles,
            sim_requests=res.completed,
        )


WORKLOADS = {w.name: w for w in (DseTable9(), HmcIrSched(), Ddr3TraceMixed())}
