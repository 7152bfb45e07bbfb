"""Table 7 + Figure 9: IR-drop constraint vs memory performance.

Six designs (Table 7) are swept over IR-drop constraints with the
IR-drop-aware DistR policy.  The paper's observations:

* a too-tight constraint allows no memory state (runtime diverges);
* relaxing the constraint admits more parallel reads;
* the F2F design (case 3) outperforms the 1.5x-PDN F2B design (case 2)
  below an ~18 mV constraint because PDN sharing shines when bank
  activity is low ("F2F has a higher tolerance to low IR-drop
  constraints").

Table 7 max IR drops: case 1: 30.03, 2: 22.15, 3: 17.18, 4: 64.41,
5: 30.04, 6: 65.43 mV.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.controller import (
    EventDrivenEngine,
    IRAwareDistR,
    IRDropLUT,
    SimConfig,
    generate_workload,
)
from repro.errors import SimulationError
from repro.designs import BenchmarkSpec, off_chip_ddr3, on_chip_ddr3
from repro.dram.timing import TimingParams
from repro.experiments.base import ExperimentResult, Row, register
from repro.pdn.config import Bonding, PDNConfig
from repro.perf.cache import cached_build_stack

PAPER_MAX_IR = {1: 30.03, 2: 22.15, 3: 17.18, 4: 64.41, 5: 30.04, 6: 65.43}

#: Swept IR-drop constraints (mV).  The full sweep extends beyond the
#: off-chip range so the coupled on-chip cases (whose cheapest states
#: sit near 42-48 mV) get feasible points.
FAST_CONSTRAINTS = (16.0, 20.0, 24.0, 28.0)
FULL_CONSTRAINTS = tuple(float(c) for c in range(14, 36, 2)) + tuple(
    float(c) for c in range(38, 72, 6)
)


def table7_cases() -> List[Tuple[int, str, BenchmarkSpec, PDNConfig]]:
    """The six Table 7 design cases."""
    off = off_chip_ddr3()
    on = on_chip_ddr3()
    coupled = on.baseline.with_options(dedicated_tsv=False)
    return [
        (1, "off-chip F2B 1x", off, off.baseline),
        (2, "off-chip F2B 1.5x PDN", off,
         off.baseline.with_options(m2_usage=0.15, m3_usage=0.30)),
        (3, "off-chip F2F 1x", off,
         off.baseline.with_options(bonding=Bonding.F2F)),
        (4, "on-chip F2B 1x", on, coupled),
        (5, "on-chip F2B 1x + wirebond", on,
         coupled.with_options(wire_bond=True)),
        (6, "on-chip F2F 1x", on,
         coupled.with_options(bonding=Bonding.F2F)),
    ]


@register("fig9")
def run(fast: bool = True) -> ExperimentResult:
    """Sweep IR-drop constraints over the Table 7 cases."""
    cases = table7_cases()
    if fast:
        cases = [c for c in cases if c[0] in (1, 2, 3)]
    constraints = FAST_CONSTRAINTS if fast else FULL_CONSTRAINTS

    timing = TimingParams.ddr3_1600()
    rows = []
    for case_id, label, bench, config in cases:
        stack = cached_build_stack(bench.stack, config)
        lut = IRDropLUT(stack)
        model: Dict[str, object] = {
            "max_ir_mv": lut.lookup(tuple(
                2 if d == bench.stack.num_dram_dies - 1 else 0
                for d in range(bench.stack.num_dram_dies)
            )),
            "min_state_mv": lut.min_active_ir(),
        }
        for constraint in constraints:
            if constraint < lut.min_active_ir():
                # No memory state is allowed at all: runtime diverges.
                model[f"runtime_us@{constraint:.0f}mV"] = float("inf")
                continue
            policy = IRAwareDistR(lut, constraint)
            sim = EventDrivenEngine(
                SimConfig(timing=timing), policy, generate_workload(), report_lut=lut
            )
            try:
                res = sim.run(max_cycles=600_000)
                finished = res.finished
            except SimulationError:
                # Livelock: the constraint forbids states some queued
                # requests would need -- effectively infinite runtime.
                finished = False
            model[f"runtime_us@{constraint:.0f}mV"] = (
                res.runtime_us if finished else float("inf")
            )
        rows.append(
            Row(
                label=f"case {case_id}: {label}",
                paper={"max_ir_mv": PAPER_MAX_IR[case_id]},
                model=model,
            )
        )
    return ExperimentResult(
        experiment_id="fig9",
        title="Runtime vs IR-drop constraint for the Table 7 cases (Figure 9)",
        rows=rows,
        notes=[
            "inf runtime = the constraint admits no memory state",
            "paper reports curves, not numbers; the reproduced shape is "
            "runtime falling as the constraint relaxes, with better-PDN "
            "designs usable at tighter constraints",
        ],
    )
