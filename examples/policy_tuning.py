"""Architectural policy tuning (paper section 5).

Builds the IR-drop look-up table for a design, then compares the JEDEC
standard policy against the IR-drop-aware FCFS and distributed-read
policies across a range of IR-drop constraints -- the Table 6 / Figure 9
study on a workload of your own.

Run:  python examples/policy_tuning.py
"""

from repro import benchmark, build_stack
from repro.controller import (
    EventDrivenEngine,
    IRAwareDistR,
    IRAwareFCFS,
    IRDropLUT,
    SimConfig,
    StandardJEDEC,
    WorkloadConfig,
    generate_workload,
)
from repro.dram.timing import TimingParams
from repro.errors import SimulationError


def main() -> None:
    bench = benchmark("ddr3_off")
    stack = build_stack(bench.stack, bench.baseline)

    # One factorization, 81 back-substitutions: the controller's LUT.
    lut = IRDropLUT(stack)
    print("IR-drop LUT highlights (mV):")
    for counts in ((0, 0, 0, 1), (0, 0, 0, 2), (1, 1, 1, 1), (2, 2, 2, 2)):
        print(f"  {'-'.join(map(str, counts))}: {lut.lookup(counts):6.2f}")
    print(f"  cheapest non-idle state: {lut.min_active_ir():.2f} mV")

    timing = TimingParams.ddr3_1600()
    cfg = SimConfig(timing=timing)
    workload = WorkloadConfig(num_requests=4000)

    # Table 6: the three policies at the paper's 24 mV constraint.
    print("\npolicy comparison @ 24 mV:")
    for policy in (
        StandardJEDEC(timing),
        IRAwareFCFS(lut, 24.0),
        IRAwareDistR(lut, 24.0),
    ):
        sim = EventDrivenEngine(
            cfg, policy, generate_workload(workload), report_lut=lut
        )
        print(f"  {sim.run()}")

    # Figure 9 flavour: how tight can the constraint go?
    print("\nDistR runtime vs IR-drop constraint:")
    for constraint in (28.0, 24.0, 21.0, 18.0, 16.0):
        policy = IRAwareDistR(lut, constraint)
        sim = EventDrivenEngine(
            cfg, policy, generate_workload(workload), report_lut=lut
        )
        try:
            res = sim.run(max_cycles=400_000)
            text = f"{res.runtime_us:8.1f} us" if res.finished else "  (did not finish)"
        except SimulationError:
            text = "  (livelock: constraint forbids required states)"
        print(f"  {constraint:4.0f} mV -> {text}")


if __name__ == "__main__":
    main()
