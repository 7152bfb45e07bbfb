"""Ablations of the memory-controller modelling decisions.

Two knobs DESIGN.md section 7 calls out:

* the activation lookahead window (head-of-line blocking strength), and
* the idle-bank close window (the paper's "closed in a few cycles").
"""

from repro.controller import (
    EventDrivenEngine,
    IRAwareDistR,
    IRAwareFCFS,
    SimConfig,
    StandardJEDEC,
    WorkloadConfig,
    generate_workload,
)
from repro.designs import off_chip_ddr3
from repro.dram.timing import TimingParams
from repro.pdn import build_stack
from repro.controller import IRDropLUT
from repro.bench import register_bench


def _lut():
    bench = off_chip_ddr3()
    return IRDropLUT(build_stack(bench.stack, bench.baseline))


def run_lookahead_sweep(lut):
    timing = TimingParams.ddr3_1600()
    cfg = SimConfig(timing=timing)
    out = {}
    for k in (1, 2, 4, 8, 16):
        row = {}
        for policy in (IRAwareFCFS(lut, 24.0), IRAwareDistR(lut, 24.0)):
            policy.act_lookahead = k
            res = EventDrivenEngine(
                cfg, policy, generate_workload(WorkloadConfig(num_requests=3000)),
                report_lut=lut,
            ).run()
            row[policy.name] = res.runtime_us
        out[k] = row
    return out


def run_close_window_sweep(lut):
    timing = TimingParams.ddr3_1600()
    out = {}
    for window in (4, 8, 16, 32):
        cfg = SimConfig(timing=timing, close_window=window)
        res = EventDrivenEngine(
            cfg,
            StandardJEDEC(timing),
            generate_workload(WorkloadConfig(num_requests=3000)),
            report_lut=lut,
        ).run()
        out[window] = {"runtime_us": res.runtime_us, "acts": res.activations}
    return out


@register_bench("ablation_lookahead", heavy=True)
def test_ablation_act_lookahead(benchmark):
    lut = _lut()
    rows = benchmark.pedantic(run_lookahead_sweep, args=(lut,), rounds=1, iterations=1)
    print("\n== ablation: activation lookahead ==")
    for k, row in rows.items():
        print(f"  K={k:2d}: FCFS {row['ir_fcfs']:7.2f} us | DistR {row['ir_distr']:7.2f} us")
    # FCFS improves monotonically with lookahead (head-of-line relief)...
    fcfs = [rows[k]["ir_fcfs"] for k in sorted(rows)]
    assert all(b <= a * 1.01 for a, b in zip(fcfs, fcfs[1:]))
    # ...while DistR is nearly insensitive: its re-prioritization already
    # escapes blocked heads.
    distr = [rows[k]["ir_distr"] for k in sorted(rows)]
    assert max(distr) < min(distr) * 1.15
    # At every lookahead, DistR is at least as fast as FCFS.
    for k in rows:
        assert rows[k]["ir_distr"] <= rows[k]["ir_fcfs"] * 1.01


@register_bench("ablation_close_window", heavy=True)
def test_ablation_close_window(benchmark):
    lut = _lut()
    rows = benchmark.pedantic(
        run_close_window_sweep, args=(lut,), rounds=1, iterations=1
    )
    print("\n== ablation: idle close window ==")
    for window, row in rows.items():
        print(
            f"  window={window:2d}: {row['runtime_us']:7.2f} us, "
            f"{row['acts']} activations"
        )
    # A longer close window keeps rows open longer -> fewer activations.
    acts = [rows[w]["acts"] for w in sorted(rows)]
    assert all(b <= a for a, b in zip(acts, acts[1:]))
