"""Controller engine throughput on a saturating 16-channel workload.

The event-driven engine exists to make multi-million-request trace
studies practical, so this bench gates its absolute rate: the engine
runs a saturating workload in the HMC shape (16 channels, 128 banks)
and must sustain at least ``EVENT_REQ_S_FLOOR`` requests/second.
"""

import os
import time

from repro.bench import register_bench
from repro.controller import (
    SimConfig,
    StandardJEDEC,
    WorkloadConfig,
    generate_workload,
)
from repro.controller.engine import EventDrivenEngine
from repro.dram.timing import TimingParams

#: the acceptance gate, in requests/second.  It replaced a ">= 20x the
#: per-cycle reference loop" ratio when that loop was deleted, and keeps
#: the same strength: the loop's median over 7 runs of 800 requests on
#: this workload was 231 req/s on a 2-vCPU Xeon VM (Python 3.11), and
#: 20 x 231 = 4616.  The event engine ran 6.2k-9.1k req/s on that VM.
EVENT_REQ_S_FLOOR = 4616.0


def _workload(n: int):
    """Saturating traffic across 32 banks/die (the ext_hmc shape)."""
    return generate_workload(
        WorkloadConfig(
            num_requests=n, seed=7, banks_per_die=32, arrival_interval=1
        )
    )


def _config(timing: TimingParams) -> SimConfig:
    return SimConfig(
        timing=timing,
        num_dies=4,
        banks_per_die=32,
        num_channels=16,
        max_banks_per_die=8,
        max_banks_per_channel=2,
    )


def run_throughput(n_event: int):
    timing = TimingParams.hmc_2500()
    cfg = _config(timing)

    t0 = time.perf_counter()
    res_event = EventDrivenEngine(
        cfg, StandardJEDEC(timing), _workload(n_event)
    ).run()
    dt_event = time.perf_counter() - t0

    assert res_event.finished
    return {
        "event_req_s": n_event / dt_event,
        "event_cycles": res_event.cycles,
    }


@register_bench("controller_throughput", tags=("controller",))
def test_controller_throughput(benchmark):
    fast = os.environ.get("REPRO_FAST", "0") == "1"
    n_event = 10_000 if fast else 30_000
    row = benchmark.pedantic(
        run_throughput,
        args=(n_event,),
        rounds=1,
        iterations=1,
    )
    print("\n== controller engine throughput ==")
    print(
        f"  event: {row['event_req_s']:>10,.0f} req/s  ({n_event:,} requests, "
        f"gate >= {EVENT_REQ_S_FLOOR:,.0f})"
    )
    assert row["event_req_s"] >= EVENT_REQ_S_FLOOR, (
        f"event engine {row['event_req_s']:,.0f} req/s "
        f"(gate {EVENT_REQ_S_FLOOR:,.0f})"
    )
