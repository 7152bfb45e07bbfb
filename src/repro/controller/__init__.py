"""3D DRAM memory controller simulator (paper sections 2.3 and 5.2).

Event-driven simulation of every DRAM bank and memory channel, driven by
a generated read workload or a memory trace, under one of three
scheduling policies:

* ``StandardJEDEC`` -- the DDR3 standard policy: tRRD/tFAW bank-activation
  throttling, first-come-first-served order, no IR-drop knowledge;
* ``IRAwareFCFS`` -- replaces tRRD/tFAW with a per-state IR-drop look-up
  table built from R-Mesh solves, FCFS order;
* ``IRAwareDistR`` -- same constraint, distributed-read order: requests
  whose target die has the fewest active banks issue first.
"""

from repro.controller.request import ReadRequest, WorkloadConfig, generate_workload
from repro.controller.lut import IRDropLUT
from repro.controller.policies import (
    IRAwareDistR,
    IRAwareFCFS,
    ReadPolicy,
    StandardJEDEC,
)
from repro.controller.engine import EventDrivenEngine, SimConfig, SimResult

__all__ = [
    "ReadRequest",
    "WorkloadConfig",
    "generate_workload",
    "IRDropLUT",
    "ReadPolicy",
    "StandardJEDEC",
    "IRAwareFCFS",
    "IRAwareDistR",
    "EventDrivenEngine",
    "SimConfig",
    "SimResult",
]
