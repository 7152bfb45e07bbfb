"""Fault injection for sweep execution.

The paper scripts assumed a perfect machine: every worker lives and
every run finishes.  A Table-9-size design space fanned over a process
pool can meet one real failure, a worker that dies (the OOM killer).
:func:`repro.perf.map_design_points` survives it by rebuilding the pool
and, once the rebuild budget is spent, finishing serially; this package
proves that it does:

:mod:`repro.resil.faults`
    Deterministic fault injection (``REPRO_FAULT_SPEC``) -- worker
    crashes, drawn only inside pool workers -- seeded so chaos tests
    and benches replay the exact same failure sequence every run.

With no fault spec and a healthy pool, the hot paths run exactly the
code they ran before this package existed.
"""

from repro.resil.faults import (
    FAULT_SPEC_ENV,
    FaultPlan,
    active_plan,
    parse_fault_spec,
)

__all__ = [
    "FAULT_SPEC_ENV",
    "FaultPlan",
    "active_plan",
    "parse_fault_spec",
]
