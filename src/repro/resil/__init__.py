"""Fault tolerance for sweep execution.

The paper scripts assumed a perfect machine: every worker lives and
every run finishes.  A Table-9-size design space fanned over a process
pool can meet two real failures -- a worker that dies (the OOM killer)
and a task that hangs -- and this package handles exactly those:

:mod:`repro.resil.execute`
    :func:`~repro.resil.execute.run_tasks`, the submit-per-item futures
    engine under :func:`repro.perf.map_design_points`: pool rebuilds on
    ``BrokenProcessPool``, serial fallback once the rebuild budget is
    spent, per-task timeouts with bounded resubmission
    (:class:`~repro.resil.execute.RetryPolicy`).

:mod:`repro.resil.faults`
    Deterministic fault injection (``REPRO_FAULT_SPEC``) -- worker
    crashes and slow tasks, drawn only inside pool workers -- seeded so
    chaos tests and benches replay the exact same failure sequence
    every run.

With no fault spec and a healthy pool, the hot paths run exactly the
code they ran before this package existed.
"""

from repro.resil.execute import RetryPolicy, run_tasks
from repro.resil.faults import (
    FAULT_SPEC_ENV,
    FaultPlan,
    active_plan,
    parse_fault_spec,
)

__all__ = [
    "FAULT_SPEC_ENV",
    "FaultPlan",
    "RetryPolicy",
    "active_plan",
    "parse_fault_spec",
    "run_tasks",
]
