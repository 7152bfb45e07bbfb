"""Fault tolerance for sweep execution.

The paper scripts assumed a perfect machine: every worker lives and
every run finishes.  Table-9-size design spaces break both assumptions,
so this package supplies the missing layer:

:mod:`repro.resil.faults`
    Deterministic fault injection (``REPRO_FAULT_SPEC``) -- worker
    crashes, transient exceptions, slow tasks -- seeded so chaos tests
    and benches replay the exact same failure sequence every run.

:mod:`repro.resil.retry`
    :class:`~repro.resil.retry.RetryPolicy` (bounded attempts,
    exponential backoff with deterministic jitter, per-task timeout) and
    :class:`~repro.resil.retry.TaskFailure`, the structured record a
    failed task leaves behind instead of killing the whole run.

:mod:`repro.resil.execute`
    :func:`~repro.resil.execute.run_tasks`, the submit-per-item futures
    engine under :func:`repro.perf.map_design_points`: per-task
    timeouts, retries, pool rebuilds on ``BrokenProcessPool``, serial
    fallback -- and a :class:`~repro.resil.execute.TaskReport` with
    partial results plus failures instead of an all-or-nothing map.

:mod:`repro.resil.checkpoint`
    Journaled sweep checkpoints (``REPRO_CHECKPOINT`` /
    ``repro3d --resume``): completed design-point results keyed by plan
    hash + active banks + scale, so a killed fig5/fig9/table9 run
    resumes without re-solving finished points.

Everything here is opt-in and pay-for-what-you-use: with no fault spec,
no checkpoint, and a healthy pool, the hot paths run exactly the code
they ran before this package existed.
"""

from repro.resil.checkpoint import (
    CHECKPOINT_ENV,
    CheckpointedResult,
    SweepCheckpoint,
    active_checkpoint_info,
    checkpointed_solve,
    default_checkpoint,
    point_key,
)
from repro.resil.execute import TaskReport, run_tasks
from repro.resil.faults import (
    FAULT_SPEC_ENV,
    FaultPlan,
    InjectedFault,
    TransientFault,
    WorkerCrashFault,
    active_plan,
    fault_injection_active,
    parse_fault_spec,
)
from repro.resil.retry import RetryPolicy, TaskFailure, protected_call

__all__ = [
    "CHECKPOINT_ENV",
    "CheckpointedResult",
    "FAULT_SPEC_ENV",
    "FaultPlan",
    "InjectedFault",
    "RetryPolicy",
    "SweepCheckpoint",
    "TaskFailure",
    "TaskReport",
    "TransientFault",
    "WorkerCrashFault",
    "active_checkpoint_info",
    "active_plan",
    "checkpointed_solve",
    "default_checkpoint",
    "fault_injection_active",
    "parse_fault_spec",
    "point_key",
    "protected_call",
    "run_tasks",
]
