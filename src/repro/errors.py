"""Exception hierarchy for the repro library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with one clause while still
distinguishing configuration mistakes from numerical failures.

Errors carry a structured ``context`` dict (``SolverError("singular",
num_nodes=23000)``) that outer layers extend with what they know
(:meth:`ReproError.add_context`): the solver records the worst node, the
stack layer adds the spec/config/state.  The context renders into
``str(exc)`` and survives pickling, so a failure inside a fanned-out
worker process is diagnosable from the parent's logs alone.
"""

from __future__ import annotations

from typing import Dict


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""

    def __init__(self, *args: object, **context: object) -> None:
        super().__init__(*args)
        self.context: Dict[str, object] = dict(context)

    def add_context(self, **context: object) -> "ReproError":
        """Attach outer-layer context; inner (earlier) keys win."""
        for key, value in context.items():
            self.context.setdefault(key, value)
        return self

    def __str__(self) -> str:
        base = super().__str__()
        if not self.context:
            return base
        detail = ", ".join(f"{k}={v}" for k, v in self.context.items())
        return f"{base} [{detail}]"

    def __reduce__(self):
        # Keep the context across pickling (worker -> parent process).
        return (self.__class__, self.args, {"context": dict(self.context)})

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.context = dict(state.get("context", {}))


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration was supplied.

    Examples: a PDN metal usage outside its legal range, a TSV style that a
    benchmark does not support, a memory state with more active banks than
    the die has.
    """


class FloorplanError(ReproError):
    """A floorplan could not be generated or is geometrically invalid."""


class MeshError(ReproError):
    """A resistive mesh could not be built or assembled."""


class SolverError(ReproError):
    """The linear solve failed (singular system, no supply connection, ...)."""


class SimulationError(ReproError):
    """The memory controller simulation reached an inconsistent state."""


class RequestRangeError(SimulationError):
    """A workload request names a die or bank outside the simulated stack."""


class TraceError(ReproError):
    """A memory trace file could not be parsed.

    Raised with ``path`` and ``line`` context so a malformed line deep in
    a multi-million-line trace is reported as ``path:line`` with the
    offending text.
    """


class RegressionError(ReproError):
    """Regression fitting failed or produced an unusable model."""


class OptimizationError(ReproError):
    """The co-optimizer could not find any feasible solution."""
