"""Read scheduling policies (paper section 5.2).

The controller has exactly three policies.  The engine
(``repro.controller.engine``) applies their rules itself and, when it is
built, refuses any other policy and any subclass that changes their
admission or activation window:

* ``StandardJEDEC`` admits an ACT by the DDR3 tRRD/tFAW rules -- applied
  per channel, because the standard controller treats the stack as one
  rank and is "not aware of 3D stacking" (section 5.2).  It is IR-blind:
  reads always issue and banks are never shed.
* ``IRAwareFCFS`` admits an ACT whenever the resulting memory state
  stays under the IR-drop constraint in the look-up table, holds reads
  while the state violates it, and sheds banks to leave such a state.
* ``IRAwareDistR`` admits like ``IRAwareFCFS`` but orders requests by
  their target die's load.

Requests are considered in arrival order, except under ``IRAwareDistR``
(see its docstring).  Either way a channel's activation window is the
first ``act_lookahead`` waiting requests of that order.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.controller.lut import IRDropLUT
from repro.dram.timing import TimingParams
from repro.errors import ConfigurationError


class ReadPolicy:
    """Base class of the three policies: activation window and the
    engine's per-run hooks."""

    name: str = "base"

    def reset(self) -> None:
        """Clear any per-run state (called once per simulation)."""

    def on_activate(self, die: int, now: int) -> None:
        """Notification that an ACT issued (for window bookkeeping)."""

    #: how many waiting requests the activation stage may consider per
    #: channel per cycle.  The controller issues opportunistic READs to
    #: open rows out of order, but row activations follow the policy's
    #: priority with only this much lookahead, so inadmissible
    #: high-priority requests partially block the activation slot.
    act_lookahead: int = 4

    def must_shed(self, active_counts: Tuple[int, ...]) -> bool:
        """Should the controller close banks to leave a violating state?
        Escape hatch for states reached by drift (bank closures elsewhere
        raising the surviving dies' I/O activity)."""
        return False


class StandardJEDEC(ReadPolicy):
    """JEDEC DDR3 standard policy: tRRD + tFAW, FCFS order.

    The paper compares against "JEDEC DDR3 standard policy with a tRRD of
    8 and a tFAW of 32".  Both windows are enforced across the whole
    channel (the controller sees one rank and cannot exploit 3D die-level
    parallelism -- precisely its weakness).
    """

    name = "standard"
    #: a plain JEDEC controller reorders far less aggressively than the
    #: paper's smart IR-aware queue.
    act_lookahead: int = 2

    def __init__(self, timing: TimingParams) -> None:
        self.timing = timing
        self._last_act: int = -(10**9)
        #: the last four ACT cycles (tFAW looks back four ACTs).
        self._act_history: Deque[int] = deque(maxlen=4)

    def reset(self) -> None:
        self._last_act = -(10**9)
        self._act_history.clear()

    def on_activate(self, die: int, now: int) -> None:
        self._last_act = now
        self._act_history.append(now)

    def earliest_activate(self, now: int) -> int:
        """Earliest cycle an ACT could become legal (event-skip helper)."""
        candidates = [self._last_act + self.timing.tRRD]
        if len(self._act_history) >= 4:
            candidates.append(self._act_history[-4] + self.timing.tFAW)
        return max(max(candidates), now)


class IRAwareFCFS(ReadPolicy):
    """IR-drop-aware policy, first-come-first-served order.

    Activation is admitted iff the post-activation memory state's IR drop
    (from the R-Mesh look-up table) meets the constraint.
    """

    name = "ir_fcfs"

    def __init__(self, lut: IRDropLUT, constraint_mv: float) -> None:
        if constraint_mv <= 0.0:
            raise ConfigurationError("IR-drop constraint must be positive")
        self.lut = lut
        self.constraint_mv = constraint_mv

    def may_activate(
        self, die: int, now: int, active_counts: Tuple[int, ...]
    ) -> bool:
        """May an ACT issue on ``die`` given ``active_counts``, the banks
        active *before* it?  The engine caches the answer per (state,
        die)."""
        new_counts = tuple(
            c + 1 if d == die else c for d, c in enumerate(active_counts)
        )
        if max(new_counts) > self.lut.max_banks_per_die:
            return False
        return self.lut.allows(new_counts, self.constraint_mv)

    def may_read(self, die: int, now: int, active_counts: Tuple[int, ...]) -> bool:
        """May a READ issue in the current state?  The paper's condition
        (3) applies to every request sent to memory, so the controller
        holds reads while the state violates the constraint (e.g. after
        banks elsewhere closed and raised this die's I/O share).  The
        engine caches the answer per state."""
        return self.lut.allows(active_counts, self.constraint_mv)

    def must_shed(self, active_counts: Tuple[int, ...]) -> bool:
        return sum(active_counts) > 0 and not self.lut.allows(
            active_counts, self.constraint_mv
        )


class IRAwareDistR(IRAwareFCFS):
    """IR-drop-aware distributed-read policy.

    "The read request, whose target die has the least number of active
    banks, has the highest priority" (section 5.2): balancing reads across
    dies raises die-level parallelism under the same IR-drop constraint.

    The engine orders each channel's waiting requests by their target
    die's active-bank count, least loaded die first and arrival order
    within equal loads (a stable sort by die load), and takes the first
    ``act_lookahead`` of that order as the activation window.  The window
    therefore holds the requests on the least-loaded dies drawn from the
    entire channel queue -- not a re-sort of the oldest few: a young
    request to an idle die activates ahead of older requests to loaded
    dies, however many of those are queued.  When an ACT or PRE earlier
    in the same cycle has changed the dies' load grouping, the window is
    stably re-sorted by the counts as they stand then.
    """

    name = "ir_distr"
