"""The IR-drop look-up table (paper section 5.2).

"With our fast and accurate R-Mesh model, the max IR drops of each memory
state with various I/O activities are saved in a look-up table read by the
memory controller for read request scheduling."

A table is built for one *design* (one built :class:`PDNStack`): the
conductance matrix is factorized once and each memory state is a cheap
back-substitution.  States are keyed by per-die active-bank counts; the
I/O activity per die follows from the counts (zero-bubble interleaving),
and bank placement uses the edge worst case, both exactly as in the
paper's architecture studies.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.trace import span
from repro.pdn.stackup import PDNStack
from repro.perf.timers import timed
from repro.power.state import MemoryState


class IRDropLUT:
    """Max IR drop (mV) per memory state, for one built design."""

    def __init__(
        self,
        stack: PDNStack,
        max_banks_per_die: int = 2,
        precompute: bool = True,
    ) -> None:
        if max_banks_per_die < 1:
            raise ConfigurationError("max_banks_per_die must be >= 1")
        self.stack = stack
        self.num_dies = stack.spec.num_dram_dies
        self.max_banks_per_die = max_banks_per_die
        self._table: Dict[Tuple[int, ...], float] = {}
        if precompute:
            self.precompute_all()

    def precompute_all(self) -> None:
        """Solve every state with counts in [0, max_banks_per_die]^dies.

        One factorization + one *batched* back-substitution: all pending
        states' current vectors go through SuperLU as a single
        ``(num_nodes, k)`` block (for the 4-die, 2-bank-interleave
        stacked DDR3 that is one 80-column solve plus the free idle
        state), via :meth:`repro.pdn.stackup.PDNStack.solve_states`.
        """
        pending = [
            counts
            for counts in itertools.product(
                range(self.max_banks_per_die + 1), repeat=self.num_dies
            )
            if counts not in self._table
        ]
        if not pending:
            return
        with timed("lut.precompute"):
            active = []
            for counts in pending:
                if sum(counts) == 0:
                    self._table[counts] = 0.0
                else:
                    active.append(counts)
            states = [
                MemoryState.from_counts(counts, self.stack.spec.dram_floorplan)
                for counts in active
            ]
            results = self.stack.solve_states(states)
            for counts, result in zip(active, results):
                self._table[counts] = result.dram_max_mv

    def lookup(self, counts: Tuple[int, ...]) -> float:
        """Max IR drop (mV) of a memory state given per-die bank counts."""
        counts = tuple(counts)
        if len(counts) != self.num_dies:
            raise ConfigurationError(
                f"state has {len(counts)} dies, design has {self.num_dies}"
            )
        if any(c < 0 or c > self.max_banks_per_die for c in counts):
            raise ConfigurationError(
                f"counts {counts} outside [0, {self.max_banks_per_die}]"
            )
        if counts not in self._table:
            if sum(counts) == 0:
                self._table[counts] = 0.0
            else:
                with span("lut.fill", counts="-".join(map(str, counts))):
                    state = MemoryState.from_counts(
                        counts, self.stack.spec.dram_floorplan
                    )
                    self._table[counts] = self.stack.solve_state(state).dram_max_mv
        return self._table[counts]

    def allows(self, counts: Tuple[int, ...], constraint_mv: Optional[float]) -> bool:
        """Is a state legal under an IR-drop constraint (None = no limit)?"""
        if constraint_mv is None:
            return True
        return self.lookup(counts) <= constraint_mv

    def min_active_ir(self) -> float:
        """Smallest IR drop of any non-idle state: below this constraint no
        memory state is allowed at all (Figure 9's wall)."""
        single = []
        for die in range(self.num_dies):
            counts = tuple(1 if d == die else 0 for d in range(self.num_dies))
            single.append(self.lookup(counts))
        return min(single)

    @property
    def size(self) -> int:
        return len(self._table)

    def as_dict(self) -> Dict[Tuple[int, ...], float]:
        """Copy of the table (for reports and serialization)."""
        return dict(self._table)

    def to_json(self) -> str:
        """Serialize the full table for firmware-style reuse.

        A real memory controller would consume exactly this artifact: the
        per-state maxima, not the solver.  A lazily-populated table is
        precomputed first, so the shipped artifact is always complete --
        previously a partial table serialized silently and made
        :meth:`StaticIRDropLUT.lookup` raise at controller runtime.
        """
        if len(self._table) < (self.max_banks_per_die + 1) ** self.num_dies:
            self.precompute_all()
        payload = {
            "num_dies": self.num_dies,
            "max_banks_per_die": self.max_banks_per_die,
            "design": self.stack.config.label(),
            "table": {
                "-".join(map(str, counts)): round(value, 4)
                for counts, value in sorted(self._table.items())
            },
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "StaticIRDropLUT":
        """Load a serialized table as a solver-free LUT."""
        payload = json.loads(text)
        table = {
            tuple(int(c) for c in key.split("-")): value
            for key, value in payload["table"].items()
        }
        return StaticIRDropLUT(
            table,
            num_dies=payload["num_dies"],
            max_banks_per_die=payload["max_banks_per_die"],
        )


class StaticIRDropLUT:
    """A solver-free LUT restored from serialized data.

    Duck-types the parts of :class:`IRDropLUT` the scheduling policies
    use (lookup / allows / min_active_ir / max_banks_per_die), so a
    controller can run from a shipped table without any solver present.
    """

    def __init__(
        self,
        table: Dict[Tuple[int, ...], float],
        num_dies: int,
        max_banks_per_die: int,
    ) -> None:
        if not table:
            raise ConfigurationError("empty LUT table")
        self._table = dict(table)
        self.num_dies = num_dies
        self.max_banks_per_die = max_banks_per_die

    def lookup(self, counts: Tuple[int, ...]) -> float:
        counts = tuple(counts)
        if counts not in self._table:
            raise ConfigurationError(f"state {counts} not in the static LUT")
        return self._table[counts]

    def allows(self, counts: Tuple[int, ...], constraint_mv: Optional[float]) -> bool:
        if constraint_mv is None:
            return True
        return self.lookup(counts) <= constraint_mv

    def min_active_ir(self) -> float:
        # Same semantics as IRDropLUT: the cheapest *single-bank* state,
        # because any schedule must pass through one when starting from
        # idle (the Figure 9 constraint wall).
        singles = [
            v for c, v in self._table.items() if sum(c) == 1
        ]
        if not singles:
            return min(v for c, v in self._table.items() if sum(c) > 0)
        return min(singles)

    @property
    def size(self) -> int:
        return len(self._table)

    def as_dict(self) -> Dict[Tuple[int, ...], float]:
        return dict(self._table)
