"""The IR-drop look-up table (paper section 5.2).

"With our fast and accurate R-Mesh model, the max IR drops of each memory
state with various I/O activities are saved in a look-up table read by the
memory controller for read request scheduling."

A table is built for one *design* (one built :class:`PDNStack`).  States
are keyed by per-die active-bank counts; the I/O activity per die follows
from the counts (zero-bubble interleaving), and bank placement uses the
edge worst case, both exactly as in the paper's architecture studies.

No entry is solved as a whole state.  The DC mesh is linear (``G v = i``)
and a die's load is a sum over its channels, each affine in the
channel's I/O activity.  So the table solves a small *basis* once: the
idle stack, and for every die ``d`` and every channel group ``(c, banks
in c)`` that edge placement produces, the stack with only those banks
active at activity 0 (``X0``) and at activity 1 (``X1``).  An entry is
then, over the DRAM nodes,

    drops = idle + sum over (d, c) of [(X0 - idle) + (1/k_c) * (X1 - X0)]

where ``1/k_c`` is the activity the rasterizer itself uses
(``MemoryState.channel_io_activity``): ``k_c`` dies have banks active in
channel ``c``.  No entry builds a ``MemoryState``.  The table knows, per
count, the channel groups of that count's edge-placed banks, so ``k_c``
comes from the entry's counts alone; and the basis keeps each group's
bracketed term ready for every ``k`` in ``1..num_dies``.  An entry adds
those terms in die and group order.  Superposed entries match
whole-state solves to a few 1e-15 relative.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs.trace import span
from repro.perf.timers import timed
from repro.power.state import MemoryState
from repro.units import to_mv

if TYPE_CHECKING:
    from repro.pdn.stackup import PDNStack


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
        fp = stack.spec.dram_floorplan
        #: ``_groups``: the basis groups, each (channel, a die's active
        #: banks in it).  ``_count_groups[n]``: the groups of ``n``
        #: edge-placed banks (``MemoryState.from_counts`` split by
        #: ``channel_banks``) as (channel, group index) pairs in state
        #: order, computed once per table rather than once per entry.
        self._groups: List[Tuple[int, Tuple[int, ...]]] = []
        self._count_groups: List[Tuple[Tuple[int, int], ...]] = []
        for count in range(max_banks_per_die + 1):
            state = MemoryState.from_counts((count,), fp)
            pairs: List[Tuple[int, int]] = []
            for group in state.channel_banks(0, fp).items():
                if group not in self._groups:
                    self._groups.append(group)
                pairs.append((group[0], self._groups.index(group)))
            self._count_groups.append(tuple(pairs))
        self._table: Dict[Tuple[int, ...], float] = {}
        #: Built on first need: DRAM-node drops of the idle stack, and
        #: ``terms[die, group, k - 1] = (X0 - idle) + (1/k) * (X1 - X0)``.
        self._basis: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if precompute:
            self.precompute_all()

    def _build_basis(self) -> Tuple[np.ndarray, np.ndarray]:
        """Solve the idle stack and the two columns of every basis group,
        then form each group's term for every count of active dies.

        One :meth:`PDNStack.solve_states` batch per die; only the DRAM
        nodes of each solve are kept, each solve written as one row of a
        preallocated array.
        """
        dies, groups = self.num_dies, len(self._groups)
        rows = np.concatenate(
            [self.stack.model.die_node_ids(name) for name in self.stack.dram_die_names]
        )
        idle_state = MemoryState.idle(dies)
        basis = np.empty((2 * dies * groups, rows.size))
        with span("lut.basis", columns=1 + basis.shape[0]):
            idle = self.stack.solve_states([idle_state])[0].raw.drops[rows]
            for die in range(dies):
                states: List[MemoryState] = []
                activities: List[Dict[int, float]] = []
                for chan, banks in self._groups:
                    states += [idle_state.with_die(die, banks)] * 2
                    activities += [{chan: 0.0}, {chan: 1.0}]
                first = 2 * die * groups
                results = self.stack.solve_states(states, activities=activities)
                for j, result in enumerate(results):
                    basis[first + j] = result.raw.drops[rows]
            basis[1::2] -= basis[0::2]  # X1 - X0
            basis[0::2] -= idle  # X0 - idle
            terms = np.empty((dies * groups, dies, rows.size))
            share = 1.0 / np.arange(1, dies + 1)
            np.multiply(share[None, :, None], basis[1::2, None, :], out=terms)
            terms += basis[0::2, None, :]
        return idle, terms.reshape(dies, groups, dies, rows.size)

    def _superposed(self, counts: Tuple[int, ...]) -> float:
        """Max DRAM IR drop (mV) of a state, superposed from the basis.

        The idle state reads 0.0: with no bank active it constrains
        nothing.
        """
        if not any(counts):
            return 0.0
        if self._basis is None:
            self._basis = self._build_basis()
        idle, terms = self._basis
        per_die = [self._count_groups[c] for c in counts]
        dies_in = Counter(chan for pairs in per_die for chan, _ in pairs)
        active = np.zeros_like(idle)
        for die, pairs in enumerate(per_die):
            for chan, group in pairs:
                active += terms[die, group, dies_in[chan] - 1]
        value = to_mv(float((idle + active).max()))
        _metrics.inc("lut.entries_superposed")
        _metrics.observe("ir.dram_max_mv", value)
        return value

    def precompute_all(self) -> None:
        """Fill every state with counts in [0, max_banks_per_die]^dies."""
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
            for counts in pending:
                self._table[counts] = self._superposed(counts)

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
            self._table[counts] = self._superposed(counts)
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
