"""Memory state representation.

The paper writes a 3D DRAM memory state as ``R1-R2-R3-R4`` where ``R1`` to
``R4`` are the numbers of active banks from the bottom DRAM die (DRAM1) to
the top die (DRAM4) -- section 2.2.  Table 4 extends the notation with a
position class, e.g. ``0-0-2b-2a``: two banks active in position class
``b`` on die 3 and class ``a`` on die 4.

For the stacked-DDR3 die (4 bank columns above/below the center spine) the
position classes map onto the bank columns:

* ``a``: leftmost column (banks 0 and 4) -- the worst-case edge placement,
* ``b``: second column (banks 1 and 5),
* ``c``: third column (banks 2 and 6),
* ``d``: rightmost column (banks 3 and 7).

A :class:`MemoryState` stores explicit active bank ids per die; helper
constructors produce the edge-worst-case placements used throughout the
paper's architecture studies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.floorplan.blocks import BlockType, DieFloorplan

#: Stacked-DDR3 position classes from Figure 8 (bank column -> bank ids).
DDR3_POSITION_CLASSES: Dict[str, Tuple[int, ...]] = {
    "a": (0, 4),
    "b": (1, 5),
    "c": (2, 6),
    "d": (3, 7),
}

_STATE_TOKEN = re.compile(r"^(\d+)([a-d]?)$")


@dataclass(frozen=True)
class MemoryState:
    """Active banks per die, bottom die first.

    ``active`` is a tuple (one entry per die) of tuples of bank ids.
    """

    active: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for die, banks in enumerate(self.active):
            if len(set(banks)) != len(banks):
                raise ConfigurationError(
                    f"die {die}: duplicate active bank ids {banks}"
                )

    # -- constructors --------------------------------------------------------

    @classmethod
    def idle(cls, num_dies: int) -> "MemoryState":
        """All banks idle."""
        return cls(tuple(() for _ in range(num_dies)))

    @classmethod
    def from_counts(
        cls,
        counts: Sequence[int],
        floorplan: DieFloorplan,
        placement: str = "edge",
    ) -> "MemoryState":
        """Worst-case placement of ``counts[d]`` active banks on die ``d``.

        ``placement='edge'`` picks the banks nearest the die edge (the
        paper's worst case, Table 5); ``'spread'`` distributes banks evenly
        across ids (used for balanced-read studies).
        """
        active: List[Tuple[int, ...]] = []
        for die, count in enumerate(counts):
            if count < 0 or count > floorplan.num_banks:
                raise ConfigurationError(
                    f"die {die}: cannot activate {count} of "
                    f"{floorplan.num_banks} banks"
                )
            if placement == "edge":
                active.append(tuple(floorplan.edge_banks(count)))
            elif placement == "spread":
                if count == 0:
                    active.append(())
                else:
                    step = floorplan.num_banks / count
                    active.append(tuple(int(i * step) for i in range(count)))
            else:
                raise ConfigurationError(f"unknown placement {placement!r}")
        return cls(tuple(active))

    @classmethod
    def from_string(
        cls, text: str, floorplan: DieFloorplan
    ) -> "MemoryState":
        """Parse paper notation like ``"0-0-0-2"`` or ``"0-0-2b-2a"``.

        A bare count uses the edge worst-case placement; a count with a
        position-class suffix (stacked DDR3 only) uses that bank column.
        """
        active: List[Tuple[int, ...]] = []
        for die, token in enumerate(text.split("-")):
            match = _STATE_TOKEN.match(token.strip())
            if not match:
                raise ConfigurationError(
                    f"cannot parse memory-state token {token!r} in {text!r}"
                )
            count, cls_letter = int(match.group(1)), match.group(2)
            if cls_letter:
                banks = DDR3_POSITION_CLASSES[cls_letter]
                if count > len(banks):
                    raise ConfigurationError(
                        f"position class {cls_letter!r} holds at most "
                        f"{len(banks)} banks, requested {count}"
                    )
                if max(banks) >= floorplan.num_banks:
                    raise ConfigurationError(
                        f"position classes apply to the stacked-DDR3 die, "
                        f"not {floorplan.name!r}"
                    )
                active.append(tuple(banks[:count]))
            elif count == 0:
                active.append(())
            else:
                active.append(tuple(floorplan.edge_banks(count)))
        return cls(tuple(active))

    # -- queries --------------------------------------------------------------

    @property
    def num_dies(self) -> int:
        return len(self.active)

    @property
    def counts(self) -> Tuple[int, ...]:
        """Number of active banks per die (the R1..R4 of the notation)."""
        return tuple(len(banks) for banks in self.active)

    @property
    def total_active(self) -> int:
        return sum(self.counts)

    @property
    def active_dies(self) -> Tuple[int, ...]:
        """Indices of dies with at least one active bank."""
        return tuple(d for d, banks in enumerate(self.active) if banks)

    def io_activity(self, die: int) -> float:
        """I/O activity fraction of a die under zero-bubble interleaving.

        With reads interleaved across ``k`` active dies sharing one data
        bus, each active die handles ``1/k`` of the I/O traffic (paper
        section 5.1: four active dies -> 25% I/O activity per die).  Idle
        dies have zero I/O activity.
        """
        if not self.active[die]:
            return 0.0
        return 1.0 / len(self.active_dies)

    def channel_banks(
        self, die: int, floorplan: DieFloorplan
    ) -> Dict[int, Tuple[int, ...]]:
        """Die ``die``'s active banks grouped by channel, in state order.

        A die's load is a sum of one term per group: the rasterizer, the
        power model and the LUT's superposition basis all split it here.
        """
        channel_of = {
            b.bank_id: b.channel for b in floorplan.blocks if b.type is BlockType.BANK
        }
        groups: Dict[int, List[int]] = {}
        for bank in self.active[die]:
            if bank not in channel_of:
                raise ConfigurationError(
                    f"bank {bank} not in floorplan {floorplan.name!r}"
                )
            groups.setdefault(channel_of[bank], []).append(bank)
        return {chan: tuple(group) for chan, group in groups.items()}

    def channel_io_activity(
        self, die: int, channel: int, floorplan: DieFloorplan
    ) -> float:
        """Per-channel I/O activity for multi-channel dies (Wide I/O, HMC).

        Each channel has its own bus; the activity of channel ``c`` on die
        ``d`` is ``1/k_c`` where ``k_c`` is the number of dies with active
        banks in that channel.
        """
        # The channel's bank ids, unordered: no need for the sorted
        # ``banks_in_channel`` list on this per-state hot path.
        chan_banks = {
            b.bank_id
            for b in floorplan.blocks
            if b.type is BlockType.BANK and b.channel == channel
        }
        if chan_banks.isdisjoint(self.active[die]):
            return 0.0
        dies_active = sum(
            1 for banks in self.active if not chan_banks.isdisjoint(banks)
        )
        return 1.0 / dies_active

    def label(self) -> str:
        """Paper-style label from counts, e.g. ``"0-0-0-2"``."""
        return "-".join(str(c) for c in self.counts)

    def with_die(self, die: int, banks: Sequence[int]) -> "MemoryState":
        """A copy with die ``die``'s active banks replaced."""
        active = list(self.active)
        active[die] = tuple(banks)
        return MemoryState(tuple(active))
