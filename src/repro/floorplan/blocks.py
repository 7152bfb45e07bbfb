"""Floorplan blocks and die floorplans.

A :class:`DieFloorplan` is a named outline plus a list of typed
:class:`Block` rectangles.  Banks carry integer ids so memory states
("which banks are active") can address them; everything else is identified
by type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import FloorplanError
from repro.geometry import Point, Rect


class BlockType(enum.Enum):
    """Functional type of a floorplan block."""

    BANK = "bank"  # DRAM cell array bank
    ROW_DECODER = "row_decoder"
    COL_DECODER = "col_decoder"
    IO = "io"  # I/O pads and drivers (center spine in DRAM)
    PERIPHERY = "periphery"  # control logic, charge pumps, DLL, ...
    CORE = "core"  # logic die: processor core
    CACHE = "cache"  # logic die: L2/L3 arrays
    SOC = "soc"  # logic die: uncore / SoC blocks
    VAULT_CTRL = "vault_ctrl"  # HMC logic: per-vault controller
    SERDES = "serdes"  # HMC logic: high speed links
    TSV_REGION = "tsv_region"  # reserved TSV area (distributed TSVs)


@dataclass(frozen=True)
class Block:
    """One rectangular floorplan block.

    ``bank_id`` is set only for ``BlockType.BANK`` blocks and must be
    unique within a die.  ``channel`` groups banks into memory channels
    (Wide I/O has 4, HMC 16; stacked DDR3 has a single channel 0).
    """

    rect: Rect
    type: BlockType
    name: str
    bank_id: Optional[int] = None
    channel: int = 0

    def __post_init__(self) -> None:
        if (self.type is BlockType.BANK) != (self.bank_id is not None):
            raise FloorplanError(
                f"block {self.name!r}: bank_id must be set iff type is BANK"
            )


@dataclass
class DieFloorplan:
    """A die outline and its blocks.

    Invariants enforced at construction: every block fits inside the
    outline, bank ids are unique and dense (0..n-1), and banks do not
    overlap each other.
    """

    name: str
    outline: Rect
    blocks: List[Block] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        tol = 1e-9
        for block in self.blocks:
            r = block.rect
            if (
                r.x0 < self.outline.x0 - tol
                or r.y0 < self.outline.y0 - tol
                or r.x1 > self.outline.x1 + tol
                or r.y1 > self.outline.y1 + tol
            ):
                raise FloorplanError(
                    f"block {block.name!r} extends beyond die outline of "
                    f"{self.name!r}"
                )
        banks = self.banks()
        ids = sorted(b.bank_id for b in banks)
        if ids != list(range(len(banks))):
            raise FloorplanError(
                f"die {self.name!r}: bank ids must be dense 0..n-1, got {ids}"
            )
        for i, a in enumerate(banks):
            for b in banks[i + 1 :]:
                if a.rect.overlap_area(b.rect) > tol:
                    raise FloorplanError(
                        f"die {self.name!r}: banks {a.bank_id} and {b.bank_id} "
                        "overlap"
                    )

    # -- queries -----------------------------------------------------------

    def banks(self) -> List[Block]:
        """All bank blocks, sorted by bank id."""
        banks = [b for b in self.blocks if b.type is BlockType.BANK]
        return sorted(banks, key=lambda b: b.bank_id)

    @property
    def num_banks(self) -> int:
        return len(self.banks())

    def bank_rect(self, bank_id: int) -> Rect:
        """Rectangle of the bank with the given id."""
        for block in self.blocks:
            if block.type is BlockType.BANK and block.bank_id == bank_id:
                return block.rect
        raise FloorplanError(f"die {self.name!r} has no bank {bank_id}")

    def blocks_of_type(self, block_type: BlockType) -> List[Block]:
        """All blocks of one type, in insertion order."""
        return [b for b in self.blocks if b.type is block_type]

    def banks_in_channel(self, channel: int) -> List[Block]:
        """Banks belonging to a memory channel, sorted by id."""
        return [b for b in self.banks() if b.channel == channel]

    @property
    def num_channels(self) -> int:
        banks = self.banks()
        if not banks:
            return 0
        return max(b.channel for b in banks) + 1

    def edge_distance(self, p: Point) -> float:
        """Distance from ``p`` to the nearest die edge (used to rank banks
        for worst-case 'edge' placement)."""
        return min(
            p.x - self.outline.x0,
            self.outline.x1 - p.x,
            p.y - self.outline.y0,
            self.outline.y1 - p.y,
        )

    def edge_banks(self, count: int) -> List[int]:
        """Ids of the ``count`` banks closest to the die edge.

        The paper's architecture studies (Table 5) assume active banks "are
        located on the edge, which is the worst case of a certain memory
        state".  Ties are broken toward the left edge, matching the
        validation setup ("the left two banks are in the interleaving read
        mode").
        """
        banks = self.banks()
        if count > len(banks):
            raise FloorplanError(
                f"requested {count} edge banks but die {self.name!r} has "
                f"{len(banks)}"
            )
        ranked = sorted(
            banks,
            key=lambda b: (
                # Quantize so geometric ties (left vs right edge) are real
                # ties and the left-edge preference below decides them.
                round(self.edge_distance(b.rect.center), 6),
                b.rect.center.x,
            ),
        )
        return [b.bank_id for b in ranked[:count]]

    def summary(self) -> Dict[str, int]:
        """Counts of blocks per type (for reports and Figure-3-style stats)."""
        counts: Dict[str, int] = {}
        for block in self.blocks:
            counts[block.type.value] = counts.get(block.type.value, 0) + 1
        return counts


def grid_rects(
    region: Rect,
    cols: int,
    rows: int,
    gap_x: float = 0.0,
    gap_y: float = 0.0,
) -> List[List[Rect]]:
    """Split ``region`` into a cols x rows array of rectangles with gaps.

    Returns rows-major nested lists: ``result[row][col]``, row 0 at the
    bottom.  The gaps between cells are left for decoder strips / TSV
    regions.
    """
    if cols < 1 or rows < 1:
        raise FloorplanError("grid needs at least 1x1 cells")
    cell_w = (region.width - (cols - 1) * gap_x) / cols
    cell_h = (region.height - (rows - 1) * gap_y) / rows
    if cell_w <= 0 or cell_h <= 0:
        raise FloorplanError(
            f"grid cells would be degenerate: {cell_w:.3f} x {cell_h:.3f} mm"
        )
    out: List[List[Rect]] = []
    for r in range(rows):
        row: List[Rect] = []
        y0 = region.y0 + r * (cell_h + gap_y)
        for c in range(cols):
            x0 = region.x0 + c * (cell_w + gap_x)
            row.append(Rect.from_size(x0, y0, cell_w, cell_h))
        out.append(row)
    return out
