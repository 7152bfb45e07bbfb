"""Rasterized power maps: block powers -> per-node current injections.

The R-Mesh solver consumes a current per mesh node.  This module spreads
each block's power over the grid cells it overlaps, proportionally to
overlap area, so the injected total is exact at any grid resolution (the
paper's floorplan generator "reads the corresponding power map",
section 2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.floorplan.blocks import BlockType, DieFloorplan
from repro.geometry import Grid2D, Rect
from repro.power.model import DramPowerSpec, LogicPowerSpec, channel_bank_power_mw
from repro.power.state import MemoryState


@dataclass
class PowerMap:
    """Current injections (amperes) on a grid, one value per node."""

    grid: Grid2D
    current: np.ndarray  # shape (ny, nx), amperes

    def __post_init__(self) -> None:
        expected = (self.grid.ny, self.grid.nx)
        if self.current.shape != expected:
            raise ConfigurationError(
                f"current array shape {self.current.shape} does not match "
                f"grid {expected}"
            )

    @classmethod
    def zeros(cls, grid: Grid2D) -> "PowerMap":
        return cls(grid, np.zeros((grid.ny, grid.nx)))

    @property
    def total_current(self) -> float:
        """Total injected current, A."""
        return float(self.current.sum())

    def total_power_mw(self, vdd: float) -> float:
        """Total power implied by the injections at supply ``vdd``, mW."""
        return self.total_current * vdd * 1e3

    def add_block_power(self, rect: Rect, power_mw: float, vdd: float) -> None:
        """Spread ``power_mw`` uniformly over ``rect`` as current at ``vdd``.

        Distribution is proportional to geometric overlap with each grid
        cell, so power is conserved exactly (clipped parts of a rect that
        fall outside the grid are dropped with their share of the power --
        floorplan validation prevents that from happening in practice).
        """
        if power_mw < 0.0:
            raise ConfigurationError(f"block power must be >= 0, got {power_mw}")
        if power_mw == 0.0 or rect.area == 0.0:
            return
        frac = self.grid.coverage_fractions(rect)  # overlap / cell_area
        cell_area = self.grid.dx * self.grid.dy
        share = frac * cell_area / rect.area  # fraction of rect per cell
        self.current += share * (power_mw * 1e-3 / vdd)

    def flat(self) -> np.ndarray:
        """Current as a flat vector in grid flat-id order."""
        return self.current.reshape(-1)


def _area_weighted(
    pmap: PowerMap, rects: Iterable[Rect], power_mw: float, vdd: float
) -> None:
    """Spread ``power_mw`` over several rectangles, weighted by area."""
    rects = list(rects)
    total_area = sum(r.area for r in rects)
    if total_area <= 0.0:
        raise ConfigurationError("cannot spread power over zero total area")
    for rect in rects:
        pmap.add_block_power(rect, power_mw * rect.area / total_area, vdd)


def dram_power_map(
    floorplan: DieFloorplan,
    spec: DramPowerSpec,
    state: MemoryState,
    die: int,
    grid: Grid2D,
    vdd: float,
    mirrored: bool = False,
    activity: Optional[Mapping[int, float]] = None,
) -> PowerMap:
    """Power map of one DRAM die in a memory state.

    ``mirrored`` rasterizes all blocks reflected across the die's vertical
    center line, modelling a flipped die in an F2F pair (paper section
    4.2: "changing the die orientation of DRAM1 and DRAM3").

    ``activity`` overrides the I/O activity of each channel (a channel
    missing from the mapping gets 0.0) instead of deriving it from the
    state.  The map is affine in each channel's activity, which is what
    lets the controller LUT superpose states from a few basis maps
    (:mod:`repro.controller.lut`).
    """
    pmap = PowerMap.zeros(grid)
    axis_x = floorplan.outline.center.x

    def place(rect: Rect) -> Rect:
        return rect.mirrored_x(axis_x) if mirrored else rect

    # Standby power: uniform over the die.
    pmap.add_block_power(floorplan.outline, spec.standby_mw, vdd)

    banks = state.active[die]
    if not banks:
        return pmap

    bank_blocks = {b.bank_id: b for b in floorplan.banks()}
    per_channel = state.channel_banks(die, floorplan)

    io_blocks = floorplan.blocks_of_type(BlockType.IO)
    if not io_blocks:
        # HMC die: the shared periphery spine plays the IO role.
        io_blocks = floorplan.blocks_of_type(BlockType.PERIPHERY)
    if not io_blocks:
        raise ConfigurationError(
            f"floorplan {floorplan.name!r} has no IO or periphery blocks"
        )

    for chan, chan_banks in per_channel.items():
        if activity is None:
            act = state.channel_io_activity(die, chan, floorplan)
        else:
            act = activity.get(chan, 0.0)
        # Channel periphery + IO power over the IO blocks.
        _area_weighted(
            pmap,
            (place(b.rect) for b in io_blocks),
            spec.io_base_mw + act * spec.io_dyn_mw,
            vdd,
        )
        # Bank power: static per bank + dynamic split across the banks
        # interleaving on this channel; a decoder_fraction of each bank's
        # power sits in the spine segment aligned with the bank's columns.
        bank_total = channel_bank_power_mw(spec, len(chan_banks), act)
        per_bank = bank_total / len(chan_banks)
        for bank_id in chan_banks:
            rect = place(bank_blocks[bank_id].rect)
            decoder = per_bank * spec.decoder_fraction
            pmap.add_block_power(rect, per_bank - decoder, vdd)
            if decoder:
                segment = _spine_segment(rect, io_blocks, mirrored, place)
                pmap.add_block_power(segment, decoder, vdd)
    return pmap


def _spine_segment(bank_rect: Rect, io_blocks, mirrored: bool, place) -> Rect:
    """The IO-spine strip sharing the bank's column extent.

    Falls back to the nearest IO block's full rect when the bank's x-range
    does not overlap any IO block (e.g. cross-shaped pad areas).
    """
    best = None
    best_dy = None
    for block in io_blocks:
        spine = place(block.rect)
        x0 = max(bank_rect.x0, spine.x0)
        x1 = min(bank_rect.x1, spine.x1)
        if x1 > x0:
            dy = abs(spine.center.y - bank_rect.center.y)
            if best is None or dy < best_dy:
                best = Rect(x0, spine.y0, x1, spine.y1)
                best_dy = dy
    if best is not None:
        return best
    # No x overlap: use the nearest IO block outright.
    nearest = min(
        io_blocks,
        key=lambda b: place(b.rect).center.manhattan_to(bank_rect.center),
    )
    return place(nearest.rect)


def logic_power_map(
    floorplan: DieFloorplan,
    spec: LogicPowerSpec,
    grid: Grid2D,
    vdd: float,
    scale: float = 1.0,
) -> PowerMap:
    """Power map of a logic die.

    ``scale`` uniformly scales the logic activity (used for sensitivity
    studies; 1.0 reproduces the paper's full-activity host).
    """
    if scale < 0.0:
        raise ConfigurationError(f"scale must be >= 0, got {scale}")
    pmap = PowerMap.zeros(grid)
    pmap.add_block_power(floorplan.outline, spec.background_mw * scale, vdd)
    for block in floorplan.blocks:
        power = spec.per_block_mw.get(block.type, 0.0) * scale
        if power:
            pmap.add_block_power(block.rect, power, vdd)
    return pmap
