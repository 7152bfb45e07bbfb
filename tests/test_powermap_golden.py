"""Rasterized power maps are bitwise-frozen.

``tests/golden/power_maps.json`` holds ``float.hex`` of every entry of a
set of power maps, frozen from the per-cell reference rasterizer:

* one active-state DRAM map per benchmark (its reference state, on the
  first die with active banks);
* one mirrored F2F die map (Table 4's ``0-0-2b-2a``, die 2);
* the logic map of every benchmark that has a logic die.

Nothing regenerates the golden.  A deliberate change to rasterization
re-freezes it by hand, and the commit says why.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.designs import all_benchmarks
from repro.experiments.common import ddr3_state
from repro.pdn.stackup import plan_stack
from repro.power.powermap import dram_power_map, logic_power_map
from repro.tech.calibration import DEFAULT_TECH

GOLDEN = Path(__file__).parent / "golden" / "power_maps.json"


@functools.lru_cache(maxsize=None)
def golden_maps() -> Dict[str, np.ndarray]:
    """The frozen maps, keyed ``<bench>/<kind>/...``, on the planned grids."""
    vdd = DEFAULT_TECH.vdd
    maps: Dict[str, np.ndarray] = {}
    for key, bench in all_benchmarks().items():
        spec = bench.stack
        plan = plan_stack(spec, bench.baseline)
        grid = plan.dram_grid.to_grid()
        state = bench.reference_state()
        die = next(d for d in range(state.num_dies) if state.active[d])
        maps[f"{key}/dram/die{die}/{state.label()}"] = dram_power_map(
            spec.dram_floorplan, spec.dram_power, state, die, grid, vdd
        ).current
        if plan.logic_grid is not None:
            maps[f"{key}/logic"] = logic_power_map(
                spec.logic_floorplan,
                spec.logic_power,
                plan.logic_grid.to_grid(),
                vdd,
            ).current
        if key == "ddr3_off":
            f2f = ddr3_state("0-0-2b-2a")
            maps["ddr3_off/dram_mirrored/die2/0-0-2b-2a"] = dram_power_map(
                spec.dram_floorplan, spec.dram_power, f2f, 2, grid, vdd,
                mirrored=True,
            ).current
    return maps


def to_record(current: np.ndarray) -> dict:
    return {
        "shape": list(current.shape),
        "hex": [float(v).hex() for v in current.reshape(-1)],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_map(golden):
    assert sorted(golden) == sorted(golden_maps())


@pytest.mark.parametrize("name", sorted(golden_maps()))
def test_power_map_bitwise(golden, name):
    current = golden_maps()[name]
    assert to_record(current) == golden[name], f"{name} drifted from golden"
