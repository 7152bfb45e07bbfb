"""Branch currents and TSV current crowding, read through the diagnosis."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import SolverError
from repro.experiments import ext_crowding
from repro.experiments.ext_crowding import crowding_factor, gini, interface_rows
from repro.pdn import build_stack
from repro.pdn.diagnose import diagnose_stack
from repro.power import MemoryState

GOLDEN = Path(__file__).parent / "golden" / "ext_crowding.json"


def _row(magnitudes):
    """An op row's current statistics over per-link magnitudes."""
    return {
        "branches": magnitudes.size,
        "total_current_a": float(magnitudes.sum()),
        "max_current_a": float(magnitudes.max()),
    }


@pytest.fixture(scope="module")
def diag(ddr3_stack, ddr3_floorplan):
    return diagnose_stack(
        ddr3_stack, MemoryState.from_string("0-0-0-2", ddr3_floorplan)
    )


class TestCrowdingStatistics:
    def test_uniform_distribution(self):
        currents = np.full(10, 0.01)
        assert crowding_factor([_row(currents)]) == pytest.approx(1.0)
        assert gini(currents) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_distribution(self):
        currents = np.zeros(10)
        currents[0] = 1.0
        assert crowding_factor([_row(currents)]) == pytest.approx(10.0)
        assert gini(currents) > 0.8

    def test_row_totals_match_op_currents(self, diag):
        """Every op row's current fields are the statistics of exactly
        the branches its op created."""
        for row in diag.ops:
            magnitudes = np.abs(diag.op_currents(row["index"]))
            assert magnitudes.size == row["branches"]
            if magnitudes.size:
                assert row["total_current_a"] == pytest.approx(magnitudes.sum())
                assert row["max_current_a"] == magnitudes.max()
                assert row["max_current_a"] * row["branches"] >= row["total_current_a"]


class TestInterfaceCurrents:
    def test_kcl_total_equals_downstream_power(
        self, ddr3_stack, diag, ddr3_floorplan
    ):
        """Current crossing interface 3->4 equals the top die's draw."""
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        maps = ddr3_stack.power_maps(state)
        top_current = maps[ddr3_stack.load_layer_key(3)].total_current
        rows = interface_rows(diag, "dram3/M3", "dram4/M3")
        # Net upward current == top die load (signed sum, not magnitudes).
        net = float(sum(diag.op_currents(row["index"]).sum() for row in rows))
        assert abs(net) == pytest.approx(top_current, rel=1e-6)
        assert sum(row["total_current_a"] for row in rows) >= abs(net) - 1e-12

    def test_supply_kcl(self, ddr3_stack, diag, ddr3_floorplan):
        """Supply entry current equals the whole stack's draw."""
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        total_load = sum(
            m.total_current for m in ddr3_stack.power_maps(state).values()
        )
        supply = [row for row in diag.ops if row["kind"] == "supply"]
        total = sum(row["total_current_a"] for row in supply)
        assert total == pytest.approx(total_load, rel=1e-6)

    def test_unknown_interface(self, diag):
        with pytest.raises(SolverError):
            interface_rows(diag, "dram1/M3", "nope/M3")

    def test_crowding_follows_load_location(self, ddr3_off_bench, ddr3_floorplan):
        """Edge TSVs near the active banks carry disproportionate current
        (the crowding the paper's reference [6] studies)."""
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        stack = build_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        rows = interface_rows(diagnose_stack(stack, state), "dram3/M3", "dram4/M3")
        assert crowding_factor(rows) > 1.5

    def test_idle_stack_interface_quiet(self, ddr3_stack):
        diag = diagnose_stack(ddr3_stack, MemoryState.idle(4))
        rows = interface_rows(diag, "dram3/M3", "dram4/M3")
        # Only the idle die's standby current crosses upward.
        assert sum(row["total_current_a"] for row in rows) < 0.1

    def test_non_adjacent_layers_have_no_links(self, diag):
        with pytest.raises(SolverError):
            interface_rows(diag, "dram1/M3", "dram4/M3")


def test_ext_crowding_rows_match_golden():
    """The crowding experiment's rows are bitwise those recorded before
    branch currents moved onto :func:`extract_branches`."""
    golden = json.loads(GOLDEN.read_text())
    rows = {row.label: row.model for row in ext_crowding.run().rows}
    assert set(rows) == set(golden)
    for label, model in rows.items():
        for key, value in model.items():
            expected = golden[label][key]
            got = value if isinstance(value, int) else float(value).hex()
            assert got == expected, f"{label}/{key}: {got} != {expected}"
