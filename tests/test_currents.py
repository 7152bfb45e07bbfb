"""Branch currents and TSV current crowding."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import MeshError, SolverError
from repro.experiments import ext_crowding
from repro.pdn import build_stack
from repro.power import MemoryState
from repro.rmesh.branches import CrowdingReport, extract_branches

GOLDEN = Path(__file__).parent / "golden" / "ext_crowding.json"


def _branches(result):
    return extract_branches(result.raw.model, result.raw.drops)


def _interface_report(branches, key_a="dram3/M3", key_b="dram4/M3"):
    mask = branches.interface_mask(key_a, key_b)
    return CrowdingReport(np.abs(branches.links.current[mask]))


@pytest.fixture(scope="module")
def branches(ddr3_stack, ddr3_floorplan):
    state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
    return _branches(ddr3_stack.solve_state(state))


class TestCrowdingReport:
    def test_uniform_distribution(self):
        report = CrowdingReport(np.full(10, 0.01))
        assert report.crowding_factor == pytest.approx(1.0)
        assert report.gini == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_distribution(self):
        currents = np.zeros(10)
        currents[0] = 1.0
        report = CrowdingReport(currents)
        assert report.crowding_factor == pytest.approx(10.0)
        assert report.gini > 0.8

    def test_empty_rejected(self):
        with pytest.raises(SolverError):
            CrowdingReport(np.array([]))

    def test_totals(self):
        report = CrowdingReport(np.array([0.1, 0.3]))
        assert report.total_a == pytest.approx(0.4)
        assert report.max_a == pytest.approx(0.3)
        assert report.mean_a == pytest.approx(0.2)


class TestInterfaceCurrents:
    def test_kcl_total_equals_downstream_power(
        self, ddr3_stack, branches, ddr3_floorplan
    ):
        """Current crossing interface 3->4 equals the top die's draw."""
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        maps = ddr3_stack.power_maps(state)
        top_current = maps[ddr3_stack.load_layer_key(3)].total_current
        report = _interface_report(branches)
        # Net upward current == top die load (signed sum, not magnitudes).
        mask = branches.interface_mask("dram3/M3", "dram4/M3")
        net = float(branches.links.current[mask].sum())
        assert abs(net) == pytest.approx(top_current, rel=1e-6)
        assert report.total_a >= abs(net) - 1e-12

    def test_supply_kcl(self, ddr3_stack, branches, ddr3_floorplan):
        """Supply entry current equals the whole stack's draw."""
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        total_load = sum(
            m.total_current for m in ddr3_stack.power_maps(state).values()
        )
        report = CrowdingReport(np.abs(branches.supply.current))
        assert report.total_a == pytest.approx(total_load, rel=1e-6)

    def test_unknown_interface(self, branches):
        with pytest.raises((SolverError, MeshError)):
            _interface_report(branches, "dram1/M3", "nope/M3")

    def test_crowding_follows_load_location(self, ddr3_off_bench, ddr3_floorplan):
        """Edge TSVs near the active banks carry disproportionate current
        (the crowding the paper's reference [6] studies)."""
        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        stack = build_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        report = _interface_report(_branches(stack.solve_state(state)))
        assert report.crowding_factor > 1.5

    def test_idle_stack_interface_quiet(self, ddr3_stack):
        res = ddr3_stack.solve_state(MemoryState.idle(4))
        report = _interface_report(_branches(res))
        # Only the idle die's standby current crosses upward.
        assert report.total_a < 0.1

    def test_non_adjacent_layers_have_no_links(self, branches):
        with pytest.raises(SolverError):
            _interface_report(branches, "dram1/M3", "dram4/M3")


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
