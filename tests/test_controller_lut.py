"""IR-drop look-up table semantics."""

import hashlib

import numpy as np
import pytest

from repro.controller import IRDropLUT
from repro.designs import off_chip_ddr3
from repro.errors import ConfigurationError
from repro.experiments.ext_hmc_scheduling import CONSTRAINT_FRACTION
from repro.experiments.fig9_constraint_sweep import (
    FAST_CONSTRAINTS,
    FULL_CONSTRAINTS,
    table7_cases,
)
from repro.experiments.table6_policies import CONSTRAINT_MV
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.perf.cache import cached_build_stack
from repro.power.state import MemoryState


class TestLUT:
    def test_idle_is_zero(self, ddr3_lut):
        assert ddr3_lut.lookup((0, 0, 0, 0)) == 0.0

    def test_precompute_covers_space(self, ddr3_lut):
        assert ddr3_lut.size == 3**4

    def test_validation(self, ddr3_lut):
        with pytest.raises(ConfigurationError):
            ddr3_lut.lookup((0, 0, 0))  # wrong die count
        with pytest.raises(ConfigurationError):
            ddr3_lut.lookup((0, 0, 0, 3))  # beyond interleave limit
        with pytest.raises(ConfigurationError):
            ddr3_lut.lookup((-1, 0, 0, 0))

    def test_allows(self, ddr3_lut):
        worst = ddr3_lut.lookup((0, 0, 0, 2))
        assert not ddr3_lut.allows((0, 0, 0, 2), worst - 1.0)
        assert ddr3_lut.allows((0, 0, 0, 2), worst + 1.0)
        assert ddr3_lut.allows((0, 0, 0, 2), None)  # no constraint

    def test_min_active_ir_is_a_single_bank_state(self, ddr3_lut):
        m = ddr3_lut.min_active_ir()
        singles = [
            ddr3_lut.lookup(tuple(1 if d == i else 0 for d in range(4)))
            for i in range(4)
        ]
        assert m == min(singles)

    def test_top_die_states_cost_more(self, ddr3_lut):
        """More TSV hops for the same load (the vertical gradient)."""
        assert ddr3_lut.lookup((0, 0, 0, 1)) > ddr3_lut.lookup((1, 0, 0, 0))
        assert ddr3_lut.lookup((0, 0, 0, 2)) > ddr3_lut.lookup((2, 0, 0, 0))

    def test_balance_bonus(self, ddr3_lut):
        """Spreading the same reads over more dies lowers the worst IR
        (the architectural insight behind DistR, section 5.1)."""
        assert ddr3_lut.lookup((1, 1, 1, 1)) < ddr3_lut.lookup((0, 0, 0, 2))
        assert ddr3_lut.lookup((2, 2, 2, 2)) < ddr3_lut.lookup((0, 0, 0, 2))

    def test_paper_policy_structure_at_24mv(self, ddr3_lut):
        """The structural facts Table 6 depends on at the 24 mV constraint:
        singles schedulable, the IDD7 state forbidden."""
        for die in range(4):
            single = tuple(1 if d == die else 0 for d in range(4))
            assert ddr3_lut.lookup(single) < 24.0
        assert ddr3_lut.lookup((0, 0, 0, 2)) > 24.0
        assert ddr3_lut.lookup((2, 2, 2, 2)) > 24.0  # paper: 24.82

    def test_as_dict_copy(self, ddr3_lut):
        d = ddr3_lut.as_dict()
        d[(0, 0, 0, 0)] = 99.0
        assert ddr3_lut.lookup((0, 0, 0, 0)) == 0.0


def test_basis_is_built_once_lazily_and_lookups_never_solve(ddr3_stack, ddr3_lut):
    """One ``lut.basis`` span per table, opened by the first active
    lookup; every later entry is superposed without a solve, and the lazy
    table equals the eager one bitwise."""
    lut = IRDropLUT(ddr3_stack, precompute=False)
    mark = obs_trace.span_count()
    lut.lookup((0, 0, 0, 0))  # idle reads 0.0 without a basis
    assert obs_trace.spans(mark) == []
    lut.lookup((0, 0, 0, 1))
    spans = obs_trace.spans(mark)
    assert [s.name for s in spans if s.name.startswith("lut.")] == ["lut.basis"]
    children = {s.name for s in spans if s.parent == "lut.basis"}
    assert {"powermap.rasterize", "solver.solve_many"} <= children
    mark = obs_trace.span_count()
    for counts in ddr3_lut.as_dict():
        lut.lookup(counts)
    later = {s.name for s in obs_trace.spans(mark)}
    assert "lut.basis" not in later
    assert not any(name.startswith("solver.solve") for name in later)
    assert lut.as_dict() == ddr3_lut.as_dict()


def test_superposed_entries_are_counted(ddr3_stack):
    """One ``lut.entries_superposed`` per entry superposed, none for the
    idle state or a repeated lookup."""
    lut = IRDropLUT(ddr3_stack, precompute=False)
    before = obs_metrics.get_counter("lut.entries_superposed")
    for counts in [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 1), (1, 0, 2, 1)]:
        lut.lookup(counts)
    assert obs_metrics.get_counter("lut.entries_superposed") - before == 2


def _relative_error(lut, stack, states):
    """Worst relative gap between LUT entries and direct state solves."""
    floorplan = stack.spec.dram_floorplan
    worst = 0.0
    for counts in states:
        direct = stack.solve_state(MemoryState.from_counts(counts, floorplan))
        worst = max(worst, abs(lut.lookup(counts) - direct.dram_max_mv) / direct.dram_max_mv)
    return worst


@pytest.fixture(scope="module")
def hmc_lut(paper_stacks):
    """The ext_hmc table (8 banks per die), every one of its 9^4 entries."""
    return IRDropLUT(paper_stacks["hmc"][1], max_banks_per_die=8)


class TestSuperposition:
    """Superposed entries against whole-state solves, and their margin to
    every constraint the drivers compare them with."""

    def test_every_ddr3_state_matches_a_direct_solve(self, ddr3_stack, ddr3_lut):
        states = [c for c in ddr3_lut.as_dict() if any(c)]
        assert len(states) == 80
        assert _relative_error(ddr3_lut, ddr3_stack, states) <= 1e-12

    def test_sampled_hmc_states_match_direct_solves(self, paper_stacks, hmc_lut):
        rng = np.random.default_rng(2015)
        states = {tuple(int(c) for c in rng.integers(0, 9, 4)) for _ in range(320)}
        states.discard((0, 0, 0, 0))
        assert len(states) >= 300
        assert _relative_error(hmc_lut, paper_stacks["hmc"][1], sorted(states)) <= 1e-12

    @staticmethod
    def _margin(lut, constraints):
        return min(abs(v - c) for v in lut.as_dict().values() for c in constraints)

    def test_no_table6_or_fig9_entry_sits_on_a_constraint(self):
        """A ~1e-15 move of an entry cannot flip an admission decision."""
        cases = [(off_chip_ddr3().stack, off_chip_ddr3().baseline, [CONSTRAINT_MV])]
        cases += [
            (bench.stack, config, FAST_CONSTRAINTS + FULL_CONSTRAINTS)
            for _, _, bench, config in table7_cases()
        ]
        for spec, config, constraints in cases:
            lut = IRDropLUT(cached_build_stack(spec, config))
            assert self._margin(lut, constraints) > 1e-9

    def test_no_ext_hmc_entry_sits_on_its_constraint(self, hmc_bench, hmc_lut):
        ref = hmc_lut.lookup(hmc_bench.reference_state().counts)
        assert hmc_lut.size == 9**4
        assert self._margin(hmc_lut, [CONSTRAINT_FRACTION * ref]) > 1e-9


def _table_sha1(lut):
    """SHA-1 over every entry, in sorted count order, as ``float.hex``."""
    text = "".join(
        f"{'-'.join(map(str, counts))}:{float(value).hex()}\n"
        for counts, value in sorted(lut.as_dict().items())
    )
    return hashlib.sha1(text.encode()).hexdigest()


class TestTableGolden:
    """Every entry of the DDR3 and ext_hmc tables, bitwise.

    The hashes were recorded before the table-driven superposition and
    the chunked block solves; nothing regenerates them.  A change that
    moves any entry by one ulp fails here.
    """

    def test_ddr3_table_hash(self, ddr3_lut):
        assert ddr3_lut.size == 81
        assert _table_sha1(ddr3_lut) == "7bd3245d569a0e8eb191097ecc60eb71d6838b0e"

    def test_hmc_table_hash(self, hmc_lut):
        assert hmc_lut.size == 9**4
        assert _table_sha1(hmc_lut) == "0b67dc80a2a3d577b75f2d49e266327a0cd47e1a"
