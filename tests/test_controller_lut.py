"""IR-drop look-up table semantics."""

import pytest

from repro.controller import IRDropLUT
from repro.errors import ConfigurationError
from repro.obs import trace as obs_trace


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


def test_lazy_fills_open_one_span_per_table_miss(ddr3_stack):
    """``lut.fill`` wraps each miss's state build + solve, and only misses."""
    lut = IRDropLUT(ddr3_stack, precompute=False)
    mark = obs_trace.span_count()
    for counts in [(0, 0, 0, 1), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 0, 0), (1, 0, 0, 0)]:
        lut.lookup(counts)
    fills = [s for s in obs_trace.spans(mark) if s.name == "lut.fill"]
    assert len(fills) == 2  # two distinct active states; idle is free
    assert [s.attrs["counts"] for s in fills] == ["0-0-0-1", "1-0-0-0"]
    children = {s.name for s in obs_trace.spans(mark) if s.parent == "lut.fill"}
    assert {"powermap.rasterize", "solver.solve"} <= children
