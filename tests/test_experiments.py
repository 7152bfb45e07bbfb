"""Experiment framework and the fast variants of each driver.

Every driver run here is pinned bitwise to
``tests/golden/experiment_rows.json`` (``assert_rows_golden``) and
keeps its trend asserts, which say *why* the numbers matter.  The
docs quote the same golden (``tests/test_doc_numbers.py``).
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentResult, Row, registry, run_experiment
from repro.experiments.base import register


class TestFramework:
    def test_registry_complete(self):
        expected = {
            "table1", "fig4", "sec3_metal", "sec31", "fig5", "table2",
            "table3", "table4", "table5", "table6", "fig9", "table8",
            "sec61", "table9",
        }
        assert expected <= set(registry)

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register("table1")(lambda fast=True: None)

    def test_row_deviation(self):
        row = Row("x", paper={"v": 10.0}, model={"v": 11.0})
        assert row.deviation_percent("v") == pytest.approx(10.0)
        assert row.deviation_percent("missing") is None

    def test_result_fmt_and_lookup(self):
        res = ExperimentResult(
            "t", "title", [Row("a", {"v": 1.0}, {"v": 1.1})], notes=["n"]
        )
        text = res.fmt()
        assert "title" in text and "+10.0%" in text and "note: n" in text
        assert res.row("a").label == "a"
        with pytest.raises(ConfigurationError):
            res.row("missing")


class TestFastDrivers:
    """Each driver runs and the paper's qualitative claims hold."""

    def test_table1(self, assert_rows_golden):
        res = run_experiment("table1")
        assert_rows_golden(res)
        assert len(res.rows) == 4
        for row in res.rows:
            assert row.model["banks"] == row.paper["banks"]
            assert row.model["channels"] == row.paper["channels"]

    def test_table2_ordering(self, assert_rows_golden):
        res = run_experiment("table2")
        assert_rows_golden(res)
        ir = {r.label[:3]: r.model["ir_mv"] for r in res.rows}
        # (a) best, (b) worst, RDL helps (c) vs (b).
        assert ir["(a)"] < ir["(c)"] < ir["(b)"]
        assert ir["(d)"] < ir["(b)"]

    def test_table3_wirebond_helps_most_when_coupled(self, assert_rows_golden):
        res = run_experiment("table3")
        assert_rows_golden(res)
        deltas = [r.model["delta_pct"] for r in res.rows]
        assert all(d < 0 for d in deltas)  # wire bonding always helps
        assert deltas[0] < deltas[2]  # most on the coupled on-chip design

    def test_sec31_coupling(self, assert_rows_golden):
        res = run_experiment("sec31")
        assert_rows_golden(res)
        off = res.row("off-chip (stand-alone)").model["ir_mv"]
        on = res.row("on-chip, PDNs coupled").model["ir_mv"]
        ded = res.row("on-chip, dedicated via-last TSVs").model["ir_mv"]
        assert on > 1.5 * off
        assert abs(ded - off) / off < 0.25  # decoupled ~ off-chip

    def test_sec3_metal(self, assert_rows_golden):
        res = run_experiment("sec3_metal")
        assert_rows_golden(res)
        final = res.rows[-1].model["reduction_pct"]
        assert final > 30.0

    def test_table4_overlap_trend(self, assert_rows_golden):
        res = run_experiment("table4")
        assert_rows_golden(res)
        by_label = {r.label.split(" ")[0]: r.model["delta_pct"] for r in res.rows}
        # Overlapping pairs barely benefit; separated pairs benefit a lot.
        assert by_label["0-0-2a-2a"] > -12.0
        assert by_label["0-2a-0-2a"] < -30.0
        # Separation monotonicity b -> d.
        assert by_label["0-0-2d-2a"] < by_label["0-0-2b-2a"]

    def test_table5_worst_cases(self, assert_rows_golden):
        res = run_experiment("table5")
        assert_rows_golden(res)
        f2b = {r.label.split(" ")[0]: r.model["f2b_mv"] for r in res.rows}
        f2f = {r.label.split(" ")[0]: r.model["f2f_mv"] for r in res.rows}
        # F2B worst case is the concentrated 0-0-0-2 state...
        assert f2b["0-0-0-2"] == max(f2b.values())
        # ...while under F2F the overlap state 0-0-2-2 dominates.
        assert f2f["0-0-2-2"] == max(f2f.values())

    def test_table8_exact(self, assert_rows_golden):
        res = run_experiment("table8")
        assert_rows_golden(res)
        for row in res.rows:
            for key, paper_value in row.paper.items():
                assert row.model[key] == pytest.approx(paper_value, abs=0.002)

    def test_fig4(self, assert_rows_golden):
        res = run_experiment("fig4")
        assert_rows_golden(res)
        row = res.rows[0]
        assert row.model["error_pct"] < 10.0
        assert row.model["speedup"] > 1.0


class TestSlowDriversSmoke:
    """Fast variants only; structure checks."""

    def test_fig5(self, assert_rows_golden):
        res = run_experiment("fig5")
        assert_rows_golden(res)
        gain = res.rows[-1].model["reduction_pct"]
        assert gain > 20.0  # alignment helps on-chip substantially

    def test_table6(self, assert_rows_golden):
        res = run_experiment("table6")
        assert_rows_golden(res)
        runtimes = {r.label: r.model["runtime_us"] for r in res.rows}
        assert runtimes["standard"] > runtimes["ir_fcfs"] >= runtimes["ir_distr"]
        for label in ("ir_fcfs", "ir_distr"):
            row = next(r for r in res.rows if r.label == label)
            assert row.model["max_ir_mv"] <= 24.0

    def test_ext_hmc(self, assert_rows_golden):
        res = run_experiment("ext_hmc")
        assert_rows_golden(res)
        rows = {r.label: r.model for r in res.rows}
        # IR-blind scheduling wanders into worse states; the IR-aware
        # policies use the 16 vaults' parallelism instead.
        assert rows["standard"]["max_ir_mv"] > rows["ir_distr"]["max_ir_mv"]
        assert rows["ir_distr"]["bandwidth"] >= rows["ir_fcfs"]["bandwidth"]
        assert rows["ir_fcfs"]["bandwidth"] > 2.0 * rows["standard"]["bandwidth"]

    def test_ext_crowding(self, assert_rows_golden):
        res = run_experiment("ext_crowding")
        assert_rows_golden(res)
        rows = {r.label: r.model for r in res.rows}
        base = rows["edge TSVs (baseline)"]
        # More links share the current: the worst link carries less and
        # the drop falls, even though crowding relative to the mean grows.
        dense = rows["edge TSVs, 240x"]
        assert dense["worst_link_ma"] < base["worst_link_ma"]
        assert dense["ir_mv"] < base["ir_mv"]
        for row in rows.values():
            assert row["crowding_factor"] >= 1.0

    def test_ext_transient(self, assert_rows_golden):
        res = run_experiment("ext_transient")
        assert_rows_golden(res)
        for row in res.rows:
            # Decap only filters the burst; it never exceeds the DC droop.
            assert row.model["burst_peak_mv"] <= row.model["dc_droop_mv"]
        rows = {r.label: r.model for r in res.rows}
        for bond in ("no wirebond", "wire-bonded"):
            small = rows[f"{bond}, small decap"]
            large = rows[f"{bond}, large decap"]
            assert large["suppression_pct"] > small["suppression_pct"]


class TestSamplingDrivers:
    """The two drivers behind the design-space sampling leg, which
    factorizes with the symmetric ordering (``repro.rmesh.backends``)."""

    def test_sec61(self, assert_rows_golden):
        res = run_experiment("sec61")
        assert_rows_golden(res)
        (row,) = res.rows
        assert row.model["samples"] == 288
        assert row.model["r_squared"] > 0.99

    def test_table9(self, assert_rows_golden):
        res = run_experiment("table9")
        assert_rows_golden(res)
        rows = {r.label.split(" ")[1]: r.model for r in res.rows}
        # alpha trades cost for IR drop: alpha=0 is the cheapest pick,
        # alpha=1 the lowest-drop one, and the tradeoff beats the baseline.
        picks = [rows[f"alpha={a}"] for a in ("0.0", "0.3", "1.0")]
        assert [p["cost"] for p in picks] == sorted(p["cost"] for p in picks)
        assert [p["rmesh_mv"] for p in picks] == sorted(
            (p["rmesh_mv"] for p in picks), reverse=True
        )
        assert rows["alpha=0.3"]["rmesh_mv"] < rows["baseline"]["rmesh_mv"]
