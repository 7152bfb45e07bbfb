"""CLI entry points."""

import pytest

from repro.cli import build_parser, main
from repro.designs import all_benchmarks
from repro.errors import SimulationError
from repro.experiments import registry


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_validates_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert all(repr(exp_id) in err for exp_id in registry)

    def test_run_help_lists_every_experiment(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["run", "--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(sorted(registry)) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["solve", "plan", "explain"])
    def test_benchmark_choices_are_the_designs(self, command):
        parser = build_parser()
        for name in sorted(all_benchmarks()):
            assert parser.parse_args([command, name]).benchmark == name
        with pytest.raises(SystemExit):
            parser.parse_args([command, "bogus"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table6" in out and "ddr3_off" in out

    def test_run_table8(self, capsys):
        assert main(["run", "table8"]) == 0
        out = capsys.readouterr().out
        assert "Cost model" in out

    def test_solve_default_state(self, capsys):
        assert main(["solve", "ddr3_off"]) == 0
        out = capsys.readouterr().out
        assert "DRAM max" in out and "dram4" in out

    def test_solve_explicit_state_with_options(self, capsys):
        assert main(["solve", "ddr3_off", "0-0-2b-2a", "--f2f", "--wirebond"]) == 0
        out = capsys.readouterr().out
        assert "BD=F2F" in out and "WB=Y" in out


class TestPlanCommand:
    def test_summary(self, capsys):
        assert main(["plan", "ddr3_off"]) == 0
        out = capsys.readouterr().out
        assert "plan hash:" in out
        assert "add_layer" in out and "tsv" in out

    def test_json_output_is_a_valid_plan(self, capsys):
        from repro.pdn.plan import StackPlan

        assert main(["plan", "ddr3_off", "--json"]) == 0
        plan = StackPlan.from_json(capsys.readouterr().out)
        assert plan.benchmark == "ddr3_off"

    def test_out_then_diff_against_file(self, capsys, tmp_path):
        from repro.pdn.plan import StackPlan

        path = tmp_path / "base.json"
        assert main(["plan", "ddr3_off", "--out", str(path)]) == 0
        baseline = StackPlan.from_json(path.read_text())
        capsys.readouterr()
        # An override diffed against the saved file shows the TSV edit.
        assert main(
            ["plan", "ddr3_off", "--tsv-count", "240", "--diff", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "ops unchanged" in out
        assert baseline.plan_hash in out

    def test_diff_against_benchmark(self, capsys):
        assert main(["plan", "ddr3_off", "--diff", "wideio"]) == 0
        out = capsys.readouterr().out
        assert "ops unchanged" in out

    def test_diff_identical(self, capsys):
        assert main(["plan", "ddr3_off", "--diff", "ddr3_off"]) == 0
        assert "plans identical" in capsys.readouterr().out

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "bogus"])


class TestExplainCommand:
    def test_default_report(self, capsys):
        assert main(["explain", "ddr3_off"]) == 0
        out = capsys.readouterr().out
        assert "Worst-node supply-path decomposition" in out
        assert "Plan-op attribution" in out
        assert "0 orphans" in out

    def test_json_artifact_validates(self, capsys, tmp_path):
        import json

        from repro.pdn.diagnose import validate_explain_dict

        path = tmp_path / "explain.json"
        assert main(
            ["explain", "ddr3_off", "--format", "json", "--out", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        validate_explain_dict(data)
        assert data["benchmark"] == "ddr3_off"
        printed, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        assert printed["plan_hash"] == data["plan_hash"]

    def test_heatmaps_and_npz_export(self, capsys, tmp_path):
        import json

        import numpy as np

        path = tmp_path / "maps.npz"
        assert main(
            [
                "explain", "ddr3_off", "--format", "json",
                "--heatmaps", "--heatmap-out", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "shared scale" in out
        data, _ = json.JSONDecoder().raw_decode(out)
        with np.load(path) as maps:
            keys = set(maps.files)
            assert "drop_mv__dram4__M1" in keys
            assert "dissipation_w__dram4__M1" in keys
            # Each per-node heat field sums to its layer's explain row.
            for row in data["layers"]:
                field = maps[f"dissipation_w__{row['key'].replace('/', '__')}"]
                assert float(field.sum()) == pytest.approx(
                    row["dissipation_w"], rel=1e-12
                )

    def test_explain_with_overrides(self, capsys):
        assert main(["explain", "ddr3_off", "0-0-0-1", "--tsv-count", "66"]) == 0
        out = capsys.readouterr().out
        assert "TC=66" in out

    def test_requires_benchmark_without_diff(self, capsys):
        assert main(["explain"]) == 2

    def test_diff_between_history_refs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "history"))
        assert main(["explain", "ddr3_off", "--history", "--quiet"]) == 0
        assert main(["explain", "ddr3_off", "--history", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["explain", "--diff", "last~1", "last"]) == 0
        out = capsys.readouterr().out
        assert "# attribution drift" in out
        assert "attribution: unchanged" in out


class TestChannelScans:
    #: channel evaluations of a fast ``run ext_hmc`` when the engine
    #: evaluated every channel on every scheduling iteration: 258,596
    #: (standard) + 122,902 (IR-FCFS) + 121,810 (IR-DistR).
    EVERY_CHANNEL = 503_308

    def test_run_ext_hmc_evaluates_a_quarter_of_the_channels(self, tmp_path):
        """``sim.channel_scans`` counts pass-1 read scans plus pass-2
        window examinations; skipping channels that cannot act keeps it
        at most a quarter of the every-channel count."""
        import json

        from repro.obs.metrics import reset_metrics

        reset_metrics()
        out = tmp_path / "metrics.json"
        assert main(["--metrics-out", str(out), "run", "ext_hmc"]) == 0
        counters = json.loads(out.read_text())["metrics"]["counters"]
        assert counters["sim.runs"] == 3
        assert 0 < counters["sim.channel_scans"] <= self.EVERY_CHANNEL // 4
        # The channel waits ask the LUT exactly what a full evaluation
        # would (docs/performance.md).
        assert counters["lut.entries_superposed"] == 970


class TestSimCommand:
    FIXTURE = "tests/data/ramulator_1k.trace"
    CSV_FIXTURE = "tests/data/drampower_1k.csv"

    def test_sim_ramulator_fixture(self, capsys):
        assert main(["sim", "--trace", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "1000 requests" in out
        assert "engine: event" in out
        assert "ACT=" in out

    def test_sim_drampower_fixture_with_energy(self, capsys):
        assert main(["sim", "--trace", self.CSV_FIXTURE, "--energy"]) == 0
        out = capsys.readouterr().out
        assert "1000 requests" in out
        assert "energy (command path):" in out
        assert "energy (occupancy path):" in out

    def test_sim_matches_golden(self, capsys, golden_decisions):
        """The report's request, bandwidth and command lines equal the
        frozen reference decisions for this fixture."""
        assert main(["sim", "--trace", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        g = golden_decisions["cases"]["sim_ramulator_1k"]
        commands = {
            "ACT": g["activations"],
            "PRE": g["precharges"],
            "RD": g["reads"],
            "WR": g["writes"],
            "REF": g["refreshes"],
        }
        expected = [
            f"  {g['completed']} requests ({g['reads']} RD / {g['writes']} WR) "
            f"in {g['cycles']} cycles ({g['runtime_us']:.2f} us)",
            f"  bandwidth {g['bandwidth_reads_per_clk']:.3f} reads/clk, "
            f"mean latency {g['mean_latency_cycles']:.1f} cycles, "
            f"mean queue {g['mean_queue_depth']:.1f}",
            "  commands: " + "  ".join(f"{k}={v}" for k, v in commands.items()),
        ]
        picked = [
            ln for ln in out.splitlines()
            if "requests (" in ln or "commands:" in ln or "bandwidth" in ln
        ]
        assert picked == expected

    def test_sim_rejects_legacy_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sim", "--trace", self.FIXTURE, "--legacy"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sim_ir_policy_needs_lut(self, capsys):
        assert main(["sim", "--trace", self.FIXTURE, "--policy", "ir_fcfs"]) == 2
        captured = capsys.readouterr()
        assert "--lut" in captured.out + captured.err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--channels", "0", "num_channels"),
            ("--queue-depth", "0", "queue_depth"),
            ("--max-banks-per-die", "0", "max_banks_per_die"),
            ("--dies", "0", "num_dies"),
        ],
    )
    def test_sim_rejects_impossible_structure(self, capsys, flag, value, field):
        """One error line naming the field and exit code 2, before the
        run starts (these used to die inside it)."""
        assert main(["sim", "--trace", self.FIXTURE, flag, value]) == 2
        captured = capsys.readouterr()
        lines = [ln for ln in (captured.out + captured.err).splitlines() if ln]
        assert len(lines) == 1
        assert f"SimConfig.{field} must be at least 1" in lines[0]

    @pytest.mark.parametrize(
        "policy, dies", [("ir_fcfs", "8"), ("ir_distr", "2"), ("standard", "8")]
    )
    def test_sim_rejects_lut_for_other_die_count(
        self, capsys, tmp_path, golden_decisions, policy, dies
    ):
        """A 4-die LUT on another die count: one error line and exit
        code 2 before the run starts (the IR-aware runs used to crash in
        ``StaticIRDropLUT.lookup``, the standard one at the end)."""
        lut_path = tmp_path / "lut.json"
        lut_path.write_text(golden_decisions["lut"])
        argv = ["sim", "--trace", self.FIXTURE, "--policy", policy]
        argv += ["--lut", str(lut_path), "--dies", dies]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = [ln for ln in (captured.out + captured.err).splitlines() if ln]
        assert len(lines) == 1
        assert f"LUT is for 4 dies, the simulated stack has {dies}" in lines[0]

    def test_sim_ir_policy_with_lut(self, capsys, tmp_path, ddr3_lut_json):
        lut_path = tmp_path / "lut.json"
        lut_path.write_text(ddr3_lut_json)
        assert main([
            "sim", "--trace", self.FIXTURE,
            "--policy", "ir_distr", "--lut", str(lut_path),
            "--constraint", "24.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "ir_distr" in out
        assert "max IR drop:" in out

    @staticmethod
    def _one_error_line(capsys):
        captured = capsys.readouterr()
        lines = [ln for ln in (captured.out + captured.err).splitlines() if ln]
        assert len(lines) == 1, lines
        return lines[0]

    def test_sim_malformed_trace_reports_context(self, capsys, tmp_path):
        """A malformed line deep in the trace surfaces mid-run: one error
        line naming the file and the line, and exit code 2."""
        bad = tmp_path / "bad.trace"
        bad.write_text("0x0 R\nnot a line\n")
        assert main(["sim", "--trace", str(bad)]) == 2
        line = self._one_error_line(capsys)
        assert "expected '<hex address> <R|W>'" in line
        assert f"path={bad}" in line and "line=2" in line

    def test_sim_request_outside_the_stack(self, capsys, tmp_path):
        """A DRAMPower trace names its dies outright; one past the
        stack is refused when the run pulls it."""
        bad = tmp_path / "bad.csv"
        bad.write_text("cycle,command,die,bank,row\n1,RD,0,0,5\n2,RD,9,0,5\n")
        assert main(["sim", "--trace", str(bad)]) == 2
        line = self._one_error_line(capsys)
        assert "request 1: die 9 out of range" in line

    def test_sim_missing_trace(self, capsys, tmp_path):
        missing = tmp_path / "missing.trace"
        assert main(["sim", "--trace", str(missing)]) == 2
        line = self._one_error_line(capsys)
        assert f"cannot read --trace {missing}" in line

    def test_sim_missing_lut(self, capsys, tmp_path):
        missing = tmp_path / "missing.json"
        argv = ["sim", "--trace", self.FIXTURE, "--policy", "ir_distr"]
        assert main(argv + ["--lut", str(missing)]) == 2
        line = self._one_error_line(capsys)
        assert f"cannot load --lut {missing}" in line

    @pytest.mark.parametrize("policy", ["ir_fcfs", "ir_distr"])
    def test_sim_rejects_zero_constraint(
        self, capsys, tmp_path, golden_decisions, policy
    ):
        lut_path = tmp_path / "lut.json"
        lut_path.write_text(golden_decisions["lut"])
        argv = ["sim", "--trace", self.FIXTURE, "--policy", policy]
        argv += ["--lut", str(lut_path), "--constraint", "0"]
        assert main(argv) == 2
        line = self._one_error_line(capsys)
        assert "IR-drop constraint must be positive" in line

    def test_sim_stall_keeps_traceback(self, tmp_path, golden_decisions):
        """A constraint no active state meets stalls the engine: that is
        the engine's own fault report, not a bad-input line, so it
        propagates with its traceback."""
        lut_path = tmp_path / "lut.json"
        lut_path.write_text(golden_decisions["lut"])
        argv = ["sim", "--trace", self.FIXTURE, "--policy", "ir_distr"]
        argv += ["--lut", str(lut_path), "--constraint", "0.001"]
        with pytest.raises(SimulationError, match="simulation stalled"):
            main(argv)
