"""Tests for the deep-telemetry layer: resource profile, run-history store,
drift attribution, atomic writes, span absorption."""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.atomic import atomic_write_text
from repro.obs.manifest import build_manifest, load_manifest
from repro.obs.store import (
    RunHistoryStore,
    delta_markdown,
    diff_runs,
    export_chrome_trace,
    list_markdown,
    normalize_bench_record,
    normalize_manifest,
    plan_drift,
    show_markdown,
)


@pytest.fixture
def clean_profile(monkeypatch):
    """Profiling off and an empty span buffer (samples live on spans)."""
    monkeypatch.delenv(obs_profile.PROFILE_ENV, raising=False)
    obs_trace.reset_trace()
    yield
    obs_trace.reset_trace()


def _profiled_span(name, ts, pid, rss_kb=1234.0, cpu_s=0.5):
    """An exported span dict, as a profiled worker ships it home."""
    return {
        "name": name, "ts_us": ts, "dur_us": 5.0, "pid": pid, "tid": 1,
        "depth": 1, "parent": None, "count": 1, "attrs": {},
        "sample": {
            "rss_kb": rss_kb, "peak_rss_kb": rss_kb + 1.0, "cpu_s": cpu_s,
            "gc_collections": 3,
        },
    }


# -- resource profile ---------------------------------------------------------


class TestProfiler:
    def test_cross_process_samples_keep_foreign_pid(self, clean_profile):
        obs_trace.absorb_spans([_profiled_span("worker.task", 10.0, 999_999)])
        assert obs_trace.spans()[-1].pid == 999_999
        events = obs_profile.counter_events(obs_trace.spans())
        assert {e["pid"] for e in events} == {999_999}
        assert {e["ts"] for e in events} == {15.0}  # the span's end
        assert obs_profile.summary(obs_trace.spans())["pids"] == [999_999]

    def test_summary_and_counter_events(self, clean_profile, monkeypatch):
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "1")
        with obs_trace.span("telemetry.outer"):
            with obs_trace.span("telemetry.inner"):
                pass
        records = obs_trace.spans()
        digest = obs_profile.summary(records)
        assert digest["samples"] == 2
        assert digest["peak_rss_kb"] > 0
        assert digest["cpu_s"] >= 0.0
        assert digest["pids"] == [os.getpid()]
        assert [len(point) for point in digest["curve"]] == [4, 4]
        events = obs_profile.counter_events(records)
        assert len(events) == 3 * digest["samples"]
        assert {e["name"] for e in events} == {
            "profile.rss_kb", "profile.cpu_s", "profile.gc_collections",
        }
        # The unified chrome export interleaves the counter tracks.
        doc = obs_trace.to_chrome_trace()
        names = {e["name"] for e in doc["traceEvents"]}
        assert "profile.rss_kb" in names

    def test_summary_curve_is_bounded_and_keeps_endpoints(self, clean_profile):
        n = obs_profile.SUMMARY_CURVE_CAP * 2 + 7
        obs_trace.absorb_spans(
            [_profiled_span("s", float(i), 4242, cpu_s=float(i)) for i in range(n)]
        )
        digest = obs_profile.summary(obs_trace.spans())
        assert digest["samples"] == n
        curve = digest["curve"]
        assert len(curve) <= obs_profile.SUMMARY_CURVE_CAP
        assert curve[0][0] == 5.0 and curve[-1][0] == n - 1 + 5.0
        assert digest["cpu_s"] == n - 1

    def test_span_sample_follows_the_env_switch(self, clean_profile, monkeypatch):
        for value in (None, "0"):
            if value is not None:
                monkeypatch.setenv(obs_profile.PROFILE_ENV, value)
            with obs_trace.span("telemetry.plain") as sp:
                pass
            assert sp.sample is None
            assert obs_trace.export_spans()[-1]["sample"] is None
        assert obs_profile.summary(obs_trace.spans()) == {}
        assert obs_profile.counter_events(obs_trace.spans()) == []
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "1")
        with obs_trace.span("telemetry.profiled") as sp:
            pass
        assert set(sp.sample) == {
            "rss_kb", "peak_rss_kb", "cpu_s", "gc_collections",
        }
        assert sp.sample["rss_kb"] > 0 and sp.sample["peak_rss_kb"] > 0

    def test_profiled_fig4_starts_no_thread(self, clean_profile, monkeypatch, tmp_path):
        import threading

        from repro.cli import main

        # Recorded so the switch the CLI sets is undone after the test.
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "")
        threads = threading.active_count()
        out = tmp_path / "fig4.manifest.json"
        argv = ["--profile", "--quiet", "--manifest-out", str(out), "run", "fig4"]
        assert main(argv) == 0
        assert threading.active_count() == threads
        assert load_manifest(out).profile["samples"] > 0

    def test_physics_bitwise_identical_with_profiler(
        self, clean_profile, monkeypatch, ddr3_stack, ddr3_floorplan
    ):
        from repro.power.state import MemoryState

        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        baseline = ddr3_stack.solve_state(state)
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "1")
        profiled = ddr3_stack.solve_state(state)
        assert obs_profile.summary(obs_trace.spans())["samples"] > 0
        assert np.array_equal(baseline.raw.drops, profiled.raw.drops)


# -- atomic writes ------------------------------------------------------------


class TestAtomicWrites:
    def test_write_and_replace(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_text(target, '{"v": 1}\n')
        assert json.loads(target.read_text()) == {"v": 1}
        atomic_write_text(target, '{"v": 2}\n')
        assert json.loads(target.read_text()) == {"v": 2}
        # No staging files left behind.
        assert list(tmp_path.iterdir()) == [target]

    def test_failure_leaves_original_intact(self, tmp_path, monkeypatch):
        target = tmp_path / "artifact.json"
        atomic_write_text(target, "original\n")

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_text(target, "replacement\n")
        monkeypatch.undo()
        assert target.read_text() == "original\n"
        assert list(tmp_path.iterdir()) == [target]

    def test_manifest_and_metrics_writers_are_atomic(self, tmp_path):
        from repro.obs.metrics import write_metrics

        manifest = build_manifest("telemetry.test", title="t")
        mpath = manifest.write(tmp_path / "m.json")
        assert load_manifest(mpath).experiment_id == "telemetry.test"
        write_metrics(tmp_path / "metrics.json")
        data = json.loads((tmp_path / "metrics.json").read_text())
        assert "metrics" in data
        leftovers = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []


# -- span absorption ordering + dedup -----------------------------------------


class TestAbsorbSpans:
    def _fake_span(self, name, ts, pid=4242):
        return {
            "name": name, "ts_us": ts, "dur_us": 5.0, "pid": pid,
            "tid": 1, "depth": 0, "parent": None, "count": 1, "attrs": {},
        }

    def test_absorb_orders_by_start_time(self):
        base = obs_trace.span_count()
        # Completion order (child-first) is NOT start order.
        out_of_order = [
            self._fake_span("late", 300.0),
            self._fake_span("early", 100.0),
            self._fake_span("middle", 200.0),
        ]
        obs_trace.absorb_spans(out_of_order)
        absorbed = obs_trace.spans(since=base)
        assert [r.name for r in absorbed] == ["early", "middle", "late"]


# -- run-history store --------------------------------------------------------


def _manifest_dict(**overrides):
    manifest = build_manifest(
        "telemetry.unit", title="unit", config={"k": 1}
    ).to_dict()
    manifest.update(overrides)
    return manifest


class TestRunHistoryStore:
    def test_ingest_and_resolve(self, tmp_path):
        store = RunHistoryStore(tmp_path)
        rid1 = store.ingest_manifest(_manifest_dict(experiment_id="one"))
        rid2 = store.ingest_manifest(_manifest_dict(experiment_id="two"))
        assert rid1 != rid2
        runs = store.runs()
        assert [r["experiment_id"] for r in runs] == ["one", "two"]
        assert store.resolve("last")["run_id"] == rid2
        assert store.resolve("last~1")["run_id"] == rid1
        assert store.resolve(rid1[:6])["run_id"] == rid1
        with pytest.raises(ConfigurationError):
            store.resolve("nope")
        with pytest.raises(ConfigurationError):
            store.resolve("last~99")

    def test_reingest_identical_content_is_skipped(self, tmp_path):
        store = RunHistoryStore(tmp_path)
        data = _manifest_dict()
        rid1 = store.ingest_manifest(data)
        rid2 = store.ingest_manifest(data)
        assert rid1 == rid2
        assert len(store.runs()) == 1

    def test_empty_store_raises(self, tmp_path):
        store = RunHistoryStore(tmp_path)
        assert store.runs() == []
        with pytest.raises(ConfigurationError):
            store.resolve("last")

    def test_corrupt_lines_are_skipped(self, tmp_path):
        store = RunHistoryStore(tmp_path)
        store.ingest_manifest(_manifest_dict())
        with open(store.index_path, "a") as fh:
            fh.write("{not json\n")
        store.ingest_manifest(_manifest_dict(experiment_id="after"))
        assert len(store.runs()) == 2

    def test_ingest_path_sniffs_manifest_and_bench(self, tmp_path):
        store = RunHistoryStore(tmp_path / "history")
        mpath = tmp_path / "manifest.json"
        build_manifest("telemetry.sniff").write(mpath)
        rid = store.ingest_path(mpath)
        assert store.resolve(rid)["kind"] == "experiment"
        bench = {
            "suite": "unit-suite",
            "created": "2026-01-01T00:00:00Z",
            "smoke": True,
            "repeats": 1,
            "git": {"sha": "deadbee", "dirty": False},
            "workers": 1,
            "environment": {},
            "manifest": _manifest_dict(),
            "benchmarks": [
                {
                    "name": "bench_a", "status": "ok", "wall_s": 0.5,
                    "max_ir_mv": 57.0, "plan_hashes": ["abc123"],
                }
            ],
        }
        bpath = tmp_path / "BENCH_x.json"
        bpath.write_text(json.dumps(bench))
        rid2 = store.ingest_path(bpath)
        record = store.resolve(rid2)
        assert record["kind"] == "bench_suite"
        assert record["benches"][0]["name"] == "bench_a"
        # Bench-level hashes merge into the manifest's observed plans.
        assert record["plans"]["abc123"] == "bench_a"
        with pytest.raises(ConfigurationError):
            other = tmp_path / "other.json"
            other.write_text("{}")
            store.ingest_path(other)

    def test_plan_bodies_content_addressed(self, tmp_path, ddr3_off_bench):
        from repro.pdn.stackup import plan_stack

        store = RunHistoryStore(tmp_path)
        plan = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        path = store.store_plan(plan)
        assert path.name == f"{plan.plan_hash}.json"
        again = store.store_plan(plan)
        assert again == path
        loaded = store.load_plan(plan.plan_hash)
        assert loaded is not None and loaded.plan_hash == plan.plan_hash
        assert store.load_plan("0" * 16) is None

    def test_normalize_strips_histogram_samples(self):
        data = _manifest_dict()
        data["metrics"] = {
            "counters": {"c": 1},
            "gauges": {"g": 2.0},
            "histograms": {"h": {"count": 3, "max": 9.0, "samples": [1, 2]}},
        }
        record = normalize_manifest(data)
        assert "samples" not in record["histograms"]["h"]
        assert record["histograms"]["h"]["max"] == 9.0


class TestDriftAttribution:
    def _record(self, **overrides):
        base = normalize_manifest(_manifest_dict())
        base.update(overrides)
        return base

    def test_identical_runs_no_drift(self):
        a = self._record(plans={"h1": "ddr3_off"})
        b = self._record(plans={"h1": "ddr3_off"})
        delta = diff_runs(a, b)
        assert delta.drift == "none"
        text = delta_markdown(delta)
        assert "drift: none" in text

    def test_structural_drift_with_plan_diff(self, tmp_path, ddr3_off_bench):
        from repro.pdn.config import Bonding
        from repro.pdn.stackup import plan_stack

        store = RunHistoryStore(tmp_path)
        plan_a = plan_stack(ddr3_off_bench.stack, ddr3_off_bench.baseline)
        plan_b = plan_stack(
            ddr3_off_bench.stack,
            ddr3_off_bench.baseline.with_options(bonding=Bonding.F2F),
        )
        store.store_plan(plan_a)
        store.store_plan(plan_b)
        a = self._record(plans={plan_a.plan_hash: "ddr3_off"})
        b = self._record(plans={plan_b.plan_hash: "ddr3_off"})
        delta = diff_runs(a, b, store)
        assert delta.drift == "structural"
        assert delta.plan_diffs  # real op-level diff was rendered
        text = delta_markdown(delta)
        assert "drift: structural" in text
        assert plan_a.plan_hash in text and plan_b.plan_hash in text

    def test_structural_without_bodies_lists_hashes(self):
        a = self._record(plans={"h1": "ddr3_off"})
        b = self._record(plans={"h2": "ddr3_off"})
        delta = diff_runs(a, b, None)
        assert delta.drift == "structural"
        assert not delta.plan_diffs
        assert any("h1" in line for line in delta.evidence)

    def test_op_diff_pairs_only_one_gone_with_one_new(
        self, tmp_path, ddr3_off_bench
    ):
        """A name labels every plan its benchmark touched: a plan still
        present in both runs must never be diffed against a gone one."""
        from repro.pdn.config import Bonding
        from repro.pdn.stackup import plan_stack

        store = RunHistoryStore(tmp_path)
        base = ddr3_off_bench.baseline
        plan_a, plan_b, plan_c, plan_d = (
            plan_stack(ddr3_off_bench.stack, config)
            for config in (
                base,
                base.with_options(bonding=Bonding.F2F),
                base.with_options(wire_bond=True),
                base.with_options(tsv_count=240),
            )
        )
        for plan in (plan_a, plan_b, plan_c, plan_d):
            store.store_plan(plan)
        h = {k: p.plan_hash for k, p in zip("abcd", (plan_a, plan_b, plan_c, plan_d))}
        a = self._record(plans={h["a"]: "ddr3_off", h["b"]: "ddr3_off"})
        b = self._record(plans={h["c"]: "ddr3_off", h["a"]: "ddr3_off"})
        delta = diff_runs(a, b, store)
        assert delta.drift == "structural"
        assert len(delta.plan_diffs) == 1
        assert f"plan {h['b']} -> {h['c']}" in delta.plan_diffs[0]
        assert h["a"] not in delta.plan_diffs[0]
        # Two gone, two new under one name: no pairing is safe, so every
        # changed hash is listed instead of an op diff.
        b = self._record(plans={h["c"]: "ddr3_off", h["d"]: "ddr3_off"})
        delta = diff_runs(a, b, store)
        assert not delta.plan_diffs
        text = "\n".join(delta.evidence)
        assert all(h[k] in text for k in "abcd")

    def test_ir_tolerance_covers_every_mv_comparison(self):
        plans = {"h1": "ddr3_off"}
        a = self._record(
            plans=plans,
            histograms={"ir.dram_max_mv": {"count": 1, "max": 57.0}},
            attribution=_attribution_summary({"tsv": 2.5, "metal": 26.0}),
        )
        b = self._record(
            plans=plans,
            histograms={"ir.dram_max_mv": {"count": 1, "max": 57.0005}},
            attribution=_attribution_summary({"tsv": 2.5004, "metal": 26.0}),
        )
        assert diff_runs(a, b).drift == "numerical"
        assert diff_runs(a, b, ir_abs_mv=1e-3).drift == "none"

    def test_plan_drift_classes(self):
        assert plan_drift(["h1"], ["h2"]) == "structural"
        assert plan_drift({"h1": "a", "h2": "b"}, ["h2", "h1"]) == "numerical"
        assert plan_drift(None, ["h1"]) == "unknown"
        assert plan_drift([], []) == "unknown"

    def test_run_without_plans_is_not_structural(self):
        """No plan hashes on one side: no structural evidence either way."""
        a = self._record(plans={})
        b = self._record(plans={"h1": "ddr3_off"})
        assert diff_runs(a, b).drift == "none"

    def test_numerical_drift_from_residual_gauge(self):
        plans = {"h1": "ddr3_off"}
        a = self._record(plans=plans, gauges={"solver.residual_norm": 1e-15})
        b = self._record(plans=plans, gauges={"solver.residual_norm": 1e-9})
        delta = diff_runs(a, b)
        assert delta.drift == "numerical"
        assert any("solver.residual_norm gauge" in e for e in delta.evidence)
        text = delta_markdown(delta)
        assert "drift: numerical" in text
        assert "| solver.residual_norm |" in text

    def test_numerical_drift_from_ir_extremum(self):
        plans = {"h1": "ddr3_off"}
        a = self._record(
            plans=plans,
            histograms={"ir.dram_max_mv": {"count": 1, "max": 57.0}},
        )
        b = self._record(
            plans=plans,
            histograms={"ir.dram_max_mv": {"count": 1, "max": 58.5}},
        )
        delta = diff_runs(a, b)
        assert delta.drift == "numerical"
        assert any("IR" in line for line in delta.evidence)

    def test_markdown_renderers(self, tmp_path):
        store = RunHistoryStore(tmp_path)
        rid = store.ingest_manifest(_manifest_dict())
        record = store.resolve(rid)
        assert rid in list_markdown(store.runs())
        assert rid in show_markdown(record)
        doc = export_chrome_trace(record)
        assert doc["metadata"]["run_id"] == rid
        assert isinstance(doc["traceEvents"], list)


# -- cross-process merge through map_design_points ----------------------------


def _square_in_span(x: int) -> int:
    # Worker-side: REPRO_PROFILE is inherited, so this span's close
    # stores a sample that ships home with the span.
    with obs_trace.span("telemetry.square"):
        return x * x


class TestCrossProcessMerge:
    def test_profiler_samples_survive_fanout(self, clean_profile, monkeypatch):
        from repro.perf.parallel import map_design_points

        monkeypatch.setenv(obs_profile.PROFILE_ENV, "1")
        results = map_design_points(_square_in_span, list(range(6)), workers=2)
        assert results == [x * x for x in range(6)]
        squares = [r for r in obs_trace.spans() if r.name == "telemetry.square"]
        assert len(squares) == 6
        assert all(r.sample["rss_kb"] > 0 for r in squares)
        assert all(r.sample["cpu_s"] > 0 for r in squares)
        workers = {r.pid for r in squares}
        assert os.getpid() not in workers
        digest = obs_profile.summary(obs_trace.spans())
        assert workers <= set(digest["pids"])

    def test_serial_path_unaffected(self, clean_profile):
        from repro.perf.parallel import map_design_points

        results = map_design_points(_square_in_span, [1, 2], workers=1)
        assert results == [1, 4]


# -- manifest integration -----------------------------------------------------


class TestManifestTelemetryFields:
    def test_manifest_carries_profile(self, clean_profile, monkeypatch, tmp_path):
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "1")
        with obs_trace.span("telemetry.fields"):
            pass
        manifest = build_manifest("telemetry.fields")
        assert manifest.profile["samples"] > 0
        # Round-trips through the validated write/load path.
        loaded = load_manifest(manifest.write(tmp_path / "m.json"))
        assert loaded.profile["samples"] == manifest.profile["samples"]

    def test_manifest_without_telemetry_stays_lean(self, clean_profile, tmp_path):
        manifest = build_manifest("telemetry.lean")
        assert manifest.profile == {}
        load_manifest(manifest.write(tmp_path / "m.json"))  # still validates


# -- CLI ----------------------------------------------------------------------


class TestObsCli:
    def _run(self, argv, tmp_path):
        from repro.cli import main

        return main(argv + ["--store", str(tmp_path / "history")])

    def test_ingest_list_show_diff_export(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = tmp_path / "history"
        mpath = tmp_path / "m.json"
        build_manifest("telemetry.cli", title="cli test").write(mpath)
        assert main(["obs", "ingest", str(mpath), "--store", str(store_dir)]) == 0
        assert main(["obs", "list", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "telemetry.cli" in out
        assert main(["obs", "show", "last", "--store", str(store_dir)]) == 0
        # Self-diff: zero drift, gate passes.
        code = main(
            ["obs", "diff", "last", "last", "--gate", "--store", str(store_dir),
             "--out", str(tmp_path / "delta.md")]
        )
        assert code == 0
        assert "drift: none" in (tmp_path / "delta.md").read_text()
        out_trace = tmp_path / "unified.json"
        assert main(
            ["obs", "export", "last", "--out", str(out_trace),
             "--store", str(store_dir)]
        ) == 0
        doc = json.loads(out_trace.read_text())
        assert "traceEvents" in doc

    def test_attribute_gates_on_drift(self, tmp_path, capsys):
        from repro.cli import main

        store = RunHistoryStore(tmp_path / "history")
        store.ingest_manifest(_manifest_dict(plans={"h1": "a"}))
        store.ingest_manifest(_manifest_dict(plans={"h2": "a"}))
        code = main(
            ["obs", "attribute", "last~1", "last", "--gate",
             "--store", str(tmp_path / "history")]
        )
        assert code == 1
        assert "drift: structural" in capsys.readouterr().out

    def _bench_pair(self, tmp_path):
        """The committed baseline, and a copy whose table5 max IR moved
        +1 mV and one table4 anchor +5 pp."""
        from repro.bench import baseline_path, benchmarks_dir

        data = json.loads(baseline_path(benchmarks_dir().parent).read_text())
        old = tmp_path / "BENCH_old.json"
        old.write_text(json.dumps(data))
        for entry in data["benchmarks"]:
            if entry["name"] == "table5":
                entry["max_ir_mv"] += 1.0
            if entry["name"] == "table4":
                entry["anchors"][0]["deviation_pct"] += 5.0
        new = tmp_path / "BENCH_new.json"
        new.write_text(json.dumps(data))
        return old, new

    def test_bench_suite_drift_gates_obs_diff(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "history")
        old, new = self._bench_pair(tmp_path)
        assert main(["obs", "ingest", str(old), str(new), "--store", store_dir]) == 0
        capsys.readouterr()
        code = main(["obs", "diff", "last~1", "last", "--gate", "--store", store_dir])
        out = capsys.readouterr().out
        assert code == 1
        assert "drift: numerical" in out
        assert "`table5`: max IR" in out and "`table4`: anchor" in out
        assert "suite verdict: accuracy_drift" in out
        # A bench-suite record diffed against itself: no drift.
        code = main(["obs", "diff", "last", "last", "--gate", "--store", store_dir])
        assert code == 0
        assert "drift: none" in capsys.readouterr().out

    def test_bench_history_from_older_layout_still_diffs(self, tmp_path):
        """History lines predating wall_s_all/anchors/error per bench."""
        old, _ = self._bench_pair(tmp_path)
        current = normalize_bench_record(json.loads(old.read_text()))
        legacy = dict(current, benches=[
            {k: bench[k] for k in ("name", "status", "wall_s", "max_ir_mv", "plan_hashes")}
            for bench in current["benches"]
        ])
        delta = diff_runs(legacy, current)
        assert delta.drift == "none" and delta.verdict == "ok"

    def test_history_flag_records_run(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "history"))
        assert main(["--history", "run", "table8"]) == 0
        store = RunHistoryStore(tmp_path / "history")
        runs = store.runs()
        assert len(runs) == 1
        assert runs[0]["experiment_id"] == "table8"

    def test_history_solve_pair_renders_the_plan_diff(self, tmp_path):
        """The docs/observability.md worked example, each command a fresh
        process as from the shell: every ``--history solve`` stores its
        plan body, so attributing the pair renders the op-level plan
        diff, not only the two hashes."""
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        history = tmp_path / "history"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=str(root / "src"), REPRO_HISTORY_DIR=str(history))

        def repro3d(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                cwd=root, env=env, check=True, capture_output=True, text=True,
                timeout=300,
            ).stdout

        repro3d("--history", "solve", "ddr3_off")
        repro3d("--history", "solve", "ddr3_off", "--f2f")
        store = RunHistoryStore(history)
        assert {path.stem for path in store.plans_dir.glob("*.json")} == {
            "f98670cee3d3cd88",
            "8af1ef30b482d766",
        }
        out = repro3d("obs", "attribute", "last~1", "last")
        assert "drift: structural" in out
        assert "## Plan diff (structural evidence)" in out
        assert "plan f98670cee3d3cd88 -> 8af1ef30b482d766: 23 ops unchanged, -3 +3" in out

    def test_history_plan_bodies_independent_of_workers(self, tmp_path):
        """``--history`` stores the bodies of the plans the stack cache
        holds; sampled stacks bypass it, so a pooled run stores exactly
        what a serial one does.  Each run is a fresh process, as from
        the shell."""
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        stored = {}
        for workers in ("1", "2"):
            history = tmp_path / f"workers{workers}"
            env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
            env.update(PYTHONPATH=str(root / "src"), REPRO_HISTORY_DIR=str(history))
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "--history", "--workers",
                 workers, "run", "table9"],
                cwd=root, env=env, check=True, capture_output=True, timeout=300,
            )
            store = RunHistoryStore(history)
            (run,) = store.runs()
            bodies = {
                path.stem: path.read_text() for path in store.plans_dir.glob("*.json")
            }
            assert bodies and set(bodies) <= set(run["plans"])
            stored[workers] = bodies
        assert stored["1"] == stored["2"]


# -- attribution physics axis (PR 8) ------------------------------------------


def _attribution_summary(components, worst_mv=None, layer="dram4/M1"):
    total = sum(components.values())
    return {
        "ddr3_off": {
            "benchmark": "ddr3_off",
            "plan_hash": "f98670cee3d3cd88",
            "state": "0-0-0-2",
            "worst_drop_mv": worst_mv if worst_mv is not None else total,
            "worst_layer": layer,
            "components_mv": dict(components),
            "closure_rel": 0.0,
            "kcl_max_rel": 1e-12,
            "orphan_branches": 0,
            "top_op": "add_layer dram4/M3",
        }
    }


class TestAttributionPhysicsAxis:
    def test_pre_pr8_record_degrades_to_na(self, tmp_path):
        """A history written before attribution existed must neither
        crash the diff nor silently pretend to compare physics."""
        from pathlib import Path

        store = RunHistoryStore(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        fixture = (
            Path(__file__).parent / "golden" / "pre_pr8_run.json"
        ).read_text()
        old = json.loads(fixture)
        assert "attribution" not in old  # the fixture predates the field
        with open(store.index_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(old, sort_keys=True) + "\n")
        store.ingest_manifest(
            _manifest_dict(
                attribution=_attribution_summary({"tsv": 2.5, "metal": 26.0})
            )
        )
        delta = diff_runs(store.resolve("last~1"), store.resolve("last"), store)
        text = delta_markdown(delta)
        assert "attribution: n/a" in text
        assert old["run_id"] in delta.attribution_note
        assert "predates attribution records" in text

    def test_component_move_attributes_numerical_drift(self):
        a = normalize_manifest(
            _manifest_dict(
                attribution=_attribution_summary(
                    {"tsv": 2.538, "metal:dram4/M1": 26.152}
                )
            )
        )
        b = normalize_manifest(
            _manifest_dict(
                attribution=_attribution_summary(
                    {"tsv": 0.969, "metal:dram4/M1": 22.968}
                )
            )
        )
        delta = diff_runs(a, b)
        assert delta.drift == "numerical"
        assert "drifted" in delta.attribution_note
        moved = {row["component"] for row in delta.attribution_deltas}
        assert moved == {"tsv", "metal:dram4/M1"}
        text = delta_markdown(delta)
        assert "| ddr3_off | tsv |" in text

    def test_identical_attribution_is_no_drift(self):
        attr = _attribution_summary({"tsv": 2.5, "package": 0.06})
        a = normalize_manifest(_manifest_dict(attribution=attr))
        b = normalize_manifest(_manifest_dict(attribution=attr))
        delta = diff_runs(a, b)
        assert delta.drift == "none"
        assert "unchanged" in delta.attribution_note

    def test_worst_layer_move_is_drift(self):
        a = normalize_manifest(
            _manifest_dict(
                attribution=_attribution_summary({"tsv": 2.5}, layer="dram4/M1")
            )
        )
        b = normalize_manifest(
            _manifest_dict(
                attribution=_attribution_summary({"tsv": 2.5}, layer="dram1/M1")
            )
        )
        delta = diff_runs(a, b)
        assert delta.drift == "numerical"
        assert any("worst-drop layer" in line for line in delta.evidence)

    def test_empty_attribution_reports_none_recorded(self):
        a = normalize_manifest(_manifest_dict(attribution={}))
        b = normalize_manifest(_manifest_dict(attribution={}))
        delta = diff_runs(a, b)
        assert "none recorded" in delta.attribution_note

    def test_attribution_markdown_renders_table(self):
        from repro.obs.store import attribution_markdown

        a = normalize_manifest(
            _manifest_dict(attribution=_attribution_summary({"tsv": 2.5}))
        )
        b = normalize_manifest(
            _manifest_dict(attribution=_attribution_summary({"tsv": 4.0}))
        )
        a["run_id"], b["run_id"] = "aaa", "bbb"
        text = attribution_markdown(diff_runs(a, b))
        assert "# attribution drift" in text
        assert "| ddr3_off | tsv |" in text


# -- records from before the iterative solver was retired ---------------------

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


class TestRetiredTraceFormat:
    """``tests/data/cg_run_manifest.json`` is ``repro3d --manifest-out``
    of ``run table5`` under the retired ``cg`` backend: its
    ``convergence`` list holds two residual traces.  Such records, and
    the committed pre-attribution history line, must keep loading and
    diffing; the comparison reports IR and residual-gauge evidence only.
    """

    def _old(self):
        data = json.loads((DATA / "cg_run_manifest.json").read_text())
        assert data["convergence"] and all(
            t["backend"] == "cg" for t in data["convergence"]
        )
        return data

    def test_cg_manifest_loads(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(self._old()))
        manifest = load_manifest(path)
        assert manifest.experiment_id == "table5"
        assert not hasattr(manifest, "convergence")

    def test_cg_manifest_ingests_and_renders(self, tmp_path):
        store = RunHistoryStore(tmp_path)
        rid = store.ingest_manifest(self._old())
        record = store.resolve(rid)
        assert "convergence" not in record
        assert rid in list_markdown(store.runs())
        assert "convergence" not in show_markdown(record)

    def test_diff_reports_ir_and_gauge_without_trace_rows(self):
        old = self._old()
        new = json.loads(json.dumps(old))
        del new["convergence"]
        new["metrics"]["gauges"]["solver.residual_norm"] = 1e-6
        new["metrics"]["histograms"]["ir.dram_max_mv"]["max"] += 1.0
        delta = diff_runs(normalize_manifest(old), normalize_manifest(new))
        assert delta.drift == "numerical"
        assert {row[0] for row in delta.metric_deltas} == {
            "ir.dram_max_mv (max)",
            "solver.residual_norm",
        }
        text = delta_markdown(delta)
        assert "worst DRAM IR drop moved" in text
        assert "solver.residual_norm gauge moved" in text
        for trace_word in ("Residual-curve", "rtol", "iterations", "cg/"):
            assert trace_word not in text

    def test_pre_attribution_history_line_diffs_against_cg_manifest(self, tmp_path):
        store = RunHistoryStore(tmp_path)
        store.root.mkdir(parents=True, exist_ok=True)
        old = json.loads((GOLDEN / "pre_pr8_run.json").read_text())
        with open(store.index_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(old, sort_keys=True) + "\n")
        store.ingest_manifest(self._old())
        delta = diff_runs(store.resolve("last~1"), store.resolve("last"), store)
        # Same worst drop (28.904 mV) under both solvers.
        assert not any("IR drop moved" in e for e in delta.evidence)
        assert "drift:" in delta_markdown(delta)
