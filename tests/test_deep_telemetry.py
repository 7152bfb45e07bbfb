"""Tests for the deep-telemetry layer: profiler, convergence traces,
run-history store, drift attribution, atomic writes, span absorption."""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ConfigurationError
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.atomic import atomic_write_text
from repro.obs.manifest import build_manifest, load_manifest
from repro.obs.profile import BoundedSeries
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
from repro.rmesh import backends as rb


@pytest.fixture
def clean_profile():
    obs_profile.stop_profiler(final_sample=False)
    obs_profile.reset_profile()
    yield
    obs_profile.stop_profiler(final_sample=False)
    obs_profile.reset_profile()


@pytest.fixture
def clean_traces():
    obs_trace.reset_trace()
    yield
    obs_trace.reset_trace()


def _spd_matrix(n: int = 60) -> sp.csr_matrix:
    return sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 4.0), np.full(n - 1, -1.0)],
        [-1, 0, 1],
    ).tocsr()


# -- BoundedSeries (the shared curve downsampler) -----------------------------


class TestBoundedSeries:
    def test_short_series_is_exact(self):
        s = BoundedSeries(cap=16)
        for i in range(10):
            s.append(i, i * 2.0)
        assert s.points() == [(float(i), float(i * 2)) for i in range(10)]
        assert s.stride == 1
        assert len(s) == 10

    def test_bounded_size_and_endpoints(self):
        s = BoundedSeries(cap=16)
        for i in range(10_000):
            s.append(i, 1.0 / (i + 1))
        pts = s.points()
        assert len(pts) <= 16
        assert pts[0] == (0.0, 1.0)  # first point always survives
        assert pts[-1] == (9999.0, 1.0 / 10_000)  # latest always included
        assert s.stride > 1
        # Interior stays monotonically ordered in x.
        xs = [p[0] for p in pts]
        assert xs == sorted(xs)

    def test_endpoints_survive_every_decimation_level(self):
        for total in (15, 16, 17, 100, 1023):
            s = BoundedSeries(cap=8)
            for i in range(total):
                s.append(i, float(i))
            pts = s.points()
            assert pts[0][0] == 0.0
            assert pts[-1][0] == float(total - 1)
            assert len(pts) <= 8

    def test_cap_floor(self):
        with pytest.raises(ValueError):
            BoundedSeries(cap=2)


# -- resource profiler --------------------------------------------------------


class TestProfiler:
    def test_start_stop_collects_samples(self, clean_profile):
        assert obs_profile.start_profiler(interval_s=0.002)
        time.sleep(0.03)
        obs_profile.stop_profiler()
        assert not obs_profile.profiler_running()
        n = obs_profile.sample_count()
        assert n >= 2  # initial + closing sample at minimum
        samples = obs_profile.samples()
        assert all(s.pid == os.getpid() for s in samples)
        assert all(s.rss_kb > 0 for s in samples)
        ts = [s.ts_us for s in samples]
        assert ts == sorted(ts)

    def test_start_is_idempotent(self, clean_profile):
        obs_profile.start_profiler(interval_s=0.05)
        thread_count_after_first = obs_profile.sample_count()
        obs_profile.start_profiler(interval_s=0.05)
        # Second start takes no extra synchronous sample.
        assert obs_profile.sample_count() == thread_count_after_first
        obs_profile.stop_profiler(final_sample=False)

    def test_samples_attach_to_active_span(self, clean_profile):
        with obs_trace.span("telemetry.outer"):
            with obs_trace.span("telemetry.inner"):
                sample = obs_profile.take_sample()
        assert sample.span == "telemetry.inner"
        assert sample.depth == 1
        after = obs_profile.take_sample()
        assert after.depth == 0

    def test_export_absorb_roundtrip_and_dedup(self, clean_profile):
        obs_profile.start_profiler(interval_s=0.002)
        time.sleep(0.02)
        obs_profile.stop_profiler()
        exported = obs_profile.export_samples()
        n = len(exported)
        assert n >= 2
        obs_profile.reset_profile()
        obs_profile.absorb_samples(exported)
        assert obs_profile.sample_count() == n
        # Re-absorbing the same export is a no-op, not a duplication.
        obs_profile.absorb_samples(exported)
        assert obs_profile.sample_count() == n
        # Round-trip preserves content.
        assert obs_profile.export_samples() == sorted(
            exported, key=lambda d: (d["pid"], d["ts_us"])
        )

    def test_cross_process_samples_keep_foreign_pid(self, clean_profile):
        foreign = [
            {
                "ts_us": 10.0,
                "pid": 999_999,
                "rss_kb": 1234.0,
                "cpu_s": 0.5,
                "gc_collections": 3,
                "span": "worker.task",
                "depth": 1,
            }
        ]
        obs_profile.absorb_samples(foreign)
        assert obs_profile.samples()[-1].pid == 999_999
        events = obs_profile.counter_events()
        assert any(e["pid"] == 999_999 for e in events)

    def test_buffer_decimation_bounds_memory(self, clean_profile):
        for i in range(obs_profile.PROFILE_SAMPLE_CAP + 100):
            obs_profile._record(
                obs_profile.ProfileSample(
                    ts_us=float(i), pid=1, rss_kb=1.0, cpu_s=0.0,
                    gc_collections=0,
                )
            )
        assert obs_profile.sample_count() < obs_profile.PROFILE_SAMPLE_CAP
        assert obs_profile.stride() >= 2
        samples = obs_profile.samples()
        assert samples[0].ts_us == 0.0  # first sample survives decimation

    def test_summary_and_counter_events(self, clean_profile):
        obs_profile.start_profiler(interval_s=0.002)
        time.sleep(0.02)
        obs_profile.stop_profiler()
        digest = obs_profile.summary()
        assert digest["samples"] == obs_profile.sample_count()
        assert digest["peak_rss_kb"] > 0
        assert len(digest["curve"]) <= obs_profile.SUMMARY_CURVE_CAP
        events = obs_profile.counter_events()
        assert len(events) == 3 * digest["samples"]
        assert {e["name"] for e in events} == {
            "profile.rss_kb", "profile.cpu_s", "profile.gc_collections",
        }
        # The unified chrome export interleaves the counter tracks.
        doc = obs_trace.to_chrome_trace()
        names = {e["name"] for e in doc["traceEvents"]}
        assert "profile.rss_kb" in names

    def test_ensure_profiler_respects_env(self, clean_profile, monkeypatch):
        monkeypatch.delenv(obs_profile.PROFILE_ENV, raising=False)
        assert not obs_profile.ensure_profiler()
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "0")
        assert not obs_profile.ensure_profiler()
        monkeypatch.setenv(obs_profile.PROFILE_ENV, "1")
        assert obs_profile.ensure_profiler()
        assert obs_profile.profiler_running()

    def test_physics_bitwise_identical_with_profiler(
        self, clean_profile, ddr3_stack, ddr3_floorplan
    ):
        from repro.power.state import MemoryState

        state = MemoryState.from_string("0-0-0-2", ddr3_floorplan)
        baseline = ddr3_stack.solve_state(state)
        obs_profile.start_profiler(interval_s=0.001)
        try:
            profiled = ddr3_stack.solve_state(state)
        finally:
            obs_profile.stop_profiler()
        assert obs_profile.sample_count() > 0
        assert np.array_equal(baseline.raw.drops, profiled.raw.drops)


# -- convergence traces -------------------------------------------------------


class TestConvergenceTraces:
    def test_traced_solve_records_curve(self, clean_traces):
        op = rb.CGOperator(_spd_matrix(), precond_kind="jacobi", rtol=1e-10)
        rhs = np.ones(60)
        op.solve(rhs)
        t = op.last_trace
        assert t is not None and t.converged
        assert t.backend == "cg" and t.preconditioner == "jacobi"
        assert t.nodes == 60 and t.iterations > 0
        assert t.points[0][0] == 0.0  # initial residual at iteration 0
        assert t.points[-1][0] == float(t.iterations)
        # Residual curve decreases overall and hits the tolerance floor.
        assert t.final_residual <= 1e-9
        assert t.points[0][1] > t.points[-1][1]
        assert len(rb.traces()) == 1

    def test_sampling_skips_and_clears_last_trace(self, clean_traces):
        op = rb.CGOperator(_spd_matrix(), precond_kind="jacobi", rtol=1e-10)
        rhs = np.ones(60)
        traced = op.solve(rhs)
        assert op.last_trace is not None
        untraced = op.solve(rhs)  # default REPRO_TRACE_EVERY=8: sampled out
        assert op.last_trace is None
        assert np.array_equal(traced, untraced)  # tracing never alters physics
        assert len(rb.traces()) == 1

    def test_trace_every_env(self, clean_traces, monkeypatch):
        monkeypatch.setenv(rb.TRACE_EVERY_ENV, "1")
        op = rb.CGOperator(_spd_matrix(), precond_kind="jacobi", rtol=1e-10)
        rhs = np.ones(60)
        op.solve(rhs)
        op.solve(rhs)
        assert len(rb.traces()) == 2

    def test_tracing_disabled_env(self, clean_traces, monkeypatch):
        monkeypatch.setenv(rb.CONVERGENCE_TRACE_ENV, "0")
        op = rb.CGOperator(_spd_matrix(), precond_kind="jacobi", rtol=1e-10)
        op.solve(np.ones(60))
        assert op.last_trace is None
        assert len(rb.traces()) == 0

    def test_bounded_points_on_long_solves(self, clean_traces, monkeypatch):
        # Unpreconditioned-style slow convergence: loose jacobi on a
        # larger mesh still converges but takes many iterations.
        monkeypatch.setenv(rb.CG_MAXITER_ENV, "100000")
        op = rb.CGOperator(_spd_matrix(2000), precond_kind="jacobi", rtol=1e-12)
        op.solve(np.random.default_rng(7).random(2000))
        t = op.last_trace
        assert t is not None
        assert len(t.points) <= rb.TRACE_POINT_CAP + 1
        assert t.points[-1][0] == float(t.iterations)

    def test_export_absorb_merge_stable(self, clean_traces):
        op = rb.CGOperator(_spd_matrix(), precond_kind="jacobi", rtol=1e-10)
        op.solve(np.ones(60))
        exported = obs_trace.export_spans()
        original = rb.traces()[0].to_dict()
        obs_trace.reset_trace()
        obs_trace.absorb_spans(exported)
        assert len(rb.traces()) == 1
        assert rb.traces()[0].to_dict() == original
        # A second absorb of the same export changes nothing (merge-stable).
        obs_trace.absorb_spans(exported)
        assert len(rb.traces()) == 1
        assert obs_trace.export_spans() == exported

    def _currents(self, stack, floorplan):
        from repro.power.state import MemoryState

        state = MemoryState.from_string("0-0-0-2", floorplan)
        maps = stack.power_maps(state)
        return stack.solver_for("direct").currents_from_maps(maps)

    def test_ir_result_carries_convergence(
        self, clean_traces, ddr3_stack, ddr3_floorplan
    ):
        from repro.rmesh.solve import StackSolver

        currents = self._currents(ddr3_stack, ddr3_floorplan)
        # A fresh solver: its first solve is always traced, whereas the
        # stack's shared cg solver may sit mid sampling period when
        # earlier tests already ran on it (REPRO_SOLVER=cg).
        result = StackSolver(ddr3_stack.model, backend="cg").solve_currents(currents)
        assert result.backend == "cg"
        assert result.convergence is not None
        assert result.convergence.nodes == len(currents)

    def test_direct_backend_never_traces(
        self, clean_traces, ddr3_stack, ddr3_floorplan
    ):
        currents = self._currents(ddr3_stack, ddr3_floorplan)
        result = ddr3_stack.solver_for("direct").solve_currents(currents)
        assert result.convergence is None
        assert len(rb.traces()) == 0


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

    def test_reabsorb_is_deduplicated(self):
        base = obs_trace.span_count()
        batch = [self._fake_span("dup", 50.0, pid=777)]
        obs_trace.absorb_spans(batch)
        obs_trace.absorb_spans(batch)  # same worker return merged twice
        assert len(obs_trace.spans(since=base)) == 1


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

    def _trace(self, rtol, final, iters):
        return {
            "backend": "cg", "preconditioner": "jacobi", "nodes": 60,
            "rtol": rtol, "warm_start": False, "iterations": iters,
            "converged": True, "final_residual": final,
            "points": [[0.0, 1.0], [float(iters), final]], "stride": 1,
        }

    def test_numerical_drift_from_residual_floor(self):
        plans = {"h1": "ddr3_off"}
        a = self._record(
            plans=plans, convergence=[self._trace(1e-10, 1e-11, 20)]
        )
        b = self._record(
            plans=plans, convergence=[self._trace(1e-6, 1e-7, 8)]
        )
        delta = diff_runs(a, b)
        assert delta.drift == "numerical"
        assert delta.residual_deltas
        text = delta_markdown(delta)
        assert "drift: numerical" in text
        assert "Residual-curve deltas" in text

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


def _square_with_profile(x: int) -> int:
    # Worker-side: ensure_profiler() inside _ObsTask starts the sampler
    # (REPRO_PROFILE is inherited); one explicit sample guarantees at
    # least one record regardless of task duration.
    from repro.obs import profile as p

    p._record(p.take_sample())
    return x * x


class TestCrossProcessMerge:
    def test_profiler_samples_survive_fanout(self, clean_profile, monkeypatch):
        from repro.perf.parallel import map_design_points

        monkeypatch.setenv(obs_profile.PROFILE_ENV, "1")
        before = obs_profile.sample_count()
        results = map_design_points(_square_with_profile, list(range(6)), workers=2)
        assert results == [x * x for x in range(6)]
        assert obs_profile.sample_count() > before

    def test_serial_path_unaffected(self, clean_profile):
        from repro.perf.parallel import map_design_points

        results = map_design_points(_square_with_profile, [1, 2], workers=1)
        assert results == [1, 4]


# -- manifest integration -----------------------------------------------------


class TestManifestTelemetryFields:
    def test_manifest_carries_profile_and_convergence(
        self, clean_profile, clean_traces, tmp_path
    ):
        obs_profile.start_profiler(interval_s=0.002)
        op = rb.CGOperator(_spd_matrix(), precond_kind="jacobi", rtol=1e-10)
        op.solve(np.ones(60))
        obs_profile.stop_profiler()
        manifest = build_manifest("telemetry.fields")
        assert manifest.profile["samples"] > 0
        assert len(manifest.convergence) == 1
        assert manifest.convergence[0]["backend"] == "cg"
        # Round-trips through the validated write/load path.
        loaded = load_manifest(manifest.write(tmp_path / "m.json"))
        assert loaded.profile["samples"] == manifest.profile["samples"]
        assert loaded.convergence == manifest.convergence

    def test_manifest_without_telemetry_stays_lean(
        self, clean_profile, clean_traces, tmp_path
    ):
        manifest = build_manifest("telemetry.lean")
        assert manifest.profile == {}
        assert manifest.convergence == []
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
