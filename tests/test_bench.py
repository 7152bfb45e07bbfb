"""Benchmark telemetry subsystem: records, comparator, registry, runner, CLI."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    REGISTRY,
    BenchmarkEntry,
    BenchSpec,
    SuiteRecord,
    baseline_path,
    benchmarks_dir,
    discover,
    find_records,
    load_baseline,
    load_record,
    load_trajectory,
    register_bench,
    run_bench,
    run_suite,
    select,
    validate_record,
)
from repro.bench.record import RECORD_NAME_RE
from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs.manifest import build_manifest
from repro.obs.store import (
    delta_markdown,
    diff_runs,
    normalize_bench_record,
    show_markdown,
)


def make_entry(
    name="table1",
    wall=1.0,
    walls=None,
    max_ir=30.0,
    anchors=(),
    status="ok",
    error=None,
):
    return BenchmarkEntry(
        name=name,
        status=status,
        wall_s=wall,
        wall_s_all=list(walls) if walls is not None else [wall],
        peak_rss_kb=1000.0,
        counters={"solver.rhs_solved": 4},
        max_ir_mv=max_ir,
        anchors=list(anchors),
        error=error,
    )


def make_record(entries, created="2026-08-06T10:00:00Z", sha="a" * 40):
    manifest = build_manifest(experiment_id="bench.suite", title="test suite")
    return SuiteRecord(
        suite="smoke",
        created=created,
        smoke=True,
        repeats=1,
        git={"sha": sha, "dirty": False},
        workers=1,
        environment={"python": "3.x"},
        manifest=manifest.to_dict(),
        benchmarks=list(entries),
    )


ANCHOR = {
    "row": "standard",
    "metric": "runtime_us",
    "paper": 109.3,
    "model": 110.0,
    "deviation_pct": 0.64,
}


class TestRecord:
    def test_round_trip(self, tmp_path):
        record = make_record([make_entry(), make_entry(name="fig4", anchors=[ANCHOR])])
        path = record.write(tmp_path / "BENCH_test.json")
        loaded = load_record(path)
        assert loaded.names() == ["table1", "fig4"]
        assert loaded.entry("fig4").anchors == [ANCHOR]
        assert loaded.entry("table1").counters["solver.rhs_solved"] == 4
        assert loaded.git["sha"] == "a" * 40
        validate_record(loaded.to_dict())

    def test_missing_field_rejected(self):
        data = make_record([make_entry()]).to_dict()
        del data["git"]
        with pytest.raises(ConfigurationError, match="missing field 'git'"):
            validate_record(data)

    def test_bad_entry_status_rejected(self):
        data = make_record([make_entry(status="weird")]).to_dict()
        with pytest.raises(ConfigurationError, match="status 'weird'"):
            validate_record(data)

    def test_duplicate_entry_rejected(self):
        data = make_record([make_entry(), make_entry()]).to_dict()
        with pytest.raises(ConfigurationError, match="duplicate benchmark"):
            validate_record(data)

    def test_stale_schema_version_rejected(self):
        data = make_record([make_entry()]).to_dict()
        data["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="schema_version"):
            validate_record(data)

    def test_embedded_manifest_validated(self):
        data = make_record([make_entry()]).to_dict()
        data["manifest"] = {"nonsense": True}
        with pytest.raises(ConfigurationError, match="embedded manifest"):
            validate_record(data)

    def test_record_name_format(self):
        record = make_record([make_entry()])
        name = record.record_name()
        assert RECORD_NAME_RE.match(name), name
        assert name == "BENCH_20260806T100000Z_aaaaaaa.json"

    def test_trajectory_discovery_and_ordering(self, tmp_path):
        older = make_record([make_entry(wall=1.0)], created="2026-08-01T00:00:00Z")
        newer = make_record([make_entry(wall=2.0)], created="2026-08-05T00:00:00Z")
        newer.write(tmp_path / newer.record_name())
        older.write(tmp_path / older.record_name())
        (tmp_path / "BENCH_20260803T000000Z_aaaaaaa.json").write_text("{broken")
        (tmp_path / "unrelated.json").write_text("{}")
        paths = find_records(tmp_path)
        assert [p.name for p in paths] == [
            "BENCH_20260801T000000Z_aaaaaaa.json",
            "BENCH_20260803T000000Z_aaaaaaa.json",
            "BENCH_20260805T000000Z_aaaaaaa.json",
        ]
        # The broken file is skipped, order is oldest-first.
        records = load_trajectory(tmp_path)
        assert [r.entry("table1").wall_s for r in records] == [1.0, 2.0]
        # exclude drops the excluded record.
        records = load_trajectory(tmp_path, exclude=(tmp_path / newer.record_name(),))
        assert [r.entry("table1").wall_s for r in records] == [1.0]


def compare(current, baseline, trajectory=(), **tolerances):
    """The bench gate's comparison: ``diff_runs`` over normalized records."""
    return diff_runs(
        normalize_bench_record(baseline.to_dict()),
        normalize_bench_record(current.to_dict()),
        history=[normalize_bench_record(r.to_dict()) for r in trajectory],
        **tolerances,
    )


class TestComparator:
    def baseline(self, **kwargs):
        return make_record([make_entry(anchors=[ANCHOR], **kwargs)])

    def test_identical_run_is_ok(self):
        delta = compare(self.baseline(), self.baseline())
        assert delta.verdict == "ok" and delta.drift == "none"
        assert not delta.regressed

    def test_improvement_is_ok(self):
        current = make_record([make_entry(wall=0.4, anchors=[ANCHOR])])
        assert compare(current, self.baseline()).verdict == "ok"

    def test_2x_slowdown_is_perf_regression(self):
        current = make_record([make_entry(wall=2.0, anchors=[ANCHOR])])
        delta = compare(current, self.baseline())
        row = delta.benches[0]
        assert row["status"] == "perf_regression"
        assert "vs median 1.000s" in row["detail"]
        assert delta.drift == "none"  # slower, not different physics
        assert delta.regressed

    def test_jitter_within_band_is_ok(self):
        current = make_record([make_entry(wall=1.4, anchors=[ANCHOR])])
        assert compare(current, self.baseline()).verdict == "ok"

    def test_sub_min_wall_never_perf_gated(self):
        base = make_record([make_entry(wall=0.005)])
        current = make_record([make_entry(wall=0.05)])  # 10x but micro
        assert compare(current, base).verdict == "ok"

    def test_trajectory_widens_the_noise_band(self):
        # Historical MADs show 1.8s is normal for this bench even though
        # the blessed baseline median alone would flag it.
        base = self.baseline()
        trajectory = [
            make_record([make_entry(wall=w, anchors=[ANCHOR])])
            for w in (0.8, 1.6, 0.9, 1.7, 1.2)
        ]
        current = make_record([make_entry(wall=1.8, anchors=[ANCHOR])])
        assert compare(current, base).verdict == "perf_regression"
        widened = compare(current, base, trajectory=trajectory)
        assert widened.verdict == "ok"

    def test_max_ir_change_is_accuracy_drift(self):
        current = make_record([make_entry(max_ir=30.1, anchors=[ANCHOR])])
        delta = compare(current, self.baseline())
        assert delta.verdict == "accuracy_drift"
        assert delta.drift == "numerical"
        assert "max IR" in delta.benches[0]["detail"]
        # --ir-tol is the one mV tolerance: 0.1 mV fits under 0.5 mV.
        assert compare(current, self.baseline(), ir_abs_mv=0.5).verdict == "ok"

    def test_anchor_change_is_accuracy_drift(self):
        moved = dict(ANCHOR, model=120.0, deviation_pct=9.79)
        current = make_record([make_entry(anchors=[moved])])
        delta = compare(current, self.baseline())
        assert delta.verdict == "accuracy_drift"
        assert "runtime_us" in delta.benches[0]["detail"]

    @pytest.mark.parametrize(
        "base_plans, cur_plans, tag",
        [
            (["h1"], ["h2"], " [structural: stack plans changed]"),
            (["h1", "h2"], ["h2", "h1"], " [numerical: identical stack plans]"),
            ([], ["h1"], None),
        ],
    )
    def test_drift_tag_from_plan_hashes(self, base_plans, cur_plans, tag):
        base = make_entry(anchors=[ANCHOR])
        base.plan_hashes = base_plans
        current = make_entry(max_ir=30.1, anchors=[ANCHOR])
        current.plan_hashes = cur_plans
        delta = compare(make_record([current]), make_record([base]))
        detail = delta.benches[0]["detail"]
        assert detail.startswith("max IR")
        if tag is None:
            assert not detail.endswith("]")
        else:
            assert detail.endswith(tag)
        assert delta.drift == ("structural" if "structural" in (tag or "") else "numerical")

    def test_plan_change_alone_is_structural_drift(self):
        """Same IR, different stack plans: the gate fails as structural."""
        base = make_entry(anchors=[ANCHOR])
        base.plan_hashes = ["h1"]
        current = make_entry(anchors=[ANCHOR])
        current.plan_hashes = ["h2"]
        delta = compare(make_record([current]), make_record([base]))
        assert delta.verdict == "accuracy_drift"
        assert delta.drift == "structural" and delta.regressed
        assert delta.benches[0]["detail"].endswith("[structural: stack plans changed]")
        assert any("h1" in line for line in delta.evidence)

    def test_partial_suite_is_not_structural_drift(self):
        """Plans are judged per shared bench, never across the whole run."""
        base_entries = [make_entry(), make_entry(name="fig5")]
        base_entries[0].plan_hashes = ["h1"]
        base_entries[1].plan_hashes = ["h2", "h3"]
        current = make_entry()
        current.plan_hashes = ["h1"]
        delta = compare(make_record([current]), make_record(base_entries))
        assert delta.drift == "none" and delta.verdict == "ok"

    def test_noisy_metric_exempt_from_drift(self):
        base_anchor = dict(ANCHOR, metric="speedup", deviation_pct=-99.3)
        cur_anchor = dict(ANCHOR, metric="speedup", deviation_pct=-99.1)
        base = make_record([make_entry(anchors=[base_anchor])])
        current = make_record([make_entry(anchors=[cur_anchor])])
        assert compare(current, base).verdict == "ok"

    def test_new_benchmark(self):
        current = make_record([make_entry(), make_entry(name="brand_new")])
        delta = compare(current, self.baseline())
        by_name = {row["name"]: row for row in delta.benches}
        assert by_name["brand_new"]["status"] == "new_benchmark"
        assert delta.verdict == "new_benchmark"
        assert not delta.regressed  # new benches never fail the gate

    def test_failed_bench_is_worst_verdict(self):
        current = make_record(
            [make_entry(status="failed", error="AssertionError: boom")]
        )
        delta = compare(current, self.baseline())
        assert delta.verdict == "failed"
        assert delta.regressed
        assert [row["status"] for row in delta.benches] == ["failed"]
        assert delta.benches[0]["detail"] == "AssertionError: boom"

    def test_thresholds_are_tunable(self):
        current = make_record([make_entry(wall=2.0, anchors=[ANCHOR])])
        assert compare(current, self.baseline(), perf_rel_tol=1.5).verdict == "ok"

    def test_report_renders_verdicts(self):
        current = make_record([make_entry(wall=2.0, anchors=[ANCHOR])])
        text = delta_markdown(compare(current, self.baseline()))
        assert "perf_regression !!" in text
        assert "suite verdict: perf_regression" in text
        assert text.splitlines()[2] == "drift: none"
        summary = show_markdown(normalize_bench_record(current.to_dict()))
        assert "table1" in summary and "**experiment_id**: smoke" in summary


class TestBaselineStore:
    def test_update_and_load(self, tmp_path):
        path = tmp_path / "benchmarks" / "BASELINE.json"
        make_record([make_entry()]).write(path)
        loaded = load_baseline(path)
        assert loaded is not None and loaded.names() == ["table1"]

    def test_missing_baseline_is_none(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") is None

    def test_update_baseline_blesses_a_regression(self, tmp_path):
        """--update-baseline semantics: after blessing, the same numbers pass."""
        path = tmp_path / "BASELINE.json"
        make_record([make_entry(wall=1.0)]).write(path)
        slow = make_record([make_entry(wall=3.0)])
        assert compare(slow, load_baseline(path)).verdict == "perf_regression"
        slow.write(path)
        assert compare(slow, load_baseline(path)).verdict == "ok"

    def test_compare_against_root(self, tmp_path):
        """The committed baseline plus the root trajectory, as the CLI reads them."""
        base = make_record([make_entry(wall=1.0)])
        base.write(baseline_path(tmp_path))
        older = make_record([make_entry(wall=1.1)], created="2026-08-01T00:00:00Z")
        older.write(tmp_path / older.record_name())
        current = make_record([make_entry(wall=1.2)])
        delta = compare(
            current, load_baseline(baseline_path(tmp_path)), load_trajectory(tmp_path)
        )
        assert delta.verdict == "ok" and delta.drift == "none"
        # No baseline -> None (first-ever run).
        assert load_baseline(baseline_path(tmp_path / "empty")) is None

    def test_committed_baseline_diffs_clean_against_itself(self):
        baseline = load_baseline(baseline_path(benchmarks_dir().parent))
        assert baseline is not None
        delta = compare(baseline, baseline)
        assert delta.drift == "none" and delta.verdict == "ok"
        assert len(delta.benches) == len(baseline.benchmarks)


class TestRegistry:
    def test_discover_finds_the_repo_benches(self):
        registry = discover()
        assert len(registry) >= 10
        for expected in ("table1", "table6", "fig4", "perf_sampling"):
            assert expected in registry
        # Discovery is idempotent.
        assert discover() is registry

    def test_smoke_selection_excludes_heavy(self):
        registry = discover()
        smoke = select(None, smoke=True, registry=registry)
        full = select(None, smoke=False, registry=registry)
        assert len(smoke) >= 10
        assert {s.name for s in full} - {s.name for s in smoke} >= {
            "fig9",
            "table6",
            "perf_sampling",
        }
        assert not any(s.heavy for s in smoke)

    def test_explicit_names_may_include_heavy(self):
        registry = discover()
        specs = select(["table6"], smoke=True, registry=registry)
        assert [s.name for s in specs] == ["table6"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown bench"):
            select(["bogus"], registry=discover())

    def test_harness_inference(self):
        registry = discover()
        assert registry["table1"].harness == "experiment"
        assert registry["ablation_mesh_resolution"].harness == "pedantic"
        assert registry["perf_sampling"].harness == "plain"

    def test_unsupported_signature_rejected(self):
        spec = BenchSpec(name="bad", func=lambda weird_arg: None)
        with pytest.raises(ConfigurationError, match="cannot drive"):
            spec.harness

    def test_cross_file_name_collision_rejected(self):
        REGISTRY["__collision"] = BenchSpec(
            name="__collision", func=lambda: None, source="/somewhere/else.py"
        )
        try:
            with pytest.raises(ConfigurationError, match="duplicate bench"):
                register_bench("__collision")(lambda: None)
        finally:
            del REGISTRY["__collision"]


class TestRunner:
    def test_run_suite_single_bench(self):
        record = run_suite(names=["table1"], smoke=True, archive=False)
        validate_record(record.to_dict())
        assert record.suite == "custom"
        entry = record.entry("table1")
        assert entry.status == "ok"
        assert entry.wall_s > 0 and entry.wall_s_all
        assert entry.anchors, "experiment bench must carry paper anchors"
        assert all(
            set(a) == {"row", "metric", "paper", "model", "deviation_pct"}
            for a in entry.anchors
        )
        assert record.manifest["experiment_id"] == "bench.suite"

    def test_run_suite_captures_solver_counters_and_ir(self):
        record = run_suite(names=["fig4"], smoke=True, archive=False)
        entry = record.entry("fig4")
        assert entry.counters.get("solver.rhs_solved", 0) > 0
        assert entry.max_ir_mv is not None and entry.max_ir_mv > 0

    def test_failing_bench_recorded_not_raised(self):
        def exploding():
            raise AssertionError("physics broke")

        spec = BenchSpec(name="__boom", func=exploding, source=__file__)
        entry = run_bench(spec, archive=False, isolate=True)
        assert entry.status == "failed"
        assert "physics broke" in entry.error
        assert entry.wall_s_all

    def test_repeats_record_every_wall_time(self):
        registry = discover()
        entry = run_bench(
            registry["table1"], repeats=3, archive=False, isolate=True
        )
        assert len(entry.wall_s_all) == 3
        assert entry.wall_s == sorted(entry.wall_s_all)[1]

    def test_isolated_repeats_are_cold_cache(self):
        # Every repeat must re-miss the perf caches: a warm-cache
        # median-of-k baseline would make any single-repeat run look
        # like a regression by the full cache-miss cost.
        registry = discover()
        one = run_bench(registry["fig4"], repeats=1, archive=False, isolate=True)
        two = run_bench(registry["fig4"], repeats=2, archive=False, isolate=True)
        misses = one.counters.get("cache.power_map.misses", 0)
        assert misses > 0
        assert two.counters.get("cache.power_map.misses", 0) == 2 * misses


class TestWorkersEnvFix:
    """REPRO_BENCH_WORKERS=1 must be respected (single-worker CI runs)."""

    def _bench_workers(self):
        registry = discover()  # loads benchmarks/bench_perf_sampling.py
        assert "perf_sampling" in registry
        import sys

        return sys.modules["repro_bench_cases.bench_perf_sampling"]._bench_workers

    @pytest.mark.parametrize(
        "value,expected",
        [("1", 1), ("2", 2), ("8", 8), ("0", 4), ("-3", 4), ("junk", 4)],
    )
    def test_explicit_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", value)
        assert self._bench_workers()() == expected

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        assert self._bench_workers()() == 4


class TestCLI:
    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "perf_sampling" in out

    def test_bench_emit_and_update_baseline(self, tmp_path, capsys):
        out = tmp_path / "BENCH_cli.json"
        base = tmp_path / "BASELINE.json"
        code = main(
            [
                "bench",
                "--only",
                "table1",
                "--out",
                str(out),
                "--baseline",
                str(base),
                "--update-baseline",
            ]
        )
        assert code == 0
        record = load_record(out)
        assert record.entry("table1").status == "ok"
        assert load_record(base).names() == ["table1"]
        assert "baseline updated" in capsys.readouterr().out

    def test_bench_gate_passes_then_fails(self, tmp_path, capsys):
        base = tmp_path / "BASELINE.json"
        out1 = tmp_path / "BENCH_one.json"
        assert (
            main(
                [
                    "bench",
                    "--only",
                    "table1",
                    "--out",
                    str(out1),
                    "--baseline",
                    str(base),
                    "--update-baseline",
                ]
            )
            == 0
        )
        # Same numbers against the blessed baseline: ok, exit 0.
        out2 = tmp_path / "BENCH_two.json"
        assert (
            main(
                [
                    "bench",
                    "--only",
                    "table1",
                    "--out",
                    str(out2),
                    "--baseline",
                    str(base),
                    "--gate",
                ]
            )
            == 0
        )
        assert "suite verdict: ok" in capsys.readouterr().out
        # Doctor the baseline so the live run looks 100x slower: gate trips.
        data = json.loads(base.read_text())
        for entry in data["benchmarks"]:
            entry["wall_s"] = entry["wall_s"] / 100.0
            entry["wall_s_all"] = [entry["wall_s"]]
            entry["max_ir_mv"] = None  # perf only; IR of table1 is None anyway
        base.write_text(json.dumps(data))
        out3 = tmp_path / "BENCH_three.json"
        code = main(
            [
                "bench",
                "--only",
                "ablation_decoder_fraction",
                "--out",
                str(out3),
                "--baseline",
                str(base),
                "--gate",
            ]
        )
        # A bench absent from the baseline is new_benchmark: not a failure.
        assert code == 0
        assert "new_benchmark" in capsys.readouterr().out

    def test_bench_gate_fails_on_synthetic_regression(self, tmp_path, capsys):
        base = tmp_path / "BASELINE.json"
        bench = "ablation_mesh_resolution"  # ~0.5s: safely above the 0.1 s perf floor
        out1 = tmp_path / "BENCH_one.json"
        assert (
            main(
                [
                    "bench", "--only", bench,
                    "--out", str(out1),
                    "--baseline", str(base),
                    "--update-baseline",
                ]
            )
            == 0
        )
        data = json.loads(base.read_text())
        for entry in data["benchmarks"]:
            entry["wall_s"] = round(entry["wall_s"] / 100.0, 6)
            entry["wall_s_all"] = [entry["wall_s"]]
        base.write_text(json.dumps(data))
        out2 = tmp_path / "BENCH_two.json"
        delta_out = tmp_path / "delta.md"
        code = main(
            [
                "bench", "--only", bench,
                "--out", str(out2),
                "--baseline", str(base),
                "--gate",
                "--delta-out", str(delta_out),
            ]
        )
        assert code == 1
        assert "perf_regression" in capsys.readouterr().out
        assert "perf_regression" in delta_out.read_text()
