"""Tests for the performance layer: batched solves, caches, fan-out, timers."""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.controller import IRDropLUT
from repro.controller.lut import StaticIRDropLUT
from repro.errors import SolverError
from repro.obs import metrics as obs_metrics
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.perf.cache import (
    LRUCache,
    cache_stats,
    cached_build_stack,
    cached_dram_power_map,
    cached_logic_power_map,
    clear_caches,
    stack_cache,
)
from repro.perf.parallel import (
    WORKERS_ENV,
    map_design_points,
    resolve_workers,
)
from repro.perf.timers import report, reset_timers, snapshot, timed
from repro.pdn.stackup import plan_stack
from repro.power.state import MemoryState
from repro.regress.model import sample_design_space, valid_discrete_combos


# -- batched multi-RHS solves -------------------------------------------------


def test_solve_many_bitwise_matches_solve_currents(ddr3_stack, ddr3_off_bench):
    solver = ddr3_stack.solver
    states = [
        MemoryState.from_counts(counts, ddr3_off_bench.stack.dram_floorplan)
        for counts in [(0, 0, 0, 2), (2, 0, 0, 0), (1, 1, 1, 1)]
    ]
    columns = [
        solver.currents_from_maps(ddr3_stack.power_maps(s)) for s in states
    ]
    batched = solver.solve_many(np.stack(columns, axis=1))
    assert len(batched) == len(states)
    for column, result in zip(columns, batched):
        single = solver.solve_currents(column)
        assert np.array_equal(single.drops, result.drops)


def test_solve_many_validates_shape_and_sign(ddr3_stack):
    solver = ddr3_stack.solver
    with pytest.raises(SolverError):
        solver.solve_many(np.zeros(5))
    with pytest.raises(SolverError):
        solver.solve_many(np.zeros((5, 2)))
    bad = np.zeros((ddr3_stack.model.num_nodes, 1))
    bad[0, 0] = -1.0
    with pytest.raises(SolverError):
        solver.solve_many(bad)


def test_solve_many_empty_block(ddr3_stack):
    assert ddr3_stack.solver.solve_many(
        np.zeros((ddr3_stack.model.num_nodes, 0))
    ) == []


def test_solve_states_matches_solve_state(ddr3_stack, ddr3_off_bench):
    fp = ddr3_off_bench.stack.dram_floorplan
    states = [
        MemoryState.from_counts(c, fp)
        for c in [(0, 0, 0, 2), (2, 2, 2, 2), (0, 1, 0, 0)]
    ]
    batched = ddr3_stack.solve_states(states)
    for state, got in zip(states, batched):
        ref = ddr3_stack.solve_state(state)
        assert got.dram_max_mv == ref.dram_max_mv
        assert got.per_die_mv == ref.per_die_mv
        assert got.total_power_mw == pytest.approx(ref.total_power_mw)
    assert ddr3_stack.solve_states([]) == []


# -- keyed solver/stack cache -------------------------------------------------


def test_cached_build_stack_matches_fresh(ddr3_stack, ddr3_off_bench):
    clear_caches()
    bench = ddr3_off_bench
    cached = cached_build_stack(bench.stack, bench.baseline)
    state = bench.reference_state()
    assert cached.dram_max_mv(state) == ddr3_stack.dram_max_mv(state)
    # Second lookup returns the same object (factorization reused).
    again = cached_build_stack(bench.stack, bench.baseline)
    assert again is cached
    assert stack_cache.stats()["hits"] >= 1


def test_cache_distinguishes_configs(ddr3_off_bench):
    clear_caches()
    bench = ddr3_off_bench
    base = cached_build_stack(bench.stack, bench.baseline)
    wider = cached_build_stack(
        bench.stack, bench.baseline.with_options(m3_usage=0.40)
    )
    assert base is not wider
    state = bench.reference_state()
    assert wider.dram_max_mv(state) < base.dram_max_mv(state)


def test_lru_eviction_and_stats():
    lru = LRUCache(maxsize=2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes "a"
    lru.put("c", 3)  # evicts "b", the least recently used
    assert lru.get("b") is None
    assert lru.get("a") == 1
    assert lru.get("c") == 3
    stats = lru.stats()
    assert stats["evictions"] == 1
    assert stats["size"] == 2
    assert cache_stats().keys() == {"stack", "power_map"}


@pytest.mark.parametrize("kind", ["dram", "logic"])
def test_mutating_a_miss_result_leaves_later_hits_intact(
    kind, ddr3_off_bench, ddr3_on_bench
):
    """A map handed out on a cache miss is the caller's own copy."""
    clear_caches()
    if kind == "dram":
        spec = ddr3_off_bench.stack
        state = MemoryState.from_string("0-0-0-2", spec.dram_floorplan)
        grid = plan_stack(spec, ddr3_off_bench.baseline).dram_grid.to_grid()
        fetch = lambda: cached_dram_power_map(  # noqa: E731
            spec.dram_floorplan, spec.dram_power, state, 3, grid, 1.5,
            content_key=repr(spec),
        )
    else:
        spec = ddr3_on_bench.stack
        grid = plan_stack(spec, ddr3_on_bench.baseline).logic_grid.to_grid()
        fetch = lambda: cached_logic_power_map(  # noqa: E731
            spec.logic_floorplan, spec.logic_power, grid, 1.5,
            content_key=repr(spec),
        )
    miss = fetch()
    expected = miss.current.copy()
    assert expected.sum() > 0.0
    miss.current[:] = 0.0
    hit = fetch()
    assert np.array_equal(hit.current, expected)
    hit.current[:] = 0.0
    assert np.array_equal(fetch().current, expected)
    assert cache_stats()["power_map"]["hits"] >= 2
    clear_caches()


def test_activity_override_is_part_of_the_power_map_key(ddr3_off_bench):
    """The LUT basis rasterizes states at overridden activity; the cache
    must never hand such a map out for the state's own activity, or the
    other way round."""
    clear_caches()
    spec = ddr3_off_bench.stack
    state = MemoryState.from_string("0-0-0-2", spec.dram_floorplan)
    grid = plan_stack(spec, ddr3_off_bench.baseline).dram_grid.to_grid()

    def fetch(activity=None):
        return cached_dram_power_map(
            spec.dram_floorplan, spec.dram_power, state, 3, grid, 1.5,
            activity=activity, content_key=repr(spec),
        ).current

    silent = fetch({0: 0.0})
    own = fetch()  # derived activity of a lone active die: 1.0
    assert not np.array_equal(own, silent)
    assert np.array_equal(fetch({0: 0.0}), silent)
    assert np.array_equal(fetch({0: 1.0}), own)
    clear_caches()


def test_lru_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        LRUCache(maxsize=0)


# -- process fan-out ----------------------------------------------------------


def test_sample_design_space_workers_matches_serial(ddr3_off_bench):
    combos = valid_discrete_combos(ddr3_off_bench)[:2]
    kwargs = dict(m2_points=2, m3_points=1, tc_points=1, combos=combos)
    serial = sample_design_space(ddr3_off_bench, workers=1, **kwargs)
    parallel = sample_design_space(ddr3_off_bench, workers=2, **kwargs)
    assert [s.config for s in serial] == [s.config for s in parallel]
    assert [s.ir_mv for s in serial] == [s.ir_mv for s in parallel]


def test_map_design_points_preserves_order():
    items = list(range(7))
    assert map_design_points(_square, items, workers=1) == [i * i for i in items]
    assert map_design_points(_square, items, workers=2) == [i * i for i in items]


def _square(x: int) -> int:
    return x * x


def test_resolve_workers_env(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(None) == cpus
    assert resolve_workers(0) == cpus
    assert resolve_workers(1) == 1
    monkeypatch.setenv(WORKERS_ENV, "1")
    assert resolve_workers(None) == 1
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(None) >= 1  # clamped to <= 2x cpu count
    monkeypatch.setenv(WORKERS_ENV, "garbage")
    assert resolve_workers(None) == cpus
    with pytest.raises(ValueError):
        resolve_workers(-2)


def test_default_sample_is_parallel_and_matches_serial(ddr3_off_bench, monkeypatch):
    """No worker setting fans out over the usable CPUs, bitwise like serial."""
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    combos = valid_discrete_combos(ddr3_off_bench)[:2]
    kwargs = dict(m2_points=2, m3_points=1, tc_points=1, combos=combos)
    before = obs_metrics.snapshot()
    default = sample_design_space(ddr3_off_bench, **kwargs)
    merged = obs_metrics.diff(before, obs_metrics.snapshot())["counters"]
    serial = sample_design_space(ddr3_off_bench, workers=1, **kwargs)
    assert [(s.config, s.ir_mv) for s in default] == [(s.config, s.ir_mv) for s in serial]
    parallel = len(os.sched_getaffinity(0)) > 1
    assert merged.get("parallel.worker_tasks_merged", 0) == (2 if parallel else 0)


def test_parallel_manifest_keeps_plan_labels(ddr3_off_bench):
    """Worker-built plans are labelled by benchmark, as in a serial run."""
    from repro.obs.manifest import build_manifest

    combos = valid_discrete_combos(ddr3_off_bench)[:2]
    kwargs = dict(m2_points=2, m3_points=1, tc_points=1, combos=combos)

    def sample_plans(workers):
        before = obs_metrics.snapshot()
        sample_design_space(ddr3_off_bench, workers=workers, **kwargs)
        delta = obs_metrics.diff(before, obs_metrics.snapshot())
        return build_manifest("test.plans", metrics_snapshot=delta).plans

    parallel = sample_plans(2)
    serial = sample_plans(1)
    assert len(serial) == 4
    assert parallel == serial
    assert set(parallel.values()) == {"ddr3_off"}


def _timed_square(x: int) -> int:
    with timed("unit.fanout"):
        with timed("unit.fanout.inner", count=2):
            return x * x


def _timer_counts(workers: int) -> dict:
    reset_timers()
    map_design_points(_timed_square, list(range(5)), workers=workers)
    return {
        name: count
        for name, (_, count) in snapshot().items()
        if not name.startswith("parallel.")  # serial_map vs process_map
    }


def test_parallel_timer_counts_match_serial():
    """Worker spans are the timers: per-name counts match a serial run."""
    serial = _timer_counts(1)
    assert serial == {"unit.fanout": 5, "unit.fanout.inner": 10}
    assert _timer_counts(2) == serial
    reset_timers()


# -- pool start method --------------------------------------------------------


@pytest.fixture
def profiler_off():
    obs_profile.stop_profiler(final_sample=False)
    obs_profile.reset_profile()
    yield
    obs_profile.stop_profiler(final_sample=False)
    obs_profile.reset_profile()


def test_pool_forks_unless_profiler_thread_runs(monkeypatch, profiler_off):
    from repro.resil import execute

    calls = []

    def probe(**kwargs):  # records the pool's kwargs, never starts one
        calls.append(kwargs)
        raise OSError("probe: no pool")

    monkeypatch.setattr(execute, "ProcessPoolExecutor", probe)
    with pytest.warns(RuntimeWarning):
        assert execute.run_tasks(_square, [1, 2], workers=2) == [1, 4]
    assert "mp_context" not in calls[-1]
    obs_profile.start_profiler(interval_s=0.05)
    with pytest.warns(RuntimeWarning):
        assert execute.run_tasks(_square, [1, 2], workers=2) == [1, 4]
    assert calls[-1]["mp_context"].get_start_method() == "spawn"


def _sleepy_square(x: int) -> int:
    time.sleep(0.03)
    return x * x


def test_profiled_fanout_spawns_and_merges_samples(monkeypatch, profiler_off):
    monkeypatch.setenv(obs_profile.PROFILE_ENV, "1")
    monkeypatch.setenv(obs_profile.PROFILE_INTERVAL_ENV, "1")
    obs_profile.start_profiler()
    items = list(range(4))
    assert map_design_points(_sleepy_square, items, workers=2) == [
        i * i for i in items
    ]
    obs_profile.stop_profiler(final_sample=False)
    assert {s.pid for s in obs_profile.samples()} - {os.getpid()}


# -- LUT batching and serialization ------------------------------------------


def test_lut_batched_equals_per_state(ddr3_stack, ddr3_lut):
    # Rebuild lazily and resolve every entry one lookup at a time; the
    # eager precompute (ddr3_lut fixture) superposes through the same
    # code, so the two tables agree exactly.
    lazy = IRDropLUT(ddr3_stack, precompute=False)
    for counts in ddr3_lut.as_dict():
        assert lazy.lookup(counts) == ddr3_lut.lookup(counts)
    assert lazy.as_dict() == ddr3_lut.as_dict()


def test_lut_precompute_idempotent(ddr3_lut):
    before = ddr3_lut.as_dict()
    ddr3_lut.precompute_all()  # no pending states: must be a no-op
    assert ddr3_lut.as_dict() == before


def test_to_json_completes_partial_table(ddr3_stack):
    partial = IRDropLUT(ddr3_stack, precompute=False)
    partial.lookup((0, 0, 0, 1))
    assert partial.size < 3**4
    restored = IRDropLUT.from_json(partial.to_json())
    assert isinstance(restored, StaticIRDropLUT)
    # The shipped table is complete: any in-range state resolves.
    assert restored.size == 3**4
    assert restored.lookup((2, 2, 2, 2)) == pytest.approx(
        partial.lookup((2, 2, 2, 2)), abs=1e-4
    )


# -- timers -------------------------------------------------------------------


def test_timers_accumulate_and_report():
    reset_timers()
    with timed("unit.test"):
        pass
    with timed("unit.test", count=2):
        pass
    with timed("unit.other"):
        pass
    snap = snapshot()
    assert set(snap) == {"unit.test", "unit.other"}
    assert snap["unit.test"][1] == 3
    assert snap["unit.test"][0] == sum(
        rec.duration for rec in obs_trace.spans() if rec.name == "unit.test"
    )
    assert snap["unit.other"][1] == 1
    text = report()
    assert "unit.test" in text and "unit.other" in text
    assert "dropped" not in text
    reset_timers()
    assert report() == "perf: no timers recorded"


def test_report_notes_spans_dropped_at_cap(monkeypatch):
    reset_timers()
    monkeypatch.setattr(obs_trace, "MAX_SPANS", 2)
    for _ in range(5):
        with timed("unit.capped"):
            pass
    assert snapshot()["unit.capped"][1] == 2
    assert obs_trace.dropped_count() == 3
    assert report().splitlines()[-1] == (
        "(3 spans dropped at the 2-span trace cap; totals exclude them)"
    )
    reset_timers()


def test_report_prints_counters_of_unspanned_work():
    reset_timers()
    with timed("unit.outer"):
        obs_metrics.inc("lut.entries_superposed", 3)
    total = obs_metrics.get_counter("lut.entries_superposed")
    assert (
        f"lut.entries_superposed: {total} (counter; timed inside the rows above)"
        in report().splitlines()
    )
    reset_timers()


def test_solver_paths_record_timers(ddr3_off_bench):
    reset_timers()
    clear_caches()
    bench = ddr3_off_bench
    stack = cached_build_stack(bench.stack, bench.baseline)
    stack.dram_max_mv(bench.reference_state())
    names = set(snapshot())
    assert "stackup.build" in names
    assert "solver.factorize" in names
    assert "solver.solve" in names
