"""Fault-tolerance layer: fault injection and the pooled fan-out.

Chaos tests run under ``REPRO_FAULT_SPEC`` (deterministic, seeded), so a
failure here replays identically -- there are no flaky-by-design tests
in this file.  Process-pool tests use small item counts to stay inside
the tier-1 time budget.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import envcfg
from repro.errors import ConfigurationError, SolverError
from repro.obs import metrics as obs_metrics
from repro.perf import parallel
from repro.perf.parallel import POOL_REBUILDS, map_design_points
from repro.resil import faults


@pytest.fixture(autouse=True)
def _clean_resil_env(monkeypatch):
    """Every test starts with no fault spec."""
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)


def _counters_since(before):
    return obs_metrics.diff(before, obs_metrics.snapshot())["counters"]


# -- fault spec grammar -------------------------------------------------------


def test_parse_fault_spec_full_grammar():
    rules = faults.parse_fault_spec("worker_crash:p=0.2:seed=7, WORKER_CRASH:p=1")
    assert [r.kind for r in rules] == ["worker_crash", "worker_crash"]
    assert rules[0].p == 0.2 and rules[0].seed == 7
    assert rules[1].p == 1.0 and rules[1].seed == 0
    assert rules[0].describe() == "worker_crash:p=0.2:seed=7"


@pytest.mark.parametrize(
    "bad",
    [
        "meteor_strike:p=0.5",  # unknown kind
        "transient:p=0.5:seed=2",  # retired kind: nothing here is flaky
        "worker_crash:p=banana",  # malformed number
        "worker_crash:p",  # not name=value
        "worker_crash:p=2.0",  # probability out of range
        "worker_crash:seed=1",  # never fires
        "worker_crash:p=0.5:color=red",  # unknown parameter
    ],
)
def test_parse_fault_spec_rejects(bad):
    with pytest.raises(ConfigurationError):
        faults.parse_fault_spec(bad)


def test_fault_decisions_are_deterministic():
    a = faults._uniform_draw(7, "task", "3", 0)
    b = faults._uniform_draw(7, "task", "3", 0)
    assert a == b
    assert 0.0 <= a < 1.0
    # Different attempt re-rolls the draw.
    assert a != faults._uniform_draw(7, "task", "3", 1)


def test_active_plan_tracks_env(monkeypatch):
    assert faults.active_plan() is None
    monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash:p=0.5:seed=1")
    plan = faults.active_plan()
    assert plan is not None and plan.rules[0].kind == "worker_crash"
    assert faults.active_plan() is plan  # cached per spec string
    monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash:p=0.9:seed=1")
    assert faults.active_plan() is not plan  # spec changed -> new plan


def test_serial_path_draws_no_faults(monkeypatch):
    # A hard crash in the parent would take the whole run down: the
    # serial path, and any decision point outside a pool worker, draws
    # nothing.
    monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash:p=1:seed=1")
    before = obs_metrics.snapshot()
    faults.check_task("0")
    assert map_design_points(abs, [-1, -2, -3], workers=1) == [1, 2, 3]
    assert "resil.pool_rebuilds" not in _counters_since(before)


# -- ReproError context across processes --------------------------------------


def test_repro_error_context_survives_pickle():
    exc = SolverError("cg failed", iterations=17)
    exc.add_context(spec="ddr3", plan_hash="abc123")
    back = pickle.loads(pickle.dumps(exc))
    assert isinstance(back, SolverError)
    assert back.context == {
        "iterations": 17,
        "spec": "ddr3",
        "plan_hash": "abc123",
    }
    assert "plan_hash=abc123" in str(back)


def _raise_with_context(tag):
    raise SolverError("worker-side failure", tag=tag).add_context(layer="m3")


def test_repro_error_context_through_spawn_workers():
    # The real cross-process path: a ReproError raised in a spawned
    # worker must arrive in the parent with its context dict intact.
    ctx = __import__("multiprocessing").get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as ex:
        fut = ex.submit(_raise_with_context, "t7")
        with pytest.raises(SolverError) as info:
            fut.result(timeout=60)
    assert info.value.context["tag"] == "t7"
    assert info.value.context["layer"] == "m3"


# -- env knob validation ------------------------------------------------------


def test_workers_env_invalid_degrades_to_default(monkeypatch):
    from repro.perf.parallel import resolve_workers

    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    default = resolve_workers(None)
    envcfg.reset_warnings()
    monkeypatch.setenv("REPRO_WORKERS", "all-of-them")
    assert resolve_workers(None) == default
    monkeypatch.setenv("REPRO_WORKERS", "-4")
    assert resolve_workers(None) == default


def test_env_invalid_values_counted(monkeypatch):
    from repro.perf.parallel import resolve_workers

    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    default = resolve_workers(None)
    envcfg.reset_warnings()
    before = obs_metrics.snapshot()
    monkeypatch.setenv("REPRO_WORKERS", "nope")
    assert resolve_workers(None) == default
    assert resolve_workers(None) == default  # warned and counted once
    delta = obs_metrics.diff(before, obs_metrics.snapshot())
    assert delta["counters"].get("env.invalid_values") == 1


# -- pooled fan-out ------------------------------------------------------------


def _square(x):
    """Module-level so pool workers can unpickle it."""
    return x * x


def _fail_odd(x):
    if x % 2:
        raise ValueError(f"bad point {x}")
    return x


def test_map_design_points_raises_first_failure():
    seen = []

    def flaky(x):
        seen.append(x)
        if x == 1:
            raise ValueError("bad point")
        return x

    with pytest.raises(ValueError):
        map_design_points(flaky, [0, 1, 2], workers=1)
    assert seen == [0, 1]  # fails at once: item 2 never runs


def test_map_design_points_raises_lowest_index_failure():
    # fn's own exceptions are deterministic: no rebuild, and the
    # lowest-index one is re-raised whatever order the pool finished in.
    before = obs_metrics.snapshot()
    with pytest.raises(ValueError, match="bad point 1$"):
        map_design_points(_fail_odd, [0, 1, 2, 3], workers=2)
    counters = _counters_since(before)
    assert counters.get("resil.task_failures") == 2
    assert "resil.pool_rebuilds" not in counters


def test_map_design_points_parallel_survives_worker_crashes(monkeypatch):
    # Real os._exit crashes inside pool workers: the pool breaks, is
    # rebuilt, and every completed result is preserved.
    monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash:p=0.3:seed=1")
    before = obs_metrics.snapshot()
    result = map_design_points(abs, list(range(-12, 0)), workers=2)
    assert result == [abs(x) for x in range(-12, 0)]
    assert _counters_since(before).get("resil.pool_rebuilds", 0) > 0


def test_crash_loop_bounded_by_rebuild_budget(monkeypatch):
    # Every submission kills its worker: the pool is rebuilt
    # POOL_REBUILDS times, then the remaining items finish serially
    # (where no fault is drawn), and no broken pool leaves a worker.
    monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash:p=1:seed=1")
    before = obs_metrics.snapshot()
    assert map_design_points(_square, [1, 2, 3], workers=2) == [1, 4, 9]
    counters = _counters_since(before)
    assert counters.get("resil.pool_rebuilds") == POOL_REBUILDS
    assert counters.get("resil.serial_fallbacks") == 1
    assert multiprocessing.active_children() == []


class _CrashOnce:
    """Squares its item after a short nap; the first call on ``crash_on``
    kills the worker (a marker file makes it exactly one crash across
    processes).  The nap keeps the other items unfinished when it dies."""

    def __init__(self, marker, crash_on):
        self.marker = str(marker)
        self.crash_on = crash_on

    def __call__(self, x):
        if x == self.crash_on and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(faults.CRASH_EXIT_CODE)
        time.sleep(0.05)
        return x * x


def test_one_crash_requeues_at_most_the_window(monkeypatch, tmp_path):
    # A dead worker breaks every unfinished future of its pool; with at
    # most `workers` items in flight, one crash re-submits at most that
    # many, not every item not yet finished.
    submitted = []
    real_submit = parallel._submit

    def counting_submit(pool, task, payload):
        submitted.append(payload[0])
        return real_submit(pool, task, payload)

    monkeypatch.setattr(parallel, "_submit", counting_submit)
    items = list(range(12))
    before = obs_metrics.snapshot()
    result = map_design_points(_CrashOnce(tmp_path / "crashed", 0), items, workers=2)
    assert result == [x * x for x in items]
    assert _counters_since(before).get("resil.pool_rebuilds") == 1
    assert sorted(set(submitted)) == items
    assert 1 <= len(submitted) - len(items) <= 2


def test_map_design_points_preserves_order_under_chaos(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash:p=0.15:seed=4")
    items = list(range(16))
    assert map_design_points(_square, items, workers=2) == [x * x for x in items]


# -- obs.store truncated tail (satellite c) -----------------------------------


def test_store_append_repairs_truncated_tail(tmp_path):
    from repro.obs.store import RunHistoryStore

    store = RunHistoryStore(root=tmp_path)
    store.append({"experiment_id": "fig4", "kind": "experiment"})
    # SIGKILL mid-append leaves a partial line with no newline.
    with open(store.index_path, "a", encoding="utf-8") as fh:
        fh.write('{"experiment_id": "fig5", "ki')
    store.append({"experiment_id": "fig9", "kind": "experiment"})
    runs = store.runs()
    ids = [r["experiment_id"] for r in runs]
    assert ids == ["fig4", "fig9"]  # corrupt line skipped, rest intact


def test_store_runs_counts_corrupt_lines(tmp_path):
    from repro.obs.store import RunHistoryStore

    store = RunHistoryStore(root=tmp_path)
    store.append({"experiment_id": "fig4", "kind": "experiment"})
    with open(store.index_path, "a", encoding="utf-8") as fh:
        fh.write("not json at all\n")
    before = obs_metrics.snapshot()
    assert len(store.runs()) == 1
    delta = obs_metrics.diff(before, obs_metrics.snapshot())
    assert delta["counters"].get("obs.store.corrupt_lines", 0) >= 1


def test_manifest_with_resume_lineage_still_loads(tmp_path):
    # Manifests written while the checkpoint journal existed carry an
    # ``extra.resume`` block; they stay loadable after its removal.
    from repro.obs.manifest import build_manifest, load_manifest

    resume = {"path": "sweep.ckpt.jsonl", "entries": 24, "hits": 24, "misses": 0}
    path = build_manifest("fig5", extra={"resume": resume}).write(
        tmp_path / "old.manifest.json"
    )
    assert load_manifest(path).extra["resume"] == resume
