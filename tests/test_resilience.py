"""Fault-tolerance layer: injection, retry, executor, checkpoint, escalation.

Chaos tests run under ``REPRO_FAULT_SPEC`` (deterministic, seeded), so a
failure here replays identically -- there are no flaky-by-design tests
in this file.  Process-pool tests use small item counts and tiny
backoff delays to stay inside the tier-1 time budget.
"""

from __future__ import annotations

import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import envcfg
from repro.errors import ConfigurationError, ReproError, SolverError
from repro.obs import metrics as obs_metrics
from repro.perf.parallel import map_design_points
from repro.resil import faults
from repro.resil.checkpoint import (
    CheckpointedResult,
    SweepCheckpoint,
    default_checkpoint,
    point_key,
    reset_default_checkpoint,
)
from repro.resil.execute import run_tasks
from repro.resil.retry import RetryPolicy, TaskFailure, protected_call
from repro.rmesh.backends import (
    CGOperator,
    DirectOperator,
    EscalatingOperator,
    make_operator,
)
from repro.rmesh.solve import StackSolver
from repro.rmesh.workloads import synthetic_workload


@pytest.fixture(autouse=True)
def _clean_resil_env(monkeypatch):
    """Every test starts with no fault spec / checkpoint / retry knobs."""
    for var in (
        "REPRO_FAULT_SPEC",
        "REPRO_CHECKPOINT",
        "REPRO_RETRY_MAX",
        "REPRO_RETRY_DELAY",
        "REPRO_TASK_TIMEOUT",
        "REPRO_POOL_REBUILDS",
    ):
        monkeypatch.delenv(var, raising=False)
    reset_default_checkpoint()
    yield
    reset_default_checkpoint()


def _fast_retry_env(monkeypatch, spec=None, max_attempts=6):
    if spec is not None:
        monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
    monkeypatch.setenv("REPRO_RETRY_MAX", str(max_attempts))
    monkeypatch.setenv("REPRO_RETRY_DELAY", "0.001")


# -- fault spec grammar -------------------------------------------------------


def test_parse_fault_spec_full_grammar():
    rules = faults.parse_fault_spec(
        "worker_crash:p=0.2:seed=7,slow_task:p=0.1:ms=20:seed=3,cg_stall:n=1"
    )
    assert [r.kind for r in rules] == ["worker_crash", "slow_task", "cg_stall"]
    assert rules[0].p == 0.2 and rules[0].seed == 7
    assert rules[1].ms == 20
    assert rules[2].n == 1


@pytest.mark.parametrize(
    "bad",
    [
        "meteor_strike:p=0.5",  # unknown kind
        "transient:p=banana",  # malformed number
        "transient:p",  # not name=value
        "transient:p=2.0",  # probability out of range
        "transient:seed=1",  # never fires
        "transient:p=0.5:color=red",  # unknown parameter
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
    monkeypatch.setenv("REPRO_FAULT_SPEC", "transient:p=0.5:seed=1")
    plan = faults.active_plan()
    assert plan is not None and plan.rules[0].kind == "transient"
    assert faults.active_plan() is plan  # cached per spec string
    monkeypatch.setenv("REPRO_FAULT_SPEC", "transient:p=0.9:seed=1")
    assert faults.active_plan() is not plan  # spec changed -> new plan


def test_n_rule_fires_exactly_n_times(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "transient:n=2")
    fired = 0
    for i in range(10):
        try:
            faults.check_task(str(i))
        except faults.TransientFault:
            fired += 1
    assert fired == 2


def test_worker_crash_degrades_to_raise_in_parent(monkeypatch):
    # p=1 always fires; in the parent process it must raise, not _exit.
    monkeypatch.setenv("REPRO_FAULT_SPEC", "worker_crash:p=1:seed=1")
    with pytest.raises(faults.WorkerCrashFault):
        faults.check_task("0")


def test_cg_stall_is_a_solver_error(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "cg_stall:p=1")
    with pytest.raises(SolverError):
        faults.check_cg("64")
    # and task-level checks ignore cg_stall rules entirely
    faults.check_task("0")


# -- TaskFailure / ReproError round-trips (satellite d) -----------------------


def test_task_failure_round_trip():
    exc = SolverError("singular", num_nodes=23000)
    failure = TaskFailure.from_exception(3, {"pitch": 0.1}, exc, attempts=4)
    assert failure.context["num_nodes"] == 23000
    data = json.loads(json.dumps(failure.to_dict()))
    back = TaskFailure.from_dict(data)
    assert back.index == 3
    assert back.error_type == "SolverError"
    assert back.attempts == 4
    assert back.context["num_nodes"] == 23000
    assert back.exception is None  # exceptions never serialize


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


# -- retry policy / protected_call --------------------------------------------


def test_retry_policy_env_knobs_warn_and_default(monkeypatch):
    envcfg.reset_warnings()
    monkeypatch.setenv("REPRO_RETRY_MAX", "many")
    monkeypatch.setenv("REPRO_RETRY_DELAY", "-3")
    policy = RetryPolicy.from_env()
    assert policy.max_attempts == 4  # default, not a crash
    assert policy.base_delay_s == 0.05


def test_backoff_is_bounded_and_deterministic():
    policy = RetryPolicy(base_delay_s=0.1, max_delay_s=0.5)
    delays = [policy.backoff_s(a, key="k") for a in range(1, 8)]
    assert delays == [policy.backoff_s(a, key="k") for a in range(1, 8)]
    assert all(d <= 0.5 for d in delays)
    assert delays[0] >= 0.1


def test_protected_call_is_passthrough_without_faults():
    calls = []
    assert protected_call(lambda: calls.append(1) or 42, "s", "k") == 42
    assert calls == [1]


def test_protected_call_retries_injected_transients(monkeypatch):
    _fast_retry_env(monkeypatch, spec="transient:n=2")
    calls = []
    result = protected_call(lambda: calls.append(1) or "ok", "solve", "p1")
    assert result == "ok"
    # two injected faults consumed before fn ever ran twice
    assert len(calls) == 1


def test_protected_call_exhaustion_adds_context(monkeypatch):
    _fast_retry_env(monkeypatch, spec="transient:p=1:seed=1", max_attempts=3)
    with pytest.raises(faults.TransientFault) as info:
        protected_call(lambda: 1, "solve", "p2")
    assert info.value.context["attempts"] == 3
    assert info.value.context["task_key"] == "p2"


# -- env knob validation (satellite b) ----------------------------------------


def test_solver_env_knobs_warn_and_default(monkeypatch):
    envcfg.reset_warnings()
    model = synthetic_workload(6, 6, layers=1, bump_every=3).model
    m = model.conductance_matrix().tocsc()
    monkeypatch.setenv("REPRO_CG_RTOL", "1e-1O")  # letter O typo
    monkeypatch.setenv("REPRO_CG_MAXITER", "lots")
    monkeypatch.setenv("REPRO_CG_PRECOND", "ilu")
    monkeypatch.setenv("REPRO_RESIDUAL_EVERY", "abc")
    monkeypatch.setenv("REPRO_TRACE_EVERY", "often")
    before = obs_metrics.snapshot()
    op = CGOperator(m)
    assert op.rtol == 1e-10
    assert op.preconditioner.kind == "factor"
    assert op.maxiter >= 2000
    # Both sampling knobs are read on every solve: a real one completes.
    result = StackSolver(model, backend="cg").solve_currents(np.ones(m.shape[0]))
    assert np.all(np.isfinite(result.drops))
    delta = obs_metrics.diff(before, obs_metrics.snapshot())
    assert delta["counters"].get("env.invalid_values") == 5


def test_workers_env_invalid_degrades_serial(monkeypatch):
    from repro.perf.parallel import resolve_workers

    envcfg.reset_warnings()
    monkeypatch.setenv("REPRO_WORKERS", "all-of-them")
    assert resolve_workers(None) == 1
    monkeypatch.setenv("REPRO_WORKERS", "-4")
    assert resolve_workers(None) == 1


def test_env_invalid_values_counted(monkeypatch):
    envcfg.reset_warnings()
    before = obs_metrics.snapshot()
    monkeypatch.setenv("REPRO_RETRY_MAX", "nope")
    RetryPolicy.from_env()
    delta = obs_metrics.diff(before, obs_metrics.snapshot())
    assert delta["counters"].get("env.invalid_values", 0) >= 1


# -- run_tasks executor -------------------------------------------------------


def _square(x):
    """Module-level so pool workers can unpickle it."""
    return x * x


def test_run_tasks_serial_partial_results():
    def flaky(x):
        if x == 2:
            raise ValueError("poisoned point")
        return x * 10

    report = run_tasks(flaky, [0, 1, 2, 3], workers=1)
    assert report.results == [0, 10, None, 30]
    assert not report.ok
    assert report.completed == 3
    [failure] = report.failures
    assert failure.index == 2
    assert failure.error_type == "ValueError"
    assert report.summary()["completed"] == 3


def test_run_tasks_serial_retries_injected(monkeypatch):
    _fast_retry_env(monkeypatch, spec="transient:n=1")
    report = run_tasks(lambda x: x + 1, [1, 2, 3], workers=1)
    assert report.results == [2, 3, 4]
    assert report.ok
    assert report.retries == 1


def test_map_design_points_raises_first_failure():
    def flaky(x):
        if x == 1:
            raise ValueError("bad point")
        return x

    with pytest.raises(ValueError):
        map_design_points(flaky, [0, 1, 2], workers=1)


def test_map_design_points_parallel_survives_worker_crashes(monkeypatch):
    # Real os._exit crashes inside pool workers: the pool breaks, is
    # rebuilt, and every completed result is preserved -- the
    # BrokenProcessPool satellite plus the tentpole retry path.
    _fast_retry_env(monkeypatch, spec="worker_crash:p=0.3:seed=1")
    before = obs_metrics.snapshot()
    result = map_design_points(abs, list(range(-12, 0)), workers=2)
    assert result == [abs(x) for x in range(-12, 0)]
    delta = obs_metrics.diff(before, obs_metrics.snapshot())
    assert (
        delta["counters"].get("resil.pool_rebuilds", 0) > 0
        or delta["counters"].get("resil.serial_fallbacks", 0) > 0
    )


def test_run_tasks_timeout_retries_slow_task(monkeypatch):
    # First attempt of every task sleeps 1s (n=1 consumes one global
    # firing); with a 0.25s deadline it times out, and the retry -- no
    # fault left to fire -- completes.
    _fast_retry_env(monkeypatch, spec="slow_task:n=1:ms=1000")
    monkeypatch.setenv("REPRO_TASK_TIMEOUT", "0.25")
    from repro.perf.parallel import _ResilTask, _merge_worker_return

    report = run_tasks(
        str,
        [11, 22],
        workers=2,
        task_factory=_ResilTask,
        merge=_merge_worker_return,
    )
    assert report.results == ["11", "22"]
    assert report.timeouts >= 1


def test_run_tasks_preserves_order_under_chaos(monkeypatch):
    _fast_retry_env(
        monkeypatch, spec="transient:p=0.25:seed=9,worker_crash:p=0.15:seed=4"
    )
    from repro.perf.parallel import _ResilTask, _merge_worker_return

    items = list(range(16))
    report = run_tasks(
        _square,
        items,
        workers=2,
        task_factory=_ResilTask,
        merge=_merge_worker_return,
    )
    assert report.results == [x * x for x in items]
    assert report.ok


# -- solver escalation --------------------------------------------------------


def _hard_workload():
    return synthetic_workload(16, 16, layers=2, bump_every=8)


def test_escalation_ladder_jacobi_to_factor():
    wl = _hard_workload()
    matrix = wl.model.conductance_matrix().tocsc()
    # maxiter=2 cannot converge with jacobi; the ladder retries with a
    # complete factorization, which converges in ~1 iteration.
    op = make_operator("cg", matrix, precond_kind="jacobi", maxiter=2)
    assert isinstance(op, EscalatingOperator)
    x = op.solve(wl.currents)
    assert op.escalation in ("factor", "direct")
    reference = DirectOperator(matrix).solve(wl.currents)
    np.testing.assert_allclose(x, reference, rtol=1e-8)


def test_escalation_direct_fallback_is_bitwise_direct(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_SPEC", "cg_stall:p=1")
    wl = _hard_workload()
    matrix = wl.model.conductance_matrix().tocsc()
    op = make_operator("cg", matrix)
    x = op.solve(wl.currents)
    assert op.escalation == "direct"
    reference = DirectOperator(matrix.tocsc()).solve(wl.currents)
    assert np.array_equal(x, reference)  # bitwise, not just close
    # sticky: next solve goes straight to the direct rung
    x2 = op.solve(wl.currents)
    assert np.array_equal(x2, reference)


def test_escalation_records_metrics_and_provenance(monkeypatch):
    from repro.rmesh.solve import StackSolver

    monkeypatch.setenv("REPRO_FAULT_SPEC", "cg_stall:p=1")
    wl = _hard_workload()
    before = obs_metrics.snapshot()
    solver = StackSolver(wl.model, backend="cg")
    result = solver.solve_currents(wl.currents)
    delta = obs_metrics.diff(before, obs_metrics.snapshot())
    assert delta["counters"].get("resil.solver_escalations", 0) >= 1
    assert result.escalated == "direct"
    assert result.backend == "cg"  # configured backend, degraded rung


def test_escalation_disabled_keeps_historical_raise(monkeypatch):
    monkeypatch.setenv("REPRO_SOLVER_ESCALATE", "0")
    wl = _hard_workload()
    matrix = wl.model.conductance_matrix().tocsc()
    op = make_operator("cg", matrix, precond_kind="jacobi", maxiter=2)
    assert isinstance(op, CGOperator)
    with pytest.raises(SolverError):
        op.solve(wl.currents)


# -- checkpoint / resume ------------------------------------------------------


class _FakeResult:
    dram_max_mv = 55.5
    logic_max_mv = 12.5
    total_power_mw = 800.0
    per_die_mv = {"dram0": 55.5, "dram1": 44.0}
    state = None


def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "sweep.ckpt.jsonl"
    ck = SweepCheckpoint(path)
    key = point_key("abc123", "all_idle", 1.0)
    assert ck.lookup(key) is None
    ck.record(key, _FakeResult())
    # Fresh instance (fresh process): reads the journal back.
    ck2 = SweepCheckpoint(path)
    hit = ck2.lookup(key)
    assert hit is not None
    assert hit.dram_max_mv == 55.5
    assert hit.per_die_mv == {"dram0": 55.5, "dram1": 44.0}
    assert hit.from_checkpoint


def test_checkpoint_tolerates_truncated_tail(tmp_path):
    path = tmp_path / "sweep.ckpt.jsonl"
    ck = SweepCheckpoint(path)
    ck.record(point_key("h1", "s1", 1.0), _FakeResult())
    # Simulate a SIGKILL mid-append: a half-written trailing line.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"key": "h2:s2:1.0", "result": {"dram_ma')
    ck2 = SweepCheckpoint(path)
    assert ck2.corrupt_lines == 1
    assert ck2.lookup(point_key("h1", "s1", 1.0)) is not None
    # The next record starts on a fresh line and survives a reload.
    ck2.record(point_key("h3", "s3", 1.0), _FakeResult())
    ck3 = SweepCheckpoint(path)
    assert ck3.lookup(point_key("h3", "s3", 1.0)) is not None


def test_default_checkpoint_from_env(tmp_path, monkeypatch):
    assert default_checkpoint() is None
    path = tmp_path / "run.ckpt"
    monkeypatch.setenv("REPRO_CHECKPOINT", str(path))
    reset_default_checkpoint()
    ck = default_checkpoint()
    assert ck is not None and ck.path == path
    assert default_checkpoint() is ck  # shared instance


def test_sweep_session_resume_solves_zero_points(tmp_path, monkeypatch, ddr3_off_bench):
    from repro.pdn.sweep import SweepSolveSession
    from repro.perf.cache import clear_caches
    from repro.power.state import MemoryState

    fp = ddr3_off_bench.stack.dram_floorplan
    state = MemoryState.from_string("0-0-0-2", fp)
    configs = [
        ddr3_off_bench.baseline.with_options(tsv_count=n) for n in (16, 24)
    ]
    path = tmp_path / "resume.ckpt.jsonl"
    monkeypatch.setenv("REPRO_CHECKPOINT", str(path))
    reset_default_checkpoint()
    clear_caches()

    session = SweepSolveSession()
    first = [
        session.solve(ddr3_off_bench, cfg, state).dram_max_mv
        for cfg in configs
    ]
    # "Kill" the run: new process state, same checkpoint file.
    clear_caches()
    reset_default_checkpoint()
    before = obs_metrics.registry.get_counter("solver.rhs_solved")
    resumed = SweepSolveSession()
    second = [
        resumed.solve(ddr3_off_bench, cfg, state).dram_max_mv
        for cfg in configs
    ]
    after = obs_metrics.registry.get_counter("solver.rhs_solved")
    assert second == first  # bitwise: journaled floats round-trip JSON
    assert after == before  # zero re-solves


def test_checkpoint_misses_on_changed_plan(tmp_path, monkeypatch, ddr3_off_bench):
    from repro.pdn.sweep import SweepSolveSession
    from repro.perf.cache import clear_caches
    from repro.power.state import MemoryState

    fp = ddr3_off_bench.stack.dram_floorplan
    state = MemoryState.from_string("0-0-0-2", fp)
    path = tmp_path / "stale.ckpt.jsonl"
    monkeypatch.setenv("REPRO_CHECKPOINT", str(path))
    reset_default_checkpoint()
    clear_caches()
    session = SweepSolveSession()
    session.solve(ddr3_off_bench, ddr3_off_bench.baseline.with_options(tsv_count=16), state)
    ck = default_checkpoint()
    assert ck is not None
    hits_before = ck.hits
    # A different design point must miss (content-addressed key).
    session.solve(ddr3_off_bench, ddr3_off_bench.baseline.with_options(tsv_count=48), state)
    assert ck.hits == hits_before


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


# -- CLI --resume flag --------------------------------------------------------


def test_cli_resume_flag_sets_env(tmp_path, capsys):
    from repro.cli import main
    from repro.resil.checkpoint import CHECKPOINT_ENV

    # main() exports the flag via os.environ (so workers inherit it);
    # clean up directly -- monkeypatch.delenv would record the value
    # main() set as the "original" and restore it after the test.
    path = tmp_path / "cli.ckpt.jsonl"
    try:
        assert main(["--resume", str(path), "list"]) == 0
        assert os.environ.get(CHECKPOINT_ENV) == str(path)
    finally:
        os.environ.pop(CHECKPOINT_ENV, None)
