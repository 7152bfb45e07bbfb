"""Tests of the benchmark itself: checks, wrappers, metric names, smoke runs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402

bench.load_program()

from perfbench.checks import compare, load_references  # noqa: E402
from perfbench.tracing import Tracer, layer_metrics  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    VARIANTS,
    WORKLOADS,
    Ddr3TraceMixed,
    DseTable9,
    HmcIrSched,
    returns_of,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

OUTPUTS = {
    "samples": 288,
    "rmse_mv": 1.25,
    "finished": True,
    "picks": {"baseline": {"config": "M2=10%", "verified_ir_mv": 30.0}},
}


# -- checks -------------------------------------------------------------------


def test_identical_outputs_pass_every_leaf():
    assert compare(OUTPUTS, json.loads(json.dumps(OUTPUTS))) == (5, 0, [])


@pytest.mark.parametrize(
    "path, value, failed",
    [
        (("rmse_mv",), 1.25 * (1 + 1e-7), 0),
        (("rmse_mv",), 1.25 * (1 + 1e-5), 1),
        (("samples",), 289, 1),
        (("samples",), 288.0, 1),
        (("finished",), False, 1),
        (("picks", "baseline", "config"), "M2=15%", 1),
        (("picks", "baseline", "verified_ir_mv"), 30.001, 1),
    ],
)
def test_perturbed_reference_counts_as_one_failed_op(path, value, failed):
    reference = json.loads(json.dumps(OUTPUTS))
    node = reference
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    attempted, n_failed, messages = compare(OUTPUTS, reference)
    assert (attempted, n_failed, len(messages)) == (5, failed, failed)


def test_missing_and_unexpected_keys_fail():
    got = dict(OUTPUTS, extra=1)
    del got["samples"]
    attempted, failed, messages = compare(got, OUTPUTS)
    assert failed == 2
    assert sorted(m.split(":")[0] for m in messages) == ["extra", "samples"]


def test_exact_comparison_rejects_any_difference():
    assert compare({"x": 1.0 + 1e-15}, {"x": 1.0}, rel_tol=0.0)[1] == 1


def test_references_cover_every_workload_and_variant():
    refs = load_references()
    for name, workload in WORKLOADS.items():
        keys = {workload.reference_key(seed) for seed in range(3 * VARIANTS)}
        assert keys <= set(refs[name]), name


# -- tracing --------------------------------------------------------------------


def _tiny_solve():
    from repro.controller import IRDropLUT
    from repro.designs import off_chip_ddr3
    from repro.pdn import build_stack

    bench_spec = off_chip_ddr3()
    stack = build_stack(bench_spec.stack, bench_spec.baseline, pitch=1.2)
    lut = IRDropLUT(stack, precompute=False)
    return lut.lookup((1, 0, 0, 2)), lut.lookup((1, 0, 0, 2))


def test_wrappers_fire_and_are_removed():
    from repro.pdn import stackup
    from repro.regress import model
    from repro.rmesh.solve import StackSolver

    originals = (stackup.build_stack, model.build_stack, StackSolver.__init__)
    plain = _tiny_solve()
    bench.cold_start()
    tracer = Tracer()
    tracer.install()
    try:
        assert model.build_stack is not originals[1]
        traced = _tiny_solve()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (stackup.build_stack, model.build_stack, StackSolver.__init__) == originals
    for span in ("pdn.plan", "pdn.assemble", "pdn.build", "rmesh.factorize", "rmesh.solve"):
        assert tracer.calls[span] == 1, span
    assert tracer.calls["power.rasterize"] == 4  # one map per DRAM die
    assert len(tracer.samples["controller.lut.fill"]) == 1  # second lookup hits
    assert tracer.counts["design_points"] == 1
    assert 0.0 < tracer.covered_s


def test_every_import_site_is_patched():
    tracer = Tracer()
    functions, _ = tracer._wrappers()
    originals = {id(fn) for fn, _ in functions}
    tracer.install()
    try:
        for name, module in list(sys.modules.items()):
            if name.startswith(("repro", "perfbench")):
                for attr, value in vars(module).items():
                    assert id(value) not in originals, f"{name}.{attr} unpatched"
    finally:
        tracer.uninstall()


def test_spans_nest_into_self_time():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(100_000)))
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_s["outer"] == pytest.approx(
        tracer.total_s["outer"] - tracer.total_s["inner"]
    )
    assert tracer.covered_s == tracer.total_s["outer"]


# -- metric names ---------------------------------------------------------------


def test_benchmark_names_and_units_are_valid():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    assert set(names[: len(SPEC["workloads"])]) == set(WORKLOADS)


def test_traced_run_reports_exactly_the_declared_layers():
    from repro.perf.cache import cache_stats

    zero = {name: {"hits": 0, "misses": 0} for name in cache_stats()}
    metrics = layer_metrics(Tracer(), 1.0, 0, 0, zero, {})
    metrics["trace.overhead_pct"] = 0.0
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


# -- smoke ------------------------------------------------------------------------


@pytest.fixture
def coarse_mesh():
    """Solve every stack on a 1.2 mm mesh instead of the default pitch.

    The experiments take no pitch, so the shared default constants are
    changed for the test (they are frozen; ``object.__setattr__`` is the
    documented way around that) and restored after it.
    """
    from repro.tech.calibration import DEFAULT_TECH

    pitch = DEFAULT_TECH.mesh_pitch
    object.__setattr__(DEFAULT_TECH, "mesh_pitch", 1.2)
    bench.cold_start()
    yield
    object.__setattr__(DEFAULT_TECH, "mesh_pitch", pitch)
    bench.cold_start()


#: every workload, small (the experiments' own sizes are fixed).
TINY = (DseTable9(), HmcIrSched(), Ddr3TraceMixed(num_requests=400))
#: the work each tiny workload must report: 288 samples + 4 verifications,
#: 3 policies x 2000 requests, the whole trace.
WORK = {"dse_table9": (292, 292), "hmc_ir_sched": (6000, 1), "ddr3_trace_mixed": (400, 1)}


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_workload_plain_and_traced(workload, tmp_path, coarse_mesh):
    path = workload.setup(7, tmp_path)
    plain = bench.run_iteration(workload, path, traced=False)
    traced = bench.run_iteration(workload, path, traced=True)
    assert compare(traced["outputs"], plain["outputs"], rel_tol=0.0)[1] == 0
    for span in workload.required_spans:
        assert traced["calls"].get(span, 0) >= 1, span
    assert all(math.isfinite(v) for v in traced["layers"].values())
    assert traced["layers"]["trace.coverage"] > 0.9
    assert (plain["requests"], plain["design_points"]) == WORK[workload.name]
    json.dumps(traced)  # the record crosses the process boundary as JSON


def test_returns_of_collects_and_restores():
    class Box:
        def get(self, x):
            return 2 * x

    original = Box.__dict__["get"]
    with returns_of(Box, "get") as seen:
        assert Box().get(3) == 6
    assert seen == [6]
    assert Box.__dict__["get"] is original


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse_table9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
