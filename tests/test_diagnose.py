"""Tests of the physics diagnostics (`repro.pdn.diagnose`, `repro3d explain`).

The acceptance bars: on every paper benchmark the worst-path components
sum to the worst-node drop within 1e-9 relative, per-plan-op attribution
covers 100% of the mesh branches (no orphans), and running diagnostics
never perturbs the recorded physics (bitwise-identical drops).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs.manifest import build_manifest, validate_manifest
from repro.pdn.diagnose import (
    EXPLAIN_SCHEMA_VERSION,
    attribution_snapshot,
    diagnose_result,
    diagnose_stack,
    reset_attributions,
    validate_explain_dict,
)
from repro.rmesh import extract_branches

ALL_KEYS = ["ddr3_off", "ddr3_on", "wideio", "hmc"]


@pytest.fixture
def clean_attributions():
    reset_attributions()
    yield
    reset_attributions()


def _diagnose(paper_stacks, key):
    bench, stack = paper_stacks[key]
    return diagnose_stack(stack, bench.reference_state())


class TestWorstPathDecomposition:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_components_sum_to_worst_drop(self, paper_stacks, key):
        diag = _diagnose(paper_stacks, key)
        worst = diag.worst_drop()
        assert worst > 0
        total = sum(diag.components.values())
        assert abs(total - worst) / worst < 1e-9
        assert diag.closure_rel < 1e-9

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_path_descends_from_worst_node_to_supply(self, paper_stacks, key):
        diag = _diagnose(paper_stacks, key)
        assert diag.path, "worst path must be non-empty"
        assert diag.path[0].node_a == diag.worst["node"]
        assert diag.path[-1].kind == "supply"
        assert diag.path[-1].node_b == -1
        # Strict descent: every hop drops a positive amount of potential.
        assert all(seg.drop > 0 for seg in diag.path)
        # Interior hops chain: each hop starts where the previous ended.
        for prev, nxt in zip(diag.path, diag.path[1:]):
            assert prev.node_b == nxt.node_a

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_op_attribution_covers_every_branch(self, paper_stacks, key):
        diag = _diagnose(paper_stacks, key)
        assert diag.coverage["orphans"] == 0
        assert diag.coverage["attributed"] == diag.coverage["total"]
        assert diag.coverage["total"] == diag.num_branches
        assert sum(r["branches"] for r in diag.ops) == diag.num_branches
        # Dissipation shares are a partition of the total.
        assert sum(r["share"] for r in diag.ops) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_artifact_validates_against_schema(self, paper_stacks, key):
        diag = _diagnose(paper_stacks, key)
        data = diag.to_dict()
        validate_explain_dict(data)
        # The JSON artifact round-trips and still validates.
        validate_explain_dict(json.loads(diag.to_json()))
        assert data["schema_version"] == EXPLAIN_SCHEMA_VERSION
        assert data["benchmark"] == key
        # SuperLU is the only solver; the field stays for schema stability.
        assert data["backend"] == "direct"

    def test_kcl_residual_is_tiny(self, paper_stacks):
        diag = _diagnose(paper_stacks, "ddr3_off")
        assert diag.kcl["max_rel"] < 1e-9


class TestPhysicsUnperturbed:
    def test_diagnostics_leave_drops_bitwise_identical(
        self, ddr3_stack, ddr3_off_bench
    ):
        """Diagnose between two solves; the second solve must be bitwise
        equal to the first (diagnostics only read the solution)."""
        state = ddr3_off_bench.reference_state()
        solver = ddr3_stack.solver
        currents = solver.currents_from_maps(ddr3_stack.power_maps(state))
        before = solver.solve_currents(currents)
        drops_copy = np.array(before.drops, copy=True)
        diag = diagnose_result(
            before,
            currents,
            plan=ddr3_stack.plan,
            op_spans=ddr3_stack.assembled.op_spans,
        )
        assert diag.num_branches > 0
        assert np.array_equal(np.asarray(before.drops), drops_copy)
        after = solver.solve_currents(currents)
        assert np.array_equal(np.asarray(after.drops), drops_copy)

    def test_extract_branches_rejects_wrong_shape(self, ddr3_stack):
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            extract_branches(ddr3_stack.model, np.zeros(3))


class TestRendering:
    def test_markdown_report_sections(self, paper_stacks):
        diag = _diagnose(paper_stacks, "ddr3_off")
        text = diag.markdown()
        assert "# explain ddr3_off" in text
        assert "## Worst-node supply-path decomposition" in text
        assert "## Per-layer dissipation" in text
        assert "## Plan-op attribution" in text
        assert "0 orphans" in text

    def test_validate_rejects_bad_artifacts(self, paper_stacks):
        diag = _diagnose(paper_stacks, "ddr3_off")
        data = diag.to_dict()
        for required in ("components_mv", "backend"):
            broken = dict(data)
            del broken[required]
            with pytest.raises(ConfigurationError):
                validate_explain_dict(broken)
        skewed = json.loads(json.dumps(data, default=str))
        skewed["components_mv"] = {
            k: float(v) * 1.5 for k, v in skewed["components_mv"].items()
        }
        with pytest.raises(ConfigurationError, match="components sum"):
            validate_explain_dict(skewed)
        orphaned = json.loads(json.dumps(data, default=str))
        orphaned["coverage"]["orphans"] = 3
        with pytest.raises(ConfigurationError, match="orphan"):
            validate_explain_dict(orphaned)


class TestAttributionRegistry:
    def test_diagnose_records_attribution_for_manifests(
        self, paper_stacks, clean_attributions
    ):
        diag = _diagnose(paper_stacks, "ddr3_off")
        snap = attribution_snapshot()
        assert "ddr3_off" in snap
        summary = snap["ddr3_off"]
        assert summary["plan_hash"] == diag.plan_hash
        assert summary["orphan_branches"] == 0
        assert sum(summary["components_mv"].values()) == pytest.approx(
            summary["worst_drop_mv"], rel=1e-6
        )
        manifest = build_manifest("diagnose.unit", title="t")
        assert "ddr3_off" in manifest.attribution
        validate_manifest(manifest.to_dict())

    def test_reset_clears_registry(self, paper_stacks, clean_attributions):
        _diagnose(paper_stacks, "ddr3_off")
        assert attribution_snapshot()
        reset_attributions()
        assert attribution_snapshot() == {}


class TestResultExtensions:
    """Satellite: worst_node_location value mode + shared heatmap scale."""

    def test_worst_node_location_default_is_two_tuple(self, ddr3_stack, ddr3_off_bench):
        res = ddr3_stack.solve_state(ddr3_off_bench.reference_state()).raw
        loc = res.worst_node_location()
        assert len(loc) == 2
        key, point = loc
        assert key in ddr3_stack.model.layer_keys

    def test_worst_node_location_with_value(self, ddr3_stack, ddr3_off_bench):
        res = ddr3_stack.solve_state(ddr3_off_bench.reference_state()).raw
        key, point, drop = res.worst_node_location(with_value=True)
        assert drop == float(np.asarray(res.drops).max())
        assert key == res.worst_node_location()[0]

    def test_ascii_heatmap_stack_shares_one_scale(
        self, ddr3_stack, ddr3_off_bench
    ):
        res = ddr3_stack.solve_state(ddr3_off_bench.reference_state()).raw
        text = res.ascii_heatmap_stack()
        assert "shared scale" in text
        for key in ddr3_stack.model.layer_keys:
            assert key in text
        # Only the globally hottest layer may reach the top glyph; a
        # cool layer rendered alone would, so shared scaling must not.
        cool = min(
            ddr3_stack.model.layer_keys,
            key=lambda k: float(res.layer_drops(k).max()),
        )
        vmax = max(
            float(res.layer_drops(k).max())
            for k in ddr3_stack.model.layer_keys
        )
        alone = res.ascii_heatmap(cool)
        shared = res.ascii_heatmap(cool, vmax=vmax)
        assert "@" in alone or "%" in alone  # self-normalized peaks high
        assert "@" not in shared  # shared scale keeps cool layers cool

    def test_ascii_heatmap_single_layer_unchanged(self, ddr3_stack, ddr3_off_bench):
        """Default single-layer rendering is the historical behavior."""
        res = ddr3_stack.solve_state(ddr3_off_bench.reference_state()).raw
        key = ddr3_stack.model.layer_keys[0]
        assert res.ascii_heatmap(key) == res.ascii_heatmap(key, vmax=None)
