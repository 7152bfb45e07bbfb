"""Physics diagnostics: explain *where* a design's IR drop comes from.

The paper's argument (sections 3 and 6) is an attribution argument --
the DC drop decomposes into package, C4/bump, PG-TSV and on-die metal
contributions, and design/packaging/policy knobs each attack one term.
This module reproduces that decomposition for any solved design point:

* **Branch recovery** -- every resistor's current via
  :func:`repro.rmesh.branches.extract_branches`, verified against KCL
  (recovered branch currents must reproduce the injected loads).
* **Worst-path attribution** -- walk the steepest-descent path from the
  worst-drop node to the supply; successive node drops telescope, so
  the per-category sums are an *exact* decomposition of the worst-node
  drop (components sum to ``max_drop`` to round-off).
* **Per-plan-op attribution** -- map every mesh branch back to the
  :class:`~repro.pdn.plan.StackPlan` op that created it, via the
  assembler's :class:`~repro.pdn.assemble.OpArtifactSpan` bookkeeping;
  coverage is 100% (no orphan branches) for any plan-built stack, so
  "which op carries the drop" is answerable for any design hash.

Diagnostics only *read* the solution: drops, solver state and caches are
never mutated, so physics is bitwise identical with diagnostics on or
off (``bench_explain_overhead`` pins this).

The CLI surface is ``repro3d explain`` (:mod:`repro.cli`); attribution
summaries recorded here are picked up by run manifests
(:func:`repro.obs.manifest.build_manifest`) and the run-history store,
giving ``repro3d obs diff`` a physics axis next to its structural and
numerical ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.obs import metrics as _metrics
from repro.obs.trace import span
from repro.pdn.assemble import OpArtifactSpan
from repro.pdn.plan import StackPlan, _op_brief
from repro.rmesh.branches import StackBranches, extract_branches
from repro.rmesh.solve import IRDropResult
from repro.units import to_mv

#: Bump when the ``repro3d explain`` JSON artifact layout changes.
EXPLAIN_SCHEMA_VERSION = 1

#: Relative closure tolerance: path components must sum to the worst
#: drop within this (the sum telescopes, so observed closure is ~1e-16).
CLOSURE_REL_TOL = 1e-9

#: Mesh-layer roles folded into the ``package`` category (the package
#: plane mesh; its supply link is the spreading resistance).
_PACKAGE_ROLES = ("plane",)


def _category_of(kind: str, role: str, layer: Optional[str]) -> str:
    """Fold a branch's (kind, role, layer) into a report category.

    Categories follow the paper's breakdown style: ``package`` (plane +
    spreading resistance), ``c4`` (C4 bumps / pads), ``bump``
    (microbumps to RDLs), ``tsv``, ``f2f``, ``wirebond``, ``via``
    (intra-die stitching), and ``metal:<die/layer>`` for on-die metal.
    """
    if kind == "supply":
        return "package"
    if kind == "mesh":
        if role in _PACKAGE_ROLES:
            return "package"
        return f"metal:{layer}"
    if role in ("c4", "pad"):
        return "c4"
    return role


@dataclass(frozen=True)
class PathSegment:
    """One hop of the worst-node supply path, highest drop first."""

    node_a: int
    node_b: int  # -1 once the path exits through a supply link
    kind: str  # mesh | link | supply
    role: str
    layer: Optional[str]
    category: str
    drop: float  # volts dropped across this hop (u_a - u_b, >= 0)
    current: float  # amps carried by the hop's branch
    conductance: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "node_a": self.node_a,
            "node_b": self.node_b,
            "kind": self.kind,
            "role": self.role,
            "layer": self.layer,
            "category": self.category,
            "drop_mv": to_mv(self.drop),
            "current_a": self.current,
            "conductance_s": self.conductance,
        }


@dataclass
class DesignDiagnosis:
    """The full physics explanation of one solved design point."""

    benchmark: str
    config_label: str
    plan_hash: Optional[str]
    state_label: str
    num_nodes: int
    num_branches: int
    #: Worst-drop node: global id, layer key, stack coords, drop (V).
    worst: Dict[str, object] = field(default_factory=dict)
    #: KCL verification of the branch recovery (see
    #: :meth:`repro.rmesh.branches.StackBranches.kcl_residual`).
    kcl: Dict[str, float] = field(default_factory=dict)
    #: Worst-node supply path, worst node first.
    path: List[PathSegment] = field(default_factory=list)
    #: Exact decomposition of the worst drop: category -> volts.
    components: Dict[str, float] = field(default_factory=dict)
    #: ``|sum(components) - worst drop| / worst drop`` (round-off only).
    closure_rel: float = 0.0
    #: Per-layer rows: key, die, role, peak drop, dissipation, share.
    layers: List[Dict[str, object]] = field(default_factory=list)
    #: Per-role aggregate over link/supply branches.
    roles: List[Dict[str, object]] = field(default_factory=list)
    #: Per-plan-op attribution rows (empty for hand-built models).
    ops: List[Dict[str, object]] = field(default_factory=list)
    #: Branch coverage of the op attribution.
    coverage: Dict[str, int] = field(default_factory=dict)
    total_dissipation_w: float = 0.0
    #: The solved result this diagnosis explains (not serialized; lets
    #: callers render heatmaps of the same solution without re-solving).
    raw: Optional[IRDropResult] = field(default=None, repr=False, compare=False)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": EXPLAIN_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "config": self.config_label,
            "plan_hash": self.plan_hash,
            "state": self.state_label,
            # Kept for schema stability: SuperLU is the only solver.
            "backend": "direct",
            "num_nodes": self.num_nodes,
            "num_branches": self.num_branches,
            "worst": dict(self.worst),
            "kcl": dict(self.kcl),
            "path": [seg.to_dict() for seg in self.path],
            "components_mv": {
                cat: to_mv(v) for cat, v in self.components.items()
            },
            "closure_rel": self.closure_rel,
            "layers": [dict(row) for row in self.layers],
            "roles": [dict(row) for row in self.roles],
            "ops": [dict(row) for row in self.ops],
            "coverage": dict(self.coverage),
            "total_dissipation_w": self.total_dissipation_w,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str) + "\n"

    # -- summaries ------------------------------------------------------------

    def worst_drop(self) -> float:
        """The worst-node drop, volts."""
        return float(self.worst.get("drop", 0.0))  # type: ignore[arg-type]

    def attribution_summary(self) -> Dict[str, object]:
        """Compact per-design attribution for manifests / history records.

        This is the record the run-history store carries so two runs can
        be compared on the *physics* axis: where the worst drop came
        from, not just how big it was.
        """
        top_op = ""
        if self.ops:
            top = max(self.ops, key=lambda r: float(r.get("dissipation_w", 0.0)))
            top_op = str(top.get("brief", ""))
        return {
            "benchmark": self.benchmark,
            "plan_hash": self.plan_hash,
            "state": self.state_label,
            "worst_drop_mv": to_mv(self.worst_drop()),
            "worst_layer": self.worst.get("layer"),
            "components_mv": {
                cat: round(to_mv(v), 9) for cat, v in self.components.items()
            },
            "closure_rel": self.closure_rel,
            "kcl_max_rel": self.kcl.get("max_rel"),
            "orphan_branches": self.coverage.get("orphans", 0),
            "top_op": top_op,
        }

    # -- rendering ------------------------------------------------------------

    def markdown(self, max_ops: int = 12) -> str:
        """The ``repro3d explain`` report (markdown; text mode prints it)."""
        w = self.worst
        lines = [
            f"# explain {self.benchmark} [{self.config_label}]",
            "",
            f"- **state**: {self.state_label}",
            f"- **plan**: `{self.plan_hash or 'hand-built'}` "
            f"({self.num_nodes} nodes, {self.num_branches} branches)",
            f"- **worst drop**: {float(w.get('drop_mv', 0.0)):.4f} mV at "
            f"{w.get('layer')} ({float(w.get('x', 0.0)):.2f}, "
            f"{float(w.get('y', 0.0)):.2f}) mm",
            f"- **KCL**: max relative residual {self.kcl.get('max_rel', 0.0):.3e} "
            f"(supply return {self.kcl.get('supply_return_a', 0.0):.4f} A of "
            f"{self.kcl.get('injected_a', 0.0):.4f} A injected)",
            f"- **dissipation**: {self.total_dissipation_w * 1e3:.2f} mW total",
            "",
            "## Worst-node supply-path decomposition",
            "",
            "| component | drop mV | share % |",
            "|---|---|---|",
        ]
        total = self.worst_drop() or 1.0
        for cat, drop in sorted(
            self.components.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"| {cat} | {to_mv(drop):.4f} | {drop / total * 100.0:.1f} |"
            )
        lines.append(
            f"| **total** | **{to_mv(sum(self.components.values())):.4f}** "
            f"| 100.0 |"
        )
        lines.append("")
        lines.append(
            f"(components sum to the worst drop exactly; closure "
            f"{self.closure_rel:.1e} relative, {len(self.path)} path hops)"
        )
        lines.extend(["", "## Per-layer dissipation", ""])
        lines.append("| layer | role | peak drop mV | dissipation mW | share % |")
        lines.append("|---|---|---|---|---|")
        for row in self.layers:
            lines.append(
                f"| {row['key']} | {row['role']} | {row['peak_mv']:.4f} "
                f"| {float(row['dissipation_w']) * 1e3:.3f} "
                f"| {float(row['share']) * 100.0:.1f} |"
            )
        if self.roles:
            lines.extend(["", "## Vertical / supply groups", ""])
            lines.append(
                "| role | branches | total A | max A/branch | dissipation mW |"
            )
            lines.append("|---|---|---|---|---|")
            for row in self.roles:
                lines.append(
                    f"| {row['role']} | {row['branches']} "
                    f"| {float(row['total_current_a']):.4f} "
                    f"| {float(row['max_current_a']):.5f} "
                    f"| {float(row['dissipation_w']) * 1e3:.3f} |"
                )
        if self.ops:
            lines.extend(["", "## Plan-op attribution", ""])
            lines.append(
                f"coverage: {self.coverage.get('attributed', 0)}/"
                f"{self.coverage.get('total', 0)} branches attributed, "
                f"{self.coverage.get('orphans', 0)} orphans"
            )
            lines.append("")
            lines.append("| op | kind | branches | dissipation mW | share % |")
            lines.append("|---|---|---|---|---|")
            ranked = sorted(
                self.ops, key=lambda r: -float(r.get("dissipation_w", 0.0))
            )
            for row in ranked[:max_ops]:
                lines.append(
                    f"| {row['brief']} | {row['kind']} | {row['branches']} "
                    f"| {float(row['dissipation_w']) * 1e3:.3f} "
                    f"| {float(row['share']) * 100.0:.1f} |"
                )
            if len(ranked) > max_ops:
                lines.append(
                    f"| ... {len(ranked) - max_ops} more ops | | | | |"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Branch classification (role/layer per branch, via op spans)
# ---------------------------------------------------------------------------


class _BranchIndex:
    """Flat branch arrays + group-level role/layer metadata + adjacency.

    Branch order: per-layer mesh groups (layer order), then vertical
    links (insertion order), then supply links -- exactly the order
    :func:`extract_branches` produces, which the assembler's op spans
    index into.  Per-branch kind/role/layer is resolved on demand from
    the group table (:meth:`meta`) rather than materialized per branch;
    the supply-path walk only touches a handful of branches, so
    branch-count-sized metadata arrays would be pure construction cost.
    """

    def __init__(
        self,
        branches: StackBranches,
        op_spans: Tuple[OpArtifactSpan, ...],
    ) -> None:
        self.branches = branches
        model = branches.model
        a_parts: List[np.ndarray] = []
        b_parts: List[np.ndarray] = []
        g_parts: List[np.ndarray] = []
        i_parts: List[np.ndarray] = []

        layer_role: Dict[str, str] = {}
        link_role = np.full(branches.links.count, "link", dtype=object)
        supply_role = np.full(branches.supply.count, "package", dtype=object)
        for span_ in op_spans:
            if span_.layer_key is not None:
                layer_role[span_.layer_key] = span_.role
            ls, le = span_.links
            if le > ls:
                link_role[ls:le] = span_.role

        #: Layer key -> role from the plan's AddLayerOps ("metal" when
        #: no spans are available, e.g. hand-built models).
        self.layer_role = layer_role
        #: Per-link / per-supply-link role (object arrays, group-local).
        self.link_role = link_role
        self.supply_role = supply_role

        # (start, kind, role-or-None, layer, group-local role array).
        group_meta: List[tuple] = []
        offset = 0
        self.group_slices: Dict[str, slice] = {}
        for key, group in branches.mesh.items():
            n = group.count
            a_parts.append(group.a)
            b_parts.append(group.b)
            g_parts.append(group.g)
            i_parts.append(group.current)
            role = layer_role.get(key, "metal")
            group_meta.append((offset, "mesh", role, key, None))
            self.group_slices[f"mesh:{key}"] = slice(offset, offset + n)
            offset += n
        for name, group, role_arr in (
            ("link", branches.links, link_role),
            ("supply", branches.supply, supply_role),
        ):
            n = group.count
            a_parts.append(group.a)
            b_parts.append(group.b)
            g_parts.append(group.g)
            i_parts.append(group.current)
            group_meta.append((offset, name, None, None, role_arr))
            self.group_slices[name] = slice(offset, offset + n)
            offset += n

        self._group_meta = group_meta
        self._group_starts = np.asarray(
            [m[0] for m in group_meta], dtype=np.int64
        )

        self.a = np.concatenate(a_parts) if a_parts else np.empty(0, np.int64)
        self.b = np.concatenate(b_parts) if b_parts else np.empty(0, np.int64)
        self.g = np.concatenate(g_parts) if g_parts else np.empty(0, float)
        self.current = (
            np.concatenate(i_parts) if i_parts else np.empty(0, float)
        )
        self.num = int(self.a.size)

        # Per-branch dissipated power, computed once over the flat arrays
        # and sliced by every aggregation pass (roles, ops).
        with np.errstate(divide="ignore", invalid="ignore"):
            self.dissipation = np.where(
                self.g > 0.0, self.current**2 / self.g, 0.0
            )

        # Undirected adjacency (CSR over endpoint -> incident branches).
        # Supply branches appear once (their far end is the eliminated
        # supply node); mesh/link branches appear from both endpoints.
        both = np.concatenate([self.a, self.b[self.b >= 0]])
        bidx = np.concatenate(
            [np.arange(self.num), np.arange(self.num)[self.b >= 0]]
        )
        order = np.argsort(both, kind="stable")
        self._adj_branch = bidx[order]
        counts = np.bincount(both, minlength=model.num_nodes)
        stops = np.cumsum(counts)
        self._adj_starts = stops - counts
        self._adj_stops = stops

    def incident(self, node: int) -> np.ndarray:
        """Branch indices incident to a node."""
        return self._adj_branch[self._adj_starts[node]:self._adj_stops[node]]

    def meta(self, branch: int) -> Tuple[str, str, Optional[str]]:
        """``(kind, role, layer)`` of one branch, from the group table."""
        gi = (
            int(np.searchsorted(self._group_starts, branch, side="right")) - 1
        )
        start, kind, role, layer, role_arr = self._group_meta[gi]
        if role_arr is not None:
            role = role_arr[branch - start]
        return kind, str(role), layer


# ---------------------------------------------------------------------------
# Worst-path walk
# ---------------------------------------------------------------------------


def _walk_worst_path(
    index: _BranchIndex, drops: np.ndarray
) -> List[PathSegment]:
    """Steepest-descent path from the worst node down to the supply.

    At every node the walk hops to the incident neighbor with the lowest
    drop (the eliminated supply node counts as drop 0), so successive
    node drops strictly decrease and the per-hop drops telescope to the
    worst-node drop exactly.  On the solved field interior local minima
    cannot exist away from supply-linked nodes (each unloaded node's
    drop is a convex combination of its neighbors'), so the walk always
    terminates at the supply.
    """
    node = int(np.argmax(drops))
    path: List[PathSegment] = []
    visited = set()
    while node >= 0:
        if node in visited:  # pragma: no cover - descent strictly decreases
            raise SolverError("worst-path walk revisited a node", node=node)
        visited.add(node)
        candidates = index.incident(node)
        if candidates.size == 0:  # pragma: no cover - connected by assembly
            raise SolverError("worst-path walk hit an isolated node", node=node)
        a = index.a[candidates]
        others = np.where(a == node, index.b[candidates], a)
        # The eliminated supply node (-1) sits at drop 0.
        u = np.where(others < 0, 0.0, drops[np.maximum(others, 0)])
        pick = int(np.argmin(u))
        best_branch = int(candidates[pick])
        best_u = float(u[pick])
        u_here = float(drops[node])
        if best_u >= u_here:  # pragma: no cover - no descent possible
            raise SolverError(
                "worst-path walk stalled at a local minimum", node=node
            )
        other = int(others[pick])
        kind, role, layer = index.meta(best_branch)
        path.append(
            PathSegment(
                node_a=node,
                node_b=other,
                kind=kind,
                role=role,
                layer=layer,
                category=_category_of(kind, role, layer),
                drop=u_here - best_u,
                current=float(index.current[best_branch]),
                conductance=float(index.g[best_branch]),
            )
        )
        node = other
    return path


# ---------------------------------------------------------------------------
# Diagnosis assembly
# ---------------------------------------------------------------------------


def diagnose_result(
    raw: IRDropResult,
    currents: np.ndarray,
    plan: Optional[StackPlan] = None,
    op_spans: Tuple[OpArtifactSpan, ...] = (),
    benchmark: str = "",
    config_label: str = "",
    state_label: str = "",
) -> DesignDiagnosis:
    """Diagnose one solved result given its injected current vector.

    Pure read-side analysis: ``raw.drops`` and the model are only read.
    ``plan``/``op_spans`` enable per-op attribution (plan-built stacks
    carry both; hand-built models degrade to role-level classification).
    """
    model = raw.model
    with span("diagnose.extract", nodes=model.num_nodes):
        branches = extract_branches(model, np.asarray(raw.drops))
        kcl = branches.kcl_residual(np.asarray(currents))
    index = _BranchIndex(branches, op_spans)
    with span("diagnose.path"):
        path = _walk_worst_path(index, branches.drops)

    key, point, worst_drop = raw.worst_node_location(with_value=True)
    components: Dict[str, float] = {}
    for seg in path:
        components[seg.category] = components.get(seg.category, 0.0) + seg.drop
    total = sum(components.values())
    closure_rel = (
        abs(total - worst_drop) / worst_drop if worst_drop > 0 else 0.0
    )

    total_p = float(index.dissipation.sum())
    layer_rows: List[Dict[str, object]] = []
    for lkey in branches.mesh:
        entry = model.layer_entry(lkey)
        gsl = index.group_slices[f"mesh:{lkey}"]
        p = float(index.dissipation[gsl].sum())
        layer_rows.append(
            {
                "key": lkey,
                "die": entry.die,
                "role": index.layer_role.get(lkey, "metal"),
                "peak_mv": to_mv(float(raw.layer_drops(lkey).max())),
                "dissipation_w": p,
                "share": p / total_p if total_p > 0 else 0.0,
            }
        )

    role_rows: List[Dict[str, object]] = []
    for name in ("link", "supply"):
        sl = index.group_slices[name]
        if sl.stop == sl.start:
            continue
        roles_here = index.link_role if name == "link" else index.supply_role
        cur = index.current[sl.start:sl.stop]
        p = index.dissipation[sl.start:sl.stop]
        for role in sorted(set(roles_here.tolist())):
            mask = roles_here == role
            role_rows.append(
                {
                    "role": role,
                    "branches": int(mask.sum()),
                    "total_current_a": float(np.abs(cur[mask]).sum()),
                    "max_current_a": float(np.abs(cur[mask]).max()),
                    "dissipation_w": float(p[mask].sum()),
                }
            )

    op_rows: List[Dict[str, object]] = []
    attributed = 0
    if plan is not None and op_spans:
        mesh_by_key = {
            k: branches.mesh[k] for k in branches.mesh
        }
        link_sl = index.group_slices["link"]
        supply_sl = index.group_slices["supply"]
        for span_ in op_spans:
            op = plan.ops[span_.index]
            count = 0
            p_op = 0.0
            cur_max = 0.0
            if span_.layer_key is not None and span_.layer_key in mesh_by_key:
                group = mesh_by_key[span_.layer_key]
                gsl = index.group_slices[f"mesh:{span_.layer_key}"]
                count += group.count
                p_op += float(index.dissipation[gsl].sum())
                if group.count:
                    cur_max = float(np.abs(group.current).max())
            ls, le = span_.links
            if le > ls:
                sl = slice(link_sl.start + ls, link_sl.start + le)
                cur = index.current[sl]
                count += le - ls
                p_op += float(index.dissipation[sl].sum())
                cur_max = max(cur_max, float(np.abs(cur).max()))
            ss, se = span_.supply
            if se > ss:
                sl = slice(supply_sl.start + ss, supply_sl.start + se)
                cur = index.current[sl]
                count += se - ss
                p_op += float(index.dissipation[sl].sum())
                cur_max = max(cur_max, float(np.abs(cur).max()))
            attributed += count
            op_rows.append(
                {
                    "index": span_.index,
                    "kind": span_.kind,
                    "role": span_.role,
                    "brief": _op_brief(op),
                    "branches": count,
                    "dissipation_w": p_op,
                    "max_current_a": cur_max,
                    "share": p_op / total_p if total_p > 0 else 0.0,
                }
            )

    diagnosis = DesignDiagnosis(
        benchmark=benchmark or (plan.benchmark if plan is not None else ""),
        config_label=config_label,
        plan_hash=plan.plan_hash if plan is not None else None,
        state_label=state_label,
        num_nodes=model.num_nodes,
        num_branches=branches.num_branches,
        worst={
            "node": int(np.argmax(branches.drops)),
            "layer": key,
            "x": point.x,
            "y": point.y,
            "drop": worst_drop,
            "drop_mv": to_mv(worst_drop),
        },
        kcl=kcl,
        path=path,
        components=components,
        closure_rel=closure_rel,
        layers=layer_rows,
        roles=role_rows,
        ops=op_rows,
        coverage={
            "total": branches.num_branches,
            "attributed": attributed,
            "orphans": (branches.num_branches - attributed)
            if op_rows
            else branches.num_branches,
        },
        total_dissipation_w=total_p,
        raw=raw,
    )
    _metrics.inc("diagnose.reports")
    _metrics.inc("diagnose.branches", branches.num_branches)
    _metrics.set_gauge("diagnose.kcl_max_rel", float(kcl["max_rel"]))
    _metrics.set_gauge("diagnose.closure_rel", closure_rel)
    return diagnosis


def diagnose_stack(stack, state=None, logic_scale: float = 1.0) -> DesignDiagnosis:
    """Build-and-solve convenience: diagnose a ``PDNStack`` at one state.

    ``state`` defaults to nothing-active only in the degenerate sense --
    callers normally pass the benchmark's reference state.  The solve
    goes through the stack's shared solver, so a prepared factorization
    is reused and the recorded physics matches what any other caller of
    the same stack sees.
    """
    from repro.power.state import MemoryState  # lazy: avoid import cycles

    if state is None:
        raise ConfigurationError("diagnose_stack needs a memory state")
    if not isinstance(state, MemoryState):
        raise ConfigurationError(
            f"expected a MemoryState, got {type(state).__name__}"
        )
    with span("diagnose.explain", benchmark=stack.spec.name):
        maps = stack.power_maps(state, logic_scale)
        solver = stack.solver
        currents = solver.currents_from_maps(maps)
        raw = solver.solve_currents(currents)
        diagnosis = diagnose_result(
            raw,
            currents,
            plan=stack.plan,
            op_spans=stack.assembled.op_spans,
            benchmark=stack.spec.name,
            config_label=stack.config.label(),
            state_label=state.label(),
        )
    record_attribution(diagnosis.attribution_summary())
    return diagnosis


# ---------------------------------------------------------------------------
# Attribution registry (manifest / run-history integration)
# ---------------------------------------------------------------------------

#: Process-lifetime attribution summaries by benchmark name, fed by
#: :func:`diagnose_stack`.  Manifests embed a snapshot
#: (:func:`repro.obs.manifest.build_manifest`), which the run-history
#: store normalizes into its records -- the physics axis of
#: ``repro3d obs diff``.
_attributions: Dict[str, Dict[str, object]] = {}


def record_attribution(summary: Mapping[str, object]) -> None:
    """Register one design's attribution summary (latest per benchmark)."""
    name = str(summary.get("benchmark") or summary.get("plan_hash") or "design")
    _attributions[name] = dict(summary)


def attribution_snapshot() -> Dict[str, Dict[str, object]]:
    """Every attribution summary recorded in this process, by benchmark."""
    return {k: dict(v) for k, v in _attributions.items()}


def reset_attributions() -> None:
    _attributions.clear()


# ---------------------------------------------------------------------------
# Explain-artifact schema (CI validates emitted JSON against this)
# ---------------------------------------------------------------------------

#: Required top-level fields of a ``repro3d explain`` JSON artifact.
EXPLAIN_SCHEMA: Dict[str, Tuple[type, ...]] = {
    "schema_version": (int,),
    "benchmark": (str,),
    "config": (str,),
    "plan_hash": (str, type(None)),
    "state": (str,),
    "backend": (str,),
    "num_nodes": (int,),
    "num_branches": (int,),
    "worst": (dict,),
    "kcl": (dict,),
    "path": (list,),
    "components_mv": (dict,),
    "closure_rel": (int, float),
    "layers": (list,),
    "roles": (list,),
    "ops": (list,),
    "coverage": (dict,),
    "total_dissipation_w": (int, float),
}


def validate_explain_dict(data: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigurationError` unless ``data`` is a valid
    explain artifact: schema fields present and well-typed, components
    summing to the worst drop within :data:`CLOSURE_REL_TOL`, and no
    orphan branches when op attribution is present."""
    problems: List[str] = []
    for key, types in EXPLAIN_SCHEMA.items():
        if key not in data:
            problems.append(f"missing field {key!r}")
        elif not isinstance(data[key], types):
            problems.append(
                f"field {key!r} has type {type(data[key]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )
    if not problems and data["schema_version"] != EXPLAIN_SCHEMA_VERSION:
        problems.append(
            f"schema_version {data['schema_version']} != {EXPLAIN_SCHEMA_VERSION}"
        )
    if not problems:
        worst_mv = float(dict(data["worst"]).get("drop_mv", 0.0))
        total_mv = sum(float(v) for v in dict(data["components_mv"]).values())
        if worst_mv > 0 and abs(total_mv - worst_mv) / worst_mv > CLOSURE_REL_TOL:
            problems.append(
                f"components sum {total_mv} mV != worst drop {worst_mv} mV"
            )
        coverage = dict(data["coverage"])
        if data["ops"] and int(coverage.get("orphans", 0)) != 0:
            problems.append(
                f"op attribution left {coverage.get('orphans')} orphan branches"
            )
    if problems:
        raise ConfigurationError(
            "invalid explain artifact: " + "; ".join(problems)
        )
