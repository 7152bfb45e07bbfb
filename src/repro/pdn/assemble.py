"""Pure assembler: replay a :class:`~repro.pdn.plan.StackPlan` into a model.

The assembler is the only writer of :class:`repro.rmesh.StackModel` in
the plan pipeline.  It replays a plan's ops strictly in order, so the
global node numbering and the link insertion order -- and therefore the
assembled conductance matrix -- are bitwise identical to what the former
monolithic builder produced.

Incremental sweep reassembly: an :class:`AssemblySession` caches the
artifacts each op produced (layer meshes; vertical/supply link blocks)
keyed by the op itself plus the endpoint layers' placement signatures.
A fig5-style TSV-count sweep changes only the TSV ops between plan
points, so every layer mesh and every unchanged connect replays from
cache -- the reuse the ``assemble.*`` metrics counters make visible.
Cached artifacts are physically identical to freshly built ones (meshes
are deterministic functions of their op; link blocks additionally of the
endpoint signatures), so session-assembled models stay bitwise equal to
cold builds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import MeshError
from repro.geometry import Point
from repro.obs import metrics as _metrics
from repro.pdn.plan import (
    AddLayerOp,
    ConnectAtPointsOp,
    ConnectUniformOp,
    PlanOp,
    StackPlan,
    SupplyOp,
)
from repro.perf.timers import timed
from repro.rmesh.mesh import LayerMesh
from repro.rmesh.solve import StackSolver
from repro.rmesh.stack import LinkBlock, StackModel, SupplyLink

#: Endpoint placement signature: (node offset, grid, origin).  Link node
#: ids depend on exactly these -- never on the layer's conductances -- so
#: two models agreeing on the signatures of an op's endpoints get
#: identical link blocks from that op.
_LayerSig = Tuple[int, Hashable, Point]


@dataclass(frozen=True)
class OpArtifactSpan:
    """What one replayed plan op contributed to the assembled model.

    The op -> artifact bookkeeping behind branch attribution
    (:mod:`repro.pdn.diagnose`): ``links`` / ``supply`` are half-open
    index ranges into the model's vertical-link and supply-link lists
    (insertion order, which :func:`repro.rmesh.branches.extract_branches`
    preserves), and ``layer_key`` names the mesh an
    :class:`~repro.pdn.plan.AddLayerOp` registered.  Ranges are recorded
    identically on cache hits and cold builds -- a reused link block
    still lands at a deterministic position -- so the mapping covers
    100% of the model's branches for any session-assembled plan.
    """

    index: int  # position in plan.ops
    kind: str  # the op's ``kind`` discriminator
    role: str  # the op's electrical role (metal/tsv/c4/bump/...)
    layer_key: Optional[str]  # AddLayerOp: the registered mesh's key
    links: Tuple[int, int]  # half-open range into model.vertical_links()
    supply: Tuple[int, int]  # half-open range into model.supply_links()


class AssembledStack:
    """One assembled plan: the model plus its lazily factorized solver.

    Made only by :func:`assemble`; its
    :class:`~repro.pdn.stackup.PDNStack` solves through it.
    """

    def __init__(
        self,
        plan: StackPlan,
        model: StackModel,
        op_spans: Tuple[OpArtifactSpan, ...],
    ) -> None:
        self.plan = plan
        self.model = model
        #: Per-op artifact ranges, aligned with ``plan.ops`` (see
        #: :class:`OpArtifactSpan`).
        self.op_spans = op_spans

    @property
    def plan_hash(self) -> str:
        return self.plan.plan_hash

    @functools.cached_property
    def solver(self) -> StackSolver:
        """The plan's solver, factorized on first use."""
        return StackSolver(self.model)


class AssemblySession:
    """Per-op artifact cache carried across assemblies of related plans.

    Meshes are shared by object (models never mutate a registered mesh);
    vertical-link blocks are read-only arrays and supply blocks tuples of
    frozen links.  All are exact: a cache hit contributes the same bytes
    a rebuild would.
    """

    def __init__(self) -> None:
        self._meshes: Dict[AddLayerOp, LayerMesh] = {}
        self._links: Dict[Tuple[PlanOp, _LayerSig, _LayerSig], LinkBlock] = {}
        self._supply: Dict[Tuple[SupplyOp, _LayerSig], Tuple[SupplyLink, ...]] = {}

    def clear(self) -> None:
        self._meshes.clear()
        self._links.clear()
        self._supply.clear()

    def stats(self) -> Dict[str, int]:
        return {
            "meshes": len(self._meshes),
            "link_blocks": len(self._links),
            "supply_blocks": len(self._supply),
        }

    # -- artifact lookup ------------------------------------------------------

    def mesh_for(self, op: AddLayerOp) -> LayerMesh:
        mesh = self._meshes.get(op)
        if mesh is None:
            mesh = _build_mesh(op)
            self._meshes[op] = mesh
            _metrics.inc("assemble.layers_built")
        else:
            _metrics.inc("assemble.layers_reused")
        return mesh

    def links_for(
        self, op: PlanOp, sig_a: _LayerSig, sig_b: _LayerSig
    ) -> Optional[LinkBlock]:
        return self._links.get((op, sig_a, sig_b))

    def store_links(
        self,
        op: PlanOp,
        sig_a: _LayerSig,
        sig_b: _LayerSig,
        links: LinkBlock,
    ) -> None:
        self._links[(op, sig_a, sig_b)] = links

    def supply_for(
        self, op: SupplyOp, sig: _LayerSig
    ) -> Optional[Tuple[SupplyLink, ...]]:
        return self._supply.get((op, sig))

    def store_supply(
        self, op: SupplyOp, sig: _LayerSig, links: Tuple[SupplyLink, ...]
    ) -> None:
        self._supply[(op, sig)] = links


def _build_mesh(op: AddLayerOp) -> LayerMesh:
    """Materialize one layer mesh from its op.

    Mirrors :meth:`LayerMesh.from_layer` + ``add_pg_ring``: fill the
    uniform edge conductances the planner computed, then boost the ring.
    """
    grid = op.grid.to_grid()
    mesh = LayerMesh(
        grid=grid,
        gx=np.full((grid.ny, grid.nx - 1), op.gx),
        gy=np.full((grid.ny - 1, grid.nx), op.gy),
        name=op.name,
    )
    if op.pg_ring_rings > 0:
        mesh.add_pg_ring(op.pg_ring_boost, rings=op.pg_ring_rings)
    return mesh


def _layer_sig(model: StackModel, key: str) -> _LayerSig:
    entry = model.layer_entry(key)
    return (entry.offset, entry.mesh.grid, entry.origin)


def _replay_connect(
    model: StackModel,
    op: PlanOp,
    session: Optional[AssemblySession],
) -> None:
    """Replay one layer-to-layer connect op, reusing cached link blocks."""
    if isinstance(op, ConnectUniformOp):
        key_a, key_b = op.key_a, op.key_b
    elif isinstance(op, ConnectAtPointsOp):
        key_a, key_b = op.key_a, op.key_b
    else:  # pragma: no cover - planner emits only known connects
        raise MeshError(f"cannot replay op kind {type(op).kind!r}")
    if session is not None:
        sig_a = _layer_sig(model, key_a)
        sig_b = _layer_sig(model, key_b)
        cached = session.links_for(op, sig_a, sig_b)
        if cached is not None:
            model.extend_links(cached)
            _metrics.inc("assemble.connects_reused")
            return
    start = model.link_count
    if isinstance(op, ConnectUniformOp):
        model.connect_layers_uniform(key_a, key_b, op.conductance_per_mm2)
    else:
        model.connect_layers_at_xy(key_a, key_b, op.xs, op.ys, op.conductances)
    _metrics.inc("assemble.connects_built")
    if session is not None:
        session.store_links(op, sig_a, sig_b, model.link_block(start, model.link_count))


def _replay_supply(
    model: StackModel,
    op: SupplyOp,
    session: Optional[AssemblySession],
) -> None:
    if session is not None:
        sig = _layer_sig(model, op.key)
        cached = session.supply_for(op, sig)
        if cached is not None:
            model.extend_supply(cached)
            _metrics.inc("assemble.connects_reused")
            return
    start = model.supply_count
    model.connect_supply_at_xy(op.key, op.xs, op.ys, op.conductances)
    _metrics.inc("assemble.connects_built")
    if session is not None:
        session.store_supply(op, sig, model.supply_range(start, model.supply_count))


def _op_role(op: PlanOp) -> str:
    """The electrical role an op's artifacts carry (SupplyOp has none)."""
    role = getattr(op, "role", None)
    if isinstance(role, str):
        return role
    return "supply" if isinstance(op, SupplyOp) else "op"


def assemble(
    plan: StackPlan, session: Optional[AssemblySession] = None
) -> AssembledStack:
    """Replay a plan into a fresh :class:`StackModel`.

    With a ``session``, artifacts of ops already assembled under the
    same endpoint placements are reused; the result is bitwise identical
    either way.  Each op's contribution (mesh key, link range, supply
    range) is recorded as an :class:`OpArtifactSpan` so branch-level
    diagnostics can attribute every resistor back to the plan op that
    created it.
    """
    with timed("stackup.assemble"):
        model = StackModel()
        spans: List[OpArtifactSpan] = []
        for index, op in enumerate(plan.ops):
            link_start, supply_start = model.link_count, model.supply_count
            layer_key: Optional[str] = None
            if isinstance(op, AddLayerOp):
                mesh = (
                    session.mesh_for(op)
                    if session is not None
                    else _build_mesh(op)
                )
                if session is None:
                    _metrics.inc("assemble.layers_built")
                layer_key = model.add_layer(
                    op.die, mesh, origin=Point(*op.origin), key=op.key
                )
            elif isinstance(op, SupplyOp):
                _replay_supply(model, op, session)
            else:
                _replay_connect(model, op, session)
            spans.append(
                OpArtifactSpan(
                    index=index,
                    kind=type(op).kind,
                    role=_op_role(op),
                    layer_key=layer_key,
                    links=(link_start, model.link_count),
                    supply=(supply_start, model.supply_count),
                )
            )
        return AssembledStack(plan, model, tuple(spans))
