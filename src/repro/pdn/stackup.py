"""Plan a full 3D DRAM stack as a declarative build recipe.

This module is the PDN layout generator + special-route step of the
paper's CAD flow (Figure 2): given a benchmark's physical description
(:class:`StackSpec`) and one design point (:class:`PDNConfig`), it plans
the meshes for every metal layer of every die, generates PG rings, vias,
TSV arrays, RDLs, bond wires and C4 fields -- but instead of mutating a
model directly, it emits a :class:`repro.pdn.plan.StackPlan`: a frozen,
serializable op sequence that the pure assembler
(:mod:`repro.pdn.assemble`) replays into a
:class:`repro.rmesh.StackModel`.  ``build_stack`` composes the two
stages and is a drop-in for the former monolithic builder, producing a
bitwise-identical network.

Topology summary (bottom to top):

* ideal supply -> package plane (shared spreading resistance),
* plane -> C4 field -> logic top metal (on-chip) or -> bottom interface
  directly (off-chip),
* logic: MTOP / ML2 / ML1 flip-chip stack, loads on ML1, DRAM TSVs land
  on ML1 (power crosses the whole logic PDN -- the coupling of
  section 3.1) unless *dedicated* via-last TSVs bypass it,
* DRAM die d: M1 (signal, local PDN only) / M2 / M3 meshes with PG rings,
* interfaces: F2B = one TSV, B2B = two TSVs in series, F2F = dense bond
  vias (PDN sharing); optional backside RDL re-routes bump clusters to
  TSV rings; optional bond wires tie the package straight to the top die.

Modelling simplifications (documented in DESIGN.md): inter-die links
attach at the dies' M3 power layers, and F2F die mirroring is expressed
through the memory-state bank positions (top-down view) rather than by
mirroring floorplans -- the DRAM PDN is symmetric, which is exactly the
property the paper exploits to make F2F reuse one mask set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, SolverError
from repro.floorplan.blocks import DieFloorplan
from repro.geometry import Grid2D, Point, Rect
from repro.pdn.assemble import AssembledStack, AssemblySession, assemble
from repro.pdn.config import (
    Bonding,
    BumpLocation,
    Mounting,
    PDNConfig,
    RDLScope,
    TSVLocation,
)
from repro.pdn.plan import (
    AddLayerOp,
    AddRDLOp,
    AnyOp,
    ConnectAtPointsOp,
    ConnectUniformOp,
    GridSpec,
    StackPlan,
    SupplyOp,
    TSVOp,
    WirebondOp,
    record_plan_use,
)
from repro.pdn.tsv import (
    alignment_detours,
    center_bump_points,
    tsv_points_for_config,
    wirebond_points,
)
from repro.obs import metrics as _metrics
from repro.obs.log import get_logger
from repro.perf.cache import cached_dram_power_map, cached_logic_power_map
from repro.perf.timers import timed
from repro.power.model import DramPowerSpec, LogicPowerSpec
from repro.power.powermap import PowerMap
from repro.power.state import MemoryState
from repro.rmesh.solve import IRDropResult, StackSolver
from repro.rmesh.stack import StackModel
from repro.tech.calibration import (
    DEFAULT_TECH,
    TechConstants,
    dram_metal_stack,
    logic_metal_stack,
)
from repro.tech.metals import MetalLayer
from repro.tech.vertical import C4Tech

#: PG ring boost applied to the global PDN layers of every die.
PG_RING_BOOST = 2.0
#: Microbump resistance between a die face and an RDL above it, ohm.
MICROBUMP_RES = 0.005


@dataclass(frozen=True)
class StackSpec:
    """Physical description of one 3D DRAM benchmark (design-independent).

    ``forced_bump_location`` pins the bump style when the standard demands
    it (JEDEC Wide I/O: center bumps); None lets :class:`PDNConfig`
    choose.
    """

    name: str
    dram_floorplan: DieFloorplan
    dram_power: DramPowerSpec
    num_dram_dies: int = 4
    mounting: Mounting = Mounting.OFF_CHIP
    logic_floorplan: Optional[DieFloorplan] = None
    logic_power: Optional[LogicPowerSpec] = None
    forced_bump_location: Optional[BumpLocation] = None

    def __post_init__(self) -> None:
        if self.num_dram_dies < 1:
            raise ConfigurationError("stack needs at least one DRAM die")
        if self.mounting is Mounting.ON_CHIP:
            if self.logic_floorplan is None or self.logic_power is None:
                raise ConfigurationError(
                    f"{self.name}: on-chip mounting requires a logic die"
                )

    def effective_bump_location(self, config: PDNConfig) -> BumpLocation:
        return self.forced_bump_location or config.bump_location


@dataclass
class StackIRResult:
    """IR drops of one memory state on one built stack."""

    state: MemoryState
    raw: IRDropResult
    dram_max_mv: float
    per_die_mv: Dict[str, float]
    logic_max_mv: Optional[float]
    total_power_mw: float

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        logic = (
            f", logic={self.logic_max_mv:.2f}mV" if self.logic_max_mv is not None else ""
        )
        return (
            f"state {self.state.label()}: DRAM max {self.dram_max_mv:.2f} mV"
            f"{logic} ({self.total_power_mw:.1f} mW)"
        )


class PDNStack:
    """A built stack: the network, its solver, and state evaluation.

    When built through the plan/assemble pipeline the stack carries its
    :class:`StackPlan` and the shared :class:`AssembledStack`; stacks
    wrapping the same assembled model (same plan hash) share one
    factorized solver.
    """

    def __init__(
        self,
        model: StackModel,
        spec: StackSpec,
        config: PDNConfig,
        tech: TechConstants,
        dram_grid: Grid2D,
        dram_origin: Point,
        logic_grid: Optional[Grid2D],
        plan: Optional[StackPlan] = None,
        assembled: Optional[AssembledStack] = None,
    ) -> None:
        self.model = model
        self.spec = spec
        self.config = config
        self.tech = tech
        self.dram_grid = dram_grid
        self.dram_origin = dram_origin
        self.logic_grid = logic_grid
        self.plan = plan
        self.assembled = assembled

    @classmethod
    def from_assembled(
        cls,
        spec: StackSpec,
        config: PDNConfig,
        tech: TechConstants,
        plan: StackPlan,
        assembled: AssembledStack,
    ) -> "PDNStack":
        """Wrap an assembled plan; grids are reconstructed from the plan."""
        return cls(
            model=assembled.model,
            spec=spec,
            config=config,
            tech=tech,
            dram_grid=plan.dram_grid.to_grid(),
            dram_origin=Point(*plan.dram_origin),
            logic_grid=plan.logic_grid.to_grid() if plan.logic_grid else None,
            plan=plan,
            assembled=assembled,
        )

    # -- structure ------------------------------------------------------------

    @property
    def plan_hash(self) -> Optional[str]:
        """Content address of the build plan (None for hand-built models)."""
        return self.plan.plan_hash if self.plan is not None else None

    def dram_die_name(self, die: int) -> str:
        """Dies are named dram1 (bottom) .. dramN (top), paper convention."""
        return f"dram{die + 1}"

    @property
    def dram_die_names(self) -> List[str]:
        return [self.dram_die_name(d) for d in range(self.spec.num_dram_dies)]

    def load_layer_key(self, die: int) -> str:
        """Layer that carries a DRAM die's current loads (M1)."""
        return f"{self.dram_die_name(die)}/M1"

    @property
    def logic_load_key(self) -> Optional[str]:
        return "logic/ML1" if self.logic_grid is not None else None

    @functools.cached_property
    def solver(self) -> StackSolver:
        """The stack's solver, factorized on first use and reused for all
        states (setup dominates; per-state solves are cheap).

        Delegates to the assembled stack when present, so every wrapper
        of the same plan hash shares one factorization.
        """
        if self.assembled is not None:
            return self.assembled.solver
        return StackSolver(self.model)

    # -- evaluation --------------------------------------------------------------

    def power_maps(
        self,
        state: MemoryState,
        logic_scale: float = 1.0,
        activity: Optional[Mapping[int, float]] = None,
    ) -> Dict[str, PowerMap]:
        """Per-load-layer power maps for a memory state.

        ``activity`` overrides every DRAM die's per-channel I/O activity
        (see :func:`~repro.power.powermap.dram_power_map`).
        """
        if state.num_dies != self.spec.num_dram_dies:
            raise ConfigurationError(
                f"state has {state.num_dies} dies, stack has "
                f"{self.spec.num_dram_dies}"
            )
        maps: Dict[str, PowerMap] = {}
        for die in range(self.spec.num_dram_dies):
            # Memoized rasterization: design-space sweeps solve hundreds
            # of different stacks against the same state on the same grid.
            maps[self.load_layer_key(die)] = cached_dram_power_map(
                self.spec.dram_floorplan,
                self.spec.dram_power,
                state,
                die,
                self.dram_grid,
                self.tech.vdd,
                activity=activity,
                content_key=self._map_key,
            )
        if self.logic_grid is not None and logic_scale > 0.0:
            maps[self.logic_load_key] = cached_logic_power_map(
                self.spec.logic_floorplan,
                self.spec.logic_power,
                self.logic_grid,
                self.tech.vdd,
                scale=logic_scale,
                content_key=self._map_key,
            )
        return maps

    @functools.cached_property
    def _map_key(self) -> str:
        """Power-map cache key of the spec: content-based, as floorplans
        are mutable, but one ``repr`` per stack rather than per map."""
        return repr(self.spec)

    def _annotate_solver_error(
        self, exc: SolverError, states: Sequence[MemoryState]
    ) -> None:
        """Attach stack identity to a solver failure and log it.

        Fanned-out workers re-raise through pickling, so this context --
        benchmark, config label, plan hash, offending state(s) -- is
        what makes a remote failure diagnosable from logs alone.
        """
        from repro.obs.manifest import config_hash_of

        labels = ",".join(s.label() for s in states[:4])
        if len(states) > 4:
            labels += f",...({len(states)} states)"
        exc.add_context(
            spec=self.spec.name,
            config=self.config.label(),
            plan_hash=self.plan_hash or "none",
            cache_key_hash=config_hash_of(
                {"spec": repr(self.spec), "config": repr(self.config)}
            ),
            states=labels,
        )
        get_logger("pdn.stackup").error(
            "solver failure: %s",
            exc,
            extra={"fields": dict(exc.context)},
        )

    def solve_state(
        self,
        state: MemoryState,
        logic_scale: float = 1.0,
        solver: Optional[StackSolver] = None,
    ) -> StackIRResult:
        """Solve one memory state and extract per-die maxima.

        ``solver`` replaces the stack's shared :attr:`solver` for this one
        solve (the design-space sampler passes a private symmetric-ordering
        factorization that no other caller may reuse).
        """
        solver = solver if solver is not None else self.solver
        maps = self.power_maps(state, logic_scale)
        try:
            raw = solver.solve_power_maps(maps)
        except SolverError as exc:
            self._annotate_solver_error(exc, [state])
            raise
        return self._result_from_raw(state, maps, raw)

    def solve_states(
        self,
        states: Sequence[MemoryState],
        logic_scale: float = 1.0,
        activities: Optional[Sequence[Optional[Mapping[int, float]]]] = None,
    ) -> List[StackIRResult]:
        """Solve many memory states in one batched back-substitution.

        All states' current vectors are stacked into a ``(num_nodes, k)``
        block and pushed through the factorization in a single
        :meth:`~repro.rmesh.solve.StackSolver.solve_many` call.  Result
        ``i`` agrees with ``solve_state(states[i])`` to rounding (not
        bitwise; see :meth:`~repro.rmesh.solve.StackSolver.solve_block`).
        ``activities``, one entry per state, are per-channel I/O activity
        overrides for :meth:`power_maps` (``None`` entries derive the
        activity from the state).
        """
        if not states:
            return []
        try:
            solver = self.solver
            all_maps = [
                self.power_maps(state, logic_scale, activity)
                for state, activity in zip(states, activities or [None] * len(states))
            ]
            currents = np.stack(
                [solver.currents_from_maps(maps) for maps in all_maps], axis=1
            )
            raws = solver.solve_many(currents)
        except SolverError as exc:
            self._annotate_solver_error(exc, states)
            raise
        return [
            self._result_from_raw(state, maps, raw)
            for state, maps, raw in zip(states, all_maps, raws)
        ]

    def _result_from_raw(
        self,
        state: MemoryState,
        maps: Dict[str, PowerMap],
        raw: IRDropResult,
    ) -> StackIRResult:
        """Extract per-die maxima and power bookkeeping from a raw solve."""
        per_die = {
            name: raw.die_max_drop_mv(name) for name in self.dram_die_names
        }
        logic_mv = (
            raw.die_max_drop_mv("logic") if self.logic_grid is not None else None
        )
        total_mw = sum(m.total_power_mw(self.tech.vdd) for m in maps.values())
        # Per-experiment IR summaries: the histogram (count/min/max/mean)
        # lands in ``--metrics-out`` files and run manifests.
        _metrics.observe("ir.dram_max_mv", max(per_die.values()))
        if logic_mv is not None:
            _metrics.observe("ir.logic_max_mv", logic_mv)
        return StackIRResult(
            state=state,
            raw=raw,
            dram_max_mv=max(per_die.values()),
            per_die_mv=per_die,
            logic_max_mv=logic_mv,
            total_power_mw=total_mw,
        )

    def dram_max_mv(self, state: MemoryState, logic_scale: float = 1.0) -> float:
        """Shortcut: worst DRAM IR drop for a state, mV."""
        return self.solve_state(state, logic_scale).dram_max_mv


# ---------------------------------------------------------------------------
# Planner
# ---------------------------------------------------------------------------


def _mesh_values(grid: Grid2D, layer: MetalLayer, usage: float) -> Tuple[float, float]:
    """Uniform edge conductances for a layer mesh.

    Exactly the arithmetic of :meth:`repro.rmesh.mesh.LayerMesh.from_layer`
    (same expressions, same evaluation order) so that an assembled plan is
    bitwise identical to a directly built mesh.
    """
    rho_eff = layer.effective_sheet_res(usage)
    wx, wy = layer.direction.direction_weights()
    gx_val = (1.0 / rho_eff) * (grid.dy / grid.dx) * wx
    gy_val = (1.0 / rho_eff) * (grid.dx / grid.dy) * wy
    return gx_val, gy_val


def _xs_ys(points: Sequence[Point]) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    return tuple(p.x for p in points), tuple(p.y for p in points)


def _plan_dram_die(
    ops: List[AnyOp],
    die_name: str,
    grid: Grid2D,
    origin: Point,
    config: PDNConfig,
    tech: TechConstants,
) -> Dict[str, str]:
    """Plan one DRAM die's three metal meshes and intra-die vias."""
    stack = dram_metal_stack(tech)
    usages = {
        "M1": tech.dram_m1_local_usage,
        "M2": config.m2_usage,
        "M3": config.m3_usage,
    }
    gspec = GridSpec.from_grid(grid)
    keys: Dict[str, str] = {}
    for layer in stack.layers:
        gx, gy = _mesh_values(grid, layer, usages[layer.name])
        ring = layer.name in ("M2", "M3")
        key = f"{die_name}/{layer.name}"
        ops.append(
            AddLayerOp(
                die=die_name,
                key=key,
                name=layer.name,
                grid=gspec,
                origin=(origin.x, origin.y),
                gx=gx,
                gy=gy,
                pg_ring_boost=PG_RING_BOOST if ring else 0.0,
                pg_ring_rings=1 if ring else 0,
            )
        )
        keys[layer.name] = key
    ops.append(ConnectUniformOp(keys["M1"], keys["M2"], tech.via_density_local))
    ops.append(ConnectUniformOp(keys["M2"], keys["M3"], tech.via_density_global))
    return keys


def _plan_logic_die(
    ops: List[AnyOp],
    grid: Grid2D,
    origin: Point,
    tech: TechConstants,
) -> Dict[str, str]:
    """Plan the flip-chip logic die: MTOP (package side) up to ML1."""
    stack = logic_metal_stack(tech)
    usages = {
        "ML1": tech.logic_m1_usage,
        "ML2": tech.logic_m2_usage,
        "MTOP": tech.logic_mtop_usage,
    }
    gspec = GridSpec.from_grid(grid)
    keys: Dict[str, str] = {}
    # Flip-chip: MTOP faces the package, so add it first (bottom).
    for layer_name in ("MTOP", "ML2", "ML1"):
        layer = stack.by_name()[layer_name]
        gx, gy = _mesh_values(grid, layer, usages[layer_name])
        ring = layer_name == "MTOP"
        key = f"logic/{layer_name}"
        ops.append(
            AddLayerOp(
                die="logic",
                key=key,
                name=layer_name,
                grid=gspec,
                origin=(origin.x, origin.y),
                gx=gx,
                gy=gy,
                pg_ring_boost=PG_RING_BOOST if ring else 0.0,
                pg_ring_rings=1 if ring else 0,
            )
        )
        keys[layer_name] = key
    ops.append(ConnectUniformOp(keys["MTOP"], keys["ML2"], tech.via_density_logic))
    ops.append(ConnectUniformOp(keys["ML2"], keys["ML1"], tech.via_density_logic))
    return keys


def _c4_field_points(outline: Rect, pitch: float) -> List[Point]:
    """Regular C4 bump field over a die outline."""
    grid = Grid2D.from_pitch(outline, pitch)
    return [grid.node_point(i, j) for i, j in grid.iter_indices()]


def _shift(points: Sequence[Point], origin: Point) -> List[Point]:
    return [Point(p.x + origin.x, p.y + origin.y) for p in points]


def _plan_rdl_layer(
    ops: List[AnyOp],
    name: str,
    grid: Grid2D,
    origin: Point,
    tech: TechConstants,
) -> str:
    gx, gy = _mesh_values(grid, tech.rdl.as_layer(), tech.rdl.usage)
    key = f"{name}/RDL"
    ops.append(
        AddRDLOp(
            die=name,
            key=key,
            name="RDL",
            grid=GridSpec.from_grid(grid),
            origin=(origin.x, origin.y),
            gx=gx,
            gy=gy,
        )
    )
    return key


def plan_stack(
    spec: StackSpec,
    config: PDNConfig,
    tech: TechConstants = DEFAULT_TECH,
    pitch: Optional[float] = None,
) -> StackPlan:
    """Plan the resistive network for one benchmark at one design point.

    Pure function of its arguments: no model is built, no cache touched.
    Configuration errors (e.g. edge TSVs with center bumps but no RDL)
    surface here, at plan time.
    """
    with timed("stackup.plan"):
        return _plan_stack(spec, config, tech, pitch)


def _plan_stack(
    spec: StackSpec,
    config: PDNConfig,
    tech: TechConstants,
    pitch: Optional[float],
) -> StackPlan:
    pitch = pitch or tech.mesh_pitch
    fp = spec.dram_floorplan
    dram_grid = Grid2D.from_pitch(fp.outline, pitch)
    on_chip = spec.mounting is Mounting.ON_CHIP

    ops: List[AnyOp] = []

    # --- placement: logic at (0,0); DRAM centered over it -------------------
    if on_chip:
        logic_fp = spec.logic_floorplan
        assert logic_fp is not None
        logic_grid: Optional[Grid2D] = Grid2D.from_pitch(logic_fp.outline, pitch)
        overall = logic_fp.outline
        dram_origin = Point(
            (logic_fp.outline.width - fp.outline.width) / 2.0,
            (logic_fp.outline.height - fp.outline.height) / 2.0,
        )
    else:
        logic_grid = None
        overall = fp.outline
        dram_origin = Point(0.0, 0.0)

    # --- package plane -------------------------------------------------------
    plane_key = "package/plane"
    ops.append(
        AddLayerOp(
            die="package",
            key=plane_key,
            name="plane",
            grid=GridSpec.from_grid(Grid2D(overall, 1, 1)),
            origin=(0.0, 0.0),
            gx=0.0,
            gy=0.0,
            role="plane",
        )
    )
    ops.append(
        SupplyOp(
            key=plane_key,
            xs=(overall.center.x,),
            ys=(overall.center.y,),
            conductances=(1.0 / tech.package_spreading_res,),
        )
    )

    # --- logic die ------------------------------------------------------------
    logic_keys: Optional[Dict[str, str]] = None
    if on_chip:
        assert logic_grid is not None
        logic_keys = _plan_logic_die(ops, logic_grid, Point(0.0, 0.0), tech)
        c4_points = _c4_field_points(spec.logic_floorplan.outline, tech.c4.pitch)
        xs, ys = _xs_ys(c4_points)
        ops.append(
            ConnectAtPointsOp(
                plane_key,
                logic_keys["MTOP"],
                xs,
                ys,
                (float(tech.c4.conductance),) * len(c4_points),
                role="c4",
            )
        )

    # --- DRAM dies --------------------------------------------------------------
    dram_keys: List[Dict[str, str]] = []
    for die in range(spec.num_dram_dies):
        dram_keys.append(
            _plan_dram_die(
                ops, f"dram{die + 1}", dram_grid, dram_origin, config, tech
            )
        )

    # --- TSV and bump geometry ---------------------------------------------------
    tsv_local = tsv_points_for_config(fp.outline, config, fp)
    tsv_points = _shift(tsv_local, dram_origin)
    bump_location = spec.effective_bump_location(config)
    if (
        config.tsv_location is TSVLocation.EDGE
        and bump_location is BumpLocation.CENTER
        and not config.rdl.enabled
    ):
        raise ConfigurationError(
            f"{spec.name}: edge TSVs with center bumps need an RDL "
            "(section 6.2)"
        )
    if bump_location is BumpLocation.CENTER:
        bump_points = _shift(center_bump_points(fp.outline, config.tsv_count), dram_origin)
        detours = [0.0] * len(bump_points)  # balls route to the cluster
    else:
        bump_points = tsv_points
        if on_chip:
            # Misalignment on the logic die escapes through thin congested
            # lower metals; on a package it uses thick laminate routing.
            align_outline = spec.logic_floorplan.outline
            align_c4 = C4Tech(
                resistance=tech.c4.resistance,
                pitch=tech.c4.pitch,
                detour_res_per_mm=tech.logic_escape_res_per_mm,
            )
        else:
            align_outline = fp.outline
            align_c4 = tech.c4
        detours = alignment_detours(
            tsv_points, align_outline, align_c4, config.tsv_aligned
        )

    tsv_xs, tsv_ys = _xs_ys(tsv_points)
    bump_xs, bump_ys = _xs_ys(bump_points)
    rdl_all = config.rdl is RDLScope.ALL
    rdl_bottom = config.rdl.enabled

    # --- bottom interface (package or logic -> dram1) ----------------------------
    bottom_key = dram_keys[0]["M3"]
    if on_chip and not config.dedicated_tsv:
        # TSV landing pads tie into the logic grid at the intermediate
        # level: through the logic PDN, so the dies' noises couple
        # (section 3.1).
        assert logic_keys is not None
        below_key = logic_keys["ML2"]
        # Logic TSV + interface TSV + backside landing / tie-in resistance.
        through_res = 2.0 * tech.tsv.resistance + tech.logic_landing_res
        base_c4 = 0.0
    elif on_chip and config.dedicated_tsv:
        below_key = plane_key  # via-last TSVs bypass the logic PDN
        through_res = tech.dedicated_tsv.resistance * 2.0
        base_c4 = tech.c4.resistance
    else:
        below_key = plane_key
        through_res = tech.tsv.resistance
        base_c4 = tech.c4.resistance

    if rdl_bottom:
        rdl0 = _plan_rdl_layer(ops, "dram1", dram_grid, dram_origin, tech)
        ops.append(
            ConnectAtPointsOp(
                below_key,
                rdl0,
                bump_xs,
                bump_ys,
                tuple(1.0 / (base_c4 + MICROBUMP_RES + d) for d in detours),
                role="bump",
            )
        )
        ops.append(
            TSVOp(
                rdl0,
                bottom_key,
                tsv_xs,
                tsv_ys,
                (float(1.0 / through_res),) * len(tsv_points),
            )
        )
    else:
        ops.append(
            TSVOp(
                below_key,
                bottom_key,
                bump_xs,
                bump_ys,
                tuple(1.0 / (base_c4 + through_res + d) for d in detours),
            )
        )

    # --- inter-die interfaces -------------------------------------------------------
    for die in range(spec.num_dram_dies - 1):
        lower = dram_keys[die]["M3"]
        upper = dram_keys[die + 1]["M3"]
        f2f_pair = config.bonding is Bonding.F2F and die % 2 == 0
        if f2f_pair:
            ops.append(
                ConnectUniformOp(
                    lower, upper, tech.f2f.conductance_per_mm2, role="f2f"
                )
            )
            continue
        # F2B everywhere, or the B2B interface between F2F pairs.
        if config.bonding is Bonding.F2F:
            link_res = tech.tsv.series(2)  # back-to-back: two TSVs
        else:
            link_res = tech.tsv.resistance
        if rdl_all:
            # Between identical DRAM dies the face bumps sit directly under
            # the TSVs; the center-bump constraint only exists at the host
            # interface (JEDEC pads), so no lateral zigzag happens here.
            rdl_key = _plan_rdl_layer(ops, f"dram{die + 2}", dram_grid, dram_origin, tech)
            ops.append(
                ConnectAtPointsOp(
                    lower,
                    rdl_key,
                    tsv_xs,
                    tsv_ys,
                    (float(1.0 / (MICROBUMP_RES + link_res / 2.0)),) * len(tsv_points),
                    role="bump",
                )
            )
            ops.append(
                TSVOp(
                    rdl_key,
                    upper,
                    tsv_xs,
                    tsv_ys,
                    (float(1.0 / (link_res / 2.0)),) * len(tsv_points),
                )
            )
        else:
            ops.append(
                TSVOp(
                    lower,
                    upper,
                    tsv_xs,
                    tsv_ys,
                    (float(1.0 / link_res),) * len(tsv_points),
                )
            )

    # --- wire bonding -----------------------------------------------------------------
    if config.wire_bond:
        pads = _shift(
            wirebond_points(fp.outline, tech.wirebond.groups_per_edge), dram_origin
        )
        pad_xs, pad_ys = _xs_ys(pads)
        top_key = dram_keys[-1]["M3"]
        ops.append(
            WirebondOp(
                plane_key,
                top_key,
                pad_xs,
                pad_ys,
                (float(tech.wirebond.group_conductance),) * len(pads),
            )
        )

    return StackPlan(
        benchmark=spec.name,
        pitch=float(pitch),
        num_dram_dies=spec.num_dram_dies,
        dram_grid=GridSpec.from_grid(dram_grid),
        dram_origin=(dram_origin.x, dram_origin.y),
        logic_grid=GridSpec.from_grid(logic_grid) if logic_grid is not None else None,
        ops=tuple(ops),
    )


def plan_single_die_stack(
    floorplan: DieFloorplan,
    config: Optional[PDNConfig] = None,
    tech: TechConstants = DEFAULT_TECH,
    pitch: Optional[float] = None,
    pad_resistance: float = 0.09,
    pad_count: int = 40,
) -> StackPlan:
    """Plan a conventional 2D (single-die) DRAM for the Figure 4 validation.

    The 2D part is wire-bonded through a row of pads along the center
    spine, the standard DDR3 package style.
    """
    config = config or PDNConfig()
    pitch = pitch or tech.mesh_pitch
    grid = Grid2D.from_pitch(floorplan.outline, pitch)
    ops: List[AnyOp] = []

    plane_key = "package/plane"
    ops.append(
        AddLayerOp(
            die="package",
            key=plane_key,
            name="plane",
            grid=GridSpec.from_grid(Grid2D(floorplan.outline, 1, 1)),
            origin=(0.0, 0.0),
            gx=0.0,
            gy=0.0,
            role="plane",
        )
    )
    ops.append(
        SupplyOp(
            key=plane_key,
            xs=(floorplan.outline.center.x,),
            ys=(floorplan.outline.center.y,),
            conductances=(1.0 / tech.package_spreading_res,),
        )
    )
    keys = _plan_dram_die(ops, "dram1", grid, Point(0.0, 0.0), config, tech)

    # Pad ring around the die (power pads + package ring redistribution,
    # the Encounter-style PG ring hookup of the generated 2D design).
    ring = floorplan.outline.inset(0.20)
    perimeter = 2.0 * (ring.width + ring.height)
    pads = list(ring.edge_points(perimeter / pad_count))[:pad_count]
    pad_xs, pad_ys = _xs_ys(pads)
    ops.append(
        ConnectAtPointsOp(
            plane_key,
            keys["M3"],
            pad_xs,
            pad_ys,
            (float(1.0 / pad_resistance),) * len(pads),
            role="pad",
        )
    )

    return StackPlan(
        benchmark="ddr3_2d",
        pitch=float(pitch),
        num_dram_dies=1,
        dram_grid=GridSpec.from_grid(grid),
        dram_origin=(0.0, 0.0),
        logic_grid=None,
        ops=tuple(ops),
    )


# ---------------------------------------------------------------------------
# Build entry points (plan + assemble composed)
# ---------------------------------------------------------------------------


def build_stack(
    spec: StackSpec,
    config: PDNConfig,
    tech: TechConstants = DEFAULT_TECH,
    pitch: Optional[float] = None,
    session: Optional[AssemblySession] = None,
) -> PDNStack:
    """Build the resistive network for one benchmark at one design point.

    Drop-in for the former monolithic builder: plans, assembles, and
    wraps.  Results are bitwise identical to the pre-plan pipeline.
    ``session`` reuses the artifacts of earlier builds under it
    (:class:`~repro.pdn.assemble.AssemblySession`, bitwise equal to a
    cold build); no shared cache is read or written either way.
    """
    with timed("stackup.build"):
        plan = plan_stack(spec, config, tech=tech, pitch=pitch)
        assembled = assemble(plan, session=session)
        record_plan_use(plan)
        return PDNStack.from_assembled(spec, config, tech, plan, assembled)


def build_single_die_stack(
    floorplan: DieFloorplan,
    power: DramPowerSpec,
    config: Optional[PDNConfig] = None,
    tech: TechConstants = DEFAULT_TECH,
    pitch: Optional[float] = None,
    pad_resistance: float = 0.09,
    pad_count: int = 40,
) -> PDNStack:
    """Build the conventional 2D DRAM (Figure 4 validation).

    Reuses the PDNStack API with a one-die "stack".
    """
    config = config or PDNConfig()
    with timed("stackup.build"):
        plan = plan_single_die_stack(
            floorplan,
            config,
            tech=tech,
            pitch=pitch,
            pad_resistance=pad_resistance,
            pad_count=pad_count,
        )
        assembled = assemble(plan)
        record_plan_use(plan)
        spec = StackSpec(
            name="ddr3_2d",
            dram_floorplan=floorplan,
            dram_power=power,
            num_dram_dies=1,
            mounting=Mounting.OFF_CHIP,
        )
        return PDNStack.from_assembled(spec, config, tech, plan, assembled)
