"""Keyed LRU caches for built stacks and power maps.

The build pipeline is config -> plan -> assemble -> solve
(:mod:`repro.pdn.plan`, :mod:`repro.pdn.assemble`), and
:func:`repro.pdn.stackup.build_stack` runs all of it.  Two
process-global caches sit in front of it:

* **Stack cache** -- maps ``(stack spec, PDNConfig, tech, pitch)`` to
  the built :class:`~repro.pdn.stackup.PDNStack`, which lazily holds its
  SuperLU factorization.  Only call sites that solve the same stack
  again fill it: the LUT loops of fig9's Table 7 cases, table5 and
  table6, whose entries later tables hit.  Each entry holds ~8 MiB of
  factors, so call sites that solve a design once
  (``experiments.common.solve_design``/``explain_design``,
  ``CoOptimizer.baseline_result``) only read it (``fill=False``), and
  those whose stacks nobody asks for at all build with ``build_stack``:
  fig5's TSV-count sweep and the co-optimizer's verified picks.
* **Power-map cache** -- maps ``(floorplan and power spec, state, die,
  grid, vdd, activity override)`` (DRAM) or ``(floorplan and power
  spec, grid, vdd, scale)`` (logic) to the rasterized per-node current
  map.  Design-space sampling evaluates hundreds of *different* stacks
  against the *same* reference state on the *same* grid, and every LUT
  basis column needs the same state-independent logic map.

A miss builds under a shared :class:`~repro.pdn.assemble.AssemblySession`,
so even *distinct* plans (a TSV-count sweep) reuse the unchanged layer
meshes and link blocks of previously assembled ones.

Keys are built from ``repr`` of the participating (frozen or
effectively-immutable) dataclasses, which is deterministic and covers
every physical field -- two specs that print the same build the same
network.  :class:`~repro.pdn.stackup.PDNStack` computes its power-map
reprs once per stack.  Entries are evicted least-recently-used.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.obs.trace import span
from repro.perf.timers import timed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.pdn.stackup import PDNStack


class LRUCache:
    """A minimal ordered-dict LRU with hit/miss/eviction counters.

    A ``name`` makes the cache report into the global metrics registry
    (``cache.<name>.hits`` / ``.misses`` / ``.evictions``), so hit rates
    survive worker-process merges and land in run manifests.
    """

    def __init__(self, maxsize: int, name: Optional[str] = None) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _count(self, event: str) -> None:
        if self.name is not None:
            _metrics.inc(f"cache.{self.name}.{event}")

    def get(self, key: Any) -> Optional[Any]:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            self._count("misses")
            return None
        self._data.move_to_end(key)
        self.hits += 1
        self._count("hits")
        return value

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            self._count("evictions")

    def clear(self) -> None:
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Process-global stack memo used by :func:`cached_build_stack`.  Stacks
#: hold their factorizations, so the capacity is deliberately modest.
stack_cache = LRUCache(maxsize=32, name="stack")

#: Process-global power-map cache (value: the (ny, nx) current array).
power_map_cache = LRUCache(maxsize=256, name="power_map")

#: Lazily created shared assembly session (incremental sweep reassembly).
_assembly_session: Optional[Any] = None

#: The plan of every stack :func:`cached_build_stack` returned, by hash.
#: Plans only (~18 KB for ddr3_off, ~180 KB for hmc), so a stack that was
#: not kept frees its factorization; ``--history`` stores these bodies.
_looked_up_plans: Dict[str, Any] = {}


def assembly_session():
    """The process-global :class:`~repro.pdn.assemble.AssemblySession`."""
    global _assembly_session
    if _assembly_session is None:
        from repro.pdn.assemble import AssemblySession

        _assembly_session = AssemblySession()
    return _assembly_session


def cached_build_stack(
    spec: Any,
    config: Any,
    tech: Any = None,
    pitch: Optional[float] = None,
    *,
    fill: bool = True,
) -> "PDNStack":
    """Memoized :func:`repro.pdn.stackup.build_stack` (same arguments).

    Returns the *same* ``PDNStack`` object for repeated identical keys;
    treat the result as read-only (every library path does).  A hit
    records its plan use just as a build does, so per-run plan counters
    name every structure a run solved, built or reused.  With
    ``fill=False`` (a call site that solves the design once) a hit is
    served the same way, but a miss's stack is not inserted, so its
    factorization is freed with the caller's last reference.
    """
    # Imported lazily: stackup imports this module for the power-map
    # cache, so a module-level import would be circular.
    from repro.pdn import stackup
    from repro.pdn.plan import record_plan_use
    from repro.tech.calibration import DEFAULT_TECH

    tech = tech or DEFAULT_TECH
    pitch = pitch or tech.mesh_pitch
    key = (repr(spec), repr(config), repr(tech), pitch)
    with timed("cache.stack_lookup"):
        stack = stack_cache.get(key)
        if stack is None:
            stack = stackup.build_stack(
                spec, config, tech=tech, pitch=pitch, session=assembly_session()
            )
            if fill:
                stack_cache.put(key, stack)
        else:
            record_plan_use(stack.plan)
        _looked_up_plans[stack.plan.plan_hash] = stack.plan
        return stack


def looked_up_plans() -> List[Any]:
    """The plans of the stacks :func:`cached_build_stack` returned since
    the last :func:`clear_caches`, kept or not (no counters)."""
    return list(_looked_up_plans.values())


def _cached_map(kind: str, key: Tuple, grid: Any, build: Callable[[], Any], **attrs: Any):
    """``build()``'s power map on ``grid``, memoized under ``key``.

    Misses and hits alike return a copy of the cached current array, so
    a caller that mutates its map cannot corrupt the cache.
    """
    from repro.power.powermap import PowerMap

    key += (kind, (grid.outline, grid.nx, grid.ny))
    with span("powermap.rasterize", kind=kind, **attrs) as sp:
        current = power_map_cache.get(key)
        sp.attrs["cached"] = current is not None
        if current is None:
            current = build().current
            power_map_cache.put(key, current)
        return PowerMap(grid, current.copy())


def cached_dram_power_map(
    floorplan: Any,
    spec: Any,
    state: Any,
    die: int,
    grid: Any,
    vdd: float,
    mirrored: bool = False,
    activity: Optional[Mapping[int, float]] = None,
    *,
    content_key: Any,
):
    """Memoized :func:`repro.power.powermap.dram_power_map`.

    ``content_key`` identifies ``floorplan`` and ``spec`` by content, such
    as their ``repr``; :class:`~repro.pdn.stackup.PDNStack` computes it
    once per stack rather than once per map.  The key carries the
    ``activity`` override too: an overridden map must never be served
    for the same state without one.
    """
    from repro.power.powermap import dram_power_map

    override = None if activity is None else tuple(sorted(activity.items()))
    return _cached_map(
        "dram",
        (content_key, state.active, die, vdd, mirrored, override),
        grid,
        lambda: dram_power_map(
            floorplan, spec, state, die, grid, vdd, mirrored, activity
        ),
        die=die,
    )


def cached_logic_power_map(
    floorplan: Any,
    spec: Any,
    grid: Any,
    vdd: float,
    scale: float = 1.0,
    *,
    content_key: Any,
):
    """Memoized :func:`repro.power.powermap.logic_power_map` (see above)."""
    from repro.power.powermap import logic_power_map

    return _cached_map(
        "logic",
        (content_key, vdd, scale),
        grid,
        lambda: logic_power_map(floorplan, spec, grid, vdd, scale=scale),
    )


def clear_caches() -> None:
    """Drop all cached plans, stacks, and power maps (frees factorizations)."""
    stack_cache.clear()
    power_map_cache.clear()
    _looked_up_plans.clear()
    if _assembly_session is not None:
        _assembly_session.clear()


def cache_stats() -> Dict[str, Dict[str, int]]:
    """Hit/miss/eviction counters of every process-global cache."""
    return {
        "stack": stack_cache.stats(),
        "power_map": power_map_cache.stats(),
    }
