"""Layer spans for the traced run, recorded from outside the program.

The program has no spans of this benchmark's own.  Instead, the traced
run wraps the public function of each layer named in ``README.md`` and
replaces every reference to it: a module-level function is swapped in
every loaded module that holds it (so ``from x import f`` sites are
covered too), a method is swapped on its class.  :meth:`Tracer.install`
returns the patches; :meth:`Tracer.uninstall` restores the originals.

Spans nest: each span's *self* time is its duration minus the time of
the spans it encloses, and the time inside top-level spans is what
``trace.coverage`` counts as covered.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Sequence, Tuple


class _TimedIterator:
    """Times every ``next`` on a trace reader as a ``controller.ingest`` span."""

    def __init__(self, tracer: "Tracer", it: Any) -> None:
        self._tracer = tracer
        self._it = iter(it)

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        req = self._tracer.call("controller.ingest", next, self._it)
        self._tracer.counts["controller.ingest.requests"] += 1
        return req


class Tracer:
    """In-memory span aggregate for one traced iteration."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        #: time of enclosed spans, one accumulator per open span.
        self._open: List[float] = []
        #: > 0 while inside ``IRDropLUT.lookup``: a state solve there is a
        #: lazy LUT fill.
        self._in_lookup = 0
        #: built stacks not solved yet: id -> (stack, build start time).
        self._unsolved: Dict[int, Tuple[Any, float]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        opened = self._open
        opened.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            enclosed = opened.pop()
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - enclosed
            if opened:
                opened[-1] += dur
            else:
                self.covered_s += dur

    def _built(self, stack: Any, t0: float) -> None:
        self._unsolved.setdefault(id(stack), (stack, t0))

    def _solved(self, stack: Any) -> None:
        entry = self._unsolved.pop(id(stack), None)
        if entry is not None:
            self.counts["design_points"] += 1
            self.samples["pdn.design_point"].append(time.perf_counter() - entry[1])

    # -- wrappers --------------------------------------------------------------

    def _span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _build(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            stack = self.call("pdn.build", fn, *args, **kwargs)
            self._built(stack, t0)
            return stack

        return wrapper

    def _solve_state(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(stack: Any, *args: Any, **kwargs: Any) -> Any:
            fill = self._in_lookup > 0
            t0 = time.perf_counter()
            result = self.call("pdn.solve_state", fn, stack, *args, **kwargs)
            if fill:
                self.samples["controller.lut.fill"].append(time.perf_counter() - t0)
            self._solved(stack)
            return result

        return wrapper

    def _lookup(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._in_lookup += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_lookup -= 1

        return wrapper

    def _solve(self, rhs_of: Callable[[Any], int], fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(solver: Any, currents: Any, *args: Any, **kwargs: Any) -> Any:
            self.counts["rmesh.solve.rhs"] += rhs_of(currents)
            return self.call("rmesh.solve", fn, solver, currents, *args, **kwargs)

        return wrapper

    def _read_trace(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _TimedIterator(self, fn(*args, **kwargs))

        return wrapper

    # -- patching --------------------------------------------------------------

    def _wrappers(
        self,
    ) -> Tuple[Sequence[Tuple[Any, Callable]], Sequence[Tuple[type, str, Callable]]]:
        """(function, wrapper) pairs and (class, method, wrapper) triples."""
        # Packages re-export functions under their submodules' names
        # (``repro.pdn.assemble`` is a function there), so the modules are
        # looked up by their full names.
        assemble, cache, model, powermap, request, stackup = (
            importlib.import_module(f"repro.{name}")
            for name in (
                "pdn.assemble",
                "perf.cache",
                "power.model",
                "power.powermap",
                "controller.request",
                "pdn.stackup",
            )
        )
        from repro.controller.engine import EventDrivenEngine
        from repro.controller.lut import IRDropLUT
        from repro.opt.cooptimizer import CoOptimizer
        from repro.regress.model import IRDropSurrogate, sample_design_space
        from repro.rmesh.solve import StackSolver

        functions = [
            (stackup.plan_stack, self._span("pdn.plan", stackup.plan_stack)),
            (assemble.assemble, self._span("pdn.assemble", assemble.assemble)),
            (stackup.build_stack, self._build(stackup.build_stack)),
            (cache.cached_build_stack, self._build(cache.cached_build_stack)),
            (powermap.dram_power_map, self._span("power.rasterize", powermap.dram_power_map)),
            (powermap.logic_power_map, self._span("power.rasterize", powermap.logic_power_map)),
            (model.energy_ledger, self._span("power.ledger", model.energy_ledger)),
            (sample_design_space, self._span("regress.sample", sample_design_space)),
            (request.read_trace, self._read_trace(request.read_trace)),
        ]
        methods = [
            (StackSolver, "__init__", self._span("rmesh.factorize", StackSolver.__init__)),
            (StackSolver, "solve_currents", self._solve(lambda c: 1, StackSolver.solve_currents)),
            (
                StackSolver,
                "solve_block",
                self._solve(lambda c: c.shape[1], StackSolver.solve_block),
            ),
            (stackup.PDNStack, "solve_state", self._solve_state(stackup.PDNStack.solve_state)),
            (stackup.PDNStack, "solve_states", self._solve_state(stackup.PDNStack.solve_states)),
            (IRDropSurrogate, "fit", self._span("regress.fit", IRDropSurrogate.fit)),
            (CoOptimizer, "optimize", self._span("opt.optimize", CoOptimizer.optimize)),
            (
                IRDropLUT,
                "precompute_all",
                self._span("controller.lut.precompute", IRDropLUT.precompute_all),
            ),
            (IRDropLUT, "lookup", self._lookup(IRDropLUT.lookup)),
            (EventDrivenEngine, "run", self._span("controller.engine", EventDrivenEngine.run)),
        ]
        return functions, methods

    def install(self) -> None:
        """Wrap every layer function at every import site."""
        functions, methods = self._wrappers()
        by_id = {id(fn): (fn, wrapper) for fn, wrapper in functions}
        for module in list(sys.modules.values()):
            try:
                namespace = vars(module)
            except TypeError:
                continue
            for attr, value in list(namespace.items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for cls, name, wrapper in methods:
            self._patches.append((cls, name, cls.__dict__[name]))
            setattr(cls, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def percentile_ms(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of durations in seconds, as milliseconds."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return 1000.0 * ordered[rank - 1]


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    sim_cycles: int,
    sim_requests: int,
    cache_delta: Dict[str, Dict[str, int]],
    assemble_counts: Dict[str, int],
) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration (``.s`` = seconds).

    ``controller.engine.s``, ``opt.optimize.s``, ``pdn.build.unattributed_s``
    and ``pdn.postprocess.s`` are self times; every other ``.s`` metric is
    the span's whole duration.
    """
    t, s, n = tracer.total_s, tracer.self_s, tracer.calls
    points = tracer.counts["design_points"]
    reused = assemble_counts.get("reused", 0)
    built = assemble_counts.get("built", 0)
    engine_us = 1e6 * s["controller.engine"]

    def hit_ratio(name: str) -> float:
        d = cache_delta[name]
        lookups = d["hits"] + d["misses"]
        return d["hits"] / lookups if lookups else 0.0

    return {
        "pdn.plan.s": t["pdn.plan"],
        "pdn.plan.calls": n["pdn.plan"],
        "pdn.assemble.s": t["pdn.assemble"],
        "pdn.assemble.calls": n["pdn.assemble"],
        "pdn.assemble.reuse_ratio": reused / (reused + built) if reused + built else 0.0,
        "pdn.build.unattributed_s": s["pdn.build"],
        "pdn.postprocess.s": s["pdn.solve_state"],
        "pdn.design_point.p50_ms": percentile_ms(tracer.samples["pdn.design_point"], 0.50),
        "pdn.design_point.p95_ms": percentile_ms(tracer.samples["pdn.design_point"], 0.95),
        "rmesh.factorize.s": t["rmesh.factorize"],
        "rmesh.factorize.calls": n["rmesh.factorize"],
        "rmesh.factorize.per_point": n["rmesh.factorize"] / points if points else 0.0,
        "rmesh.solve.s": t["rmesh.solve"],
        "rmesh.solve.calls": n["rmesh.solve"],
        "rmesh.solve.rhs": tracer.counts["rmesh.solve.rhs"],
        "power.rasterize.s": t["power.rasterize"],
        "power.rasterize.calls": n["power.rasterize"],
        "power.ledger.s": t["power.ledger"],
        "perf.stack_cache.hit_ratio": hit_ratio("stack"),
        "perf.powermap_cache.hit_ratio": hit_ratio("power_map"),
        "regress.sample.s": t["regress.sample"],
        "regress.fit.s": t["regress.fit"],
        "opt.optimize.s": s["opt.optimize"],
        "controller.lut.precompute.s": t["controller.lut.precompute"],
        "controller.lut.fills": len(tracer.samples["controller.lut.fill"]),
        "controller.lut.fill.p50_ms": percentile_ms(tracer.samples["controller.lut.fill"], 0.50),
        "controller.lut.fill.p95_ms": percentile_ms(tracer.samples["controller.lut.fill"], 0.95),
        "controller.ingest.s": t["controller.ingest"],
        "controller.ingest.requests": tracer.counts["controller.ingest.requests"],
        "controller.engine.s": s["controller.engine"],
        "controller.engine.us_per_kcycle": engine_us / (sim_cycles / 1000.0) if sim_cycles else 0.0,
        "sim.cycles": sim_cycles,
        "sim.requests": sim_requests,
        "trace.coverage": tracer.covered_s / wall_s if wall_s > 0 else 0.0,
    }


def self_time_breakdown(tracer: Tracer, wall_s: float) -> List[Tuple[str, float, int]]:
    """(span, self seconds, calls) sorted by self time, plus the uncovered rest."""
    rows = sorted(
        ((name, tracer.self_s[name], calls) for name, calls in tracer.calls.items() if calls),
        key=lambda row: -row[1],
    )
    rows.append(("(outside any span)", wall_s - tracer.covered_s, 0))
    return rows
