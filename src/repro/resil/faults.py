"""Deterministic fault injection for chaos tests and benches.

A fault-tolerance layer that is only exercised by real outages is
untested code.  This module injects the one failure the process fan-out
(:func:`repro.perf.parallel.map_design_points`) must survive -- a dying
worker -- under a spec that makes every injection *deterministic*:
whether a fault fires at a given site is a pure function of
``(seed, site, key, attempt)``, hashed through sha256 into a uniform
[0, 1) draw compared against the rule's probability.  Two runs with the
same spec draw the same faults at the same points; bumping ``attempt``
on resubmission re-rolls the draw, so a crashed task is not doomed to
crash identically forever.

Faults are drawn only inside a pool worker
(:class:`repro.perf.parallel._Task`).  The serial path -- one worker, or
the finish after the pool rebuild budget is spent -- draws none.

Spec grammar (``REPRO_FAULT_SPEC``)::

    rule[,rule...]
    rule  := kind[:param=value...]
    kind  := worker_crash
    param := p=<probability 0..1> | seed=<int>

Example::

    worker_crash:p=0.3:seed=1

``worker_crash`` calls ``os._exit`` -- the worker dies without cleanup,
exactly like the OOM killer, and the parent sees ``BrokenProcessPool``.
The worker never ships its metrics delta, so the parent sees the crash
only as ``resil.pool_rebuilds``.

A malformed spec raises :class:`~repro.errors.ConfigurationError`
eagerly: unlike a tuning knob, a typo'd *chaos* spec silently parsing
to "no faults" would turn every chaos test into a vacuous pass.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.log import get_logger

_log = get_logger("resil.faults")

#: Environment variable carrying the fault spec (workers inherit it).
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

FAULT_KINDS = ("worker_crash",)

#: Exit code of an injected hard worker crash (visible in pool logs).
CRASH_EXIT_CODE = 73


@dataclass(frozen=True)
class FaultRule:
    """One parsed spec rule."""

    kind: str
    p: float
    seed: int = 0

    def describe(self) -> str:
        return f"{self.kind}:p={self.p}:seed={self.seed}"


def _uniform_draw(seed: int, site: str, key: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw for one decision point."""
    token = f"{seed}:{site}:{key}:{attempt}".encode()
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


def parse_fault_spec(text: str) -> List[FaultRule]:
    """Parse a spec string into rules; raises ``ConfigurationError``."""
    rules: List[FaultRule] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        kind = parts[0].strip().lower()
        if kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {kind!r}; known: {list(FAULT_KINDS)}",
                spec=text,
            )
        params: Dict[str, str] = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ConfigurationError(
                    f"fault parameter {part!r} is not name=value", spec=text
                )
            name, _, value = part.partition("=")
            params[name.strip().lower()] = value.strip()
        try:
            p = float(params.pop("p", "0"))
            seed = int(params.pop("seed", "0"))
        except ValueError as exc:
            raise ConfigurationError(
                f"malformed fault parameter in {chunk!r}: {exc}", spec=text
            ) from None
        if params:
            raise ConfigurationError(
                f"unknown fault parameters {sorted(params)} in {chunk!r}",
                spec=text,
            )
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {p}", spec=text
            )
        if p == 0.0:
            raise ConfigurationError(
                f"fault rule {chunk!r} never fires: give p=", spec=text
            )
        rules.append(FaultRule(kind=kind, p=p, seed=seed))
    return rules


class FaultPlan:
    """The parsed rules of one spec."""

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.rules = parse_fault_spec(spec)

    def fire(self, site: str, key: str, attempt: int) -> None:
        """Evaluate every rule at one decision point; may not return."""
        for rule in self.rules:
            if _uniform_draw(rule.seed, site, key, attempt) < rule.p:
                # worker_crash: die like the OOM killer struck.
                os._exit(CRASH_EXIT_CODE)


_plan_lock = threading.Lock()
_plan_cache: Optional[Tuple[str, FaultPlan]] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan for the current ``REPRO_FAULT_SPEC``, or None.

    Cached per spec string, so the "fault injection active" warning is
    logged once per spec, and a changed spec (tests monkeypatch the
    environment) builds a new plan.
    """
    global _plan_cache
    spec = os.environ.get(FAULT_SPEC_ENV, "").strip()
    if not spec:
        with _plan_lock:
            _plan_cache = None
        return None
    with _plan_lock:
        if _plan_cache is not None and _plan_cache[0] == spec:
            return _plan_cache[1]
        plan = FaultPlan(spec)
        _log.warning(
            "fault injection active: %s",
            "; ".join(r.describe() for r in plan.rules),
            extra={"fields": {"spec": spec}},
        )
        _plan_cache = (spec, plan)
        return plan


def check_task(key: str, attempt: int = 0) -> None:
    """Task-level decision point in a pool worker: worker_crash.

    A no-op in the parent process, where a hard crash would take the
    whole run down: the serial path draws no faults.
    """
    if multiprocessing.parent_process() is None:
        return
    plan = active_plan()
    if plan is not None:
        plan.fire("task", key, attempt)
