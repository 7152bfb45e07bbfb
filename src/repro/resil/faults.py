"""Deterministic fault injection for chaos tests and benches.

A fault-tolerance layer that is only exercised by real outages is
untested code.  This module injects the two failures the pool executor
(:mod:`repro.resil.execute`) must survive -- a dying worker and a
hanging task -- under a spec that makes every injection
*deterministic*: whether a fault fires at a given site is a pure
function of ``(seed, site, key, attempt)``, hashed through sha256 into
a uniform [0, 1) draw compared against the rule's probability.  Two
runs with the same spec inject the same faults at the same points;
bumping ``attempt`` on resubmission re-rolls the draw, so a crashed
task is not doomed to crash identically forever.

Faults are drawn only inside a pool worker
(:class:`repro.perf.parallel._ResilTask`).  The serial path -- one
worker, or the finish after the pool rebuild budget is spent -- draws
none.

Spec grammar (``REPRO_FAULT_SPEC``)::

    rule[,rule...]
    rule  := kind[:param=value...]
    kind  := worker_crash | slow_task
    param := p=<probability 0..1> | n=<fire first n times>
           | seed=<int> | ms=<sleep milliseconds, slow_task only>

Examples::

    worker_crash:p=0.3:seed=1
    worker_crash:p=0.2:seed=7,slow_task:p=0.05:ms=200:seed=4

Fault kinds:

``worker_crash``
    ``os._exit`` -- the worker dies without cleanup, exactly like the
    OOM killer, and the parent sees ``BrokenProcessPool``.  The worker
    never ships its metrics delta, so ``resil.faults_injected`` does
    not count it; the crash shows up as ``resil.pool_rebuilds``.
``slow_task``
    Sleeps ``ms`` milliseconds before the task body runs -- the hook
    for exercising per-task timeouts.

A malformed spec raises :class:`~repro.errors.ConfigurationError`
eagerly: unlike a tuning knob, a typo'd *chaos* spec silently parsing
to "no faults" would turn every chaos test into a vacuous pass.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs.log import get_logger

_log = get_logger("resil.faults")

#: Environment variable carrying the fault spec (workers inherit it).
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

FAULT_KINDS = ("worker_crash", "slow_task")

#: Exit code of an injected hard worker crash (visible in pool logs).
CRASH_EXIT_CODE = 73


@dataclass(frozen=True)
class FaultRule:
    """One parsed spec rule."""

    kind: str
    p: float = 0.0
    n: Optional[int] = None
    seed: int = 0
    ms: int = 50

    def describe(self) -> str:
        parts = [self.kind]
        if self.n is not None:
            parts.append(f"n={self.n}")
        else:
            parts.append(f"p={self.p}")
        parts.append(f"seed={self.seed}")
        if self.kind == "slow_task":
            parts.append(f"ms={self.ms}")
        return ":".join(parts)


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
            n = int(params.pop("n")) if "n" in params else None
            seed = int(params.pop("seed", "0"))
            ms = int(params.pop("ms", "50"))
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
        if n is None and p == 0.0:
            raise ConfigurationError(
                f"fault rule {chunk!r} never fires: give p= or n=", spec=text
            )
        rules.append(FaultRule(kind=kind, p=p, n=n, seed=seed, ms=ms))
    return rules


class FaultPlan:
    """Parsed rules plus the mutable fire-counters for ``n=`` rules."""

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.rules = parse_fault_spec(spec)
        self._lock = threading.Lock()
        self._fired: Dict[int, int] = {}

    def _should_fire(self, idx: int, rule: FaultRule, site: str, key: str, attempt: int) -> bool:
        if rule.n is not None:
            with self._lock:
                if self._fired.get(idx, 0) >= rule.n:
                    return False
                self._fired[idx] = self._fired.get(idx, 0) + 1
                return True
        return _uniform_draw(rule.seed, site, key, attempt) < rule.p

    def fire(self, site: str, key: str, attempt: int) -> None:
        """Evaluate every rule at one decision point; may not return."""
        for idx, rule in enumerate(self.rules):
            if not self._should_fire(idx, rule, site, key, attempt):
                continue
            _metrics.inc("resil.faults_injected")
            _metrics.inc(f"resil.fault.{rule.kind}")
            if rule.kind == "slow_task":
                time.sleep(rule.ms / 1000.0)
            else:
                # worker_crash: die like the OOM killer struck.
                os._exit(CRASH_EXIT_CODE)


_plan_lock = threading.Lock()
_plan_cache: Optional[Tuple[str, FaultPlan]] = None


def active_plan() -> Optional[FaultPlan]:
    """The plan for the current ``REPRO_FAULT_SPEC``, or None.

    Cached per spec string: counters (``n=`` rules) persist while the
    spec is unchanged and reset when it changes -- which is also what
    lets tests swap specs via monkeypatched environments.
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
    """Task-level decision point in a pool worker: worker_crash / slow_task.

    A no-op in the parent process, where a hard crash would take the
    whole run down: the serial path draws no faults.
    """
    if multiprocessing.parent_process() is None:
        return
    plan = active_plan()
    if plan is not None:
        plan.fire("task", key, attempt)
