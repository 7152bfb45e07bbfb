"""Journaled sweep checkpoints: kill a run, resume without re-solving.

A design-space sweep is a sequence of (plan, state, scale) solves whose
results are tiny compared to the work producing them.  That asymmetry
makes checkpointing nearly free: journal every completed design point's
summary -- keyed by the :class:`~repro.pdn.plan.StackPlan` ``plan_hash``
(the content address of the physical network) plus the state's
active-bank tuple and the logic scale -- and a resumed run looks each
point up before solving.
Keys are content-addressed, so a resume against *changed* inputs
(edited config, different mesh) misses cleanly instead of serving stale
physics.

Storage is an append-only JSONL journal: a header line identifying the
format, then one ``{"key": ..., "result": {...}}`` object per completed
point, each ``write`` + ``flush`` so a SIGKILL loses at most the
in-flight line.  Loading tolerates exactly that artifact -- a
truncated/corrupt trailing line is skipped with a structured warning
(``resil.checkpoint_corrupt_lines``), never a crash, and the next
append starts on a fresh line.

Activation: ``repro3d --resume PATH`` sets ``REPRO_CHECKPOINT``;
:func:`checkpointed_solve` (the fig5 sweep and the co-optimizer's
verification solves) picks it up, and experiment manifests record the
resume lineage (:func:`active_checkpoint_info`).  A checkpoint hit returns a
:class:`CheckpointedResult` -- the summary fields experiment drivers
consume (``dram_max_mv``, ``logic_max_mv``, ``per_die_mv``,
``total_power_mw``) without the full node-drop vector, which is the
deliberate trade: checkpoints journal *results*, not solver state.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.obs import metrics as _metrics
from repro.obs.log import get_logger

_log = get_logger("resil.checkpoint")

#: Environment variable naming the active checkpoint journal.
CHECKPOINT_ENV = "REPRO_CHECKPOINT"

#: Journal header: first line of every checkpoint file.
HEADER = {"kind": "repro-sweep-checkpoint", "schema": 1}


def point_key(plan_hash: str, banks: object, logic_scale: float) -> str:
    """Content-addressed key of one design-point solve.

    ``banks`` is the state's active-bank tuple (``MemoryState.active``),
    not its paper label: the label holds only per-die bank *counts*, and
    two states with the same counts but different banks draw different
    currents.
    """
    return f"{plan_hash}:{banks!r}:{logic_scale!r}"


@dataclass
class CheckpointedResult:
    """A journaled design-point summary, shaped like ``StackIRResult``.

    Carries the scalar fields experiment drivers read; ``raw`` (the full
    node-drop vector) is deliberately absent -- a consumer needing it
    must re-solve, which a checkpoint miss does automatically.
    """

    dram_max_mv: float
    logic_max_mv: Optional[float]
    total_power_mw: float
    per_die_mv: Dict[str, float] = field(default_factory=dict)
    state_label: str = ""
    from_checkpoint: bool = True

    def to_dict(self) -> Dict[str, object]:
        return {
            "dram_max_mv": self.dram_max_mv,
            "logic_max_mv": self.logic_max_mv,
            "total_power_mw": self.total_power_mw,
            "per_die_mv": dict(self.per_die_mv),
            "state_label": self.state_label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CheckpointedResult":
        return cls(
            dram_max_mv=float(data["dram_max_mv"]),  # type: ignore[arg-type]
            logic_max_mv=(
                float(data["logic_max_mv"])  # type: ignore[arg-type]
                if data.get("logic_max_mv") is not None
                else None
            ),
            total_power_mw=float(data["total_power_mw"]),  # type: ignore[arg-type]
            per_die_mv={
                str(k): float(v)  # type: ignore[arg-type]
                for k, v in dict(data.get("per_die_mv", {})).items()  # type: ignore[arg-type]
            },
            state_label=str(data.get("state_label", "")),
        )

    @classmethod
    def from_result(cls, result) -> "CheckpointedResult":
        """Summarize a solve result (``StackIRResult``-shaped) for the journal."""
        state = getattr(result, "state", None)
        return cls(
            dram_max_mv=float(result.dram_max_mv),
            logic_max_mv=(
                float(result.logic_max_mv)
                if result.logic_max_mv is not None
                else None
            ),
            total_power_mw=float(result.total_power_mw),
            per_die_mv={k: float(v) for k, v in result.per_die_mv.items()},
            state_label=state.label() if state is not None else "",
            from_checkpoint=False,
        )


class SweepCheckpoint:
    """One append-only design-point journal (see module docstring)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: Dict[str, CheckpointedResult] = {}
        self.hits = 0
        self.misses = 0
        self.records = 0
        self.corrupt_lines = 0
        self.loaded = 0
        self._load()

    # -- journal I/O -------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            return
        text = self.path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                # Killed-process artifact: a half-written trailing line
                # (or a corrupted interior one).  Skip and keep loading.
                self.corrupt_lines += 1
                _metrics.inc("resil.checkpoint_corrupt_lines")
                _log.warning(
                    "skipping corrupt checkpoint line %d in %s",
                    lineno,
                    self.path,
                    extra={"fields": {"path": str(self.path), "line": lineno}},
                )
                continue
            if not isinstance(data, dict):
                self.corrupt_lines += 1
                _metrics.inc("resil.checkpoint_corrupt_lines")
                continue
            if data.get("kind") == HEADER["kind"]:
                continue  # header line
            key = data.get("key")
            result = data.get("result")
            if not isinstance(key, str) or not isinstance(result, dict):
                self.corrupt_lines += 1
                _metrics.inc("resil.checkpoint_corrupt_lines")
                continue
            try:
                self._entries[key] = CheckpointedResult.from_dict(result)
            except (KeyError, TypeError, ValueError):
                self.corrupt_lines += 1
                _metrics.inc("resil.checkpoint_corrupt_lines")
        self.loaded = len(self._entries)
        if self.loaded:
            _log.warning(
                "resuming from checkpoint %s: %d completed design points",
                self.path,
                self.loaded,
                extra={
                    "fields": {"path": str(self.path), "entries": self.loaded}
                },
            )

    def _append_line(self, payload: Dict[str, object]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        new = not self.path.exists() or self.path.stat().st_size == 0
        with open(self.path, "a", encoding="utf-8") as fh:
            if new:
                fh.write(json.dumps(HEADER, sort_keys=True) + "\n")
            else:
                # Guard against a truncated tail from a killed writer:
                # if the file does not end in a newline, start one.
                with open(self.path, "rb") as check:
                    check.seek(-1, os.SEEK_END)
                    if check.read(1) != b"\n":
                        fh.write("\n")
            fh.write(json.dumps(payload, sort_keys=True) + "\n")
            fh.flush()

    # -- lookup / record ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str) -> Optional[CheckpointedResult]:
        """The journaled result for ``key``, or None (counts hit/miss)."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self.hits += 1
                _metrics.inc("resil.checkpoint_hits")
            else:
                self.misses += 1
                _metrics.inc("resil.checkpoint_misses")
            return hit

    def record(self, key: str, result) -> CheckpointedResult:
        """Journal one completed design point (idempotent per key)."""
        entry = CheckpointedResult.from_result(result)
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            self._entries[key] = entry
            self.records += 1
            _metrics.inc("resil.checkpoint_records")
            self._append_line({"key": key, "result": entry.to_dict()})
        return entry

    def summary(self) -> Dict[str, object]:
        """Resume-lineage record for run manifests."""
        with self._lock:
            return {
                "path": str(self.path),
                "entries": len(self._entries),
                "loaded": self.loaded,
                "hits": self.hits,
                "misses": self.misses,
                "records": self.records,
                "corrupt_lines": self.corrupt_lines,
            }


_default_lock = threading.Lock()
_default: Optional[SweepCheckpoint] = None


def default_checkpoint() -> Optional[SweepCheckpoint]:
    """The process-default checkpoint named by ``REPRO_CHECKPOINT``.

    One shared instance per path, created lazily -- every checkpointed
    solve in the process journals into (and resumes from) the same file, which
    is what ``repro3d --resume`` means.  Cleared when the variable is
    unset or points elsewhere.
    """
    global _default
    raw = os.environ.get(CHECKPOINT_ENV, "").strip()
    with _default_lock:
        if not raw:
            _default = None
            return None
        path = Path(raw)
        if path.exists() and path.is_dir():
            raise ConfigurationError(
                f"checkpoint path {path} is a directory", env=CHECKPOINT_ENV
            )
        if _default is None or _default.path != path:
            _default = SweepCheckpoint(path)
        return _default


def reset_default_checkpoint() -> None:
    """Drop the cached process-default instance (tests)."""
    global _default
    with _default_lock:
        _default = None


def checkpointed_solve(stack, state, logic_scale: float = 1.0):
    """``stack.solve_state(state, logic_scale)`` through the active journal.

    With a checkpoint active (``REPRO_CHECKPOINT``) and a planned stack,
    a journaled point returns its :class:`CheckpointedResult` without
    solving, and a fresh solve is journaled before it is returned.
    Otherwise this is exactly ``stack.solve_state``.
    """
    checkpoint = default_checkpoint()
    if checkpoint is None or stack.plan is None:
        return stack.solve_state(state, logic_scale)
    key = point_key(stack.plan.plan_hash, state.active, logic_scale)
    hit = checkpoint.lookup(key)
    if hit is not None:
        return hit
    result = stack.solve_state(state, logic_scale)
    checkpoint.record(key, result)
    return result


def active_checkpoint_info() -> Optional[Dict[str, object]]:
    """Manifest lineage: the active checkpoint's summary, if any."""
    ck = default_checkpoint()
    return ck.summary() if ck is not None else None
