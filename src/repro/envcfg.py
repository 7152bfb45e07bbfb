"""Validated environment-knob parsing with warn-and-default semantics.

Environment variables are the project's cross-process configuration
channel: the CLI sets them so worker processes inherit the knobs.  That
channel has a failure mode argument parsing does not -- a typo'd value
(``REPRO_WORKERS=2O``) is not discovered at the shell prompt but
deep inside a sweep, where a raised ``ValueError`` throws away every
completed solve.  For *environment* knobs the robust contract is
therefore warn-and-default: log one structured warning naming the
variable, the rejected value, and the default used, bump the
``env.invalid_values`` counter, and keep solving.

Explicit function arguments keep strict validation -- a programmatic
caller passing garbage is a bug worth crashing on; only the ambient
channel degrades.

Each helper warns once per (variable, raw value) pair per process, so a
sweep of ten thousand design points does not emit ten thousand copies
of the same line.
"""

from __future__ import annotations

import os
import threading
from typing import Optional, Set, Tuple

from repro.obs import metrics as _metrics
from repro.obs.log import get_logger

_log = get_logger("envcfg")

_warned_lock = threading.Lock()
_warned: Set[Tuple[str, str]] = set()


def _warn_invalid(name: str, raw: str, default: object, reason: str) -> None:
    with _warned_lock:
        key = (name, raw)
        if key in _warned:
            return
        _warned.add(key)
    _metrics.inc("env.invalid_values")
    _log.warning(
        "ignoring invalid %s=%r (%s); using default %r",
        name,
        raw,
        reason,
        default,
        extra={
            "fields": {
                "variable": name,
                "value": raw,
                "reason": reason,
                "default": default,
            }
        },
    )


def reset_warnings() -> None:
    """Forget which (variable, value) pairs already warned (tests)."""
    with _warned_lock:
        _warned.clear()


def env_int(
    name: str,
    default: int,
    minimum: Optional[int] = None,
) -> int:
    """Read an integer env knob with warn-and-default semantics."""
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        value = int(raw)
    except ValueError:
        _warn_invalid(name, raw, default, "not an integer")
        return default
    if minimum is not None and value < minimum:
        _warn_invalid(name, raw, default, f"below minimum {minimum}")
        return default
    return value
