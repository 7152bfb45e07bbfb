"""Output checks: every compared leaf value is one operation.

Integers, booleans and strings must match exactly; floats within a
relative tolerance (1e-6 against the references, the bound between an
iterative and a direct solve, so a warm-started solver still passes).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Tuple

REL_TOL = 1e-6
REFERENCES = Path(__file__).resolve().parent / "references.json"


def compare(
    got: Any, want: Any, rel_tol: float = REL_TOL, path: str = ""
) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages) of checking ``got`` against ``want``."""
    if isinstance(want, dict):
        attempted, failed, messages = 0, 0, []
        if not isinstance(got, dict):
            return 1, 1, [f"{path or '<root>'}: expected a mapping, got {got!r}"]
        for key in sorted(set(want) | set(got)):
            sub = f"{path}.{key}" if path else key
            if key not in got or key not in want:
                attempted += 1
                failed += 1
                side = "missing" if key not in got else "unexpected"
                messages.append(f"{sub}: {side}")
                continue
            a, f, m = compare(got[key], want[key], rel_tol, sub)
            attempted += a
            failed += f
            messages.extend(m)
        return attempted, failed, messages
    if isinstance(want, float) and isinstance(got, float):
        ok = math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0) or got == want
    else:
        ok = type(got) is type(want) and got == want
    return 1, 0 if ok else 1, [] if ok else [f"{path}: got {got!r}, want {want!r}"]


def load_references(path: Path = REFERENCES) -> Dict[str, Dict[str, Any]]:
    """``{workload: {reference key: outputs}}``."""
    return json.loads(path.read_text())
