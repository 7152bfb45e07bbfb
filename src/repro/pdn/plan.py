"""Stackup IR: a declarative build plan from PDN config to R-Mesh.

The paper's CAD flow (Figure 2) is a pipeline -- floorplan -> PDN layout
-> stacked R-mesh -> IR drop -- and this module is the intermediate
representation between the second and third stages.  A
:class:`StackPlan` is a typed, frozen, JSON-serializable sequence of
primitive construction ops (:class:`AddLayerOp`, :class:`ConnectUniformOp`,
:class:`ConnectAtPointsOp`, :class:`TSVOp`, :class:`WirebondOp`,
:class:`SupplyOp`, ...) produced by the planner in
:mod:`repro.pdn.stackup` and replayed by the pure assembler in
:mod:`repro.pdn.assemble`.

Why data instead of code:

* **Content-addressed caching** -- :attr:`StackPlan.plan_hash` is a
  stable digest of the canonical plan JSON, so two configurations that
  resolve to the same physical network share one assembled model and
  one factorization (see :mod:`repro.perf.cache`).
* **Incremental sweep reassembly** -- the assembler reuses unchanged
  per-op artifacts (layer meshes, link blocks) between plans, so a
  TSV-count sweep rebuilds only the ops that actually changed.
* **Provenance** -- run manifests and BENCH records carry the plan
  hashes an experiment solved, making accuracy drift attributable to
  structural vs. numerical change.

Ops replay strictly in sequence: op order defines both the global node
numbering (layer offsets) and the link insertion order, which the
conductance-matrix assembly depends on for bitwise reproducibility.
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)

from repro.errors import ConfigurationError
from repro.geometry import Grid2D, Rect
from repro.perf.timers import timed

#: Bump when the plan JSON layout changes incompatibly.
PLAN_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class GridSpec:
    """A serializable :class:`~repro.geometry.Grid2D` (outline + node counts)."""

    x0: float
    y0: float
    x1: float
    y1: float
    nx: int
    ny: int

    @classmethod
    def from_grid(cls, grid: Grid2D) -> "GridSpec":
        o = grid.outline
        return cls(x0=o.x0, y0=o.y0, x1=o.x1, y1=o.y1, nx=grid.nx, ny=grid.ny)

    def to_grid(self) -> Grid2D:
        return Grid2D(Rect(self.x0, self.y0, self.x1, self.y1), self.nx, self.ny)


@dataclass(frozen=True)
class PlanOp:
    """Base class of all build-plan ops; ``kind`` discriminates on disk."""

    kind: ClassVar[str] = "op"

    def to_dict(self) -> Dict[str, Any]:
        """The op's fields by name, with a nested :class:`GridSpec` as a dict.

        Shallow on purpose: ``dataclasses.asdict`` deep-copies every
        coordinate tuple, and this runs once per op on every plan hash.
        Tuples serialize to the same JSON lists either way.
        """
        data: Dict[str, Any] = {"kind": type(self).kind}
        for f in fields(self):
            value = getattr(self, f.name)
            data[f.name] = asdict(value) if isinstance(value, GridSpec) else value
        return data


@dataclass(frozen=True)
class AddLayerOp(PlanOp):
    """Register one uniform layer mesh (optionally PG-ring boosted).

    ``gx``/``gy`` are the uniform per-edge conductances before the ring
    boost, computed by the planner from the layer's effective sheet
    resistance and routing-direction weights -- the same arithmetic
    :meth:`repro.rmesh.mesh.LayerMesh.from_layer` uses, so replay is
    bitwise identical.
    """

    kind: ClassVar[str] = "add_layer"

    die: str
    key: str
    name: str
    grid: GridSpec
    origin: Tuple[float, float]
    gx: float
    gy: float
    pg_ring_boost: float = 0.0
    pg_ring_rings: int = 0
    role: str = "metal"


@dataclass(frozen=True)
class AddRDLOp(AddLayerOp):
    """A backside redistribution layer (section 3.3), as a layer op."""

    kind: ClassVar[str] = "add_rdl"
    role: str = "rdl"


@dataclass(frozen=True)
class ConnectUniformOp(PlanOp):
    """Area-density coupling between two layers (via stitching, F2F)."""

    kind: ClassVar[str] = "connect_uniform"

    key_a: str
    key_b: str
    conductance_per_mm2: float
    role: str = "via"


@dataclass(frozen=True)
class ConnectAtPointsOp(PlanOp):
    """Discrete links between two layers at stack-coordinate points."""

    kind: ClassVar[str] = "connect_at_points"

    key_a: str
    key_b: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    conductances: Tuple[float, ...]
    role: str = "link"

    def __post_init__(self) -> None:
        if not (len(self.xs) == len(self.ys) == len(self.conductances)):
            raise ConfigurationError(
                f"{type(self).kind} op: mismatched point/conductance counts "
                f"({len(self.xs)}/{len(self.ys)}/{len(self.conductances)})"
            )


@dataclass(frozen=True)
class TSVOp(ConnectAtPointsOp):
    """A TSV array interface (F2B single, B2B series, RDL-split halves)."""

    kind: ClassVar[str] = "tsv"
    role: str = "tsv"


@dataclass(frozen=True)
class WirebondOp(ConnectAtPointsOp):
    """Backside bond-wire groups from the package to the top die."""

    kind: ClassVar[str] = "wirebond"
    role: str = "wirebond"


@dataclass(frozen=True)
class SupplyOp(PlanOp):
    """Links from layer nodes to the ideal package supply."""

    kind: ClassVar[str] = "supply"

    key: str
    xs: Tuple[float, ...]
    ys: Tuple[float, ...]
    conductances: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.xs) == len(self.ys) == len(self.conductances)):
            raise ConfigurationError(
                f"supply op: mismatched point/conductance counts "
                f"({len(self.xs)}/{len(self.ys)}/{len(self.conductances)})"
            )


AnyOp = Union[
    AddLayerOp,
    AddRDLOp,
    ConnectUniformOp,
    ConnectAtPointsOp,
    TSVOp,
    WirebondOp,
    SupplyOp,
]

#: kind -> op class, for deserialization.  Order matters only for docs.
OP_TYPES: Dict[str, Type[PlanOp]] = {
    cls.kind: cls
    for cls in (
        AddLayerOp,
        AddRDLOp,
        ConnectUniformOp,
        ConnectAtPointsOp,
        TSVOp,
        WirebondOp,
        SupplyOp,
    )
}


def _tuple_of_floats(value: Any, where: str) -> Tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigurationError(f"{where}: expected a list, got {type(value).__name__}")
    return tuple(float(v) for v in value)


def op_from_dict(data: Mapping[str, Any]) -> PlanOp:
    """Reconstruct one op from its JSON mapping."""
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in OP_TYPES:
        raise ConfigurationError(
            f"unknown plan op kind {kind!r}; known: {sorted(OP_TYPES)}"
        )
    cls = OP_TYPES[kind]
    kwargs: Dict[str, Any] = {}
    field_names = {f.name for f in fields(cls)}
    for name in field_names:
        if name not in data:
            raise ConfigurationError(f"plan op {kind!r} missing field {name!r}")
        value = data[name]
        if name == "grid":
            if not isinstance(value, Mapping):
                raise ConfigurationError(f"op {kind!r}: grid is not a mapping")
            value = GridSpec(**{k: value[k] for k in ("x0", "y0", "x1", "y1", "nx", "ny")})
        elif name == "origin":
            origin = _tuple_of_floats(value, f"op {kind!r}.origin")
            if len(origin) != 2:
                raise ConfigurationError(f"op {kind!r}: origin needs 2 coordinates")
            value = origin
        elif name in ("xs", "ys", "conductances"):
            value = _tuple_of_floats(value, f"op {kind!r}.{name}")
        kwargs[name] = value
    return cls(**kwargs)


@functools.lru_cache(maxsize=1024)
def _canonical_op_json(op: PlanOp) -> str:
    """One op's canonical JSON fragment, memoized on the frozen op.

    A sweep re-plans the same ops over and over: the TSV, bump and
    supply coordinate lists are ~60% of a plan's JSON and repeat across
    the (M2, M3) points of every (combo, TSV count).  Hashing and
    comparing an op's float tuples is far cheaper than formatting them.
    Equal ops share one fragment; that is exact because plans hold no
    ``-0.0`` (which equals ``0.0`` but prints differently): coordinates
    and conductances are non-negative.
    """
    return json.dumps(op.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class StackPlan:
    """A complete, replayable recipe for one stacked R-mesh.

    ``benchmark`` is the stack-spec name the plan was derived from (part
    of the content hash: same geometry under a different benchmark name
    is a different experiment).  ``ops`` replay strictly in order.
    """

    benchmark: str
    pitch: float
    num_dram_dies: int
    dram_grid: GridSpec
    dram_origin: Tuple[float, float]
    logic_grid: Optional[GridSpec]
    ops: Tuple[AnyOp, ...]

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {**self._header(), "ops": [op.to_dict() for op in self.ops]}

    def _header(self) -> Dict[str, Any]:
        """Every top-level field of :meth:`to_dict` but ``ops``."""
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "benchmark": self.benchmark,
            "pitch": self.pitch,
            "num_dram_dies": self.num_dram_dies,
            "dram_grid": asdict(self.dram_grid),
            "dram_origin": list(self.dram_origin),
            "logic_grid": asdict(self.logic_grid) if self.logic_grid else None,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent) + "\n"

    def canonical_json(self) -> str:
        """Deterministic single-line JSON: the hashing pre-image.

        Byte-identical to ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))``, but each op's fragment comes from
        :func:`_canonical_op_json`'s memo.  The header is encoded with a
        ``null`` placeholder for ``ops``; inside any encoded string a
        quote is escaped, so the first ``"ops":null`` is that key.
        """
        text = json.dumps(
            {**self._header(), "ops": None}, sort_keys=True, separators=(",", ":")
        )
        ops = ",".join(_canonical_op_json(op) for op in self.ops)
        return text.replace('"ops":null', f'"ops":[{ops}]', 1)

    @property
    def plan_hash(self) -> str:
        """Stable 16-hex content address of the canonical plan JSON."""
        cached = self.__dict__.get("_plan_hash")
        if cached is None:
            cached = hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]
            object.__setattr__(self, "_plan_hash", cached)
        return str(cached)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StackPlan":
        validate_plan_dict(data)
        logic = data["logic_grid"]
        return cls(
            benchmark=str(data["benchmark"]),
            pitch=float(data["pitch"]),  # type: ignore[arg-type]
            num_dram_dies=int(data["num_dram_dies"]),  # type: ignore[call-overload]
            dram_grid=GridSpec(**dict(data["dram_grid"])),
            dram_origin=tuple(_tuple_of_floats(data["dram_origin"], "dram_origin")),
            logic_grid=GridSpec(**dict(logic)) if logic is not None else None,
            ops=tuple(op_from_dict(op) for op in data["ops"]),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json(cls, text: str) -> "StackPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"plan is not valid JSON: {exc}")
        if not isinstance(data, Mapping):
            raise ConfigurationError("plan JSON must be an object")
        return cls.from_dict(data)

    # -- inspection -----------------------------------------------------------

    def op_counts(self) -> Dict[str, int]:
        """Op tally by kind (summary/report helper)."""
        counts: Dict[str, int] = {}
        for op in self.ops:
            counts[type(op).kind] = counts.get(type(op).kind, 0) + 1
        return counts

    def num_nodes(self) -> int:
        """Total mesh nodes the plan will assemble."""
        return sum(
            op.grid.nx * op.grid.ny
            for op in self.ops
            if isinstance(op, AddLayerOp)
        )

    def layer_keys(self) -> List[str]:
        return [op.key for op in self.ops if isinstance(op, AddLayerOp)]

    def summary(self) -> Dict[str, Any]:
        """Compact provenance stamp (manifests, reports, CLI)."""
        return {
            "benchmark": self.benchmark,
            "plan_hash": self.plan_hash,
            "pitch": self.pitch,
            "num_dram_dies": self.num_dram_dies,
            "num_ops": len(self.ops),
            "num_nodes": self.num_nodes(),
            "ops": self.op_counts(),
        }

    def diff(self, other: "StackPlan") -> "PlanDiff":
        """Structural diff against another plan (op-sequence aligned)."""
        return PlanDiff.between(self, other)


@dataclass(frozen=True)
class PlanDiff:
    """Ops removed from / added to a plan, sequence-aligned.

    ``unchanged`` counts ops common to both plans in order; ``removed``
    and ``added`` are the sequence edits that turn ``a`` into ``b``.
    A TSV-count sweep shows up here as a handful of changed TSV ops with
    every layer op unchanged -- exactly what the incremental assembler
    exploits.
    """

    a_hash: str
    b_hash: str
    removed: Tuple[AnyOp, ...]
    added: Tuple[AnyOp, ...]
    unchanged: int

    @classmethod
    def between(cls, a: StackPlan, b: StackPlan) -> "PlanDiff":
        matcher = difflib.SequenceMatcher(a=list(a.ops), b=list(b.ops), autojunk=False)
        removed: List[AnyOp] = []
        added: List[AnyOp] = []
        unchanged = 0
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag == "equal":
                unchanged += i2 - i1
            else:
                removed.extend(a.ops[i1:i2])
                added.extend(b.ops[j1:j2])
        return cls(
            a_hash=a.plan_hash,
            b_hash=b.plan_hash,
            removed=tuple(removed),
            added=tuple(added),
            unchanged=unchanged,
        )

    @property
    def identical(self) -> bool:
        return not self.removed and not self.added

    def describe(self) -> str:
        """Multi-line human-readable rendering (CLI ``plan --diff``)."""
        if self.identical:
            return f"plans identical ({self.a_hash})"
        lines = [
            f"plan {self.a_hash} -> {self.b_hash}: "
            f"{self.unchanged} ops unchanged, -{len(self.removed)} +{len(self.added)}"
        ]
        for op in self.removed:
            lines.append(f"  - {_op_brief(op)}")
        for op in self.added:
            lines.append(f"  + {_op_brief(op)}")
        return "\n".join(lines)


def _op_brief(op: PlanOp) -> str:
    """One-line op rendering for diffs and summaries."""
    kind = type(op).kind
    if isinstance(op, AddLayerOp):
        return f"{kind} {op.key} ({op.grid.nx}x{op.grid.ny})"
    if isinstance(op, ConnectUniformOp):
        return (
            f"{kind} {op.key_a} ~ {op.key_b} "
            f"({op.conductance_per_mm2:.4g} S/mm^2, {op.role})"
        )
    if isinstance(op, ConnectAtPointsOp):
        return f"{kind} {op.key_a} -> {op.key_b} ({len(op.xs)} points, {op.role})"
    if isinstance(op, SupplyOp):
        return f"{kind} {op.key} ({len(op.xs)} points)"
    return kind  # pragma: no cover - all concrete kinds handled above


# ---------------------------------------------------------------------------
# Schema validation (hand-rolled, like manifests: no jsonschema dependency)
# ---------------------------------------------------------------------------

#: Required top-level plan fields and their JSON types.
PLAN_SCHEMA: Dict[str, Tuple[type, ...]] = {
    "schema_version": (int,),
    "benchmark": (str,),
    "pitch": (int, float),
    "num_dram_dies": (int,),
    "dram_grid": (dict,),
    "dram_origin": (list,),
    "logic_grid": (dict, type(None)),
    "ops": (list,),
}

_GRID_FIELDS: Dict[str, Tuple[type, ...]] = {
    "x0": (int, float),
    "y0": (int, float),
    "x1": (int, float),
    "y1": (int, float),
    "nx": (int,),
    "ny": (int,),
}


def _check_fields(
    data: Mapping[str, Any],
    schema: Mapping[str, Tuple[type, ...]],
    where: str,
    problems: List[str],
) -> None:
    for key, types in schema.items():
        if key not in data:
            problems.append(f"{where}: missing field {key!r}")
        elif not isinstance(data[key], types) or (
            bool in (type(data[key]),) and bool not in types
        ):
            problems.append(
                f"{where}: field {key!r} has type {type(data[key]).__name__}, "
                f"expected {'/'.join(t.__name__ for t in types)}"
            )


def validate_plan_dict(data: Mapping[str, Any]) -> None:
    """Raise :class:`ConfigurationError` unless ``data`` fits the schema.

    Used by the golden-plan CI check and by :meth:`StackPlan.from_dict`;
    op payloads are validated structurally by :func:`op_from_dict`.
    """
    problems: List[str] = []
    _check_fields(data, PLAN_SCHEMA, "plan", problems)
    if not problems and data["schema_version"] != PLAN_SCHEMA_VERSION:
        problems.append(
            f"schema_version {data['schema_version']} != {PLAN_SCHEMA_VERSION}"
        )
    if not problems:
        _check_fields(dict(data["dram_grid"]), _GRID_FIELDS, "dram_grid", problems)
        if data["logic_grid"] is not None:
            _check_fields(
                dict(data["logic_grid"]), _GRID_FIELDS, "logic_grid", problems
            )
        for i, op in enumerate(data["ops"]):
            if not isinstance(op, Mapping):
                problems.append(f"ops[{i}] is not a mapping")
            elif op.get("kind") not in OP_TYPES:
                problems.append(f"ops[{i}] has unknown kind {op.get('kind')!r}")
    if problems:
        raise ConfigurationError("invalid stack plan: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# Plan observation registry (provenance)
# ---------------------------------------------------------------------------

#: Full plan objects by hash, so the run-history store
#: (:mod:`repro.obs.store`) can persist plan *bodies* content-addressed
#: and later render a real :class:`PlanDiff` between two historical runs
#: instead of only comparing hashes.
_observed_objects: Dict[str, "StackPlan"] = {}

#: Metrics-counter prefix for per-run plan attribution.  A counter is
#: named ``plan.touch.<benchmark>.<hash>``: counters merge across worker
#: processes, so per-experiment deltas name every plan a fanned-out
#: sweep used, label included.
PLAN_TOUCH_PREFIX = "plan.touch."


def record_plan_use(plan: StackPlan) -> None:
    """Note that a build used ``plan`` (plan body + labelled touch counter)."""
    with timed("plan.hash", benchmark=plan.benchmark) as sp:
        plan_hash = sp.attrs["plan"] = plan.plan_hash
    _observed_objects[plan_hash] = plan
    # Local import: obs must stay importable without the pdn package.
    from repro.obs import metrics as _metrics

    _metrics.inc(f"{PLAN_TOUCH_PREFIX}{plan.benchmark}.{plan_hash}")


def observed_plan_objects() -> Dict[str, "StackPlan"]:
    """Every plan this process has built, by hash (full objects)."""
    return dict(_observed_objects)


def plans_from_counters(counters: Mapping[str, Any]) -> Dict[str, str]:
    """Extract ``{plan_hash: benchmark}`` from a metrics counter mapping.

    Used by manifests and the bench runner to attribute a *per-run*
    metric delta to the exact structures it solved.  An unlabelled
    ``plan.touch.<hash>`` counter (older records) maps the hash to
    itself.
    """
    out: Dict[str, str] = {}
    for name in counters:
        if name.startswith(PLAN_TOUCH_PREFIX):
            label, _, plan_hash = name[len(PLAN_TOUCH_PREFIX):].rpartition(".")
            out[plan_hash] = label or plan_hash
    return out


def _validate_plan_files(paths: List[str]) -> int:
    """Validate committed plan JSON files; the CI golden-plan check.

    Each file must parse, fit the schema, and round-trip to the same
    hash.  When a sibling ``plan_hashes.json`` registry exists, the
    recomputed hash must also match the registered one for the file's
    ``plan_<key>.json`` stem.
    """
    import os

    failures = 0
    for path in paths:
        if os.path.basename(path) == "plan_hashes.json":
            continue  # the hash registry rides along in plan_*.json globs
        try:
            plan = StackPlan.from_json(
                open(path, encoding="utf-8").read()
            )
        except (OSError, ConfigurationError) as exc:
            print(f"FAIL {path}: {exc}")
            failures += 1
            continue
        detail = f"{plan.benchmark} {plan.plan_hash} ({len(plan.ops)} ops)"
        registry_path = os.path.join(
            os.path.dirname(path) or ".", "plan_hashes.json"
        )
        stem = os.path.basename(path)
        if os.path.isfile(registry_path) and stem.startswith("plan_"):
            key = stem[len("plan_"):].rsplit(".", 1)[0]
            registered = json.load(open(registry_path)).get(key)
            if registered is not None and registered != plan.plan_hash:
                print(
                    f"FAIL {path}: hash {plan.plan_hash} != registered "
                    f"{registered}"
                )
                failures += 1
                continue
        print(f"ok   {path}: {detail}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    import sys

    sys.exit(_validate_plan_files(sys.argv[1:]))
