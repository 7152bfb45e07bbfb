"""PDN configuration and the 3D stack build pipeline.

:class:`PDNConfig` holds the design/packaging knobs of the paper's
co-optimization space (Table 8).  Stack construction is a three-stage
pipeline: :func:`plan_stack` turns a benchmark's physical description
plus a configuration into a declarative :class:`StackPlan`
(:mod:`repro.pdn.plan`), :func:`assemble` replays the plan into a
solvable :class:`repro.rmesh.StackModel` (:mod:`repro.pdn.assemble`),
and :func:`build_stack` composes the two.
"""

from repro.pdn.assemble import (
    AssembledStack,
    AssemblySession,
    OpArtifactSpan,
    assemble,
)
from repro.pdn.diagnose import (
    DesignDiagnosis,
    attribution_snapshot,
    diagnose_result,
    diagnose_stack,
    validate_explain_dict,
)
from repro.pdn.config import (
    Bonding,
    BumpLocation,
    Mounting,
    PDNConfig,
    RDLScope,
    TSVLocation,
)
from repro.pdn.plan import StackPlan, record_plan_use
from repro.pdn.stackup import (
    PDNStack,
    StackSpec,
    build_stack,
    plan_single_die_stack,
    plan_stack,
)

__all__ = [
    "PDNConfig",
    "TSVLocation",
    "Bonding",
    "RDLScope",
    "BumpLocation",
    "Mounting",
    "StackSpec",
    "StackPlan",
    "PDNStack",
    "AssembledStack",
    "AssemblySession",
    "OpArtifactSpan",
    "DesignDiagnosis",
    "assemble",
    "attribution_snapshot",
    "diagnose_result",
    "diagnose_stack",
    "validate_explain_dict",
    "build_stack",
    "plan_stack",
    "plan_single_die_stack",
    "record_plan_use",
]
