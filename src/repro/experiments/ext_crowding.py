"""Extension experiment: TSV current crowding across design options.

Not a paper table -- the paper cites current crowding qualitatively
(section 3.2, reference [6]); this driver quantifies it as a view over
``repro3d explain``: each design point is diagnosed, and the op rows of
the die interface feeding the active top die (plus their per-link
currents) give the per-TSV current distribution.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.designs import off_chip_ddr3
from repro.errors import SolverError
from repro.experiments.base import ExperimentResult, Row, register
from repro.pdn import Bonding, BumpLocation, TSVLocation, build_stack
from repro.pdn.diagnose import DesignDiagnosis, diagnose_result
from repro.power import MemoryState


def interface_rows(
    diag: DesignDiagnosis, key_a: str, key_b: str
) -> List[Dict[str, object]]:
    """The op rows of every connect op joining two layers (either way)."""
    pair = {key_a, key_b}
    rows = [
        row
        for row in diag.ops
        if {
            getattr(diag.plan.ops[row["index"]], "key_a", None),
            getattr(diag.plan.ops[row["index"]], "key_b", None),
        }
        == pair
    ]
    if not rows:
        raise SolverError(f"no plan op links {key_a} and {key_b}")
    return rows


def crowding_factor(rows: Sequence[Mapping[str, object]]) -> float:
    """Worst branch current over the uniform share (total / count) across
    op rows; 1.0 means perfectly balanced links."""
    total = sum(float(row["total_current_a"]) for row in rows)
    if total <= 0.0:
        return 1.0
    count = sum(int(row["branches"]) for row in rows)
    return max(float(row["max_current_a"]) for row in rows) / (total / count)


def gini(magnitudes: np.ndarray) -> float:
    """Gini coefficient of a current distribution (0 = uniform)."""
    if float(np.sum(magnitudes)) <= 0.0:
        return 0.0
    cum = np.cumsum(np.sort(magnitudes))
    n = cum.size
    return float((n + 1 - 2 * np.sum(cum) / cum[-1]) / n)


@register("ext_crowding")
def run(fast: bool = True) -> ExperimentResult:
    """Quantify per-TSV current crowding (extension)."""
    bench = off_chip_ddr3()
    state = MemoryState.from_string("0-0-0-2", bench.stack.dram_floorplan)
    options = {
        "edge TSVs (baseline)": bench.baseline,
        "edge TSVs, 240x": bench.baseline.with_options(tsv_count=240),
        "center cluster": bench.baseline.with_options(
            tsv_location=TSVLocation.CENTER, bump_location=BumpLocation.CENTER
        ),
        "F2F pairs": bench.baseline.with_options(bonding=Bonding.F2F),
    }
    rows = []
    for label, config in options.items():
        stack = build_stack(bench.stack, config)
        result = stack.solve_state(state)
        currents = stack.solver.currents_from_maps(stack.power_maps(state))
        diag = diagnose_result(
            result.raw, currents, stack.plan, stack.assembled.op_spans
        )
        # The interface feeding the active top die is the stressed one.
        links = interface_rows(diag, "dram3/M3", "dram4/M3")
        magnitudes = np.abs(
            np.concatenate([diag.op_currents(row["index"]) for row in links])
        )
        supply = [row for row in diag.ops if row["kind"] == "supply"]
        rows.append(
            Row(
                label=label,
                model={
                    "links": sum(int(row["branches"]) for row in links),
                    "worst_link_ma": max(
                        float(row["max_current_a"]) for row in links
                    )
                    * 1e3,
                    "crowding_factor": crowding_factor(links),
                    "gini": gini(magnitudes),
                    "supply_crowding": crowding_factor(supply),
                    "ir_mv": result.dram_max_mv,
                },
            )
        )
    return ExperimentResult(
        experiment_id="ext_crowding",
        title="TSV current crowding across design options (extension)",
        rows=rows,
        notes=[
            "crowding factor = worst link current / uniform share; the "
            "F2F interface replaces discrete TSVs with dense bond vias, "
            "spreading the same current over far more links",
        ],
    )
