"""Figure 5: TSV count and C4 alignment impact.

"Using more TSVs reduces IR drop, but the reduction saturates with many
TSVs.  By carefully placing TSVs near C4 bumps on the logic die and
reducing average C4-to-TSV distance, IR drop reduces by as much as 51.5%
in on-chip stacked DDR3 while logic IR drop merely increases by 0.2%.
More TSVs do not always guarantee a lower IR drop because of TSV
misalignment, especially when the TSV count is small.  For on-chip
designs, increasing the TSV count leads to larger coupling from T2."

The sweep uses uniformly distributed TSVs (the paper's uniform-pitch
assumption) with the misaligned vs aligned C4 model of repro.pdn.tsv.
"""

from __future__ import annotations

from repro.designs import off_chip_ddr3, on_chip_ddr3
from repro.experiments.base import ExperimentResult, Row, register
from repro.pdn.config import TSVLocation
from repro.pdn.tsv import distributed_tsv_points, mean_alignment_distance
from repro.perf.cache import cached_build_stack
from repro.tech.calibration import DEFAULT_TECH


@register("fig5")
def run(fast: bool = True) -> ExperimentResult:
    """Sweep TSV count and C4 alignment (Figure 5)."""
    counts = (15, 60, 240) if fast else (15, 33, 60, 120, 240, 480)
    off = off_chip_ddr3()
    on = on_chip_ddr3()
    state = off.reference_state()
    outline = off.stack.dram_floorplan.outline

    rows = []
    best_alignment_gain = 0.0
    for count in counts:
        values = {}
        for bench, tag in ((off, "off"), (on, "on")):
            config = bench.baseline.with_options(
                tsv_count=count,
                tsv_location=TSVLocation.DISTRIBUTED,
                dedicated_tsv=False,
            )
            for aligned, atag in ((False, "misaligned"), (True, "aligned")):
                stack = cached_build_stack(
                    bench.stack,
                    config.with_options(tsv_aligned=aligned),
                    tech=DEFAULT_TECH,
                )
                res = stack.solve_state(state)
                values[f"{tag}_{atag}_mv"] = res.dram_max_mv
                if tag == "on" and aligned:
                    values["logic_mv"] = res.logic_max_mv
            gain = 1.0 - values[f"{tag}_aligned_mv"] / values[f"{tag}_misaligned_mv"]
            if tag == "on":
                best_alignment_gain = max(best_alignment_gain, gain * 100.0)
        points = distributed_tsv_points(outline, count)
        values["mean_c4_dist_mm"] = mean_alignment_distance(
            points, outline, DEFAULT_TECH.c4.pitch
        )
        rows.append(Row(label=f"TC={count}", model=values))

    rows.append(
        Row(
            label="max alignment gain (on-chip)",
            paper={"reduction_pct": 51.5},
            model={"reduction_pct": best_alignment_gain},
        )
    )
    return ExperimentResult(
        experiment_id="fig5",
        title="TSV count and C4 alignment (Figure 5)",
        rows=rows,
        notes=[
            "paper reports curve shapes: reduction saturates with count; "
            "alignment matters most at small counts",
        ],
    )
