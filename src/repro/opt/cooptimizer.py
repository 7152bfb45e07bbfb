"""IR-drop / cost co-optimization (paper section 6).

The objective is

    IR-cost = IR-drop^alpha * Cost^(1-alpha),      alpha in [0, 1]   (Eq. 1)

"With alpha=0, we found the lowest cost solution, while alpha=1, the
lowest IR-drop solution" and alpha=0.3 gives the paper's preferred
tradeoff.

Strategy (mirroring the paper): the discrete options are enumerated
exhaustively; within each discrete combination the continuous variables
(M2 and M3 usage, TSV count) are optimized over the fast regression
surrogate (scipy L-BFGS-B from a coarse-grid start).  The winning
configuration is then *verified* with a full R-Mesh solve -- Table 9's
paired "Matlab" vs "R-Mesh" columns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize as spopt

from repro.cost import config_cost
from repro.designs import BenchmarkSpec
from repro.errors import OptimizationError
from repro.pdn.config import PDNConfig
from repro.pdn.stackup import build_stack
from repro.perf.cache import assembly_session, cached_build_stack
from repro.regress.model import (
    DiscreteKey,
    IRDropSurrogate,
    config_from_parts,
    sample_design_space,
    valid_discrete_combos,
)
from repro.tech.calibration import DEFAULT_TECH, TechConstants


def ir_cost(ir_mv: float, cost: float, alpha: float) -> float:
    """Equation (1): IR-cost = IR^alpha * Cost^(1-alpha)."""
    if not 0.0 <= alpha <= 1.0:
        raise OptimizationError(f"alpha must be in [0, 1], got {alpha}")
    if ir_mv <= 0.0 or cost <= 0.0:
        raise OptimizationError("IR drop and cost must be positive")
    return ir_mv**alpha * cost ** (1.0 - alpha)


@dataclass
class OptimizationResult:
    """Best design point for one alpha."""

    alpha: float
    config: PDNConfig
    predicted_ir_mv: float  # from the regression surrogate ("Matlab" column)
    verified_ir_mv: float  # from a full R-Mesh solve ("R-Mesh" column)
    cost: float
    objective: float

    def table9_row(self) -> str:
        """Format like a Table 9 row."""
        c = self.config
        return (
            f"{self.alpha:>4.1f} | M2 {c.m2_usage:4.0%} | M3 {c.m3_usage:4.0%} | "
            f"TC {c.tsv_count:3d} | TL {c.tsv_location.value} | "
            f"TD {'Y' if c.dedicated_tsv else 'N'} | {c.bonding.value} | "
            f"RL {'Y' if c.rdl.enabled else 'N'} | "
            f"WB {'Y' if c.wire_bond else 'N'} | "
            f"IR {self.predicted_ir_mv:7.2f} / {self.verified_ir_mv:7.2f} mV | "
            f"cost {self.cost:5.3f}"
        )


class CoOptimizer:
    """Co-optimize one benchmark's design space."""

    def __init__(
        self,
        bench: BenchmarkSpec,
        tech: TechConstants = DEFAULT_TECH,
        pitch: Optional[float] = None,
        surrogate: Optional[IRDropSurrogate] = None,
        tc_points: int = 3,
        workers: Optional[int] = None,
    ) -> None:
        self.bench = bench
        self.tech = tech
        self.pitch = pitch
        if surrogate is None:
            t0 = time.perf_counter()
            samples = sample_design_space(
                bench, tech=tech, pitch=pitch, tc_points=tc_points,
                workers=workers,
            )
            elapsed = time.perf_counter() - t0
            surrogate = IRDropSurrogate()
            surrogate.fit(samples, sample_time_s=elapsed)
        self.surrogate = surrogate
        #: verified worst DRAM drop per config this optimizer solved.
        self._verified: Dict[PDNConfig, float] = {}

    def _verify(self, config: PDNConfig) -> float:
        """Full R-Mesh worst DRAM drop of one config in the benchmark's
        reference state, solved once.

        Alpha sweeps often converge on the same winning config, so the
        drop is memoized per optimizer.  The stack is built outside the
        process-global stack cache: no other caller asks for a verified
        pick, so a cached entry would only hold its factorization.
        """
        if config not in self._verified:
            stack = build_stack(
                self.bench.stack,
                config,
                tech=self.tech,
                pitch=self.pitch,
                session=assembly_session(),
            )
            state = self.bench.reference_state()
            self._verified[config] = stack.solve_state(state).dram_max_mv
        return self._verified[config]

    # -- inner continuous optimization ---------------------------------------

    def _optimize_continuous(
        self, key: DiscreteKey, alpha: float
    ) -> Tuple[float, float, int, float]:
        """Best (m2, m3, tc, objective) within one discrete combo."""
        lo_tc, hi_tc = self.bench.tsv_count_range

        def objective(x: np.ndarray) -> float:
            m2, m3, tc = x[0], x[1], x[2]
            ir = max(self.surrogate.predict_parts(key, m2, m3, int(round(tc))), 1e-3)
            cfg = config_from_parts(self.bench, key, m2, m3, int(round(tc)))
            cost = config_cost(cfg, self.bench.package_cost).total
            return ir_cost(ir, cost, alpha)

        # Coarse grid start, then local polish.
        best: Optional[Tuple[float, np.ndarray]] = None
        tc_candidates = (
            [lo_tc]
            if lo_tc == hi_tc
            else sorted({int(round(t)) for t in np.geomspace(lo_tc, hi_tc, 5)})
        )
        for m2 in (0.10, 0.15, 0.20):
            for m3 in (0.10, 0.25, 0.40):
                for tc in tc_candidates:
                    x = np.array([m2, m3, float(tc)])
                    val = objective(x)
                    if best is None or val < best[0]:
                        best = (val, x)
        assert best is not None
        result = spopt.minimize(
            objective,
            best[1],
            method="L-BFGS-B",
            bounds=[(0.10, 0.20), (0.10, 0.40), (float(lo_tc), float(hi_tc))],
        )
        x = result.x if result.fun < best[0] else best[1]
        val = min(float(result.fun), best[0])
        return float(x[0]), float(x[1]), int(round(x[2])), val

    # -- public API ---------------------------------------------------------------

    def optimize(self, alpha: float, verify: bool = True) -> OptimizationResult:
        """Best design point for one alpha over all discrete combos."""
        best: Optional[Tuple[float, DiscreteKey, float, float, int]] = None
        for key in valid_discrete_combos(self.bench):
            if key not in self.surrogate.combos:
                continue
            m2, m3, tc, val = self._optimize_continuous(key, alpha)
            if best is None or val < best[0]:
                best = (val, key, m2, m3, tc)
        if best is None:
            raise OptimizationError(
                f"{self.bench.key}: no feasible discrete combination"
            )
        val, key, m2, m3, tc = best
        config = config_from_parts(self.bench, key, m2, m3, tc)
        predicted = self.surrogate.predict(config)
        cost = config_cost(config, self.bench.package_cost).total
        verified = predicted
        if verify:
            verified = self._verify(config)
        return OptimizationResult(
            alpha=alpha,
            config=config,
            predicted_ir_mv=predicted,
            verified_ir_mv=verified,
            cost=cost,
            objective=val,
        )

    def baseline_result(self) -> OptimizationResult:
        """The benchmark's industry baseline evaluated the same way."""
        config = self.bench.baseline
        # Other experiments solve the baseline too (fig9, table2, table5,
        # table6): it goes through the stack cache, where they share it.
        stack = cached_build_stack(
            self.bench.stack, config, tech=self.tech, pitch=self.pitch
        )
        ir = stack.solve_state(self.bench.reference_state()).dram_max_mv
        cost = config_cost(config, self.bench.package_cost).total
        return OptimizationResult(
            alpha=float("nan"),
            config=config,
            predicted_ir_mv=ir,
            verified_ir_mv=ir,
            cost=cost,
            objective=float("nan"),
        )

    def alpha_sweep(
        self, alphas: Sequence[float] = (0.0, 0.3, 1.0), verify: bool = True
    ) -> List[OptimizationResult]:
        """Table 9: best solutions across the alpha range."""
        return [self.optimize(alpha, verify=verify) for alpha in alphas]

    def brute_force_size(self, m2_steps: int = 11, m3_steps: int = 31, tc_steps: int = 466) -> int:
        """Number of full R-Mesh solves an exhaustive search would take
        (the paper projects 4637 hours on a 4-core machine for this)."""
        lo, hi = self.bench.tsv_count_range
        tc = 1 if lo == hi else min(tc_steps, hi - lo + 1)
        return len(valid_discrete_combos(self.bench)) * m2_steps * m3_steps * tc
