"""IR-drop surrogate model fitted to R-Mesh samples.

The paper: "we choose a few sample cases for M2, M3, and TC, because they
are continuous variables.  For other optimization options, we search all
valid combinations.  After performing R-Mesh simulations on the sample
cases, we use MATLAB regression analysis to obtain an IR-drop model with a
root mean square error (RMSE) of less than 0.135 and an R^2 of larger
than 0.999" (section 6.1).

Here the same structure is reproduced with numpy least squares: one linear
model per discrete option combination, over a physically motivated basis
in the continuous variables.  IR drop decomposes into contributions that
scale like ``1/usage`` (sheet resistance of a strap PDN) and ``1/TC`` and
``1/sqrt(TC)`` (parallel TSVs and cluster-perimeter crowding), so the
basis::

    [1, 1/M2, 1/M3, 1/TC, 1/sqrt(TC), 1/(M3*TC)]

fits each combination's response surface almost exactly.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.designs import BenchmarkSpec
from repro.errors import RegressionError
from repro.pdn.assemble import AssemblySession
from repro.pdn.config import (
    Bonding,
    BumpLocation,
    PDNConfig,
    RDLScope,
    TSVLocation,
)
from repro.pdn.stackup import build_stack
from repro.perf.parallel import map_design_points
from repro.perf.timers import timed
from repro.rmesh.backends import OrderingMemo
from repro.rmesh.solve import StackSolver
from repro.tech.calibration import DEFAULT_TECH, TechConstants

#: SuperLU column ordering of the sampling leg's factorizations.
SAMPLING_ORDERING = "symmetric"

#: Discrete part of a design point (the regression fits one linear model
#: per combo).
DiscreteKey = Tuple[TSVLocation, bool, Bonding, bool, bool]


def discrete_key(config: PDNConfig) -> DiscreteKey:
    """The discrete option tuple a config belongs to (one fit each)."""
    return (
        config.tsv_location,
        config.dedicated_tsv,
        config.bonding,
        config.rdl.enabled,
        config.wire_bond,
    )


def _basis(m2: float, m3: float, tc: int) -> np.ndarray:
    return np.array(
        [
            1.0,
            1.0 / m2,
            1.0 / m3,
            1.0 / tc,
            1.0 / np.sqrt(tc),
            1.0 / (m3 * tc),
        ]
    )


@dataclass(frozen=True)
class DesignSample:
    """One evaluated design point."""

    config: PDNConfig
    ir_mv: float


@dataclass
class RegressionReport:
    """Fit quality over the training samples (paper quotes RMSE and R^2)."""

    rmse_mv: float
    r_squared: float
    num_samples: int
    num_combos: int
    sample_time_s: float
    fit_time_s: float


def valid_discrete_combos(bench: BenchmarkSpec) -> List[DiscreteKey]:
    """All discrete combinations legal for a benchmark.

    Filters the Table 8 footnotes: allowed TSV locations, dedicated-TSV
    availability, and the edge-TSV + center-bump RDL requirement.
    """
    combos: List[DiscreteKey] = []
    bump = bench.stack.forced_bump_location
    for tl, td, bd, rl, wb in itertools.product(
        bench.allowed_tsv_locations,
        (False, True),
        (Bonding.F2B, Bonding.F2F),
        (False, True),
        (False, True),
    ):
        if td and not bench.dedicated_tsv_available:
            continue
        if (
            tl is TSVLocation.EDGE
            and bump is BumpLocation.CENTER
            and not rl
        ):
            continue  # section 6.2: edge TSVs need the RDL here
        combos.append((tl, td, bd, rl, wb))
    return combos


def config_from_parts(
    bench: BenchmarkSpec,
    key: DiscreteKey,
    m2: float,
    m3: float,
    tc: int,
) -> PDNConfig:
    """Assemble a full PDNConfig from a discrete combo + continuous point."""
    tl, td, bd, rl, wb = key
    bump = bench.stack.forced_bump_location or (
        BumpLocation.CENTER if tl is TSVLocation.CENTER else BumpLocation.MATCH
    )
    return PDNConfig(
        m2_usage=m2,
        m3_usage=m3,
        tsv_count=tc,
        tsv_location=tl,
        dedicated_tsv=td,
        bonding=bd,
        rdl=RDLScope.ALL if rl else RDLScope.NONE,
        wire_bond=wb,
        bump_location=bump,
    )


def continuous_sample_grid(
    bench: BenchmarkSpec,
    m2_points: int = 3,
    m3_points: int = 3,
    tc_points: int = 3,
) -> List[Tuple[float, float, int]]:
    """Sample grid over the continuous variables within legal ranges."""
    m2s = np.linspace(0.10, 0.20, m2_points)
    m3s = np.linspace(0.10, 0.40, m3_points)
    lo, hi = bench.tsv_count_range
    if lo == hi:
        tcs: List[int] = [lo]
    else:
        # Geometric spacing: the response is steep at low TSV counts.
        tcs = sorted(
            {int(round(t)) for t in np.geomspace(lo, hi, tc_points)}
        )
    return [
        (float(m2), float(m3), tc)
        for m2 in m2s
        for m3 in m3s
        for tc in tcs
    ]


def _eval_combo_chunk(
    task: Tuple[BenchmarkSpec, TechConstants, Optional[float], DiscreteKey,
                List[Tuple[float, float, int]]],
) -> List[DesignSample]:
    """Evaluate one discrete combo's continuous grid (worker unit).

    Module-level so it pickles into :class:`ProcessPoolExecutor` workers;
    each design point builds, factorizes, and solves its own stack, and
    the task's result depends on nothing but the task, so samples are the
    same bits at any worker count.

    Each point is factorized once, with the ``"symmetric"`` ordering
    (:mod:`repro.rmesh.backends`), by a solver private to this loop: the
    stack comes from :func:`build_stack`, outside the shared caches, and
    the solver is never stored on it, so no verification solve can pick
    it up.  The points share one assembly session and one ordering memo,
    both made here and dropped with the task: the grid's (M2, M3) points
    at one TSV count have one sparsity pattern, so only the first is
    ordered from scratch.
    """
    bench, tech, pitch, key, grid = task
    state = bench.reference_state()
    session = AssemblySession()
    orderings = OrderingMemo()
    out: List[DesignSample] = []
    for m2, m3, tc in grid:
        config = config_from_parts(bench, key, m2, m3, tc)
        stack = build_stack(
            bench.stack, config, tech=tech, pitch=pitch, session=session
        )
        solver = StackSolver(
            stack.model, ordering=SAMPLING_ORDERING, orderings=orderings
        )
        result = stack.solve_state(state, solver=solver)
        out.append(DesignSample(config=config, ir_mv=result.dram_max_mv))
    return out


def sample_design_space(
    bench: BenchmarkSpec,
    tech: TechConstants = DEFAULT_TECH,
    pitch: Optional[float] = None,
    m2_points: int = 3,
    m3_points: int = 3,
    tc_points: int = 3,
    combos: Optional[Sequence[DiscreteKey]] = None,
    workers: Optional[int] = None,
) -> List[DesignSample]:
    """Run R-Mesh solves over the sampled design space of one benchmark.

    ``workers`` fans the combos x grid sweep over processes (``None``/0
    consults ``REPRO_WORKERS``; 1 runs serially).  The sample order --
    combo-major, grid-minor -- and every IR value are identical whatever
    the worker count.
    """
    grid = continuous_sample_grid(bench, m2_points, m3_points, tc_points)
    keys = list(combos) if combos is not None else valid_discrete_combos(bench)
    tasks = [(bench, tech, pitch, key, grid) for key in keys]
    with timed("regress.sample"):
        chunks = map_design_points(_eval_combo_chunk, tasks, workers=workers)
    return [sample for chunk in chunks for sample in chunk]


class IRDropSurrogate:
    """Piecewise-linear-in-basis IR-drop model, one fit per discrete combo."""

    def __init__(self) -> None:
        self._coeffs: Dict[DiscreteKey, np.ndarray] = {}
        self.report: Optional[RegressionReport] = None

    def fit(self, samples: Sequence[DesignSample], sample_time_s: float = 0.0) -> RegressionReport:
        """Least-squares fit; returns (and stores) the quality report."""
        if not samples:
            raise RegressionError("no samples to fit")
        t0 = time.perf_counter()
        by_combo: Dict[DiscreteKey, List[DesignSample]] = {}
        for s in samples:
            by_combo.setdefault(discrete_key(s.config), []).append(s)
        residuals: List[float] = []
        values: List[float] = []
        for key, group in by_combo.items():
            a = np.array(
                [
                    _basis(s.config.m2_usage, s.config.m3_usage, s.config.tsv_count)
                    for s in group
                ]
            )
            y = np.array([s.ir_mv for s in group])
            # With fewer samples than basis terms (e.g. Wide I/O's pinned
            # TSV count) lstsq returns the minimum-norm exact fit.
            coeffs, *_ = np.linalg.lstsq(a, y, rcond=None)
            self._coeffs[key] = coeffs
            pred = a @ coeffs
            residuals.extend((pred - y).tolist())
            values.extend(y.tolist())
        res = np.array(residuals)
        y_all = np.array(values)
        ss_res = float(np.sum(res**2))
        ss_tot = float(np.sum((y_all - y_all.mean()) ** 2))
        self.report = RegressionReport(
            rmse_mv=float(np.sqrt(ss_res / len(res))),
            r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
            num_samples=len(samples),
            num_combos=len(by_combo),
            sample_time_s=sample_time_s,
            fit_time_s=time.perf_counter() - t0,
        )
        return self.report

    def predict(self, config: PDNConfig) -> float:
        """Predicted max IR drop (mV) for a configuration."""
        key = discrete_key(config)
        if key not in self._coeffs:
            raise RegressionError(
                f"no fit for discrete combo {key}; refit with it included"
            )
        return float(
            _basis(config.m2_usage, config.m3_usage, config.tsv_count)
            @ self._coeffs[key]
        )

    def predict_parts(
        self, key: DiscreteKey, m2: float, m3: float, tc: int
    ) -> float:
        """Predict from raw parts (optimizer hot path, no PDNConfig)."""
        if key not in self._coeffs:
            raise RegressionError(f"no fit for discrete combo {key}")
        return float(_basis(m2, m3, tc) @ self._coeffs[key])

    @property
    def combos(self) -> List[DiscreteKey]:
        return list(self._coeffs)
