"""Sparse DC solve of an assembled stack and IR-drop extraction.

The solver factorizes the conductance matrix once (SuperLU, through
:func:`repro.rmesh.backends.make_operator`) and reuses that
factorization across memory states: a new state only changes the
current right-hand side.  This is what makes building the controller's
IR-drop look-up table (section 5.2) cheap -- one factorization, dozens
of back-substitutions.

Observability: setup and every solve run inside trace spans
(``solver.factorize`` / ``solver.solve`` / ``solver.solve_many``); the
metrics registry counts factorizations and solved right-hand sides,
histograms the RHS batch sizes, and gauges the solve's relative
residual norm ``||Gx - b|| / ||b||`` as a numerical health check.  The
residual gauge costs a full sparse matvec, so it is *sampled* (every
:data:`RESIDUAL_SAMPLE_EVERY`-th solve per solver; override with
``REPRO_RESIDUAL_EVERY``, ``1`` restores always-on) -- the LUT-build hot
loop no longer pays O(nnz) per right-hand side.  Residuals are computed
on the already-solved vector, so recorded IR drops are bitwise
unaffected by the sampling rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro import envcfg
from repro.errors import SolverError
from repro.geometry import Point
from repro.obs import metrics as _metrics
from repro.obs.trace import span
from repro.power.powermap import PowerMap
from repro.rmesh.backends import OrderingMemo, PermutedLU, make_operator
from repro.rmesh.stack import StackModel
from repro.units import to_mv

#: Record the residual-norm gauge on every Nth solve per solver (the
#: first solve is always sampled).  ``REPRO_RESIDUAL_EVERY`` overrides.
RESIDUAL_SAMPLE_EVERY = 16

RESIDUAL_ENV = "REPRO_RESIDUAL_EVERY"

#: Columns per SuperLU call in :meth:`StackSolver.solve_block`.  SuperLU's
#: multi-column triangular solves call dense BLAS kernels; blocks of 4 or
#: fewer columns never take OpenBLAS's threaded path, whose threads
#: contend on small machines (on 2 vCPUs a 16-column HMC block took
#: ~110 ms, its four 4-column chunks ~7 ms together).  Chunks of 4 give
#: the same bits as the 16-column block there; chunks of 1-3 do not.
BLOCK_CHUNK_COLUMNS = 4


def _residual_every() -> int:
    return envcfg.env_int(RESIDUAL_ENV, RESIDUAL_SAMPLE_EVERY, minimum=1)


@dataclass
class IRDropResult:
    """Node IR drops (volts) plus bookkeeping to slice them per die/layer.

    ``drops`` may be a *view* into a shared solution block (the batched
    :meth:`StackSolver.solve_many` path keeps one Fortran-ordered block
    instead of per-column copies); treat it as read-only, like every
    library path does.
    """

    model: StackModel
    drops: np.ndarray  # per global node, volts
    solve_time: float  # seconds spent in back-substitution

    def max_drop(self) -> float:
        """Worst IR drop anywhere in the stack, volts."""
        return float(self.drops.max())

    def max_drop_mv(self) -> float:
        return to_mv(self.max_drop())

    def die_max_drop(self, die: str) -> float:
        """Worst IR drop on one die, volts."""
        return float(self.drops[self.model.die_node_ids(die)].max())

    def die_max_drop_mv(self, die: str) -> float:
        return to_mv(self.die_max_drop(die))

    def layer_drops(self, key: str) -> np.ndarray:
        """IR drops of one layer reshaped to its grid (ny, nx)."""
        grid = self.model.layer_grid(key)
        return self.drops[self.model.layer_slice(key)].reshape(grid.ny, grid.nx)

    def per_die_max_mv(self) -> Dict[str, float]:
        """Worst drop per die in mV (report helper)."""
        return {die: self.die_max_drop_mv(die) for die in self.model.dies()}

    def ascii_heatmap(
        self,
        key: str,
        levels: str = " .:-=+*#%@",
        vmax: Optional[float] = None,
    ) -> str:
        """Render one layer's IR-drop field as an ASCII heat map.

        Rows print top-down (max y first) so the picture matches a
        top-view layout plot.  By default intensity is normalized to the
        layer's own maximum drop (the historical single-layer behavior);
        pass ``vmax`` (volts) to pin the scale externally -- a stack
        rendering must share one ``vmax`` across its layers or the
        per-layer auto-scale makes cross-layer comparisons mislead (see
        :meth:`ascii_heatmap_stack`).
        """
        field = self.layer_drops(key)
        peak = float(field.max())
        lines = [f"{key}: max {peak * 1e3:.2f} mV"]
        span = float(vmax) if vmax is not None and vmax > 0 else (
            peak if peak > 0 else 1.0
        )
        for row in field[::-1]:
            chars = [
                levels[min(int(v / span * (len(levels) - 1)), len(levels) - 1)]
                for v in row
            ]
            lines.append("".join(chars))
        return "\n".join(lines)

    def ascii_heatmap_stack(
        self,
        keys: Optional[Sequence[str]] = None,
        levels: str = " .:-=+*#%@",
    ) -> str:
        """Render several layers on ONE shared intensity scale.

        The scale is the worst drop across the selected layers (default:
        every layer of the stack), so a dim M3 next to a saturated M1
        means M3 really does carry less drop -- which per-layer
        auto-scaling cannot show.
        """
        keys = list(keys) if keys is not None else self.model.layer_keys
        if not keys:
            return ""
        vmax = max(float(self.layer_drops(key).max()) for key in keys)
        header = f"shared scale: max {vmax * 1e3:.2f} mV across {len(keys)} layers"
        parts = [header]
        parts.extend(
            self.ascii_heatmap(key, levels=levels, vmax=vmax) for key in keys
        )
        return "\n\n".join(parts)

    def worst_node_location(
        self, with_value: bool = False
    ) -> "tuple[str, Point] | tuple[str, Point, float]":
        """(layer key, stack-coordinate point) of the worst-drop node.

        With ``with_value=True`` the worst drop itself (volts) is
        appended: ``(layer key, point, drop)`` -- so callers get the
        where *and* the how-much in one lookup.
        """
        node = int(np.argmax(self.drops))
        for key in self.model.layer_keys:
            sl = self.model.layer_slice(key)
            if sl.start <= node < sl.stop:
                grid = self.model.layer_grid(key)
                i, j = grid.node_index(node - sl.start)
                local = grid.node_point(i, j)
                origin = self.model.layer_origin(key)
                point = Point(local.x + origin.x, local.y + origin.y)
                if with_value:
                    return key, point, float(self.drops[node])
                return key, point
        raise SolverError(f"node {node} not inside any layer")  # pragma: no cover


class StackSolver:
    """Factorize a stack's system once, solve many load configurations.

    ``ordering`` picks the SuperLU column ordering
    (:data:`repro.rmesh.backends.ORDERINGS`) and is recorded on the
    ``solver.factorize`` span; shared solvers keep the default.
    ``orderings`` lends a ``"symmetric"`` solver an
    :class:`~repro.rmesh.backends.OrderingMemo`; the span's
    ``ordering_reused`` attribute says whether it supplied the ordering.
    The span times the matrix assembly too.
    """

    def __init__(
        self,
        model: StackModel,
        ordering: str = "colamd",
        orderings: Optional[OrderingMemo] = None,
    ) -> None:
        self.model = model
        self.ordering = ordering
        with span(
            "solver.factorize", nodes=model.num_nodes, ordering=ordering
        ) as sp:
            matrix = model.conductance_matrix().tocsc()
            self._lu = make_operator(matrix, ordering=ordering, orderings=orderings)
            reused = isinstance(self._lu, PermutedLU)
            sp.attrs["ordering_reused"] = reused
        self.factor_time = sp.duration
        if reused:
            _metrics.inc("solver.orderings_reused")
        # Kept for residual-norm checks; the factors dominate memory.
        self._matrix = matrix
        self._num_nodes = model.num_nodes
        self._solve_count = 0
        _metrics.inc("solver.factorizations")

    def _observe_solution(self, rhs: np.ndarray, drops: np.ndarray) -> None:
        """Record throughput metrics -- and, sampled, the residual gauge.

        Reads the solution only -- never mutates it -- so IR numbers are
        bitwise identical with or without observability output flags.
        The residual norm costs a full sparse matvec, so it is computed
        only on every Nth solve per solver (first solve included); the
        cheap counters are recorded unconditionally.
        """
        k = 1 if rhs.ndim == 1 else rhs.shape[1]
        sampled = self._solve_count % _residual_every() == 0
        self._solve_count += 1
        _metrics.inc("solver.rhs_solved", k)
        _metrics.observe("solver.rhs_batch_size", k)
        if not sampled:
            return
        residual = float(np.linalg.norm(self._matrix @ drops - rhs))
        scale = float(np.linalg.norm(rhs))
        relative = residual / scale if scale > 0.0 else residual
        _metrics.set_gauge("solver.residual_norm", relative)
        _metrics.observe("solver.residual_norm", relative)

    def solve_currents(self, currents: np.ndarray) -> IRDropResult:
        """Solve for node drops given a per-node current vector (A)."""
        if currents.shape != (self._num_nodes,):
            raise SolverError(
                f"current vector has shape {currents.shape}, expected "
                f"({self._num_nodes},)"
            )
        if np.any(currents < -1e-15):
            worst = int(np.argmin(currents))
            raise SolverError(
                "negative load current: loads draw from VDD",
                worst_node=worst,
                worst_current=float(currents[worst]),
            )
        with span("solver.solve") as sp:
            drops = self._lu.solve(currents)
        if not np.all(np.isfinite(drops)):
            raise SolverError(
                "solve produced non-finite drops",
                num_nodes=self._num_nodes,
                worst_node=int(np.argmax(~np.isfinite(drops))),
                nonfinite=int(np.count_nonzero(~np.isfinite(drops))),
            )
        self._observe_solution(currents, drops)
        return IRDropResult(model=self.model, drops=drops, solve_time=sp.duration)

    def solve_block(self, currents_matrix: np.ndarray) -> np.ndarray:
        """Solve ``k`` load configurations; return one Fortran-ordered block.

        ``currents_matrix`` has shape ``(num_nodes, k)``, one current
        vector per column; the result block matches it.  The block goes
        through SuperLU in chunks of :data:`BLOCK_CHUNK_COLUMNS` columns,
        so the result is bitwise equal to solving each chunk on its own.
        Column ``i`` agrees with ``solve_currents(currents_matrix[:, i])``
        to rounding, not bitwise: the multi-column
        kernels sum in another order than the single-column ones.
        This is the memory-lean primitive under :meth:`solve_many`:
        callers that only need the raw drops (LUT builds, batched
        sweeps) can consume the block directly -- one allocation, no
        per-column copies.
        """
        if currents_matrix.ndim != 2 or currents_matrix.shape[0] != self._num_nodes:
            raise SolverError(
                f"currents matrix has shape {currents_matrix.shape}, "
                f"expected ({self._num_nodes}, k)"
            )
        if currents_matrix.shape[1] == 0:
            return np.empty((self._num_nodes, 0), order="F")
        if np.any(currents_matrix < -1e-15):
            worst = int(np.argmin(currents_matrix.min(axis=1)))
            raise SolverError(
                "negative load current: loads draw from VDD",
                worst_node=worst,
            )
        k = currents_matrix.shape[1]
        with span("solver.solve_many", count=k, batch=k) as sp:
            # Each chunk amortizes the sparse traversal over its columns.
            rhs = np.asfortranarray(currents_matrix)
            block = np.empty(rhs.shape, order="F")
            for first in range(0, k, BLOCK_CHUNK_COLUMNS):
                chunk = slice(first, first + BLOCK_CHUNK_COLUMNS)
                block[:, chunk] = self._lu.solve(rhs[:, chunk])
        if not np.all(np.isfinite(block)):
            raise SolverError(
                "solve produced non-finite drops",
                num_nodes=self._num_nodes,
                batch=k,
                nonfinite=int(np.count_nonzero(~np.isfinite(block))),
            )
        self._observe_solution(currents_matrix, block)
        self._last_block_time = sp.duration
        return block

    def solve_many(self, currents_matrix: np.ndarray) -> List[IRDropResult]:
        """Solve ``k`` load configurations in one back-substitution.

        The whole block goes through the factorization in a single
        :meth:`solve_block` call -- the batched form of the "one
        factorization, dozens of back-substitutions" trick the
        controller LUT build relies on.  Each result's ``drops`` is a
        zero-copy *view* into the shared Fortran-ordered block (columns
        of an F-ordered array are contiguous), so a large LUT batch no
        longer doubles peak RSS by materializing per-column copies.
        Column ``i`` of the result agrees with
        ``solve_currents(currents_matrix[:, i])`` to rounding, as in
        :meth:`solve_block`.
        """
        block = self.solve_block(currents_matrix)
        if block.shape[1] == 0:
            return []
        per_rhs = self._last_block_time / block.shape[1]
        return [
            IRDropResult(model=self.model, drops=block[:, i], solve_time=per_rhs)
            for i in range(block.shape[1])
        ]

    def currents_from_maps(self, maps: Mapping[str, PowerMap]) -> np.ndarray:
        """Assemble one global current vector from per-layer power maps.

        Each power map must be rasterized on the same grid as its target
        layer; the map's currents are drawn from that layer's nodes.
        """
        currents = np.zeros(self._num_nodes)
        for key, pmap in maps.items():
            sl = self.model.layer_slice(key)
            grid = self.model.layer_grid(key)
            if pmap.grid.nx != grid.nx or pmap.grid.ny != grid.ny:
                raise SolverError(
                    f"power map grid {pmap.grid.nx}x{pmap.grid.ny} does not "
                    f"match layer {key!r} grid {grid.nx}x{grid.ny}"
                )
            currents[sl] += pmap.flat()
        return currents

    def solve_power_maps(self, maps: Mapping[str, PowerMap]) -> IRDropResult:
        """Solve with loads given as power maps keyed by layer key."""
        return self.solve_currents(self.currents_from_maps(maps))
