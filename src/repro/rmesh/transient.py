"""Transient (RC) power-integrity extension.

The paper analyzes DC IR drop and notes that decoupling capacitance is
the lever for *AC* integrity (section 4.1: bond wires "can directly
connect to large off-chip decoupling capacitors, which provide better AC
power integrity"; its reference [5] adds local decaps per sub-bank).
This module extends the R-Mesh into the time domain so those claims can
be exercised:

* on-die decoupling capacitance is distributed over each DRAM die's
  device layer, plus a bulk package capacitor behind the supply plane;
* the network becomes G v + C dv/dt = i(t), integrated with backward
  Euler: ``(G + C/dt) v_{k+1} = i_{k+1} + (C/dt) v_k``.  The augmented
  matrix is factorized once (:func:`repro.rmesh.backends.make_operator`,
  inside a ``solver.factorize`` span with ``kind="transient"``); each
  time step is then a back-substitution -- the same trick the DC LUT
  uses -- and the step loop runs in a ``transient.simulate`` span;
* stimuli are piecewise-constant memory-state schedules (e.g. a bank
  activation burst), built from :class:`repro.power.MemoryState` or from
  a memory-controller activity trace.

Inductance is not modelled (no package RLC resonance), so results show
RC settling and decap droop suppression, not mid-frequency ringing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import ConfigurationError, SolverError
from repro.obs.trace import span
from repro.pdn.stackup import PDNStack
from repro.power.state import MemoryState
from repro.rmesh.backends import make_operator
from repro.units import to_mv


@dataclass(frozen=True)
class DecapConfig:
    """Decoupling capacitance placement.

    ``die_nf_per_mm2``: on-die decap density spread over every DRAM die's
    device (M1) layer.  ``package_uf``: bulk capacitor at the package
    plane (what the paper's backside bond wires tie the stack to).
    """

    die_nf_per_mm2: float = 0.15
    package_uf: float = 1.0

    def __post_init__(self) -> None:
        if self.die_nf_per_mm2 < 0.0 or self.package_uf < 0.0:
            raise ConfigurationError("capacitances must be >= 0")


@dataclass
class TransientResult:
    """Per-step worst-DRAM drops of a transient run."""

    times_ns: np.ndarray
    dram_max_mv: np.ndarray
    per_die_mv: Dict[str, np.ndarray]
    dt_ns: float
    solve_time_s: float

    @property
    def peak_mv(self) -> float:
        """Worst instantaneous DRAM droop over the whole run."""
        return float(self.dram_max_mv.max())

    @property
    def final_mv(self) -> float:
        """Droop at the last time step (≈ DC when settled)."""
        return float(self.dram_max_mv[-1])

    def settling_time_ns(self, tolerance: float = 0.05) -> float:
        """Time after which the droop stays within ``tolerance`` of the
        final value (rough RC settling metric)."""
        target = self.final_mv
        band = abs(target) * tolerance + 1e-9
        outside = np.abs(self.dram_max_mv - target) > band
        if not outside.any():
            return 0.0
        last_outside = int(np.nonzero(outside)[0][-1])
        if last_outside + 1 >= len(self.times_ns):
            return float(self.times_ns[-1])
        return float(self.times_ns[last_outside + 1])


class TransientSolver:
    """Backward-Euler RC simulation on a built stack."""

    def __init__(
        self,
        stack: PDNStack,
        decap: DecapConfig = DecapConfig(),
        dt_ns: float = 0.5,
    ) -> None:
        if dt_ns <= 0.0:
            raise ConfigurationError("time step must be positive")
        self.stack = stack
        self.decap = decap
        self.dt_ns = dt_ns
        dt_s = dt_ns * 1e-9

        n = stack.model.num_nodes
        cap = np.zeros(n)  # farads per node
        # On-die decap over every DRAM device layer.
        for die in range(stack.spec.num_dram_dies):
            key = stack.load_layer_key(die)
            sl = stack.model.layer_slice(key)
            grid = stack.model.layer_grid(key)
            cell_nf = decap.die_nf_per_mm2 * grid.dx * grid.dy
            cap[sl] += cell_nf * 1e-9
        # Bulk package capacitor at the plane node.
        plane = stack.model.layer_slice("package/plane")
        cap[plane.start] += decap.package_uf * 1e-6
        self.cap = cap

        self._c_over_dt = cap / dt_s
        g = stack.model.conductance_matrix().tocsc()
        c_over_dt = sp.diags(self._c_over_dt).tocsc()
        with span(
            "solver.factorize", nodes=n, kind="transient", ordering="colamd"
        ) as factorize:
            self._lu = make_operator((g + c_over_dt).tocsc())
        self.factor_time = factorize.duration

    # -- stimulus construction --------------------------------------------------

    def schedule_currents(
        self, schedule: Sequence[Tuple[MemoryState, float]]
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Expand a [(state, duration_ns), ...] schedule into per-step
        current vectors.  Durations are rounded to whole time steps (at
        least one step each)."""
        if not schedule:
            raise ConfigurationError("empty transient schedule")
        currents_by_state: Dict[str, np.ndarray] = {}
        steps: List[np.ndarray] = []
        times: List[float] = []
        t = 0.0
        for state, duration_ns in schedule:
            if duration_ns <= 0.0:
                raise ConfigurationError("schedule durations must be positive")
            key = state.label() + repr(state.active)
            if key not in currents_by_state:
                vec = np.zeros(self.stack.model.num_nodes)
                for lk, pmap in self.stack.power_maps(state).items():
                    vec[self.stack.model.layer_slice(lk)] += pmap.flat()
                currents_by_state[key] = vec
            n_steps = max(1, int(round(duration_ns / self.dt_ns)))
            for _ in range(n_steps):
                t += self.dt_ns
                times.append(t)
                steps.append(currents_by_state[key])
        return np.array(times), steps

    # -- integration ---------------------------------------------------------------

    def simulate(
        self,
        schedule: Sequence[Tuple[MemoryState, float]],
        v0: Optional[np.ndarray] = None,
    ) -> TransientResult:
        """Integrate the RC network over a memory-state schedule.

        ``v0`` is the initial drop vector (defaults to all-zero: a fully
        charged, quiescent network).
        """
        times, steps = self.schedule_currents(schedule)
        n = self.stack.model.num_nodes
        v = np.zeros(n) if v0 is None else v0.astype(float).copy()
        if v.shape != (n,):
            raise SolverError(f"v0 has shape {v.shape}, expected ({n},)")

        die_ids = {
            name: self.stack.model.die_node_ids(name)
            for name in self.stack.dram_die_names
        }
        dram_max = np.empty(len(steps))
        per_die = {name: np.empty(len(steps)) for name in die_ids}

        with span("transient.simulate", steps=len(steps)) as loop:
            for k, i_vec in enumerate(steps):
                rhs = i_vec + self._c_over_dt * v
                v = self._lu.solve(rhs)
                for name, ids in die_ids.items():
                    per_die[name][k] = to_mv(float(v[ids].max()))
                dram_max[k] = max(per_die[name][k] for name in die_ids)

        return TransientResult(
            times_ns=times,
            dram_max_mv=dram_max,
            per_die_mv=per_die,
            dt_ns=self.dt_ns,
            solve_time_s=loop.duration,
        )

    def step_response(
        self, state: MemoryState, duration_ns: float = 200.0
    ) -> TransientResult:
        """Convenience: quiescent network hit by a sustained memory state."""
        return self.simulate([(state, duration_ns)])
