"""Pluggable solver backends for the stacked R-mesh DC solve.

:class:`~repro.rmesh.solve.StackSolver` historically had exactly one
strategy: one SuperLU factorization per stack, many back-substitutions.
That is the right call at the paper's production mesh resolution (a few
thousand nodes) but it caps how fine a mesh is routinely solvable -- the
reference-grid discretization in :mod:`repro.rmesh.reference` carries an
order of magnitude more resistors and a direct factorization of it is
the dominant cold-path cost.

This module makes the strategy pluggable:

``direct``
    The historical SuperLU path, **bitwise identical** to what
    ``StackSolver`` always produced, and still the default.

``cg``
    Preconditioned conjugate gradient.  The conductance matrix is
    symmetric positive definite (diagonally dominant M-matrix with at
    least one supply link), so CG is applicable with any *symmetric*
    preconditioner:

    * ``jacobi`` -- diagonal scaling.  Free to set up, matrix-free to
      apply; the scalable choice for meshes far beyond the direct
      solver's comfort zone (SRAM-PG-style stress grids).
    * ``factor`` (default) -- a complete SuperLU factorization used as
      the preconditioner.  On its own matrix CG then converges in one
      iteration (it *is* the direct solve, plus a residual check); its
      value is that the factorization of a *neighboring* sweep point is
      an excellent preconditioner for a knob-perturbed matrix -- a TSV
      pitch tweak barely perturbs the spectrum -- which is what the
      warm-start layer (:mod:`repro.pdn.sweep`) exploits: one
      factorization per sweep, a handful of CG iterations per point.

      Note an *incomplete* LU (``scipy.sparse.linalg.spilu``) is **not**
      usable here: ILU factors are nonsymmetric, which silently breaks
      CG's three-term recurrence (observed: stagnation at ~1e-2
      residuals).  A complete factorization of an SPD matrix, applied as
      ``x -> U^-1 L^-1 x``, is its exact SPD inverse up to rounding.

``amg`` is a retired name (the algebraic-multigrid backend was removed):
:func:`resolve_backend` maps it to ``cg`` with a one-time warning, so
``REPRO_SOLVER=amg`` and ``--solver amg`` keep working.

:func:`make_operator` is the one place that factorizes or iterates a
conductance system: the DC :class:`~repro.rmesh.solve.StackSolver` and
the backward-Euler :class:`~repro.rmesh.transient.TransientSolver` both
build their operators through it.

Selection order: explicit argument > ``REPRO_SOLVER`` environment
variable > ``direct``.  Iteration counts, preconditioner reuse, and
setup times are threaded into the obs metrics registry under
``solver.*`` names so bench records attribute wall time to backends.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import envcfg
from repro.errors import ConfigurationError, SolverError
from repro.obs import metrics as _metrics
from repro.obs.log import get_logger
from repro.obs.profile import BoundedSeries
from repro.obs.trace import event, span, spans
from repro.resil import faults as _faults

_log = get_logger("rmesh.backends")

#: Environment variable selecting the process-default backend.
SOLVER_ENV = "REPRO_SOLVER"

#: Environment knobs for the iterative path.
CG_RTOL_ENV = "REPRO_CG_RTOL"
CG_MAXITER_ENV = "REPRO_CG_MAXITER"
CG_PRECOND_ENV = "REPRO_CG_PRECOND"

#: Known backend names, resolution-order independent.
BACKENDS = ("direct", "cg")

#: Retired backend names still accepted, mapped to their replacement.
RETIRED_BACKENDS = {"amg": "cg"}

#: Known preconditioner kinds for the cg backend.
PRECONDITIONERS = ("factor", "jacobi")

DEFAULT_BACKEND = "direct"
DEFAULT_CG_RTOL = 1e-10
DEFAULT_CG_PRECOND = "factor"

#: Environment switch for per-iteration convergence tracing ("0" disables).
CONVERGENCE_TRACE_ENV = "REPRO_CONVERGENCE_TRACE"

#: Trace every Nth solve per operator (the first is always traced).
TRACE_EVERY_ENV = "REPRO_TRACE_EVERY"
DEFAULT_TRACE_EVERY = 8

#: Max stored residual points per trace (stride-doubling decimation).
TRACE_POINT_CAP = 64

#: Within a traced solve, residuals are computed at power-of-two
#: iterations plus every RECORD_EVERY-th (each costs one matvec); the
#: exact final point is pinned after the solve returns.
RECORD_EVERY = 64

#: Most convergence traces :func:`traces` returns.
MAX_TRACES = 512

#: Name of the span event carrying one traced solve's residual curve.
CONVERGENCE_SPAN = "solver.convergence"

_retired_warned: Set[str] = set()


# ---------------------------------------------------------------------------
# Convergence traces (per-iteration residual histories)
# ---------------------------------------------------------------------------


@dataclass
class ResidualTrace:
    """One iterative solve's residual history, bounded and serializable.

    ``points`` is a ``[iteration, relative residual]`` curve including
    the initial residual at iteration 0, downsampled to at most
    :data:`TRACE_POINT_CAP` points with endpoints preserved
    (:class:`repro.obs.profile.BoundedSeries`); ``stride`` reports the
    decimation level so readers know the interior sampling density.  A
    stalled preconditioner shows up as a flat curve here instead of
    having to be inferred from an iteration count.
    """

    backend: str
    preconditioner: str
    nodes: int
    rtol: float
    warm_start: bool
    iterations: int
    converged: bool
    final_residual: float
    points: List[List[float]] = field(default_factory=list)
    stride: int = 1

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ResidualTrace":
        return cls(**data)


def trace_enabled() -> bool:
    """Whether iterative solves record residual histories (default on)."""
    return os.environ.get(CONVERGENCE_TRACE_ENV, "1") not in ("", "0")


def trace_every() -> int:
    """Sampling period: one traced solve per this many (min 1)."""
    return envcfg.env_int(TRACE_EVERY_ENV, DEFAULT_TRACE_EVERY, minimum=1)


def traces(since: int = 0) -> List[ResidualTrace]:
    """Convergence traces recorded from span index ``since`` on.

    A traced solve records its curve as a ``solver.convergence`` event
    in the span buffer (:mod:`repro.obs.trace`), so worker traces reach
    the parent with the worker's spans.  At most the first
    :data:`MAX_TRACES` are returned.
    """
    found = (
        ResidualTrace.from_dict(dict(rec.attrs))
        for rec in spans(since)
        if rec.name == CONVERGENCE_SPAN
    )
    return list(itertools.islice(found, MAX_TRACES))


def resolve_backend(choice: Optional[str] = None) -> str:
    """Resolve a backend name: argument > ``REPRO_SOLVER`` > direct."""
    name = choice or os.environ.get(SOLVER_ENV) or DEFAULT_BACKEND
    name = name.strip().lower()
    if name in RETIRED_BACKENDS:
        target = RETIRED_BACKENDS[name]
        if name not in _retired_warned:
            _retired_warned.add(name)
            _log.warning("solver backend %r is retired; using %r", name, target)
        name = target
    if name not in BACKENDS:
        raise ConfigurationError(
            f"unknown solver backend {name!r}; known: {list(BACKENDS)} "
            f"(set via argument or {SOLVER_ENV})"
        )
    return name


def _cg_rtol() -> float:
    # Env knobs warn-and-default (repro.envcfg): a typo'd tolerance must
    # not throw away a half-finished sweep.
    return envcfg.env_float(CG_RTOL_ENV, DEFAULT_CG_RTOL, minimum=0.0)


def _cg_precond() -> str:
    return envcfg.env_choice(
        CG_PRECOND_ENV, DEFAULT_CG_PRECOND, PRECONDITIONERS
    )


def _cg_maxiter(num_nodes: int) -> int:
    # Jacobi-CG on these meshes needs a few hundred iterations; leave
    # ample headroom before declaring divergence.
    fallback = max(10 * num_nodes, 2000)
    return envcfg.env_int(CG_MAXITER_ENV, fallback, minimum=1)


# ---------------------------------------------------------------------------
# Preconditioners (the warm-start reuse unit)
# ---------------------------------------------------------------------------


class Preconditioner:
    """A symmetric preconditioner: ``kind``, shape, and an apply operator."""

    kind: str = "none"

    def __init__(self, shape) -> None:
        self.shape = shape

    def operator(self) -> spla.LinearOperator:  # pragma: no cover - abstract
        raise NotImplementedError

    def compatible_with(self, matrix: sp.spmatrix) -> bool:
        """Whether this preconditioner can serve ``matrix`` (shape match).

        Sweep neighbors keep the node numbering (knob-only plan diffs),
        so a shape match is exactly the reuse precondition the warm-start
        layer checks before handing a previous point's preconditioner in.
        """
        return tuple(self.shape) == tuple(matrix.shape)


class JacobiPreconditioner(Preconditioner):
    """Diagonal scaling: free setup, matrix-free apply."""

    kind = "jacobi"

    def __init__(self, matrix: sp.spmatrix) -> None:
        super().__init__(matrix.shape)
        diag = matrix.diagonal()
        if np.any(diag <= 0.0):
            raise SolverError(
                "conductance matrix has non-positive diagonal entries",
                bad=int(np.count_nonzero(diag <= 0.0)),
            )
        self._inv_diag = 1.0 / diag

    def operator(self) -> spla.LinearOperator:
        inv = self._inv_diag
        return spla.LinearOperator(self.shape, matvec=lambda v: v * inv)


class FactorPreconditioner(Preconditioner):
    """A complete SuperLU factorization applied as an SPD inverse.

    Built from one matrix, reusable for spectrally-nearby ones: the
    warm-start layer hands the previous sweep point's instance to the
    next point's solver, replacing a fresh factorization with a few CG
    iterations.
    """

    kind = "factor"

    def __init__(self, matrix: sp.spmatrix) -> None:
        super().__init__(matrix.shape)
        try:
            self._lu = spla.splu(matrix.tocsc())
        except RuntimeError as exc:  # singular matrix
            raise SolverError(
                f"preconditioner factorization failed: {exc}",
                num_nodes=matrix.shape[0],
            ) from exc

    def operator(self) -> spla.LinearOperator:
        return spla.LinearOperator(self.shape, matvec=self._lu.solve)


def make_preconditioner(kind: str, matrix: sp.spmatrix) -> Preconditioner:
    """Build a preconditioner of ``kind`` for ``matrix``."""
    if kind == "jacobi":
        return JacobiPreconditioner(matrix)
    if kind == "factor":
        return FactorPreconditioner(matrix)
    raise ConfigurationError(
        f"unknown preconditioner kind {kind!r}; known: {list(PRECONDITIONERS)}"
    )


# ---------------------------------------------------------------------------
# Operators (one factorized/preconditioned system, many right-hand sides)
# ---------------------------------------------------------------------------


class SolverOperator:
    """One prepared linear system: solve many right-hand sides.

    ``iterations`` is the iteration count of the *last* solve (0 for the
    direct path); ``total_iterations`` accumulates across solves.
    ``preconditioner`` is the reusable setup artifact (None for direct).
    """

    name: str = "none"

    def __init__(self) -> None:
        self.iterations = 0
        self.total_iterations = 0
        self.preconditioner: Optional[Preconditioner] = None
        self.reused_preconditioner = False
        #: Residual history of the last solve when it was traced; None for
        #: the direct path and for untraced (sampled-out) solves, so a
        #: consumer never mistakes a stale curve for the current solve's.
        self.last_trace: Optional[ResidualTrace] = None
        self._solve_index = 0

    def solve(
        self, rhs: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def solve_block(
        self, block: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Solve ``k`` right-hand sides; returns a Fortran-ordered block.

        ``x0`` may be one vector (shared initial guess) or a matching
        ``(n, k)`` block.  Column ``i`` of the result is bitwise
        identical to ``solve(block[:, i], x0_i)``.
        """
        out = np.empty_like(block, order="F")
        for i in range(block.shape[1]):
            guess = None
            if x0 is not None:
                guess = x0 if x0.ndim == 1 else x0[:, i]
            out[:, i] = self.solve(block[:, i], x0=guess)
        return out


class DirectOperator(SolverOperator):
    """The historical SuperLU path; bitwise identical to the old solver."""

    name = "direct"

    def __init__(self, matrix: sp.spmatrix) -> None:
        super().__init__()
        try:
            self._lu = spla.splu(matrix)
        except RuntimeError as exc:  # singular matrix
            raise SolverError(
                f"factorization failed: {exc}",
                num_nodes=matrix.shape[0],
            ) from exc

    def solve(
        self, rhs: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> np.ndarray:
        # x0 is deliberately ignored: a direct solve has no warm start,
        # and accepting it keeps the call sites backend-agnostic.
        return self._lu.solve(rhs)

    def solve_block(
        self, block: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> np.ndarray:
        # The whole block goes through SuperLU's triangular solves in a
        # single call, amortizing the sparse traversal over all RHS.
        return np.asfortranarray(self._lu.solve(np.asfortranarray(block)))


class CGOperator(SolverOperator):
    """Preconditioned conjugate gradient over one conductance matrix."""

    name = "cg"

    def __init__(
        self,
        matrix: sp.spmatrix,
        preconditioner: Optional[Preconditioner] = None,
        precond_kind: Optional[str] = None,
        rtol: Optional[float] = None,
        maxiter: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._matrix = matrix.tocsr()
        self.rtol = rtol if rtol is not None else _cg_rtol()
        self.maxiter = maxiter or _cg_maxiter(matrix.shape[0])
        kind = precond_kind or _cg_precond()
        if preconditioner is not None and preconditioner.compatible_with(matrix):
            self.preconditioner = preconditioner
            self.reused_preconditioner = True
            _metrics.inc("solver.preconditioner_reuses")
        else:
            self.preconditioner = make_preconditioner(kind, matrix)
            _metrics.inc("solver.preconditioner_builds")
        self._M = self.preconditioner.operator()

    def solve(
        self, rhs: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> np.ndarray:
        count = [0]
        # Residual tracing costs an extra matvec per *recorded* point
        # (the CG callback only sees the iterate, not the recurrence
        # residual).  Two levels of sampling keep it invisible in wall
        # time: solves are sampled (first per operator, then every
        # trace_every()-th), and within a traced solve residuals are
        # only computed on a log-dense iteration schedule -- powers of
        # two plus every RECORD_EVERY-th -- a handful of matvecs even
        # for thousand-iteration solves, matching the roughly
        # exponential decay the curve describes.  The callback never
        # feeds back into CG, so traced and untraced solves are bitwise
        # identical.
        # Chaos hook: an injected ConvergenceStallFault is a SolverError,
        # so it takes exactly the path a real non-convergence takes --
        # including the escalation ladder when one is wrapped around us.
        _faults.check_cg(
            f"{self._matrix.shape[0]}", attempt=self._solve_index
        )
        traced = trace_enabled() and self._solve_index % trace_every() == 0
        self._solve_index += 1
        series: Optional[BoundedSeries] = None
        rhs_norm = 0.0
        if traced:
            rhs_norm = float(np.linalg.norm(rhs))
            series = BoundedSeries(cap=TRACE_POINT_CAP)
            if x0 is None:
                # Cold start: the initial residual is b itself, so the
                # relative residual is exactly 1 -- no matvec needed.
                series.append(0.0, 1.0 if rhs_norm > 0.0 else 0.0)
            else:
                r0 = float(np.linalg.norm(rhs - self._matrix @ x0))
                series.append(0.0, r0 / rhs_norm if rhs_norm > 0.0 else r0)

        def _rel_residual(xk: np.ndarray) -> float:
            r = float(np.linalg.norm(rhs - self._matrix @ xk))
            return r / rhs_norm if rhs_norm > 0.0 else r

        def _tick(xk: np.ndarray) -> None:
            n = count[0] = count[0] + 1
            if series is not None and (n & (n - 1) == 0 or n % RECORD_EVERY == 0):
                series.append(n, _rel_residual(xk))

        x, info = spla.cg(
            self._matrix,
            rhs,
            x0=x0,
            rtol=self.rtol,
            atol=0.0,
            maxiter=self.maxiter,
            M=self._M,
            callback=_tick,
        )
        self.iterations = count[0]
        self.total_iterations += count[0]
        _metrics.inc("solver.cg_iterations", count[0])
        if series is not None:
            # Lazy in-solve recording may have skipped the closing
            # iterations; pin the curve's exact endpoint (one matvec).
            if count[0] > 0:
                series.append(count[0], _rel_residual(x))
            pts = series.points()
            trace = ResidualTrace(
                backend=self.name,
                preconditioner=self.preconditioner.kind,
                nodes=int(self._matrix.shape[0]),
                rtol=self.rtol,
                warm_start=x0 is not None,
                iterations=count[0],
                converged=info == 0,
                final_residual=pts[-1][1] if pts else 0.0,
                points=[[p[0], p[1]] for p in pts],
                stride=series.stride,
            )
            event(CONVERGENCE_SPAN, **trace.to_dict())
            self.last_trace = trace
        else:
            self.last_trace = None
        if info > 0:
            raise SolverError(
                f"cg failed to converge within {self.maxiter} iterations",
                rtol=self.rtol,
                iterations=count[0],
                preconditioner=self.preconditioner.kind,
                warm_start=x0 is not None,
            )
        if info < 0:  # pragma: no cover - scipy input validation
            raise SolverError(f"cg reported illegal input (info={info})")
        return x


#: Environment switch for solver escalation ("0" disables).
ESCALATION_ENV = "REPRO_SOLVER_ESCALATE"


def escalation_enabled() -> bool:
    """Whether iterative non-convergence escalates (default on)."""
    return os.environ.get(ESCALATION_ENV, "1") not in ("", "0")


class EscalatingOperator:
    """Degrade-but-complete wrapper around an iterative operator.

    A CG solve that fails to converge (ill-conditioned stress mesh,
    drifted warm-start preconditioner, injected stall) historically
    surfaced as a hard :class:`~repro.errors.SolverError`.  This wrapper
    turns it into a degraded-but-correct answer by climbing a ladder:

    1. retry the solve with a *stronger* preconditioner -- a fresh
       complete factorization (``factor``) of this very matrix -- when
       the failing operator was using something weaker (``jacobi``);
    2. fall back to the ``direct`` SuperLU path, which cannot
       not-converge.

    The ladder is sticky: once a stronger CG operator succeeds it
    serves subsequent solves; once the direct fallback is built it
    handles them outright.  ``escalation`` records the highest rung
    used (``None`` / ``"factor"`` / ``"direct"``) and is threaded onto
    :class:`~repro.rmesh.solve.IRDropResult` provenance; each climb
    bumps ``resil.solver_escalations`` (+ per-rung counters) inside a
    ``resil.solver_escalation`` trace span.

    Escalation changes *which* solver produced the answer, so results
    after a direct fallback are bitwise those of the direct backend --
    which is exactly the degraded contract: correct physics, provenance
    recorded, sweep not lost.  Raw operators used without the wrapper
    (``escalation_enabled() == False`` or direct construction) keep the
    historical raise-on-non-convergence semantics.
    """

    def __init__(self, inner: SolverOperator, matrix: sp.spmatrix, **options) -> None:
        self._inner = inner
        self._matrix = matrix
        self._options = dict(options)
        self._direct: Optional[DirectOperator] = None
        #: Highest rung used so far: None, "factor", or "direct".
        self.escalation: Optional[str] = None
        #: The operator that produced the most recent solve.
        self._last_op: SolverOperator = inner

    # Delegated introspection: report from whichever operator actually
    # produced the last answer, so iteration counts and traces always
    # describe the solve the caller got.

    @property
    def inner(self) -> SolverOperator:
        """The currently-serving iterative operator (introspection)."""
        return self._inner

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def iterations(self) -> int:
        return self._last_op.iterations

    @property
    def total_iterations(self) -> int:
        return self._inner.total_iterations + (
            self._direct.total_iterations if self._direct is not None else 0
        )

    @property
    def preconditioner(self) -> Optional[Preconditioner]:
        return self._inner.preconditioner

    @property
    def reused_preconditioner(self) -> bool:
        return self._inner.reused_preconditioner

    @property
    def last_trace(self) -> Optional[ResidualTrace]:
        return self._last_op.last_trace

    def _stronger_cg(self) -> CGOperator:
        return CGOperator(
            self._matrix,
            precond_kind="factor",
            rtol=self._options.get("rtol"),
            maxiter=self._options.get("maxiter"),
        )

    def _record(self, rung: str, cause: SolverError) -> None:
        self.escalation = rung
        _metrics.inc("resil.solver_escalations")
        _metrics.inc(f"resil.escalation.{rung}")
        _log.warning(
            "iterative solve failed (%s); escalated to %s",
            cause,
            rung,
            extra={
                "fields": {
                    "rung": rung,
                    "nodes": int(self._matrix.shape[0]),
                    "error": str(cause),
                }
            },
        )

    def solve(
        self, rhs: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> np.ndarray:
        if self.escalation == "direct" and self._direct is not None:
            # Sticky top rung: the iterative path already proved
            # untrustworthy for this system.
            self._last_op = self._direct
            return self._direct.solve(rhs)
        try:
            x = self._inner.solve(rhs, x0=x0)
            self._last_op = self._inner
            return x
        except SolverError as exc:
            first = exc
        with span(
            "resil.solver_escalation", nodes=int(self._matrix.shape[0])
        ) as sp_:
            precond = self._inner.preconditioner
            if precond is not None and precond.kind == "jacobi":
                try:
                    stronger = self._stronger_cg()
                    x = stronger.solve(rhs, x0=x0)
                except SolverError:
                    pass
                else:
                    self._inner = stronger
                    self._last_op = stronger
                    self._record("factor", first)
                    sp_.attrs["rung"] = "factor"
                    return x
            if self._direct is None:
                self._direct = DirectOperator(self._matrix.tocsc())
            x = self._direct.solve(rhs)
            self._last_op = self._direct
            self._record("direct", first)
            sp_.attrs["rung"] = "direct"
            return x

    # Column-by-column through the ladder, exactly like a raw operator.
    solve_block = SolverOperator.solve_block


def make_operator(
    backend: str,
    matrix: sp.spmatrix,
    warm_from: Optional[SolverOperator] = None,
    **options,
) -> SolverOperator:
    """Build the operator for a resolved backend name.

    ``warm_from`` is a previous (spectrally nearby) operator whose
    preconditioner is reused when compatible -- the warm-start handoff.
    ``options`` pass through to the iterative constructors (``rtol``,
    ``maxiter``, ``precond_kind``).
    """
    prev = warm_from.preconditioner if warm_from is not None else None
    if backend == "direct":
        return DirectOperator(matrix)
    if backend != "cg":
        raise ConfigurationError(
            f"unknown solver backend {backend!r}; known: {list(BACKENDS)}"
        )
    op = CGOperator(matrix, preconditioner=prev, **options)
    if escalation_enabled():
        # Library call sites get degrade-but-complete semantics; raw
        # operator construction keeps the historical raise.
        return EscalatingOperator(op, matrix, **options)  # type: ignore[return-value]
    return op

