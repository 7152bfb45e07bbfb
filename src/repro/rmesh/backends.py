"""The one linear solve of the stacked R-mesh: a sparse LU factorization.

The R-Mesh is a DC resistive network, so the paper's HSPICE solve is
exactly one sparse linear system per stack.  The paper's stacks have a
few thousand nodes, where a complete SuperLU factorization is cheap and
every later load configuration is one back-substitution -- the
structure the section 5.2 IR-drop LUT relies on.

:func:`make_operator` is the one place that factorizes a conductance
system: the DC :class:`~repro.rmesh.solve.StackSolver` and the
backward-Euler :class:`~repro.rmesh.transient.TransientSolver` both
build their factorizations through it.

Two column orderings are offered.  ``"colamd"`` (SuperLU's default) is
what every verification solve, golden IR value and reproduced table
uses.  ``"symmetric"`` orders ``A + A^T`` by minimum degree and keeps
SuperLU in symmetric mode: the DC conductance matrix is exactly
symmetric, so this cuts the L+U fill by 40-45% and factorizes ~1.5x
faster, with solutions equal to COLAMD's to ~1e-12 relative but not
bitwise.  Only the design-space sampling leg, whose samples feed a
least-squares fit, asks for it.
"""

from __future__ import annotations

from typing import Any, Dict

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import ConfigurationError, SolverError

#: ``splu`` keyword arguments per ordering name.  ``"colamd"`` passes
#: none, so the default path is exactly SuperLU's default call.
ORDERINGS: Dict[str, Dict[str, Any]] = {
    "colamd": {},
    "symmetric": {
        "permc_spec": "MMD_AT_PLUS_A",
        "options": {"SymmetricMode": True},
    },
}


def make_operator(matrix: sp.spmatrix, ordering: str = "colamd") -> spla.SuperLU:
    """Factorize a conductance system (CSC); raises on a singular matrix.

    ``ordering`` names one of :data:`ORDERINGS`.  The returned
    factorization's ``solve`` takes one right-hand side or a
    Fortran-ordered ``(n, k)`` block.
    """
    if ordering not in ORDERINGS:
        raise ConfigurationError(
            f"unknown ordering {ordering!r}; known: {sorted(ORDERINGS)}"
        )
    try:
        return spla.splu(matrix, **ORDERINGS[ordering])
    except RuntimeError as exc:  # singular matrix
        raise SolverError(
            f"factorization failed: {exc}",
            num_nodes=matrix.shape[0],
        ) from exc
