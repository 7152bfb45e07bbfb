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
"""

from __future__ import annotations

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SolverError


def make_operator(matrix: sp.spmatrix) -> spla.SuperLU:
    """Factorize a conductance system (CSC); raises on a singular matrix.

    The returned factorization's ``solve`` takes one right-hand side or a
    Fortran-ordered ``(n, k)`` block.
    """
    try:
        return spla.splu(matrix)
    except RuntimeError as exc:  # singular matrix
        raise SolverError(
            f"factorization failed: {exc}",
            num_nodes=matrix.shape[0],
        ) from exc
