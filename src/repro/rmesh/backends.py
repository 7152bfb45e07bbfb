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

Many sampled stacks share one sparsity pattern (the usage knobs change
conductances, not topology).  An :class:`OrderingMemo` keeps the first
symmetric-mode ordering of each pattern; later matrices with the same
pattern are permuted symmetrically by it and factorized in their
natural order, which skips SuperLU's minimum-degree pass.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Union

import numpy as np
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


#: ``splu`` keyword arguments of a matrix already permuted by a kept
#: symmetric-mode ordering.
_REORDERED = {"permc_spec": "NATURAL", "options": {"SymmetricMode": True}}


class PermutedLU:
    """Factors of ``A[order][:, order]``, solving systems in ``A``.

    ``solve`` permutes the right-hand side in and the solution back out,
    so callers see the same interface as :class:`scipy.sparse.linalg.SuperLU`.
    """

    def __init__(self, lu: spla.SuperLU, order: np.ndarray) -> None:
        self._lu = lu
        self._order = order

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty(rhs.shape, order="F")
        out[self._order] = self._lu.solve(rhs[self._order])
        return out


Operator = Union[spla.SuperLU, PermutedLU]


class OrderingMemo:
    """Symmetric-mode orderings kept per exact sparsity pattern.

    Keyed on the canonical CSC pattern bytes (shape, ``indptr``,
    ``indices``).  The first matrix of a pattern is factorized exactly as
    the plain ``"symmetric"`` ordering does; its final column permutation
    is kept with the gather map that permutes any same-pattern matrix
    symmetrically.  Make one memo per unit of work and drop it after: a
    memo shared across units makes a unit's numbers depend on which units
    ran before it in the same process.
    """

    def __init__(self) -> None:
        #: pattern -> (order, permuted indptr, permuted indices, gather)
        self._patterns: Dict[Tuple[Any, ...], Tuple[np.ndarray, ...]] = {}

    def factorize(self, matrix: sp.csc_matrix) -> Operator:
        """Factorize a canonical CSC matrix (no duplicate entries)."""
        key = (matrix.shape, matrix.indptr.tobytes(), matrix.indices.tobytes())
        kept = self._patterns.get(key)
        if kept is None:
            lu = spla.splu(matrix, **ORDERINGS["symmetric"])
            self._patterns[key] = _reordering(matrix, np.argsort(lu.perm_c))
            return lu
        order, indptr, indices, gather = kept
        permuted = sp.csc_matrix(
            (matrix.data[gather], indices, indptr), shape=matrix.shape
        )
        return PermutedLU(spla.splu(permuted, **_REORDERED), order)


def _reordering(matrix: sp.csc_matrix, order: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``(order, indptr, indices, gather)`` of ``matrix[order][:, order]``:
    its data is ``matrix.data[gather]``."""
    positions = sp.csc_matrix(
        (np.arange(1, matrix.nnz + 1), matrix.indices, matrix.indptr),
        shape=matrix.shape,
    )
    permuted = positions[order][:, order].tocsc()
    permuted.sort_indices()
    return order, permuted.indptr, permuted.indices, permuted.data - 1


def make_operator(
    matrix: sp.spmatrix,
    ordering: str = "colamd",
    orderings: Optional[OrderingMemo] = None,
) -> Operator:
    """Factorize a conductance system (CSC); raises on a singular matrix.

    ``ordering`` names one of :data:`ORDERINGS`.  With ``orderings`` (the
    ``"symmetric"`` ordering only), a matrix whose sparsity pattern the
    memo has seen reuses that pattern's ordering (:class:`OrderingMemo`).
    The returned factorization's ``solve`` takes one right-hand side or a
    Fortran-ordered ``(n, k)`` block.
    """
    if ordering not in ORDERINGS:
        raise ConfigurationError(
            f"unknown ordering {ordering!r}; known: {sorted(ORDERINGS)}"
        )
    if orderings is not None and ordering != "symmetric":
        raise ConfigurationError(
            f"an ordering memo needs the 'symmetric' ordering, not {ordering!r}"
        )
    try:
        if orderings is not None:
            return orderings.factorize(matrix)
        return spla.splu(matrix, **ORDERINGS[ordering])
    except RuntimeError as exc:  # singular matrix
        raise SolverError(
            f"factorization failed: {exc}",
            num_nodes=matrix.shape[0],
        ) from exc
