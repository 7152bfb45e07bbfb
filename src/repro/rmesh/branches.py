"""Branch-current recovery: from a solved drop field back to the wires.

The solver produces node drops; the paper's analysis (sections 3 and 6)
argues about *where* the drop comes from -- package, C4 bumps, PG TSVs,
on-die metal.  That question lives on the branches, not the nodes: every
resistor in the assembled network carries a current ``I = g * (u_a -
u_b)`` that is fully determined by the solution, and recovering those
currents turns a black-box drop field into a physical circuit one can
interrogate (current per TSV, dissipation per layer, the supply path
feeding the worst node).

:func:`extract_branches` returns that view as one set of flat
``(a, b, g, current)`` arrays over every mesh edge, vertical link and
supply link, in the model's insertion order, with per-layer, link and
supply slices into them.  Plan-op artifact ranges therefore map 1:1
onto link indices (see :mod:`repro.pdn.diagnose`), and
:meth:`StackBranches.node_net_current` gives the per-node KCL sum, which
must reproduce the injected load vector (the conservation property the
physics tests pin at 1e-9 relative).

Everything here *reads* the solution -- nothing mutates the model or the
solver, so diagnostics can never perturb recorded physics.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.errors import SolverError
from repro.rmesh.stack import StackModel


class StackBranches:
    """Every branch current of one solved stack, as one flat array view.

    Branch order: each layer's mesh edges (layer order), then vertical
    links (insertion order), then supply links.  ``layers`` maps a layer
    key to its slice; ``links`` and ``supply`` are slices too.  Supply
    branches have ``b == -1``, the eliminated supply node at drop 0.
    ``current`` is signed: positive flows from ``a`` toward ``b`` in
    drop coordinates, i.e. from the hotter (higher drop) end toward the
    supply side.  ``dissipation`` is each branch's ``I^2 / g`` in watts.
    """

    def __init__(self, model: StackModel, drops: np.ndarray) -> None:
        if drops.shape != (model.num_nodes,):
            raise SolverError(
                f"drop vector has shape {drops.shape}, expected "
                f"({model.num_nodes},)"
            )
        self.model = model
        self.drops = drops
        a_parts, b_parts, g_parts = [], [], []
        self.layers: Dict[str, slice] = {}
        offset = 0
        for key in model.layer_keys:
            a, b, g = model.mesh_edge_arrays(key)
            self.layers[key] = slice(offset, offset + a.size)
            offset += a.size
            a_parts.append(a)
            b_parts.append(b)
            g_parts.append(g)
        la, lb, lg = model.link_arrays()
        self.links = slice(offset, offset + la.size)
        sa, sg = model.supply_arrays()
        self.supply = slice(self.links.stop, self.links.stop + sa.size)
        self.a = np.concatenate([*a_parts, la, sa])
        self.b = np.concatenate([*b_parts, lb, np.full(sa.size, -1, np.int64)])
        self.g = np.concatenate([*g_parts, lg, sg])
        # Index -1 reads the appended 0.0: the supply side of a supply link.
        ext = np.append(drops, 0.0)
        self.current = self.g * (ext[self.a] - ext[self.b])
        with np.errstate(divide="ignore", invalid="ignore"):
            self.dissipation = np.where(
                self.g > 0.0, self.current**2 / self.g, 0.0
            )

    @property
    def num_branches(self) -> int:
        return int(self.a.size)

    # -- conservation ----------------------------------------------------------

    def node_net_current(self) -> np.ndarray:
        """Net branch current leaving each node, recovered from branches.

        For the solved system ``G u = J`` this must equal the injected
        load vector ``J``: every amp a load draws arrives through the
        node's branches.  Computed purely from the recovered per-branch
        currents (scatter-add), *not* from ``G @ u``, so it genuinely
        tests the recovery.
        """
        net = np.zeros(self.model.num_nodes)
        for sl in (*self.layers.values(), self.links):
            np.add.at(net, self.a[sl], self.current[sl])
            np.add.at(net, self.b[sl], -self.current[sl])
        np.add.at(net, self.a[self.supply], self.current[self.supply])
        return net

    def kcl_residual(self, injected: np.ndarray) -> Dict[str, float]:
        """KCL residual of the recovery against the injected currents.

        Returns the max absolute residual (amps) and the max residual
        relative to the injected-current scale -- the number the
        conservation property test pins at 1e-9.
        """
        net = self.node_net_current()
        residual = net - injected
        scale = float(np.abs(injected).max())
        if scale <= 0.0:
            scale = max(float(np.abs(net).max()), 1.0)
        max_abs = float(np.abs(residual).max())
        return {
            "max_abs_a": max_abs,
            "max_rel": max_abs / scale,
            "injected_a": float(injected.sum()),
            "supply_return_a": float(self.current[self.supply].sum()),
        }

    # -- aggregation -----------------------------------------------------------

    def layer_dissipation_map(self, key: str) -> np.ndarray:
        """Per-node dissipation field of one layer, shape (ny, nx), watts.

        Each edge's power splits evenly onto its two endpoint nodes --
        the standard lumping that keeps the total exact while giving a
        plottable per-node heat field.
        """
        sl = self.layers[key]
        layer = self.model.layer_slice(key)
        grid = self.model.layer_grid(key)
        field = np.zeros(self.model.num_nodes)
        half = 0.5 * self.dissipation[sl]
        np.add.at(field, self.a[sl], half)
        np.add.at(field, self.b[sl], half)
        return field[layer].reshape(grid.ny, grid.nx)


def extract_branches(model: StackModel, drops: np.ndarray) -> StackBranches:
    """Recover every branch current of ``model`` under solution ``drops``."""
    return StackBranches(model, np.asarray(drops))
