"""3D stack assembly: layers + vertical links -> one conductance network.

A :class:`StackModel` collects per-layer meshes (with a per-die placement
offset so dies of different sizes can be stacked), vertical links between
layers (vias, TSVs, F2F bond vias, B2B bonds, RDL attachments), and supply
links to the ideal package node.  It produces the sparse conductance
matrix that :class:`repro.rmesh.solve.StackSolver` factorizes.

The ideal supply is eliminated: with node drops ``u = VDD - v`` the system
is ``G u = J`` where supply links contribute only to the diagonal and
loads inject their current at their node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import MeshError
from repro.geometry import Point
from repro.rmesh.mesh import LayerMesh

#: A block of vertical links as parallel ``(node_a, node_b, conductance)``
#: arrays (int64, int64, float64).  Never mutated once appended to a model.
LinkBlock = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: A block of supply links as parallel ``(node, conductance)`` arrays
#: (int64, float64).  Never mutated once appended to a model.
SupplyBlock = Tuple[np.ndarray, np.ndarray]


class _BlockStore:
    """Append-only parallel-array blocks with a cached concatenation.

    A stack has thousands of links, so they only ever exist as arrays:
    blocks land in insertion order and :meth:`arrays` concatenates them
    once per new block (cached against the element count).
    """

    def __init__(self, *dtypes: type) -> None:
        self._blocks: List[tuple] = [tuple(np.empty(0, dt) for dt in dtypes)]
        self.count = 0
        self._cache: "tuple[int, tuple] | None" = None

    def append(self, block: tuple) -> None:
        self._blocks.append(block)
        self.count += len(block[-1])

    def arrays(self) -> tuple:
        """The concatenated columns, in insertion order; read-only."""
        cached = self._cache
        if cached is None or cached[0] != self.count:
            cols = tuple(
                np.concatenate([blk[i] for blk in self._blocks])
                for i in range(len(self._blocks[0]))
            )
            for arr in cols:
                arr.flags.writeable = False
            cached = (self.count, cols)
            self._cache = cached
        return cached[1]


@dataclass
class _LayerEntry:
    key: str
    die: str
    mesh: LayerMesh
    offset: int  # global id of this layer's node 0
    origin: Point  # placement of the layer's grid origin in stack coords


class StackModel:
    """A mutable builder for the global resistive network."""

    def __init__(self) -> None:
        self._layers: List[_LayerEntry] = []
        self._by_key: Dict[str, _LayerEntry] = {}
        self._links = _BlockStore(np.int64, np.int64, float)
        self._supply = _BlockStore(np.int64, float)
        self._num_nodes = 0
        # Layer key -> globally-offset (a, b, g) mesh edge arrays.  A
        # layer's mesh and offset are fixed at add_layer time, so these
        # never invalidate.  Read-only for callers.
        self._mesh_edges_cache: Dict[str, tuple] = {}

    # -- construction ---------------------------------------------------------

    def add_layer(
        self,
        die: str,
        mesh: LayerMesh,
        origin: Point = Point(0.0, 0.0),
        key: Optional[str] = None,
    ) -> str:
        """Register a layer mesh; returns its key (``"die/layer"``).

        ``origin`` places the layer's local (0, 0) in stack coordinates so
        that dies of different sizes can be aligned (e.g. a DRAM die
        centered over a larger logic die).
        """
        key = key or f"{die}/{mesh.name}"
        if key in self._by_key:
            raise MeshError(f"duplicate layer key {key!r}")
        entry = _LayerEntry(
            key=key, die=die, mesh=mesh, offset=self._num_nodes, origin=origin
        )
        self._layers.append(entry)
        self._by_key[key] = entry
        self._num_nodes += mesh.num_nodes
        return key

    def _entry(self, key: str) -> _LayerEntry:
        try:
            return self._by_key[key]
        except KeyError:
            raise MeshError(f"unknown layer {key!r}; have {list(self._by_key)}")

    def _nodes_at_xy(self, key: str, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Global ids of the layer nodes nearest to stack-coordinate arrays.

        Snaps like :meth:`repro.geometry.Grid2D.nearest_node`: truncation
        toward zero (like ``int()``) then clamping to the grid.
        """
        entry = self._entry(key)
        grid = entry.mesh.grid
        i = ((xs - entry.origin.x - grid.outline.x0) / grid.dx).astype(np.int64)
        j = ((ys - entry.origin.y - grid.outline.y0) / grid.dy).astype(np.int64)
        np.clip(i, 0, grid.nx - 1, out=i)
        np.clip(j, 0, grid.ny - 1, out=j)
        return entry.offset + j * grid.nx + i

    def connect_layers_at_xy(
        self,
        key_a: str,
        key_b: str,
        xs: "np.ndarray | Sequence[float]",
        ys: "np.ndarray | Sequence[float]",
        conductances: Sequence[float],
    ) -> LinkBlock:
        """Link two layers at stack-coordinate points; returns the block.

        Takes x/y arrays plus a per-point conductance sequence -- the
        shape a replayed :class:`~repro.pdn.plan.ConnectAtPointsOp`
        carries (each TSV has its own alignment detour resistance).
        Links landing on the same node pair accumulate (parallel
        conductances add).
        """
        g = _positive(conductances, len(xs), "link")
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        block = (self._nodes_at_xy(key_a, xs, ys), self._nodes_at_xy(key_b, xs, ys), g)
        self.extend_links(block)
        return block

    def connect_layers_uniform(
        self, key_a: str, key_b: str, conductance_per_mm2: float
    ) -> LinkBlock:
        """Link two layers at every node of the coarser layer, with an
        area-scaled conductance; returns the appended block.

        Models distributed stitched vias inside a die and dense F2F bond
        vias between dies: the total coupling per unit area is resolution
        independent.  The link is placed at each node of the layer with
        fewer nodes, attaching to the nearest node of the other layer.
        """
        if conductance_per_mm2 <= 0.0:
            raise MeshError("area conductance must be positive")
        a, b = self._entry(key_a), self._entry(key_b)
        src, dst = (a, b) if a.mesh.num_nodes <= b.mesh.num_nodes else (b, a)
        grid = src.mesh.grid
        cell_area = grid.dx * grid.dy
        g = conductance_per_mm2 * cell_area
        # Vectorized over all source nodes, in flat-id (j-major) order so
        # the link list matches what the scalar loop produced.
        xs, ys = grid.node_centers()
        xs = xs + src.origin.x
        ys = ys + src.origin.y
        src_nodes = src.offset + np.arange(grid.num_nodes, dtype=np.int64)
        dst_nodes = self._nodes_at_xy(dst.key, xs, ys)
        block = (src_nodes, dst_nodes, np.full(grid.num_nodes, g))
        self.extend_links(block)
        return block

    def connect_supply_at_xy(
        self,
        key: str,
        xs: "np.ndarray | Sequence[float]",
        ys: "np.ndarray | Sequence[float]",
        conductances: Sequence[float],
    ) -> SupplyBlock:
        """Link layer nodes to the ideal supply (package) at given
        stack-coordinate points; returns the appended block."""
        g = _positive(conductances, len(xs), "supply")
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        block = (self._nodes_at_xy(key, xs, ys), g)
        self.extend_supply(block)
        return block

    # -- inspection -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_resistors(self) -> int:
        """Total resistor count (mesh edges + links + supply links); the
        paper's Figure 4 credits the R-Mesh speedup to reducing this."""
        return (
            sum(e.mesh.num_resistors for e in self._layers)
            + self._links.count
            + self._supply.count
        )

    @property
    def layer_keys(self) -> List[str]:
        return [e.key for e in self._layers]

    def dies(self) -> List[str]:
        seen: List[str] = []
        for entry in self._layers:
            if entry.die not in seen:
                seen.append(entry.die)
        return seen

    def layer_slice(self, key: str) -> slice:
        """Global node-id range of a layer."""
        entry = self._entry(key)
        return slice(entry.offset, entry.offset + entry.mesh.num_nodes)

    def layer_grid(self, key: str):
        return self._entry(key).mesh.grid

    def layer_origin(self, key: str) -> Point:
        return self._entry(key).origin

    def die_layer_keys(self, die: str) -> List[str]:
        return [e.key for e in self._layers if e.die == die]

    def die_node_ids(self, die: str) -> np.ndarray:
        """All global node ids belonging to a die."""
        parts = [
            np.arange(e.offset, e.offset + e.mesh.num_nodes)
            for e in self._layers
            if e.die == die
        ]
        if not parts:
            raise MeshError(f"no layers registered for die {die!r}")
        return np.concatenate(parts)

    # -- link blocks (incremental-reassembly support) ---------------------------

    @property
    def link_count(self) -> int:
        """Number of vertical links added so far."""
        return self._links.count

    @property
    def supply_count(self) -> int:
        """Number of supply links added so far."""
        return self._supply.count

    def extend_links(self, block: LinkBlock) -> None:
        """Append a block of vertical links (e.g. a cached replay block).

        Callers guarantee the links were computed against layers with the
        same offsets/grids/origins this model has -- the assembler keys
        its cache on exactly that -- and never mutate the arrays after.
        """
        self._links.append(block)

    def extend_supply(self, block: SupplyBlock) -> None:
        """Append a block of supply links, under :meth:`extend_links`'s
        contract."""
        self._supply.append(block)

    def link_arrays(self) -> LinkBlock:
        """``(node_a, node_b, conductance)`` over all vertical links (TSVs,
        F2F vias, bond wires, via stitching), in insertion order.  The
        concatenation is cached and redone only after new links land;
        the returned arrays are read-only."""
        return self._links.arrays()

    def link_block(self, start: int, stop: int) -> LinkBlock:
        """The links added between two :attr:`link_count` marks (views)."""
        a, b, g = self.link_arrays()
        return a[start:stop], b[start:stop], g[start:stop]

    def supply_arrays(self) -> SupplyBlock:
        """``(node, conductance)`` over all links to the ideal package
        supply, cached like :meth:`link_arrays`.  Read-only."""
        return self._supply.arrays()

    def mesh_edge_arrays(self, key: str) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """One layer's mesh edges ``(a, b, g)`` in *global* node ids.

        Cached per layer (mesh topology and node offset are immutable
        once the layer is added).  Callers must treat the returned
        arrays as read-only.
        """
        cached = self._mesh_edges_cache.get(key)
        if cached is None:
            entry = self._entry(key)
            a, b, g = entry.mesh.edge_arrays()
            cached = (a + entry.offset, b + entry.offset, g)
            self._mesh_edges_cache[key] = cached
        return cached

    def layer_entry(self, key: str):
        """The internal layer record (mesh + offset + origin) for a key."""
        return self._entry(key)

    # -- matrix assembly ----------------------------------------------------------

    def conductance_matrix(self) -> sp.csr_matrix:
        """Assemble the reduced (supply-eliminated) conductance matrix."""
        if self._num_nodes == 0:
            raise MeshError("empty stack: no layers added")
        if not self._supply.count:
            raise MeshError(
                "no supply connection: the network is floating and the "
                "solve would be singular"
            )
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        vals: List[np.ndarray] = []

        def stamp(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> None:
            rows.extend((a, b, a, b))
            cols.extend((a, b, b, a))
            vals.extend((g, g, -g, -g))

        for entry in self._layers:
            a, b, g = self.mesh_edge_arrays(entry.key)
            stamp(a, b, g)
        if self._links.count:
            a, b, g = self.link_arrays()
            stamp(a, b, g)
        # Supply links only add to the diagonal (the supply node, at drop 0,
        # is eliminated).
        s, gs = self.supply_arrays()
        rows.append(s)
        cols.append(s)
        vals.append(gs)

        matrix = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self._num_nodes, self._num_nodes),
        )
        return matrix.tocsr()


def _positive(conductances: Sequence[float], count: int, what: str) -> np.ndarray:
    """Per-point conductances as an array, checked positive and one per point."""
    if len(conductances) != count:
        raise MeshError(f"{count} points but {len(conductances)} conductances")
    g = np.array(conductances, dtype=float)
    bad = np.flatnonzero(g <= 0.0)
    if bad.size:
        raise MeshError(f"{what} conductance must be positive, got {float(g[bad[0]])}")
    return g
