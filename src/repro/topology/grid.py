"""Grid deployments and grid-bucketed spatial queries.

The paper's running-time analysis places one device at every integer grid
point of an ``width x height`` rectangle and measures communication in the
L-infinity norm.  These helpers build that topology (optionally sub-sampled)
and compute the quantities the analysis refers to (diameter, neighborhood
size, maximum tolerable number of Byzantine devices).

:class:`GridBuckets` is the scale-enabling piece: a spatial hash of an
``(N, 2)`` position array into square cells, answering radius queries and
building CSR neighbor structures without ever touching an ``N x N`` matrix.
Its results are *exact* — candidate pairs are over-collected from surrounding
cells and then filtered with :func:`~repro.topology.geometry.block_distances`,
the same function the dense code paths call, so the returned neighbor sets
are bit-identical to the brute-force computation.

:class:`NeighborGraph` is the one neighbourhood type: "who is within ``R`` of
whom" as a CSR, under the one range predicate ``distance <= radius + SLACK``.
A schedule builds it once per ``(radius, norm)``, and its listening table,
the unit-disk link state and :mod:`repro.topology.connectivity` all read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import block_distances

__all__ = [
    "SLACK", "GridSpec", "grid_positions", "grid_index_of", "GridTopology", "GridBuckets",
    "NeighborGraph",
]

#: Slack of the one range predicate ``distance <= radius + SLACK``: a distance
#: over the radius only by rounding (``0.1 + 0.2`` against ``0.3``) is in range.
#: :class:`NeighborGraph` and ``UnitDiskChannel.observe`` both apply it.
SLACK = 1e-12


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Specification of an analytical unit grid.

    Attributes
    ----------
    width, height:
        Number of grid points along each axis (so coordinates run from 0 to
        ``width - 1`` / ``height - 1``).
    spacing:
        Distance between adjacent grid points.  The paper uses unit spacing.
    """

    width: int
    height: int
    spacing: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.spacing <= 0:
            raise ValueError("grid spacing must be positive")

    @property
    def num_points(self) -> int:
        return self.width * self.height

    @property
    def extent(self) -> tuple[float, float]:
        """Physical extent of the grid along each axis."""
        return ((self.width - 1) * self.spacing, (self.height - 1) * self.spacing)


def grid_positions(spec: GridSpec) -> np.ndarray:
    """Return the ``(width*height, 2)`` array of grid point coordinates.

    Points are ordered row-major: index ``i`` corresponds to
    ``(i % width, i // width)`` scaled by ``spacing``.
    """
    xs = np.arange(spec.width, dtype=float) * spec.spacing
    ys = np.arange(spec.height, dtype=float) * spec.spacing
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def grid_index_of(spec: GridSpec, x: int, y: int) -> int:
    """Index into :func:`grid_positions` of the grid point ``(x, y)``."""
    if not (0 <= x < spec.width and 0 <= y < spec.height):
        raise ValueError(f"grid point ({x}, {y}) outside {spec.width}x{spec.height} grid")
    return y * spec.width + x


@dataclass(slots=True)
class GridTopology:
    """A fully materialised analytical grid topology.

    Combines the grid specification with the communication radius ``R`` and
    exposes the derived quantities used by the paper's theorems:

    * ``neighborhood_size`` -- ``(2R+1)^2 - 1`` devices per neighborhood,
    * ``max_tolerable_t`` -- Koo's bound ``t < R(2R+1)/2``,
    * ``diameter_hops`` -- the hop diameter ``D`` used in Theorem 5.
    """

    spec: GridSpec
    radius: float
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("communication radius must be positive")
        self.positions = grid_positions(self.spec)

    @property
    def num_nodes(self) -> int:
        return self.spec.num_points

    @property
    def radius_in_cells(self) -> int:
        """Communication radius expressed in grid cells (rounded down)."""
        return int(math.floor(self.radius / self.spec.spacing + 1e-9))

    @property
    def neighborhood_size(self) -> int:
        """Number of other grid points inside one L-infinity neighborhood."""
        r = self.radius_in_cells
        return (2 * r + 1) ** 2 - 1

    @property
    def max_tolerable_t(self) -> int:
        """Largest ``t`` satisfying Koo's bound ``t < R(2R+1)/2`` (strictly)."""
        r = self.radius_in_cells
        bound = 0.5 * r * (2 * r + 1)
        t = int(math.ceil(bound)) - 1
        return max(t, 0)

    @property
    def neighborwatch_tolerable_t(self) -> int:
        """Largest ``t`` tolerated by NeighborWatchRB: ``t < ceil(R/2)^2``."""
        r = self.radius_in_cells
        return max(int(math.ceil(r / 2)) ** 2 - 1, 0)

    @property
    def diameter_hops(self) -> int:
        """Hop diameter of the grid under the L-infinity communication model."""
        ex, ey = self.spec.extent
        return int(math.ceil(max(ex, ey) / self.radius))

    def index_of(self, x: int, y: int) -> int:
        return grid_index_of(self.spec, x, y)

    def center_index(self) -> int:
        """Index of the grid point closest to the geometric center."""
        return self.index_of(self.spec.width // 2, self.spec.height // 2)


class GridBuckets:
    """Spatial hash of positions into square cells for exact radius queries.

    Parameters
    ----------
    positions:
        ``(N, 2)`` float array of device coordinates.
    cell_size:
        Side of the hash cells.  A cell size equal to the query threshold
        keeps the candidate window at the 5x5 surrounding cells; any positive
        value is correct (only the constant factor moves).

    Queries return neighbor sets identical to the brute-force dense
    computation: candidate cells are taken with one extra ring beyond
    ``ceil(threshold / cell_size)`` (insurance against boundary rounding) and
    candidates are filtered with
    :func:`~repro.topology.geometry.block_distances`, the very function the
    dense paths call.
    """

    __slots__ = ("positions", "cell_size", "_cells", "_cell_of")

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must have shape (N, 2), got {pos.shape}")
        self.positions = pos
        self.cell_size = float(cell_size)
        cols = np.floor(pos[:, 0] / self.cell_size).astype(np.int64)
        rows = np.floor(pos[:, 1] / self.cell_size).astype(np.int64)
        self._cell_of = np.stack([cols, rows], axis=1)
        # Bucket members keyed by (col, row); argsort is stable, so each
        # bucket's member array is ascending in node id.
        self._cells: dict[tuple[int, int], np.ndarray] = {}
        if pos.shape[0]:
            span = rows.max() - rows.min() + 1
            flat = (cols - cols.min()) * span + (rows - rows.min())
            order = np.argsort(flat, kind="stable")
            sorted_flat = flat[order]
            boundaries = np.flatnonzero(np.diff(sorted_flat)) + 1
            for chunk in np.split(order, boundaries):
                first = int(chunk[0])
                self._cells[(int(cols[first]), int(rows[first]))] = chunk

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    def _candidates_around(self, col: int, row: int, reach: int) -> np.ndarray:
        """Ids in the ``(2*reach+1)^2`` cell window around ``(col, row)``, ascending."""
        chunks = []
        cells = self._cells
        for dc in range(-reach, reach + 1):
            for dr in range(-reach, reach + 1):
                members = cells.get((col + dc, row + dr))
                if members is not None:
                    chunks.append(members)
        if not chunks:
            return np.empty(0, dtype=np.intp)
        out = np.concatenate(chunks)
        out.sort()
        return out

    def _reach(self, threshold: float) -> int:
        # One extra ring beyond the geometric bound: a pair excluded by the
        # window then has per-coordinate separation strictly greater than
        # threshold + cell_size, far outside any floating-point rounding of
        # the distance predicate.
        return int(math.ceil(threshold / self.cell_size)) + 1

    def query(self, center, threshold: float, norm: str = "l2") -> np.ndarray:
        """Ids of positions within ``threshold`` of ``center`` (ascending).

        Equivalent to filtering the brute-force distance row with
        ``distance <= threshold`` — callers that need the dense paths'
        tolerance fold it into ``threshold`` themselves.
        """
        c = np.asarray(center, dtype=float).reshape(2)
        col = int(math.floor(c[0] / self.cell_size))
        row = int(math.floor(c[1] / self.cell_size))
        candidates = self._candidates_around(col, row, self._reach(threshold))
        if not candidates.size:
            return candidates
        dist = block_distances(c[None, :], self.positions[candidates], norm)[0]
        return candidates[dist <= threshold]

    def neighbor_arrays(
        self, threshold: float, norm: str = "l2", *, include_self: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the radius-``threshold`` neighbor graph.

        Row ``i`` of the structure (``indices[indptr[i]:indptr[i+1]]``, always
        ascending) lists exactly the ids the dense predicate
        ``distance(i, j) <= threshold`` accepts, computed one occupied cell at
        a time so peak memory is ``O(occupancy * window)`` instead of
        ``O(N^2)``.
        """
        n = self.positions.shape[0]
        rows_of: list = [None] * n
        reach = self._reach(threshold)
        for (col, row), members in self._cells.items():
            candidates = self._candidates_around(col, row, reach)
            dist = block_distances(self.positions[members], self.positions[candidates], norm)
            mask = dist <= threshold
            if not include_self:
                own_col = np.searchsorted(candidates, members)
                mask[np.arange(members.size), own_col] = False
            for local, node in enumerate(members):
                rows_of[int(node)] = candidates[mask[local]]
        # Every node sits in exactly one cell, so every row is filled.
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([row_ids.size for row_ids in rows_of], out=indptr[1:])
        indices = np.concatenate(rows_of) if n else np.empty(0, dtype=np.intp)
        return indptr, indices.astype(np.intp, copy=False)


def _index_dtype(num_nodes: int, nnz: int) -> np.dtype:
    """Smallest safe integer dtype for the CSR ``indptr``/``indices`` arrays.

    When node ids and offsets both fit in int32 the pair is halved (at 10^5
    nodes it is the dominant live allocation); every consumer is
    dtype-agnostic.  Beyond 2^31 - 1 links it falls back to int64.
    """
    limit = np.iinfo(np.int32).max
    if num_nodes <= limit and nnz <= limit:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class NeighborGraph:
    """CSR graph of the pairs within ``radius`` of each other under ``norm``.

    Row ``i`` (:meth:`neighbors`, ascending) lists every node ``j`` with
    ``distance(i, j) <= radius + SLACK``, node ``i`` itself included, built
    with :class:`GridBuckets` in ``O(N * neighborhood)`` memory.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, positions: np.ndarray, radius: float, norm: str = "l2") -> None:
        buckets = GridBuckets(positions, cell_size=radius)
        indptr, indices = buckets.neighbor_arrays(radius + SLACK, norm, include_self=True)
        # Downcast the CSR pair to int32 when safe — the values are identical,
        # only the storage shrinks.
        dtype = _index_dtype(buckets.positions.shape[0], int(indices.size))
        self.indptr = indptr.astype(dtype, copy=False)
        self.indices = indices.astype(dtype, copy=False)

    @property
    def num_nodes(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        """Stored links, including the self-link of every node."""
        return int(self.indices.size)

    def neighbors(self, node: int) -> np.ndarray:
        """Ids in range of ``node``, ascending, ``node`` itself included."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def degrees(self) -> np.ndarray:
        """Number of neighbors of every node, itself excluded."""
        return np.diff(self.indptr) - 1

    def info(self) -> dict:
        """The CSR size (self links included) and its index dtype."""
        return {"nnz": self.nnz, "index_dtype": str(self.indices.dtype)}
