"""The link state the struct-of-arrays kernels read.

In the paper's radio model reception is a function of node positions.  For a
static deployment the SoA tier (:mod:`repro.sim.soa`) compiles whole slots
against that function once, and each channel builds exactly the structure its
kernels read — nothing else:

* :class:`UnitDiskLinkState` — the CSR audibility graph (each node's
  neighbors out to the radius, self included, ascending), built with
  grid-bucketed queries (:class:`~repro.topology.grid.GridBuckets`) in
  ``O(N * neighborhood)`` memory.  Unit-disk audibility beyond the radius is
  *exactly* false, so the CSR holds the complete physics; the disjunction
  kernels filter each slot group's adjacency out of it.
* :class:`FriisLinkState` — positions plus the channel's own power-block
  function.  Friis power is nonzero at every distance and every sender enters
  each listener's interference sum, so there is no neighborhood to store; the
  power-sum kernels fetch exact ``(listeners, senders)`` blocks on demand.

Bit-identity is the hard contract, and it holds by construction: the CSR is
filtered with :func:`~repro.topology.geometry.block_distances` and the Friis
blocks come from :meth:`~repro.sim.radio.FriisChannel.received_powers` — the
same functions :meth:`~repro.sim.radio.Channel.observe` calls.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..topology.grid import GridBuckets

__all__ = ["UnitDiskLinkState", "FriisLinkState"]


def _index_dtype(num_nodes: int, nnz: int) -> np.dtype:
    """Smallest safe integer dtype for the CSR ``indptr``/``indices`` arrays.

    ``indices`` stores node ids (< ``num_nodes``) and ``indptr`` stores
    offsets into ``indices`` (<= ``nnz``); when both fit in a signed 32-bit
    integer the arrays are halved.  At the 10^5-node scale the CSR pair is
    the dominant live allocation, so this is a real saving, and every
    consumer (fancy indexing, arithmetic against ``intp`` arrays) is
    dtype-agnostic.  Beyond 2^31 - 1 links the structure falls back to int64
    rather than overflow.
    """
    limit = np.iinfo(np.int32).max
    if num_nodes <= limit and nnz <= limit:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class UnitDiskLinkState:
    """CSR audibility of :class:`~repro.sim.radio.UnitDiskChannel`.

    Row ``i`` (``indices[indptr[i]:indptr[i+1]]``, ascending, self included)
    lists every node within ``radius`` of node ``i`` under ``norm``, with the
    channel's ``+ 1e-12`` audibility tolerance.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, positions: np.ndarray, radius: float, norm: str) -> None:
        buckets = GridBuckets(positions, cell_size=radius)
        indptr, indices = buckets.neighbor_arrays(radius + 1e-12, norm, include_self=True)
        # Downcast the CSR pair to int32 when safe — the values are identical,
        # only the storage shrinks.
        dtype = _index_dtype(buckets.positions.shape[0], int(indices.size))
        self.indptr = indptr.astype(dtype, copy=False)
        self.indices = indices.astype(dtype, copy=False)

    @property
    def nnz(self) -> int:
        """Stored links, including the self-link of every node."""
        return int(self.indices.size)

    def info(self) -> dict:
        """The CSR size (self links included) and its index dtype."""
        return {"nnz": self.nnz, "index_dtype": str(self.indices.dtype)}


class FriisLinkState:
    """Received-power state of :class:`~repro.sim.radio.FriisChannel`.

    Keeps the positions and the channel's power-block function; the engine's
    link cache keys it by exactly the parameters that function reads
    (:meth:`~repro.sim.radio.FriisChannel.link_signature`).
    """

    __slots__ = ("positions", "_power_block")

    def __init__(
        self,
        positions: np.ndarray,
        power_block: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> None:
        self.positions = np.asarray(positions, dtype=float)
        self._power_block = power_block

    def submatrix(self, listeners, senders) -> np.ndarray:
        """Exact received-power block (row: listener, column: sender)."""
        positions = self.positions
        return self._power_block(
            positions[np.asarray(listeners, dtype=np.intp)],
            positions[np.asarray(senders, dtype=np.intp)],
        )
