"""The CSR link state shared by the channel models.

In the paper's radio model a device's reception depends only on the
transmitters within its interference range.  For a static deployment a
channel therefore keeps the node positions, its own parameters and a CSR
neighborhood out to that range, built one tile at a time with grid-bucketed
queries (:class:`~repro.topology.grid.GridBuckets`), plus the
:class:`~repro.sim.tiling.RegionTiling` that places each link inside one tile
or across one tile boundary.  Memory is ``O(N * neighborhood)`` at every node
count.

Bit-identity is the hard contract.  :meth:`LinkState.submatrix` recomputes the
exact ``(listeners, senders)`` block from positions with the same elementwise
expression sequence as the channel's :meth:`~repro.sim.radio.Channel.observe`
(elementwise float64 ufuncs are shape-independent, so the values match bit
for bit).  Unit-disk audibility beyond the radius is *exactly* false, so the
unit-disk CSR holds the full physics.  Friis power is nonzero at every
distance and every sender enters each listener's interference sum, so Friis
rounds always resolve through exact submatrices; its CSR (the carrier-sense
neighborhood) serves topology queries and accounting.
"""

from __future__ import annotations

import abc

import numpy as np

from ..topology.grid import GridBuckets
from .tiling import RegionTiling

__all__ = ["LinkState", "UnitDiskLinkState", "FriisLinkState"]


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


class LinkState(abc.ABC):
    """Positions + CSR neighbor structure + region tiling.

    The CSR rows (``indices[indptr[i]:indptr[i+1]]``, ascending, self
    included) hold each node's neighborhood out to the channel's interaction
    radius, built one grid bucket (= one tile window) at a time.  Subclasses
    fix the distance predicate and the :meth:`submatrix` physics.
    """

    def __init__(self, positions: np.ndarray, interaction_radius: float, norm: str) -> None:
        self.positions = np.asarray(positions, dtype=float)
        self.interaction_radius = float(interaction_radius)
        self.norm = norm
        buckets = GridBuckets(self.positions, cell_size=self.interaction_radius)
        # + 1e-12 is the channels' audibility tolerance; for Friis the CSR is
        # a sense-range neighborhood, where the same slack is harmless.
        self.indptr, self.indices = buckets.neighbor_arrays(
            self.interaction_radius + 1e-12, norm, include_self=True
        )
        # Downcast the CSR pair to int32 when safe — the values are identical,
        # only the storage shrinks.
        dtype = _index_dtype(self.positions.shape[0], int(self.indices.size))
        self.indices = self.indices.astype(dtype, copy=False)
        self.indptr = self.indptr.astype(dtype, copy=False)
        self.tiling = RegionTiling(self.positions, side=self.interaction_radius)
        self._interior_links, self._boundary_links = self.tiling.classify_links(
            self.indptr, self.indices
        )

    @property
    def nnz(self) -> int:
        """Stored links, including the self-link of every node."""
        return int(self.indices.size)

    @abc.abstractmethod
    def submatrix(self, listeners, senders) -> np.ndarray:
        """Exact ``(len(listeners), len(senders))`` link-state block.

        Recomputed from positions with the channel's own elementwise
        arithmetic, so it equals what :meth:`~repro.sim.radio.Channel.observe`
        derives for the same round, bit for bit.
        """

    def info(self) -> dict:
        """The static tiling shape, the CSR size and its interior/boundary split."""
        return {
            **self.tiling.info(),
            "nnz": self.nnz,
            "index_dtype": str(self.indices.dtype),
            "interior_links": self._interior_links,
            "boundary_links": self._boundary_links,
        }


class UnitDiskLinkState(LinkState):
    """Audibility state of :class:`~repro.sim.radio.UnitDiskChannel`."""

    def __init__(self, positions: np.ndarray, radius: float, norm: str) -> None:
        self.radius = float(radius)
        super().__init__(positions, interaction_radius=self.radius, norm=norm)

    def submatrix(self, listeners, senders) -> np.ndarray:
        """Exact audibility block: ``distance <= radius + 1e-12``."""
        lp = self.positions[np.asarray(listeners, dtype=np.intp)]
        sp = self.positions[np.asarray(senders, dtype=np.intp)]
        diff = lp[:, None, :] - sp[None, :, :]
        if self.norm == "linf":
            dist = np.max(np.abs(diff), axis=-1)
        else:
            dist = np.sqrt(np.sum(diff**2, axis=-1))
        return dist <= self.radius + 1e-12


class FriisLinkState(LinkState):
    """Received-power state of :class:`~repro.sim.radio.FriisChannel`.

    Friis power never truncates: a round's ``(listeners, senders)`` block is
    recomputed exactly from positions (every sender contributes to every
    listener's interference sum), so results cannot drift however sparse the
    topology is.  The CSR holds the carrier-sense neighborhood.
    """

    def __init__(
        self,
        positions: np.ndarray,
        *,
        sense_range: float,
        tx_power: float,
        reference_distance: float,
        path_loss_exponent: float,
    ) -> None:
        self.tx_power = float(tx_power)
        self.reference_distance = float(reference_distance)
        self.path_loss_exponent = float(path_loss_exponent)
        super().__init__(positions, interaction_radius=float(sense_range), norm="l2")

    def submatrix(self, listeners, senders) -> np.ndarray:
        """Exact received-power block (row: listener, column: sender)."""
        lp = self.positions[np.asarray(listeners, dtype=np.intp)]
        sp = self.positions[np.asarray(senders, dtype=np.intp)]
        diff = lp[:, None, :] - sp[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        dist = np.maximum(dist, self.reference_distance)
        return self.tx_power * (self.reference_distance / dist) ** self.path_loss_exponent
