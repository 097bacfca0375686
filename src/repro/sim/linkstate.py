"""Dense and sparse link-state representations shared by the channel models.

The engine historically kept one dense ``N x N`` matrix per channel —
audibility booleans for the unit-disk model, received powers for Friis.  That
caps single runs near ~10^3-10^4 nodes (10^5 nodes would need 10 GB for the
boolean mask and 80 GB for the power matrix).  Both models are
locality-dominated, so this module adds a sparse tier behind one abstraction:

* :class:`DenseLinkState` wraps the precomputed matrix (the oracle path);
* :class:`UnitDiskLinkState` / :class:`FriisLinkState` keep only the node
  positions, the channel parameters and a CSR neighbor structure built per
  tile with grid-bucketed queries (:class:`~repro.topology.grid.GridBuckets`),
  plus the :class:`~repro.sim.tiling.RegionTiling` that scopes each
  transmission to its tile and the eight adjacent ones.

Bit-identity is the hard contract.  Sparse states never *approximate*: the
``submatrix`` of each sparse class recomputes the exact ``(listeners,
senders)`` block from positions with the same elementwise expression sequence
as the dense construction (elementwise float64 ufuncs are shape-independent,
so the values match bit for bit), and the unit-disk round views give the same
counts and sender attribution as the dense mask because unit-disk audibility
beyond the radius is *exactly* false.  Friis powers, by contrast, are nonzero
at every distance and the channel sums every sender's contribution, so the
Friis sparse state answers rounds through exact on-demand submatrices — its
CSR (within carrier-sense range) exists for topology queries and accounting.
The win is memory (O(N * neighborhood) instead of O(N^2)), never physics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..topology.grid import GridBuckets
from .tiling import RegionTiling

__all__ = [
    "ChannelLinkState",
    "DenseLinkState",
    "SparseLinkState",
    "UnitDiskLinkState",
    "FriisLinkState",
    "RoundView",
]


def _index_dtype(num_nodes: int, nnz: int) -> np.dtype:
    """Smallest safe integer dtype for the CSR ``indptr``/``indices`` arrays.

    ``indices`` stores node ids (< ``num_nodes``) and ``indptr`` stores
    offsets into ``indices`` (<= ``nnz``); when both fit in a signed 32-bit
    integer the arrays are halved.  At the 10^5-node scale the CSR pair is
    the dominant live allocation, so this is a real saving, and every
    consumer (fancy indexing, ``searchsorted``, arithmetic against ``intp``
    arrays) is dtype-agnostic.  Beyond 2^31 - 1 links the structure falls
    back to int64 rather than overflow.
    """
    limit = np.iinfo(np.int32).max
    if num_nodes <= limit and nnz <= limit:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class ChannelLinkState(abc.ABC):
    """Common interface of dense and sparse link-state representations."""

    #: Whether this state avoids the dense ``N x N`` materialization.
    is_sparse: bool = False

    @abc.abstractmethod
    def submatrix(self, listeners, senders) -> np.ndarray:
        """Exact ``(len(listeners), len(senders))`` link-state block.

        Bit-identical to slicing the dense matrix with ``np.ix_`` — sparse
        implementations recompute the block from positions with the dense
        construction's elementwise arithmetic.
        """

    def info(self) -> dict:
        """Introspection snapshot (shape, memory footprint)."""
        return {"sparse": self.is_sparse}


class DenseLinkState(ChannelLinkState):
    """The precomputed pairwise matrix, unchanged semantics (the oracle tier)."""

    __slots__ = ("matrix",)
    is_sparse = False

    def __init__(self, matrix: np.ndarray) -> None:
        self.matrix = matrix

    def submatrix(self, listeners, senders) -> np.ndarray:
        return self.matrix[np.ix_(listeners, senders)]

    def info(self) -> dict:
        return {"sparse": False, "dense_bytes": int(self.matrix.nbytes)}


@dataclass(frozen=True, slots=True)
class RoundView:
    """Per-round CSR aggregation for the unit-disk fast path.

    ``counts[i]`` is the number of this round's transmissions audible to the
    ``i``-th listener (listener order preserved), and ``tx_sum[i]`` the sum of
    the audible transmission column indices — for a single-transmission
    listener that *is* the decoded column, which is all the vectorized
    unit-disk kernel needs.
    """

    counts: np.ndarray
    tx_sum: np.ndarray


class SparseLinkState(ChannelLinkState):
    """Positions + CSR neighbor structure + region tiling (no dense matrix).

    The CSR rows (``indices[indptr[i]:indptr[i+1]]``, ascending) hold each
    node's neighborhood out to the channel's interaction radius, built one
    grid bucket (= one tile window) at a time.  Subclasses fix the distance
    predicate and how rounds resolve.
    """

    is_sparse = True

    def __init__(
        self,
        positions: np.ndarray,
        interaction_radius: float,
        norm: str,
        dense_itemsize: int,
    ) -> None:
        self.positions = np.asarray(positions, dtype=float)
        self.interaction_radius = float(interaction_radius)
        self.norm = norm
        self.dense_itemsize = int(dense_itemsize)
        buckets = GridBuckets(self.positions, cell_size=self.interaction_radius)
        # + 1e-12 mirrors the dense audibility tolerance; for Friis the CSR is
        # a sense-range neighborhood, where the same slack is harmless.
        self.indptr, self.indices = buckets.neighbor_arrays(
            self.interaction_radius + 1e-12, norm, include_self=True
        )
        # Downcast the CSR pair to int32 when safe — the values are identical,
        # only the storage shrinks, and sparse_bytes/dense_bytes_avoided track
        # the change automatically through .nbytes.
        dtype = _index_dtype(self.positions.shape[0], int(self.indices.size))
        if self.indices.dtype != dtype:
            self.indices = self.indices.astype(dtype)
        if self.indptr.dtype != dtype:
            self.indptr = self.indptr.astype(dtype)
        self.tiling = RegionTiling(self.positions, side=self.interaction_radius)
        self._interior_links, self._boundary_links = self.tiling.classify_links(
            self.indptr, self.indices
        )

    # -- structure -------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return int(self.positions.shape[0])

    @property
    def nnz(self) -> int:
        """Stored links, including the self-link diagonal (dense-mask parity)."""
        return int(self.indices.size)

    @property
    def sparse_bytes(self) -> int:
        return int(self.indices.nbytes + self.indptr.nbytes + self.positions.nbytes)

    @property
    def dense_bytes_avoided(self) -> int:
        """Bytes the dense matrix would need minus what the sparse tier keeps."""
        n = self.num_nodes
        return max(n * n * self.dense_itemsize - self.sparse_bytes, 0)

    def neighbors_of(self, node: int) -> np.ndarray:
        """Ascending ids within the interaction radius of ``node`` (self included)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    # -- rounds ----------------------------------------------------------------------
    #: Whether :meth:`round_view` is implemented (unit-disk only: audibility
    #: beyond the radius is exactly zero, so the CSR *is* the full physics).
    supports_round_views = False

    def round_view(self, listeners, senders) -> RoundView:
        raise NotImplementedError

    # -- introspection ----------------------------------------------------------------
    def info(self) -> dict:
        out = {"sparse": True, **self.tiling.info()}
        out.update(
            sparse_nnz=self.nnz,
            index_dtype=str(self.indices.dtype),
            interior_links=self._interior_links,
            boundary_links=self._boundary_links,
            dense_bytes_avoided=self.dense_bytes_avoided,
        )
        return out


class UnitDiskLinkState(SparseLinkState):
    """Sparse audibility for :class:`~repro.sim.radio.UnitDiskChannel`."""

    supports_round_views = True

    def __init__(self, positions: np.ndarray, radius: float, norm: str) -> None:
        self.radius = float(radius)
        super().__init__(positions, interaction_radius=self.radius, norm=norm, dense_itemsize=1)

    def submatrix(self, listeners, senders) -> np.ndarray:
        """Exact audibility block, recomputed with the dense expressions."""
        lp = self.positions[np.asarray(listeners, dtype=np.intp)]
        sp = self.positions[np.asarray(senders, dtype=np.intp)]
        diff = lp[:, None, :] - sp[None, :, :]
        if self.norm == "linf":
            dist = np.max(np.abs(diff), axis=-1)
        else:
            dist = np.sqrt(np.sum(diff**2, axis=-1))
        return dist <= self.radius + 1e-12

    def round_view(self, listeners, senders) -> RoundView:
        """Aggregate one round tile-by-tile from the senders' CSR rows.

        Each sender's CSR row is its audience: the nodes in its own and the
        eight adjacent tiles that pass the audibility predicate.  The row is
        intersected with the round's listener set and scattered into arrays
        indexed by *listener order*, so the counts (and therefore every
        downstream RNG draw) line up bit-exactly with the dense kernel no
        matter how the work was blocked by tile.
        """
        l_arr = np.asarray(listeners, dtype=np.intp)
        num_listeners = l_arr.size
        counts = np.zeros(num_listeners, dtype=np.int64)
        tx_sum = np.zeros(num_listeners, dtype=np.int64)
        if num_listeners:
            order = np.argsort(l_arr, kind="stable")
            sorted_ids = l_arr[order]
            indptr, indices = self.indptr, self.indices
            for col, sender in enumerate(senders):
                audience = indices[indptr[sender] : indptr[sender + 1]]
                pos = np.searchsorted(sorted_ids, audience)
                np.clip(pos, 0, num_listeners - 1, out=pos)
                hit = sorted_ids[pos] == audience
                rows = order[pos[hit]]
                counts[rows] += 1
                tx_sum[rows] += col
        return RoundView(counts, tx_sum)


class FriisLinkState(SparseLinkState):
    """Sparse received-power state for :class:`~repro.sim.radio.FriisChannel`.

    Friis power never truncates: a round's ``(listeners, senders)`` block is
    recomputed exactly from positions (every sender contributes to every
    listener's interference sum, as in the dense matrix), so results cannot
    drift no matter how sparse the topology is.  The CSR holds the
    carrier-sense neighborhood for tiling/accounting.
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
        super().__init__(
            positions, interaction_radius=float(sense_range), norm="l2", dense_itemsize=8
        )

    def submatrix(self, listeners, senders) -> np.ndarray:
        """Exact received-power block, recomputed with the dense expressions."""
        lp = self.positions[np.asarray(listeners, dtype=np.intp)]
        sp = self.positions[np.asarray(senders, dtype=np.intp)]
        diff = lp[:, None, :] - sp[None, :, :]
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        dist = np.maximum(dist, self.reference_distance)
        return self.tx_power * (self.reference_distance / dist) ** self.path_loss_exponent
