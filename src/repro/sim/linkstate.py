"""The link state the struct-of-arrays kernels read.

In the paper's radio model reception is a function of node positions.  For a
static deployment the SoA tier (:mod:`repro.sim.soa`) compiles whole slots
against that function once, and each channel's
:meth:`~repro.sim.radio.Channel.link_state` hands it exactly the structure
its kernels read — nothing else:

* unit disk — the schedule's :class:`~repro.topology.grid.NeighborGraph`,
  the CSR of every pair within the radius (self included, rows ascending),
  the same object the schedule's listening table reads.  Audibility beyond
  the radius is *exactly* false, so the CSR holds the complete physics; the
  disjunction kernels filter each slot group's adjacency out of it.
* Friis — :class:`FriisLinkState`: positions plus the channel's own
  power-block function.  Friis power is nonzero at every distance and every
  sender enters each listener's interference sum, so there is no
  neighborhood to store; the power-sum kernels fetch exact
  ``(listeners, senders)`` blocks on demand.

Bit-identity is the hard contract, and it holds by construction: the graph
and :meth:`~repro.sim.radio.UnitDiskChannel.observe` share one range
predicate, and the Friis blocks come from
:meth:`~repro.sim.radio.FriisChannel.received_powers`, which ``observe``
calls too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["FriisLinkState"]


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
