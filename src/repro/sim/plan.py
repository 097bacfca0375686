"""Compiled per-slot execution plans for the simulation engine.

The engine's hot loop used to re-derive the same facts every slot of every
cycle: which devices participate, which of them may transmit opportunistically
and where each participant is located.  All of that is static for a given
simulation, so :class:`SlotPlan` compiles it once at construction:

* **slot records** — per slot, a frozen tuple of per-participant records
  ``(node_id, node, act, observe, end_slot, honest, position)`` with the
  protocol's bound methods resolved ahead of time, so the per-phase loop does
  no attribute lookups;
* **frozen id arrays** — per slot, the participant ids as an immutable NumPy
  array (``writeable=False``), for introspection and vectorised consumers;
* **flex candidates** — per slot, the flexible transmitters (adversaries with
  ``may_transmit_anywhere``) *not already* in the slot's interest set, in
  global declaration order.  The engine queries ``wants_slot`` only for these,
  preserving the exact historical call sequence (and therefore the adversary
  RNG stream) while skipping the per-slot membership scans;
* **transmission interning** — ``Transmission`` objects keyed by
  ``(sender, frame)``; protocols put a tiny alphabet of frames on the air, so
  the same transmission need not be re-allocated every phase;
* **round memo** — for channels whose resolution consumes no RNG
  (:meth:`~repro.sim.radio.Channel.consumes_rng` is ``False``), whole resolved
  rounds keyed by ``(slot occurrence, senders, frames)``.  Observations are a
  pure function of that key, so the engine replays the interned observation
  list instead of resolving at all.  Stochastic configurations never enter
  this cache — their RNG stream must advance exactly as before.

The compiled records bind protocol methods once: the plan assumes (like the
engine always has) that a node's protocol is not swapped mid-run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..core.schedule import Schedule
from .node import SimNode
from .radio import Transmission

__all__ = ["SlotPlan"]

#: Record layout inside :attr:`SlotPlan.slot_records` (documented indices).
REC_ID, REC_NODE, REC_ACT, REC_OBSERVE, REC_END_SLOT, REC_HONEST, REC_POSITION = range(7)

_TX_CACHE_MAX = 8192


class SlotPlan:
    """Static execution structure of one :class:`~repro.sim.engine.Simulation`."""

    __slots__ = (
        "slot_records",
        "flex_candidates",
        "participant_arrays",
        "round_memo",
        "round_memo_max_entries",
        "round_memo_hits",
        "round_memo_misses",
        "_tx_cache",
    )

    def __init__(
        self,
        nodes: Sequence[SimNode],
        schedule: Schedule,
        *,
        round_memo_max_entries: int = 512,
    ) -> None:
        # One pass over the nodes builds everything: the per-node record with
        # the protocol's bound methods resolved once, and the per-slot record
        # lists (records appended directly, so no second id-to-record pass).
        record_lists: dict[int, list[tuple]] = {}
        # (wants_slot, record) of every flexible transmitter, in declaration order.
        flex: list[tuple] = []
        num_slots = schedule.num_slots
        for node in nodes:
            proto = node.protocol
            if proto is None:
                continue
            record = (
                node.node_id,
                node,
                proto.act,
                proto.observe,
                proto.end_slot,
                node.honest,
                node.position,
            )
            declared: set[int] = set()
            for slot in proto.interests():
                if not (0 <= slot < num_slots):
                    raise ValueError(
                        f"node {node.node_id} declared interest in slot {slot}, "
                        f"but the schedule only has {num_slots} slots"
                    )
                # Deduplicate (order-preserving): a protocol that declares the
                # same slot twice must still act and observe once per phase.
                slot = int(slot)
                if slot in declared:
                    continue
                declared.add(slot)
                slot_list = record_lists.get(slot)
                if slot_list is None:
                    record_lists[slot] = [record]
                else:
                    slot_list.append(record)
            if getattr(proto, "may_transmit_anywhere", False):
                flex.append((proto.wants_slot, record))

        self.slot_records: dict[int, tuple] = {
            slot: tuple(records) for slot, records in record_lists.items()
        }

        # Frozen per-slot participant ids, in record order.  Shared with the
        # SoA compiler, which adopts each
        # array as its group's member_ids (ascending ids are what make the
        # packed-mask member indexing line up with scalar record order).
        self.participant_arrays: dict[int, np.ndarray] = {}
        for slot, records in self.slot_records.items():
            array = np.asarray([record[REC_ID] for record in records], dtype=np.intp)
            array.setflags(write=False)
            self.participant_arrays[slot] = array

        # Flex candidates per slot: flexible transmitters outside the slot's
        # interest set, in declaration order — the same subsequence the engine
        # used to recompute per slot, so adversary wants_slot() calls (which
        # may consume their private RNG) happen in exactly the same order.
        self.flex_candidates: dict[int, tuple] = {}
        if flex:
            for slot in range(num_slots):
                base = {record[REC_ID] for record in self.slot_records.get(slot, ())}
                candidates = tuple(entry for entry in flex if entry[1][REC_ID] not in base)
                if candidates:
                    self.flex_candidates[slot] = candidates

        self.round_memo: "OrderedDict[tuple, list]" = OrderedDict()
        self.round_memo_max_entries = int(round_memo_max_entries)
        self.round_memo_hits = 0
        self.round_memo_misses = 0

        self._tx_cache: dict[tuple, Transmission] = {}

    # -- hot-path helpers ------------------------------------------------------------
    def transmission(self, node_id: int, position, frame) -> Transmission:
        """Interned ``Transmission`` for a sender/frame pair."""
        key = (node_id, frame)
        cache = self._tx_cache
        tx = cache.get(key)
        if tx is None:
            if len(cache) >= _TX_CACHE_MAX:
                cache.clear()
            tx = Transmission(node_id, position, frame)
            cache[key] = tx
        return tx

    # -- introspection ----------------------------------------------------------------
    def cache_info(self) -> dict:
        """Snapshot of the plan's per-simulation caches (counters since construction)."""
        return {
            "round_memo": {
                "entries": len(self.round_memo),
                "max_entries": self.round_memo_max_entries,
                "hits": self.round_memo_hits,
                "misses": self.round_memo_misses,
            },
            "transmissions_interned": len(self._tx_cache),
        }
