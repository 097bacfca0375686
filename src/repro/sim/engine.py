"""Synchronous slotted simulation engine.

The engine reproduces the execution model of the paper: time is divided into
rounds, rounds are grouped into six-round broadcast intervals (slots), and the
globally known TDMA schedule determines which device — or which
NeighborWatchRB square — owns each slot.  In every round each device either
broadcasts a frame or listens; the channel model then determines, per
listener, whether it perceives silence, a decoded message or a collision.

Sparse slot processing
----------------------
Simulating every device in every round would make large experiments (hundreds
of devices over hundreds of thousands of rounds) prohibitively slow in Python.
The engine therefore only processes, per slot, the devices that *declared an
interest* in the slot (the slot owner plus every device that listens to it)
together with any adversary that decided to transmit during the slot.  This is
sound because a device that neither transmits nor interprets a slot cannot
have its protocol state affected by it, and it follows the guide-recommended
pattern of spending Python time only where the algorithm needs it.

Compiled slot plans
-------------------
Everything static about a run is compiled once at construction into a
:class:`~repro.sim.plan.SlotPlan`: per-slot participant records with bound
protocol methods, frozen participant id arrays, flex-candidate lists for
opportunistic transmitters, interned transmissions, and — for channels
whose resolution consumes no RNG — a memo of whole resolved rounds keyed by
``(slot occurrence, senders, frames)``.  ``Schedule.iter_slot_starts``
replaces the per-slot divmod arithmetic of ``locate_round``.

Execution tiers
---------------
Two tiers execute the protocol layer.  The default is the struct-of-arrays
tier (:mod:`repro.sim.soa`): slots whose participants all run one of the
soa-compilable protocols (epidemic flooding, NeighborWatchRB, MultiPathRB)
over a unit-disk channel (capture-free; loss compiles) or a Friis/SINR
channel are compiled into packed-bitmask kernels that execute the whole
six-round broadcast interval as a handful of integer operations, touching
per-device Python only where state commits — batching loss draws in
listener order and synthesizing the event stream on traced runs.  This is
how the paper's "meta-node" squares execute: one mask operation covers
every member.  The knob is ``use_soa_kernels`` (env ``REPRO_SOA_KERNELS``,
default on).  Everything else — slot occurrences joined by an opportunistic
adversary transmitter, and every non-compilable configuration — runs on the
per-device loop in :meth:`Simulation._run_slot_scalar`, which is also the
scalar oracle the SoA kernels are pinned against.

Round resolution and link state
-------------------------------
The scalar loop resolves each round one way: the round memo, then
:meth:`~repro.sim.radio.Channel.observe` on the listeners' positions.  Only
the SoA tier reads a link state (:mod:`repro.sim.linkstate`), so it is
fetched only when that tier is on for an eligible channel and a first slot
group compiles.  :meth:`~repro.sim.radio.Channel.link_state` reads it off the
schedule — for unit disk, the schedule's own radius graph, which a node
schedule's listening table has already built — so a simulation rejects a
schedule computed from other positions than its nodes'.  The state is
cached per ``(channel, positions)`` pair in a small module-level LRU, so
repeated simulations over the same deployment reuse it.

The RNG contract is strict: stochastic channel configurations bypass the
round memo entirely and consume the generator exactly as the scalar reference
kernels would, and the SoA kernels preserve listener order per round, so
every result — including the content-addressed store fingerprints of
:mod:`repro.store` — is bit-identical to the pre-plan engine.

Deliveries are stamped with the exact round at the end of the slot in which
they happened (not at the next periodic check), so ``delivery_round`` and the
latency metrics derived from it are accurate to one slot.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Optional, Sequence

import numpy as np

from ..core.protocol import Observation, SILENCE
from ..core.schedule import Schedule
from .events import EventKind, EventLog
from .node import SimNode
from .plan import REC_ID, REC_NODE, REC_ACT, REC_OBSERVE, REC_END_SLOT, REC_HONEST, REC_POSITION, SlotPlan
from .radio import Channel, Transmission
from .results import NodeOutcome, RunResult
from .soa import SoaRuntime

__all__ = [
    "Simulation",
    "link_cache_info",
    "clear_link_cache",
    "default_soa_kernels",
]


def default_soa_kernels() -> bool:
    """Process-wide default for :class:`Simulation`'s ``use_soa_kernels``.

    Controlled by the ``REPRO_SOA_KERNELS`` environment variable (default
    on; ``0``/``false``/``no``/``off`` disable it).  It is a pure throughput
    setting: the struct-of-arrays
    slot kernels (:mod:`repro.sim.soa`) are bit-identical to the per-device
    oracle — exported rows, store fingerprints, ``delivery_round`` stamps,
    broadcast counts and RNG stream positions included — so it lives outside
    :class:`~repro.sim.config.ScenarioConfig` and never enters fingerprints.
    """
    value = os.environ.get("REPRO_SOA_KERNELS", "1").strip().lower()
    return value not in ("0", "false", "no", "off")


#: Bounded cache of channel link states (see :mod:`repro.sim.linkstate`),
#: keyed by the channel's link signature and the (immutable) bytes of the
#: position array.  A handful of entries is enough: within one process the
#: same deployment is typically re-simulated back-to-back (protocol
#: comparisons, repeated seeds).  Introspect with :func:`link_cache_info`,
#: reset with :func:`clear_link_cache` — tests that assert on cache behaviour
#: must clear it first or they observe each other's entries.
_LINK_CACHE: OrderedDict = OrderedDict()
_LINK_CACHE_MAX_ENTRIES = 8
_LINK_CACHE_HITS = 0
_LINK_CACHE_MISSES = 0


def link_cache_info() -> dict:
    """A snapshot of the module-level link-state cache.

    Returns ``{"entries", "max_entries", "hits", "misses"}``; the counters
    are cumulative since the last :func:`clear_link_cache`.
    """
    return {
        "entries": len(_LINK_CACHE),
        "max_entries": _LINK_CACHE_MAX_ENTRIES,
        "hits": _LINK_CACHE_HITS,
        "misses": _LINK_CACHE_MISSES,
    }


def clear_link_cache() -> None:
    """Drop every cached link state and zero the hit/miss counters.

    Cached entries are keyed by channel parameters and positions, so stale
    entries are never *wrong* — but tests that measure caching (and
    long-lived processes that sweep many deployments) want a known-empty
    starting state.
    """
    global _LINK_CACHE_HITS, _LINK_CACHE_MISSES
    _LINK_CACHE.clear()
    _LINK_CACHE_HITS = 0
    _LINK_CACHE_MISSES = 0


def _cached_link_state(channel: Channel, schedule: Schedule):
    """The channel's link state over the schedule's positions, via the module-level cache."""
    global _LINK_CACHE_HITS, _LINK_CACHE_MISSES
    positions = schedule.positions
    key = (channel.link_signature(), positions.shape, positions.tobytes())
    cached = _LINK_CACHE.get(key)
    if cached is None:
        _LINK_CACHE_MISSES += 1
        cached = channel.link_state(schedule)
        _LINK_CACHE[key] = cached
        while len(_LINK_CACHE) > _LINK_CACHE_MAX_ENTRIES:
            _LINK_CACHE.popitem(last=False)
    else:
        _LINK_CACHE_HITS += 1
        _LINK_CACHE.move_to_end(key)
    return cached


class Simulation:
    """Drive a set of devices through a slotted broadcast execution.

    Parameters
    ----------
    nodes:
        All devices (honest, Byzantine and crashed).  Node ids must equal the
        index of the device in this sequence.
    schedule:
        The TDMA schedule shared by every device, computed from their positions.
    channel:
        Channel model used to resolve per-round observations.
    message:
        The bits the (honest) source is broadcasting; used to judge
        correctness of deliveries.
    rng:
        Generator used by stochastic channel models.
    trace:
        Optional :class:`~repro.sim.events.EventLog` receiving broadcast and
        delivery events.
    use_soa_kernels:
        Whether to compile eligible slots into struct-of-arrays bitmask
        kernels (:mod:`repro.sim.soa`) — the fastest execution tier,
        available when every participant of a slot runs a soa-compilable
        protocol and the channel satisfies
        :meth:`~repro.sim.radio.Channel.supports_soa_rounds`.  ``None``
        (default) reads the process default (:func:`default_soa_kernels` —
        on unless ``REPRO_SOA_KERNELS=0``).  Uncompiled slots run on the
        per-device scalar loop, which is the oracle the kernels are pinned
        against.  Results are bit-identical on both tiers.
    """

    def __init__(
        self,
        nodes: Sequence[SimNode],
        schedule: Schedule,
        channel: Channel,
        message: Sequence[int],
        *,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[EventLog] = None,
        use_soa_kernels: Optional[bool] = None,
    ) -> None:
        self.nodes = list(nodes)
        for idx, node in enumerate(self.nodes):
            if node.node_id != idx:
                raise ValueError("node ids must match their index in the node list")
        self.schedule = schedule
        self.channel = channel
        self.message = tuple(int(b) for b in message)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.trace = trace
        self.round_index = 0

        self._positions = np.asarray([n.position for n in self.nodes], dtype=float)
        if not np.array_equal(schedule.positions, self._positions):
            raise ValueError("the schedule was computed from other positions than the nodes'")
        self.plan = SlotPlan(self.nodes, schedule)
        # Whole-round memoization is only sound when resolving a round cannot
        # consume RNG (otherwise replaying a cached round would desynchronise
        # the generator relative to the scalar reference execution).
        self._memo_rounds = not channel.consumes_rng()
        # The SoA tier compiles whole slots into bitmask kernels.  It reads
        # channel structure from the link state — the only reader, so the
        # state is fetched when its first slot compiles — and needs a
        # channel whose per-capability verdict (soa_round_support) is fully
        # eligible: disjunction or power-sum busy, with loss draws batchable
        # in listener order (unit-disk capture draws are data-dependent and
        # stay scalar).  Traced runs compile too — the kernels synthesize
        # the event stream from the packed masks.
        if use_soa_kernels is None:
            use_soa_kernels = default_soa_kernels()
        self.use_soa_kernels = bool(use_soa_kernels)
        self.soa_runtime: Optional[SoaRuntime] = None
        if self.use_soa_kernels and channel.supports_soa_rounds():
            runtime = SoaRuntime(
                self.nodes,
                self.plan,
                lambda: _cached_link_state(channel, schedule),
                schedule.phases_per_slot,
                channel=channel,
                rng=self.rng,
            )
            if runtime.groups:
                self.soa_runtime = runtime
        self._soa_groups = self.soa_runtime.groups if self.soa_runtime is not None else {}

    def plan_cache_info(self) -> dict:
        """Snapshot of the plan's and execution tiers' per-simulation caches.

        Returns a dict with these keys:

        * ``"round_memo"`` — the whole-round observation memo (RNG-free
          channel configurations only): ``{"entries", "max_entries", "hits",
          "misses"}``;
        * ``"transmissions_interned"`` — size of the transmission intern
          table;
        * ``"soa_kernels"`` — ``{"enabled": False}`` when the
          struct-of-arrays tier is off or no slot compiled, otherwise
          ``{"enabled": True, "slots_compiled", "member_slots", "slots_run",
          "scalar_fallbacks", "busy_cache_hits", "busy_cache_misses",
          "busy_cache_entries", "busy_cache_evictions"}``: how many slots
          (and slot-memberships) compiled into bitmask kernels, how many
          slot occurrences executed on the tier vs. fell back to the oracle
          loop because an opportunistic transmitter joined, and the
          busy-pattern memo counters (evictions count entries dropped by
          wholesale overflow clears of a group's memo);
        * ``"link_state"`` — what the built link state reports: ``{"nnz",
          "index_dtype"}`` (the CSR size, self links included, and its index
          dtype) for unit disk; ``{}`` for Friis, whose state stores no
          links, and when no state was fetched (SoA tier off or
          ineligible, or no slot compiled).
        """
        info = self.plan.cache_info()
        soa = self.soa_runtime
        info["soa_kernels"] = soa.info() if soa is not None else {"enabled": False}
        state = getattr(soa, "link_state", None)
        info["link_state"] = state.info() if hasattr(state, "info") else {}
        return info

    # -- execution ------------------------------------------------------------------------
    def run(
        self,
        max_rounds: int,
        *,
        stop_when_delivered: bool = True,
        check_interval_slots: Optional[int] = None,
    ) -> RunResult:
        """Run the simulation for at most ``max_rounds`` rounds.

        The run stops early once every active honest device has delivered the
        message (checked every ``check_interval_slots`` slots; by default once
        per schedule cycle).  Deliveries themselves are stamped with the exact
        round at which they happened regardless of the check interval, so the
        interval only affects how promptly the run *stops*, never the recorded
        ``delivery_round`` of any device.
        """
        if max_rounds <= 0:
            raise ValueError("max_rounds must be positive")
        if check_interval_slots is not None and check_interval_slots <= 0:
            raise ValueError("check_interval_slots must be positive")
        phases = self.schedule.phases_per_slot
        check_every = check_interval_slots if check_interval_slots is not None else self.schedule.num_slots
        slots_since_check = 0
        # Stamp devices that delivered before the run started (e.g. the source).
        self._record_deliveries()
        terminated = self._all_honest_delivered()

        slot_starts = self.schedule.iter_slot_starts(self.round_index)
        while not terminated and self.round_index + phases <= max_rounds:
            cycle, slot = next(slot_starts)
            self._run_slot(cycle, slot)
            self.round_index += phases
            slots_since_check += 1
            if slots_since_check >= check_every:
                slots_since_check = 0
                if stop_when_delivered and self._all_honest_delivered():
                    terminated = True
        if self.soa_runtime is not None:
            self.soa_runtime.flush_broadcasts()
        self._record_deliveries()
        terminated = self._all_honest_delivered()
        return self._build_result(terminated)

    def run_slots(self, num_slots: int) -> None:
        """Advance the simulation by exactly ``num_slots`` slots (testing helper)."""
        phases = self.schedule.phases_per_slot
        slot_starts = self.schedule.iter_slot_starts(self.round_index)
        for _ in range(num_slots):
            cycle, slot = next(slot_starts)
            self._run_slot(cycle, slot)
            self.round_index += phases
        if self.soa_runtime is not None:
            self.soa_runtime.flush_broadcasts()
        self._record_deliveries()

    # -- internals -------------------------------------------------------------------------
    def _run_slot(self, cycle: int, slot: int) -> None:
        plan = self.plan
        records: tuple = plan.slot_records.get(slot, ())
        occurrence_key: object = slot
        extras: Optional[list] = None
        flex = plan.flex_candidates.get(slot)
        if flex is not None:
            # wants_slot may consume the adversary's private RNG, so the query
            # order (declaration order, skipping interest-set members — they
            # are never in the candidate list) must match the historical scan.
            extras = [record for wants_slot, record in flex if wants_slot(cycle, slot)]
            if extras:
                records = records + tuple(extras)
                occurrence_key = (slot, tuple(r[REC_ID] for r in extras))
        if not records:
            return
        soa_groups = self._soa_groups
        if soa_groups:
            group = soa_groups.get(slot)
            if group is not None:
                if extras:
                    # Opportunistic joiners put unmodeled frames on the air;
                    # this occurrence runs on the oracle loop (against the
                    # same protocol objects — the next occurrence resumes on
                    # the SoA tier by re-reading their state).
                    self.soa_runtime.scalar_fallbacks += 1
                    self._run_slot_scalar(cycle, slot, records, occurrence_key)
                else:
                    self.soa_runtime.run_slot(self, group)
                return
        self._run_slot_scalar(cycle, slot, records, occurrence_key)

    def _run_slot_scalar(self, cycle: int, slot: int, records: tuple, occurrence_key: object) -> None:
        """The per-device scalar loop: the oracle and the fallback tier."""
        plan = self.plan
        phases = self.schedule.phases_per_slot
        trace = self.trace
        for phase in range(phases):
            transmissions: list[Transmission] = []
            listeners: list[int] = []
            observers: list = []
            for record in records:
                frame = record[REC_ACT](cycle, slot, phase)
                if frame is None:
                    listeners.append(record[REC_ID])
                    observers.append(record[REC_OBSERVE])
                else:
                    transmissions.append(
                        plan.transmission(record[REC_ID], record[REC_POSITION], frame)
                    )
                    record[REC_NODE].broadcasts += 1
                    if trace is not None:
                        trace.record(
                            EventKind.BROADCAST,
                            self.round_index + phase,
                            record[REC_ID],
                            slot,
                            phase,
                            frame.kind.name,
                        )
            if not observers:
                continue
            if not transmissions:
                for observe in observers:
                    observe(cycle, slot, phase, SILENCE)
                continue
            observations = self._resolve_round(occurrence_key, listeners, transmissions)
            for observe, obs in zip(observers, observations):
                observe(cycle, slot, phase, obs)

        end_round = self.round_index + phases
        for record in records:
            record[REC_END_SLOT](cycle, slot)
            # Stamp deliveries with the exact round at which they happened
            # (a device's state only changes in slots it participates in).
            node = record[REC_NODE]
            if record[REC_HONEST] and node.delivery_round is None and node.delivered:
                node.mark_delivered(end_round)
                if trace is not None:
                    trace.record(EventKind.DELIVERY, end_round, record[REC_ID])

    def _resolve_round(
        self,
        occurrence_key: object,
        listeners: list[int],
        transmissions: list[Transmission],
    ) -> list[Observation]:
        """Observations for one round: round memo, then :meth:`Channel.observe`.

        The round memo is consulted only for RNG-free channel configurations;
        its key pins everything observations depend on — the slot occurrence
        (which fixes the listener list), the sender set and the frames on the
        air.  Stochastic configurations always resolve, consuming the RNG in
        exactly the scalar reference order.
        """
        memo = self.plan.round_memo if self._memo_rounds else None
        if memo is not None:
            memo_key = (
                occurrence_key,
                tuple(t.sender for t in transmissions),
                tuple(t.frame for t in transmissions),
            )
            observations = memo.get(memo_key)
            if observations is not None:
                self.plan.round_memo_hits += 1
                memo.move_to_end(memo_key)
                return observations
            self.plan.round_memo_misses += 1
        observations = self.channel.observe(
            listeners, self._positions[listeners], transmissions, self.rng
        )
        if memo is not None:
            memo[memo_key] = observations
            while len(memo) > self.plan.round_memo_max_entries:
                memo.popitem(last=False)
        return observations

    def _all_honest_delivered(self) -> bool:
        for node in self.nodes:
            if node.honest and node.active and not node.delivered:
                return False
        return True

    def _record_deliveries(self) -> None:
        for node in self.nodes:
            if node.honest and node.active and node.delivery_round is None and node.delivered:
                node.mark_delivered(self.round_index)
                if self.trace is not None:
                    self.trace.record(EventKind.DELIVERY, self.round_index, node.node_id)

    def _build_result(self, terminated: bool) -> RunResult:
        outcomes: dict[int, NodeOutcome] = {}
        for node in self.nodes:
            delivered = node.delivered if node.active else False
            correct: Optional[bool] = None
            if delivered:
                msg = node.delivered_message
                correct = (tuple(msg) == self.message) if msg is not None else None
            outcomes[node.node_id] = NodeOutcome(
                node_id=node.node_id,
                honest=node.honest,
                active=node.active,
                delivered=delivered,
                correct=correct,
                delivery_round=node.delivery_round,
                broadcasts=node.broadcasts,
            )
        return RunResult(
            message=self.message,
            total_rounds=self.round_index,
            terminated=terminated,
            outcomes=outcomes,
        )
