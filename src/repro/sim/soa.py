"""Struct-of-arrays (SoA) slot kernels — the default execution tier.

The per-device scalar loop
(:meth:`repro.sim.engine.Simulation._run_slot_scalar`) walks every
participant through the six-phase machinery each slot.  For the simple
state machines — the epidemic counters and the 1Hop/2Bit streams behind
NeighborWatchRB and MultiPathRB — the whole slot is a closed-form function
of a few packed bitmasks, because their transitions consume no RNG and read
the channel only through the ``busy`` flag (the paper's meta-node squares
are exactly such groups).  This module compiles such slots
once (:class:`SoaRuntime`) and then executes each slot occurrence as a
handful of integer mask operations over *all* of the slot's devices at
once, fanning out to per-device Python only at the state-commit boundary
(a sender advancing its stream, a receiver accepting a bit, a device
adopting the flood payload).

The contract is bit-identity with that scalar oracle: identical protocol
state trajectories, identical ``delivery_round`` stamps, identical
broadcast counts, identical RNG stream positions, and — on traced runs —
an identical event stream.  Which channel configurations lower to this
tier is decided per capability by
:meth:`~repro.sim.radio.Channel.soa_round_support`:

* **busy models** — unit-disk busy is an audibility *disjunction* (resolved
  through a group-local CSR adjacency); Friis busy is a carrier-sense
  *power sum* (resolved through lazily cached member×member power columns
  whose row sums reproduce :meth:`FriisChannel._resolve_powers` float
  for float, so thresholds and the SINR argmax are bit-identical).
* **loss draws** — the scalar loop draws exactly once per
  single-transmission (unit disk) or decodable (Friis) listener, in
  listener order (the PR 3 batching contract).  That count depends only on
  the transmitter mask and the geometry — never on protocol state — so it
  is memoized alongside the busy mask and replayed as one
  ``rng.random(k)`` per phase, consuming the generator exactly like the
  scalar loop.  The drawn *values* are never needed: losses convert
  MESSAGE into COLLISION, both of which are busy, and the stream machines
  read only ``busy`` (the epidemic kernel, which does decode payloads,
  keeps its draws and filters adopters with them).
* **capture** — Friis SINR capture is deterministic (an argmax) and
  compiles; unit-disk ``capture_probability`` draws are data-dependent
  (a uniform plus an integer choice per collision) and keep those
  configurations on the scalar tier.
* **tracing** — BROADCAST/DELIVERY events are synthesized from the packed
  masks after each slot's mask algebra, in the exact order the scalar
  loop's record iteration emits them, so traced runs stay on this tier.

Kernels mutate the *same* protocol objects the scalar loop would, so any
slot occurrence can fall back to the scalar path (opportunistic adversary
transmitters joining a slot) and the next occurrence resumes on the SoA
tier with no reconciliation step: per-slot role masks are recomputed from
the live objects at slot entry.

Mask conventions
----------------
Within one compiled slot group the members are indexed ``0..n-1`` in
participant (node id) order; a *mask* is a Python integer whose bit ``i``
refers to member ``i``.  Each distinct transmitter mask is resolved once
and memoized as ``(busy mask, transmitter indices, loss-draw count)`` — in
steady state a slot's busy pattern repeats every cycle, so the six phases
cost six dictionary hits.  Broadcast counts are tallied per transmitter
mask (one dictionary bump per phase) and decoded into per-node counters at
:meth:`SoaRuntime.flush_broadcasts`.

The six-phase stream recurrence mirrors :mod:`repro.core.twobit` exactly:
data rounds R1/R3 carry the parity and data bits, ack rounds R2/R4 echo
them, R5 carries sender vetoes (:func:`~repro.core.twobit.soa_veto_mask`)
plus blocker activity, R6 relays the veto.  Per-slot statistics kept by
the per-device helpers (attempt/failure tallies) are *not* maintained —
no transition reads them, so they never influence behaviour.
"""

from __future__ import annotations

import warnings
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.epidemic import EpidemicNode
from ..core.multipath import MultiPathNode
from ..core.neighborwatch import NeighborWatchNode
from ..core.twobit import NUM_PHASES, soa_veto_mask
from .events import EventKind
from .node import SimNode
from .plan import REC_HONEST, REC_ID, REC_NODE, SlotPlan

__all__ = ["SoaRuntime"]

#: Busy-pattern memo bound per slot group (cleared wholesale on overflow;
#: steady-state slots cycle through a handful of transmitter masks).
_BUSY_CACHE_MAX = 4096

#: Frame kind broadcast in each stream phase, for trace synthesis.  Senders
#: carry DATA_BIT in R1/R3, receivers echo ACK in R2/R4, and every R5/R6
#: transmission — sender veto, receiver relay, or blocker jam — is a VETO
#: frame (``TwoBitBlocker.act`` and the sender/receiver machines agree).
_STREAM_PHASE_KINDS = ("DATA_BIT", "ACK", "DATA_BIT", "ACK", "VETO", "VETO")


def _pack_mask(flags: np.ndarray) -> int:
    """Boolean member array -> packed little-endian mask (bit i == flags[i])."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _mask_indices(mask: int, n: int) -> np.ndarray:
    """Packed mask -> ascending array of the set member indices below ``n``."""
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.nonzero(np.unpackbits(raw, count=n, bitorder="little"))[0]


class _PowerColumns:
    """Lazily materialized member×member power block of a power-sum group.

    Eagerly building every group's full n×n block at compile time is
    quadratic in group size across the whole plan — and each block is
    recomputed from positions, which made the epidemic-friis-1200 macro
    spend seconds compiling blocks for a sub-second run.  The kernels only
    ever read transmitter *columns*, and steady-state slots cycle through a
    handful of transmitter sets, so columns are fetched on first use
    (batched per miss) and cached per member.  Column ``j`` comes from
    :meth:`~repro.sim.radio.FriisChannel.received_powers`, the function whose
    block the scalar loop's ``observe`` hands ``_resolve_powers``, so it is
    equal float for float, and :meth:`gather` lays the
    requested columns out ``(n, k)`` in request order exactly like
    ``block[:, idx]`` — same values in the same reduction order, hence
    bit-identical row sums.
    """

    __slots__ = ("member_ids", "link_state", "cols")

    def __init__(self, member_ids: np.ndarray, link_state) -> None:
        self.member_ids = member_ids
        self.link_state = link_state
        self.cols: dict[int, np.ndarray] = {}

    def gather(self, idx) -> np.ndarray:
        """``(n, k)`` power block of the given transmitter columns."""
        cols = self.cols
        missing = [int(j) for j in idx if int(j) not in cols]
        if missing:
            block = self.link_state.submatrix(
                self.member_ids, self.member_ids[np.asarray(missing, dtype=np.intp)]
            )
            for pos, j in enumerate(missing):
                cols[j] = np.ascontiguousarray(block[:, pos])
        n = self.member_ids.size
        out = np.empty((n, len(idx)), dtype=np.float64)
        for pos, j in enumerate(idx):
            out[:, pos] = cols[int(j)]
        return out


class _SlotGroup:
    """Compiled state of one slot: members, channel structure, role bindings."""

    __slots__ = (
        "slot",
        "run",
        "n",
        "records",
        "member_ids",
        "indptr",
        "indices",
        "power",
        "busy_cache",
        "tally",
        "cache_hits",
        "cache_misses",
        "owners",
        "receivers",
        "adopts",
        "runtime",
    )

    def phase_busy(self, tx_mask: int) -> int:
        """Channel-busy mask for one phase, tallying member broadcasts.

        Resolves the transmitter mask via the per-group memo, bumps the
        per-mask broadcast tally, and — when the configuration draws — burns
        the memoized number of loss draws off the simulation generator so
        the stream position tracks the scalar loop exactly.
        """
        if not tx_mask:
            return 0
        entry = self.busy_cache.get(tx_mask)
        if entry is None:
            entry = self._resolve_mask(tx_mask)
        else:
            self.cache_hits += 1
        tally = self.tally
        tally[tx_mask] = tally.get(tx_mask, 0) + 1
        draws = entry[2]
        if draws:
            self.runtime.rng_random(draws)
        return entry[0]

    def _resolve_mask(self, tx_mask: int) -> tuple:
        """Miss path of :meth:`phase_busy`: resolve + memoize one mask.

        The memo entry is ``(busy mask, transmitter indices, draw count)``.
        The draw count — single-audible (disjunction) or decodable
        (power-sum) members that are *not* transmitting — is cacheable
        because the scalar channel kernels draw for every such listener
        regardless of protocol state, and a phase's listeners are exactly
        the members outside its transmitter set.  Transmitter bits of the
        busy mask are garbage by the same token; no phase of the stream
        recurrence reads a member's busy bit in a phase it transmits in.
        """
        self.cache_misses += 1
        runtime = self.runtime
        n = self.n
        idx = _mask_indices(tx_mask, n)
        loss = runtime.loss
        draws = 0
        power = self.power
        if power is not None:
            # Power-sum (Friis) busy: the exact expressions of the
            # vectorized _resolve_powers kernel over the compiled columns.
            cols = power.gather(idx)
            total = cols.sum(axis=1)
            busy_flags = total >= runtime.sense_threshold
            if loss > 0.0:
                strongest = cols.argmax(axis=1)
                signal = cols[np.arange(n), strongest]
                interference = total - signal + runtime.noise_floor
                decodable = (
                    busy_flags
                    & (signal >= runtime.reception_threshold)
                    & (signal >= runtime.capture_threshold * interference)
                )
                decodable[idx] = False
                draws = int(np.count_nonzero(decodable))
        else:
            indptr, indices = self.indptr, self.indices
            if loss > 0.0:
                counts = np.zeros(n, dtype=np.int64)
                for j in idx:
                    counts[indices[indptr[j] : indptr[j + 1]]] += 1
                busy_flags = counts > 0
                sole = counts == 1
                sole[idx] = False
                draws = int(np.count_nonzero(sole))
            else:
                busy_flags = np.zeros(n, dtype=bool)
                for j in idx:
                    busy_flags[indices[indptr[j] : indptr[j + 1]]] = True
        return self._memoize(tx_mask, (_pack_mask(busy_flags), idx, draws))

    def _memoize(self, key: int, entry: tuple) -> tuple:
        """Store one resolved entry in the bounded per-group memo.

        Shared by the stream busy resolver and the epidemic decode-geometry
        resolver (one group only ever holds one entry shape).  Overflow
        clears the memo wholesale, counts the evictions, and warns once per
        runtime when the lookups were mostly misses — a thrashing memo
        means this slot's transmitter masks do not repeat and the group is
        re-resolving every cycle.
        """
        cache = self.busy_cache
        if len(cache) >= _BUSY_CACHE_MAX:
            runtime = self.runtime
            runtime.busy_cache_evictions += len(cache)
            calls = self.cache_hits + self.cache_misses
            if not runtime.thrash_warned and self.cache_misses * 2 > calls:
                runtime.thrash_warned = True
                warnings.warn(
                    f"SoA busy cache thrashing on slot {self.slot}: "
                    f"{self.cache_misses}/{calls} lookups missed before the "
                    f"{_BUSY_CACHE_MAX}-entry memo overflowed; this slot's "
                    "transmitter masks do not repeat, so the compiled group "
                    "is re-resolving masks every cycle",
                    RuntimeWarning,
                    stacklevel=4,
                )
            cache.clear()
        cache[key] = entry
        return entry

    def trace_stream(self, trace, round_index: int, phase_tx: tuple) -> None:
        """Synthesize one stream slot's BROADCAST events from its tx masks.

        The scalar loop records one BROADCAST per acting record, phase by
        phase, in record (ascending member) order — exactly the order the
        unpacked mask indices walk.
        """
        member_ids = self.member_ids
        slot = self.slot
        n = self.n
        for phase, tx_mask in enumerate(phase_tx):
            if not tx_mask:
                continue
            kind = _STREAM_PHASE_KINDS[phase]
            rnd = round_index + phase
            for i in _mask_indices(tx_mask, n):
                trace.record(
                    EventKind.BROADCAST, rnd, int(member_ids[i]), slot, phase, kind
                )


def _run_stream_slot(sim, group: _SlotGroup) -> None:
    """One six-phase 1Hop/2Bit slot over all members at once.

    Role masks are rebuilt from the live sender/receiver objects at entry
    (cheap — a slot group holds one TDMA neighborhood), which is what makes
    scalar fallback occurrences free of bookkeeping: whatever an
    interleaved scalar slot did to the objects is simply re-read here.
    """
    senders = b1 = b2 = always = cond = 0
    slot_senders = None
    for i, bit, sender, idle_veto in group.owners:
        if sender.has_pending:
            parity, data = sender.soa_current_pair()
            senders |= bit
            if parity:
                b1 |= bit
            if data:
                b2 |= bit
            if slot_senders is None:
                slot_senders = [(bit, sender)]
            else:
                slot_senders.append((bit, sender))
        elif idle_veto:
            always |= bit
        else:
            cond |= bit
    active = parity1 = 0
    for i, bit, receiver, post in group.receivers:
        if receiver.complete:
            continue
        active |= bit
        if receiver.expected_parity:
            parity1 |= bit

    phase_busy = group.phase_busy
    busy0 = phase_busy(b1)
    heard1 = busy0 & active
    busy1 = phase_busy(heard1)
    busy2 = phase_busy(b2)
    heard2 = busy2 & active
    busy3 = phase_busy(heard2)
    # Conditional blockers arm on any activity they heard in the four
    # data/ack rounds (TwoBitBlocker listens R1-R4 and jams R5/R6).
    blockers = always | (cond & (busy0 | busy1 | busy2 | busy3))
    tx4 = soa_veto_mask(senders, b1, b2, busy1, busy3) | blockers
    busy4 = phase_busy(tx4)
    heard_veto = busy4 & active
    tx5 = heard_veto | blockers
    busy5 = phase_busy(tx5)

    trace = sim.trace
    if trace is not None:
        group.trace_stream(
            trace, sim.round_index, (b1, heard1, b2, heard2, tx4, tx5)
        )

    if slot_senders is not None:
        final = busy5 & senders
        for bit, sender in slot_senders:
            if not (final & bit):
                sender.soa_advance()

    # A receiver accepts exactly when its slot was veto-free and the parity
    # it heard matches the next expected one (XNOR against the parity mask);
    # the data bit is its R3 observation.
    accepted = active & ~heard_veto & ~(heard1 ^ parity1)
    if accepted:
        end_round = sim.round_index + NUM_PHASES
        records = group.records
        for i, bit, receiver, post in group.receivers:
            if accepted & bit:
                receiver.soa_append(1 if heard2 & bit else 0)
                post()
                record = records[i]
                node = record[REC_NODE]
                if record[REC_HONEST] and node.delivery_round is None and node.delivered:
                    node.mark_delivered(end_round)
                    if trace is not None:
                        trace.record(EventKind.DELIVERY, end_round, node.node_id)


def _epidemic_decodes_disjunction(group: _SlotGroup, transmitters: list) -> tuple:
    """Unit-disk decode geometry: members hearing exactly one transmission.

    Returns aligned ``(rows, senders)`` arrays — the decoding member
    indices ascending (compile sorts the CSR rows), matching the scalar
    loop's listener iteration order for loss draws and DELIVERY events, and
    the member index of the sole audible transmitter each row decodes.
    Transmitters are excluded from the rows only when drawing — the scalar
    channel never resolves them (they are not listeners), and on the
    deterministic path their inclusion is a no-op because the adoption
    callback rejects already-adopted members.
    """
    indptr, indices = group.indptr, group.indices
    if len(transmitters) == 1:
        j, _payload = transmitters[0]
        rows = indices[indptr[j] : indptr[j + 1]]
        if group.runtime.loss > 0.0:
            rows = rows[rows != j]
        return rows, np.full(rows.size, j, dtype=np.int64)
    counts = np.zeros(group.n, dtype=np.int64)
    sender_of = np.zeros(group.n, dtype=np.int64)
    for j, _payload in transmitters:
        heard_by = indices[indptr[j] : indptr[j + 1]]
        counts[heard_by] += 1
        sender_of[heard_by] = j
    if group.runtime.loss > 0.0:
        for j, _payload in transmitters:
            counts[j] = 0
    rows = np.nonzero(counts == 1)[0]
    return rows, sender_of[rows]


def _epidemic_decodes_power(group: _SlotGroup, transmitters: list) -> tuple:
    """Friis decode geometry: members whose strongest signal passes SINR.

    Same ``(rows, senders)`` shape; the expressions mirror the vectorized
    ``_resolve_powers`` kernel over the compiled power columns, so the
    sense/reception/capture thresholds and the strongest-transmitter argmax
    are bit-identical to the scalar channel.  A decoding member adopts the
    *strongest* transmitter's payload (capture effect), not a sole
    transmission's.
    """
    runtime = group.runtime
    n = group.n
    tx_idx = np.asarray([j for j, _payload in transmitters], dtype=np.int64)
    cols = group.power.gather(tx_idx)
    total = cols.sum(axis=1)
    strongest = cols.argmax(axis=1)
    signal = cols[np.arange(n), strongest]
    interference = total - signal + runtime.noise_floor
    decodable = (
        (total >= runtime.sense_threshold)
        & (signal >= runtime.reception_threshold)
        & (signal >= runtime.capture_threshold * interference)
    )
    decodable[tx_idx] = False
    rows = np.nonzero(decodable)[0]
    return rows, tx_idx[strongest[rows]]


def _epidemic_geometry(group: _SlotGroup, transmitters: list, tx_mask: int) -> tuple:
    """Decode geometry for one transmitter set, memoized per packed mask.

    ``(rows, senders)`` is a pure function of the transmitter set and the
    compiled channel structure — never of payloads or protocol state — so
    the epidemic steady state (every member flooding every cycle) replays
    one memo entry per slot instead of re-reducing the power columns or the
    adjacency counts.  Shares the group memo (and its eviction accounting)
    with the stream kernels' busy entries; an epidemic group never calls
    :meth:`_SlotGroup.phase_busy`, so the entry shapes cannot collide.
    """
    entry = group.busy_cache.get(tx_mask)
    if entry is not None:
        group.cache_hits += 1
        return entry
    group.cache_misses += 1
    if group.power is not None:
        entry = _epidemic_decodes_power(group, transmitters)
    else:
        entry = _epidemic_decodes_disjunction(group, transmitters)
    return group._memoize(tx_mask, entry)


def _run_epidemic_slot(sim, group: _SlotGroup) -> None:
    """One single-phase epidemic slot: flood decisions + decode adoption.

    A listener decodes a payload when exactly *one* transmission is audible
    to it (unit disk) or when the strongest received power passes the SINR
    test (Friis) — the same rules the scalar channel kernels apply — and a
    configured loss then drops each decode independently with one draw per
    decoding listener, in ascending member order.  The adoption callback
    revalidates payload shape and the member's not-yet-adopted status, so
    stale role assumptions are impossible.
    """
    transmitters = None
    for i, pop in group.owners:
        payload = pop()
        if payload is not None:
            if transmitters is None:
                transmitters = [(i, tuple(payload))]
            else:
                transmitters.append((i, tuple(payload)))
    if transmitters is None:
        return
    runtime = group.runtime
    trace = sim.trace
    round_index = sim.round_index
    tally = group.tally
    member_ids = group.member_ids
    tx_mask = 0
    for j, _payload in transmitters:
        bit = 1 << j
        tx_mask |= bit
        tally[bit] = tally.get(bit, 0) + 1
        if trace is not None:
            trace.record(
                EventKind.BROADCAST,
                round_index,
                int(member_ids[j]),
                group.slot,
                0,
                "PAYLOAD",
            )
    rows, senders = _epidemic_geometry(group, transmitters, tx_mask)
    if rows.size and runtime.loss > 0.0:
        keep = runtime.rng_random(rows.size) >= runtime.loss
        rows = rows[keep]
        senders = senders[keep]
    # Adoption is monotone, so members this runtime has already seen adopt
    # can be dropped wholesale: their callback would validate and return
    # False without any side effect.  The flags are conservative (a member
    # adopting on a scalar-fallback occurrence just keeps taking the slow
    # path), applied only *after* the loss draw so the stream position is
    # untouched.  In the flooded steady state this empties the loop.
    adopted = runtime.adopted_flags
    if rows.size:
        fresh = ~adopted[member_ids[rows]]
        rows = rows[fresh]
        senders = senders[fresh]
    payload_of = dict(transmitters)
    adopts = group.adopts
    records = group.records
    end_round = round_index + 1
    for i, s in zip(rows.tolist(), senders.tolist()):
        if adopts[i](payload_of[s]):
            record = records[i]
            adopted[record[REC_ID]] = True
            node = record[REC_NODE]
            if record[REC_HONEST] and node.delivery_round is None and node.delivered:
                node.mark_delivered(end_round)
                if trace is not None:
                    trace.record(EventKind.DELIVERY, end_round, node.node_id)


def _group_adjacency(link_state, member_ids: np.ndarray, local_of: np.ndarray) -> tuple:
    """Group-local hearers-of-sender CSR, filtered from the global CSR.

    ``indices[indptr[j]:indptr[j+1]]`` lists, ascending, the local indices
    that hear local member ``j``: the intersection of ``j``'s global CSR
    neighborhood with the member set (unit-disk audibility is symmetric, so
    rows and columns agree).  One O(nnz) pass gathers the members' global
    rows, maps ids through ``local_of`` (a node-id-indexed array holding -1,
    returned that way) and keeps the hits.  Member ids and global rows are
    both ascending, so the local rows come out ascending — the kernels'
    decode/draw iteration then matches the scalar loop's listener order.
    """
    n = member_ids.size
    starts = link_state.indptr[member_ids].astype(np.int64)
    lengths = link_state.indptr[member_ids + 1] - starts
    # Flat positions of the members' rows inside the global indices.
    row_ends = np.cumsum(lengths)
    flat = np.arange(row_ends[-1]) + np.repeat(starts - row_ends + lengths, lengths)
    local_of[member_ids] = np.arange(n)
    local = local_of[link_state.indices[flat]]
    local_of[member_ids] = -1
    hit = local >= 0
    counts = np.bincount(np.repeat(np.arange(n), lengths)[hit], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, local[hit]


#: Protocol family -> (kernel, required rounds per slot).  NeighborWatchRB
#: and MultiPathRB share the stream kernel: both drive 1Hop/2Bit exchanges
#: and differ only in the post-accept callback their ``soa_state_spec``
#: binds (the commit-pipeline rerun vs. the control-stream drain).
_FAMILIES = (
    (NeighborWatchNode, _run_stream_slot, NUM_PHASES),
    (MultiPathNode, _run_stream_slot, NUM_PHASES),
    (EpidemicNode, _run_epidemic_slot, 1),
)


class SoaRuntime:
    """Per-simulation compilation and execution of SoA slot groups.

    Construction walks the plan's slot records and compiles every slot
    whose participants all belong to one :data:`soa-compilable <_FAMILIES>`
    family (adversaries of a different class in the static records reject
    the slot; opportunistic joiners are handled per occurrence by the
    engine's scalar fallback).  ``groups`` maps each compiled slot to its
    :class:`_SlotGroup`; an empty map means the simulation gains nothing
    from this tier and the engine discards the runtime.

    The channel's :meth:`~repro.sim.radio.Channel.soa_round_support`
    verdict picks the busy model — ``"disjunction"`` filters a group-local
    CSR adjacency out of the link state's global CSR, ``"power-sum"`` builds
    a lazy member×member power-column cache (:class:`_PowerColumns`) — and
    carries the loss probability; ``rng`` is the simulation generator the
    loss draws are burned from.  ``build_link_state`` is called once, when
    the first slot compiles; ``link_state`` stays ``None`` when none does.
    """

    def __init__(
        self,
        nodes: Sequence[SimNode],
        plan: SlotPlan,
        build_link_state: Callable[[], object],
        phases_per_slot: int,
        *,
        channel,
        rng: np.random.Generator,
    ) -> None:
        self._build_link_state = build_link_state
        self.link_state = None
        support = channel.soa_round_support()
        self.busy_mode = support.busy
        self.loss = float(support.loss_probability)
        self.rng_random = rng.random
        self.sense_threshold = 0.0
        self.reception_threshold = 0.0
        self.capture_threshold = 0.0
        self.noise_floor = 0.0
        if self.busy_mode == "power-sum":
            self.sense_threshold = channel.sense_threshold
            self.reception_threshold = channel.reception_threshold
            self.capture_threshold = channel.capture_threshold
            self.noise_floor = channel.noise_floor
        self.groups: dict[int, _SlotGroup] = {}
        #: id(protocol) -> (owner_slot, pop, adopt), for families with a
        #: slot-independent spec (resolved and validated once per device
        #: across all of its slots).
        self._node_specs: dict[int, tuple] = {}
        #: Node-id-indexed "known to have adopted" flags for the epidemic
        #: kernel (conservative: set only by compiled adoptions).
        max_id = max((node.node_id for node in nodes), default=0)
        self.adopted_flags = np.zeros(max_id + 1, dtype=bool)
        #: Scratch map for _group_adjacency: all -1 between slots (allocated
        #: once per runtime, reset after each slot).
        self._local_of = np.full(max_id + 1, -1, dtype=np.int64)
        self.member_slots = 0
        self.slots_run = 0
        self.scalar_fallbacks = 0
        self.busy_cache_evictions = 0
        self.thrash_warned = False
        for slot, records in plan.slot_records.items():
            group = self._compile_slot(
                slot,
                records,
                plan.participant_arrays[slot],
                phases_per_slot,
            )
            if group is not None:
                self.groups[slot] = group
                self.member_slots += group.n

    # -- compilation -----------------------------------------------------------------
    def _compile_slot(
        self,
        slot: int,
        records: tuple,
        member_ids: np.ndarray,
        phases_per_slot: int,
    ) -> Optional[_SlotGroup]:
        first = records[0][REC_NODE].protocol
        kernel = required_phases = None
        family = None
        for cls, run, phases in _FAMILIES:
            if isinstance(first, cls):
                family, kernel, required_phases = cls, run, phases
                break
        if family is None or phases_per_slot != required_phases:
            return None
        epidemic = kernel is _run_epidemic_slot
        # The epidemic spec is slot-independent apart from the owner flag,
        # so it is resolved once per device (soa_node_spec) instead of once
        # per (member, slot) pair — each device listens in ~density-many
        # slots, and the per-pair spec dicts dominated compile time at
        # paper scale.  The stream protocols bind per-slot machines, so
        # they keep the per-slot soa_state_spec call.
        owners = []
        receivers = []
        adopts = [] if epidemic else None
        node_specs = self._node_specs
        for i, record in enumerate(records):
            proto = record[REC_NODE].protocol
            if epidemic:
                # A cached entry means this device already passed validation
                # in another slot; the common case (one entry per device,
                # ~density-many membership hits) skips the attribute checks.
                key = id(proto)
                cached = node_specs.get(key)
                if cached is None:
                    if (
                        not isinstance(proto, family)
                        or not getattr(proto, "soa_compilable", False)
                        or getattr(proto, "may_transmit_anywhere", False)
                    ):
                        return None
                    spec = proto.soa_node_spec()
                    cached = (spec["owner_slot"], spec["pop"], spec["adopt"])
                    node_specs[key] = cached
                if cached[0] == slot:
                    owners.append((i, cached[1]))
                adopts.append(cached[2])
                continue
            if (
                not isinstance(proto, family)
                or not getattr(proto, "soa_compilable", False)
                or getattr(proto, "may_transmit_anywhere", False)
            ):
                return None
            spec = proto.soa_state_spec(slot)
            if spec is None:
                return None
            bit = 1 << i
            if spec["role"] == "owner":
                owners.append((i, bit, spec["sender"], spec["idle_veto"]))
            else:
                post = spec.get("update_commits")
                if post is None:
                    post = partial(spec["drain_slot"], slot)
                receivers.append((i, bit, spec["receiver"], post))

        n = len(records)
        if n > 1 and np.any(np.diff(member_ids) <= 0):
            return None
        link_state = self.link_state
        if link_state is None:
            link_state = self.link_state = self._build_link_state()
        if self.busy_mode == "power-sum":
            power = _PowerColumns(member_ids, link_state)
            adjacency = (None, None)
        else:
            power = None
            adjacency = _group_adjacency(link_state, member_ids, self._local_of)

        group = _SlotGroup()
        group.slot = slot
        group.run = kernel
        group.n = n
        group.records = records
        group.member_ids = member_ids
        group.indptr, group.indices = adjacency
        group.power = power
        group.busy_cache = {}
        group.tally = {}
        group.cache_hits = 0
        group.cache_misses = 0
        group.runtime = self
        group.adopts = tuple(adopts) if adopts is not None else None
        group.owners = tuple(owners)
        group.receivers = tuple(receivers)
        return group

    # -- execution -------------------------------------------------------------------
    def run_slot(self, sim, group: _SlotGroup) -> None:
        """Execute one compiled slot occurrence (no opportunistic joiners)."""
        self.slots_run += 1
        group.run(sim, group)

    def flush_broadcasts(self) -> None:
        """Fold the batched per-mask broadcast tallies into the nodes.

        Called by the engine at the end of ``run()``/``run_slots()`` — the
        only points where ``SimNode.broadcasts`` is consumed.  Idempotent:
        each flush clears the tallies, and scalar-fallback occurrences
        increment the nodes directly, so the two paths compose.
        """
        for group in self.groups.values():
            tally = group.tally
            if not tally:
                continue
            n = group.n
            folded = np.zeros(n, dtype=np.int64)
            for mask, times in tally.items():
                folded[_mask_indices(mask, n)] += times
            records = group.records
            for i in np.nonzero(folded)[0]:
                records[i][REC_NODE].broadcasts += int(folded[i])
            tally.clear()

    # -- introspection ---------------------------------------------------------------
    def info(self) -> dict:
        """Counters for :meth:`Simulation.plan_cache_info` (see its docstring)."""
        groups = self.groups.values()
        return {
            "enabled": True,
            "slots_compiled": len(self.groups),
            "member_slots": self.member_slots,
            "slots_run": self.slots_run,
            "scalar_fallbacks": self.scalar_fallbacks,
            "busy_cache_hits": sum(g.cache_hits for g in groups),
            "busy_cache_misses": sum(g.cache_misses for g in groups),
            "busy_cache_entries": sum(len(g.busy_cache) for g in groups),
            "busy_cache_evictions": self.busy_cache_evictions,
        }
