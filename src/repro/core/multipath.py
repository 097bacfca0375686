"""MultiPathRB: optimally resilient multi-hop authenticated broadcast.

MultiPathRB keeps the single-hop layer of NeighborWatchRB (the 1Hop-Protocol)
but replaces the meta-node squares with an explicit voting strategy in the
style of Bhandari and Vaidya: a device commits to a bit only after hearing it
vouched for along ``t + 1`` node-disjoint paths that all lie within a single
neighborhood, so that at least one of them must be honest.  Three kinds of
control messages circulate, each streamed bit-by-bit over the 1Hop-Protocol
during the sender's own broadcast interval:

``SOURCE(i, b)``
    sent by the source for every bit of the message; devices in range of the
    source commit directly (Theorem 2 authenticates the stream).
``COMMIT(i, b)``
    sent by a device when it commits to bit ``i`` with value ``b``.
``HEARD(u, i, b)``
    sent by a device that received ``COMMIT(i, b)`` from device ``u`` (the
    *cause*); honest devices relay a HEARD for every COMMIT they receive.

A device commits to ``(i, b)`` once it can exhibit at least ``t + 1`` distinct
*voters* — devices that either sent it a COMMIT directly or are the cause of a
HEARD it received — such that the voters, the HEARD senders involved and the
commit itself all fit inside one neighborhood.  Because the TDMA schedule
never reuses a slot within interference range, the slot in which a message
arrives identifies the sender's location, which is how voters and causes are
attributed without any authentication.

The protocol is tuned with the parameter ``t`` (faults tolerated per
neighborhood); with ``t < R(2R+1)/2`` it is optimally resilient (Theorem 4)
and it keeps the pipelined ``O(beta*D + log|Sigma|)`` running time
(Theorem 5).
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

import numpy as np

from ..registry import ProtocolPlugin, register_protocol
from .messages import Bits, ControlCodec, ControlMessage, ControlType, Frame, FrameKind, validate_bits
from .onehop import OneHopReceiver, OneHopSender
from .protocol import NodeContext, Observation, Protocol
from .schedule import SOURCE_SLOT, NodeSchedule
from .twobit import TwoBitBlocker

__all__ = ["MultiPathConfig", "MultiPathNode"]


class _Role(enum.Enum):
    IDLE = "idle"
    SENDER = "sender"
    BLOCKER = "blocker"
    RECEIVER = "receiver"


class MultiPathConfig:
    """Tunable parameters of MultiPathRB.

    Parameters
    ----------
    tolerance:
        The number of Byzantine devices per neighborhood the protocol is tuned
        to tolerate (the paper simulates ``t = 3`` and ``t = 5``); a device
        needs ``tolerance + 1`` distinct voters to commit a bit it did not
        hear directly from the source.
    relay_heard:
        Whether the device relays HEARD messages.  Honest devices always do;
        the paper's lying devices never do.
    idle_veto:
        Veto the device's own interval when its control-message queue is
        empty (see DESIGN.md).
    """

    __slots__ = ("tolerance", "relay_heard", "idle_veto")

    def __init__(self, tolerance: int = 3, relay_heard: bool = True, idle_veto: bool = True) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.tolerance = int(tolerance)
        self.relay_heard = bool(relay_heard)
        self.idle_veto = bool(idle_veto)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiPathConfig(t={self.tolerance}, relay_heard={self.relay_heard}, "
            f"idle_veto={self.idle_veto})"
        )


class MultiPathNode(Protocol):
    """Per-device behaviour of MultiPathRB.

    ``preloaded_message`` reproduces the paper's lying devices: they start with
    a fake message fully committed (and therefore flood COMMIT messages for its
    bits) while otherwise running the correct protocol; combined with
    ``relay_heard=False`` in their config this matches Section 6.1 exactly.

    The transitions consume only channel activity (``observation.busy``) and
    no randomness, and the slot machinery is the same 2Bit/1Hop stack as
    NeighborWatchRB, so the protocol is ``soa_compilable``: its slots lower
    to the struct-of-arrays kernels of :mod:`repro.sim.soa`.
    """

    soa_compilable = True

    def __init__(
        self,
        config: Optional[MultiPathConfig] = None,
        *,
        preloaded_message: Optional[Iterable[int]] = None,
    ) -> None:
        self.config = config if config is not None else MultiPathConfig()
        self._preloaded = validate_bits(preloaded_message) if preloaded_message is not None else None
        self._commit_values: dict[int, int] = {}
        self._votes: dict[tuple[int, int], dict[int, list[Optional[int]]]] = {}
        self._heard_sent: set[tuple[int, int, int]] = set()
        self._receivers: dict[int, OneHopReceiver] = {}
        self._peer_of_slot: dict[int, int] = {}
        self._consumed: dict[int, int] = {}
        self._sender = OneHopSender()
        self._role = _Role.IDLE
        self._active_receiver: Optional[OneHopReceiver] = None
        self._active_slot: int = -1
        self._blocker: Optional[TwoBitBlocker] = None
        self._my_slot = -1
        self._is_source = False
        self._delivered_message: Optional[Bits] = None

    # -- setup -----------------------------------------------------------------------------
    def setup(self, context: NodeContext) -> None:
        super().setup(context)
        schedule = context.schedule
        if not isinstance(schedule, NodeSchedule):
            raise TypeError("MultiPathRB requires a NodeSchedule")
        self._schedule = schedule
        self._is_source = context.is_source
        self._my_slot = schedule.slot_of_node(context.node_id)
        k = context.message_length
        self._codec = ControlCodec(message_length=k, num_slots=schedule.num_slots)

        for slot in schedule.neighbor_slots_of_node(context.node_id):
            if slot == self._my_slot:
                continue
            owner = schedule.owner_in_neighborhood(slot, context.node_id)
            if owner is None or owner == context.node_id:
                continue
            self._receivers[slot] = OneHopReceiver(expected_length=None)
            self._peer_of_slot[slot] = owner
            self._consumed[slot] = 0

        if self._is_source:
            message = context.source_message or ()
            for index, bit in enumerate(message, start=1):
                self._commit_values[index] = int(bit)
                self._enqueue(ControlMessage(ControlType.SOURCE, index, int(bit)))
        elif self._preloaded is not None:
            for index, bit in enumerate(self._preloaded[:k], start=1):
                self._commit_values[index] = int(bit)
                self._enqueue(ControlMessage(ControlType.COMMIT, index, int(bit)))

    # -- helpers ------------------------------------------------------------------------------
    def _enqueue(self, message: ControlMessage) -> None:
        self._sender.extend(self._codec.encode(message))

    def _distance(self, a: int, b_position: np.ndarray) -> float:
        pos = self._schedule.positions
        if self._schedule.norm == "linf":
            return float(np.max(np.abs(pos[a] - b_position)))
        return float(np.sqrt(np.sum((pos[a] - b_position) ** 2)))

    def _position_of(self, node_id: int) -> np.ndarray:
        return self._schedule.positions[node_id]

    def _resolve_cause(self, cause_slot: int) -> Optional[int]:
        """Resolve the device a HEARD message's cause slot refers to.

        The cause lies within ``R`` of the HEARD sender, hence within ``2R`` of
        this device, and the schedule guarantees slot uniqueness within the
        separation distance (``3R`` by default), so the owner is unambiguous.
        """
        my_pos = self._position_of(self.context.node_id)
        candidates = []
        for owner in self._schedule.owners_of_slot(cause_slot):
            if self._distance(owner, my_pos) <= 2.0 * self.context.radius + 1e-9:
                candidates.append(owner)
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- schedule interface ------------------------------------------------------------------------
    def interests(self) -> Iterable[int]:
        slots = set(self._receivers)
        slots.add(self._my_slot)
        return sorted(slots)

    # -- struct-of-arrays lowering ----------------------------------------------------------------
    def soa_state_spec(self, slot: int) -> Optional[dict]:
        """Role of this device in ``slot`` for the SoA compiler."""
        if slot == self._my_slot:
            return {
                "role": "owner",
                "sender": self._sender,
                "idle_veto": self.config.idle_veto,
            }
        receiver = self._receivers.get(slot)
        if receiver is None:
            return None
        return {"role": "receiver", "receiver": receiver, "drain_slot": self._drain_stream}

    # -- slot lifecycle ---------------------------------------------------------------------------------
    def _begin_slot(self, slot: int) -> None:
        self._role = _Role.IDLE
        self._active_receiver = None
        self._active_slot = slot
        self._blocker = None
        if slot == self._my_slot:
            if self._sender.has_pending:
                self._role = _Role.SENDER
                self._sender.begin_slot()
            else:
                self._role = _Role.BLOCKER
                self._blocker = TwoBitBlocker(always=self.config.idle_veto)
            return
        receiver = self._receivers.get(slot)
        if receiver is not None and receiver.begin_slot():
            self._role = _Role.RECEIVER
            self._active_receiver = receiver

    # -- engine-facing entry points ---------------------------------------------------------------------
    def act(self, slot_cycle: int, slot: int, phase: int) -> Optional[Frame]:
        if phase == 0:
            self._begin_slot(slot)
        if self._role is _Role.SENDER:
            if self._sender.action(phase):
                return self._interned_frame(FrameKind.DATA_BIT if phase in (0, 2) else FrameKind.VETO)
        elif self._role is _Role.BLOCKER and self._blocker is not None:
            if self._blocker.action(phase):
                return self._interned_frame(FrameKind.VETO)
        elif self._role is _Role.RECEIVER and self._active_receiver is not None:
            if self._active_receiver.action(phase):
                return self._interned_frame(FrameKind.ACK if phase in (1, 3) else FrameKind.VETO)
        return None

    def observe(self, slot_cycle: int, slot: int, phase: int, observation: Observation) -> None:
        busy = observation.busy
        if self._role is _Role.SENDER:
            self._sender.observe(phase, busy)
        elif self._role is _Role.BLOCKER and self._blocker is not None:
            self._blocker.observe(phase, busy)
        elif self._role is _Role.RECEIVER and self._active_receiver is not None:
            self._active_receiver.observe(phase, busy)

    def end_slot(self, slot_cycle: int, slot: int) -> None:
        if self._role is _Role.SENDER:
            self._sender.finish_slot()
        elif self._role is _Role.RECEIVER and self._active_receiver is not None:
            self._active_receiver.finish_slot()
            self._drain_stream(slot)
        self._role = _Role.IDLE
        self._active_receiver = None
        self._blocker = None

    # -- control-message processing ---------------------------------------------------------------------
    def _drain_stream(self, slot: int) -> None:
        receiver = self._receivers[slot]
        peer = self._peer_of_slot[slot]
        frame_bits = self._codec.frame_bits
        bits = receiver.received_bits
        consumed = self._consumed[slot]
        while consumed + frame_bits <= len(bits):
            frame = bits[consumed : consumed + frame_bits]
            consumed += frame_bits
            message = self._codec.decode(frame)
            if message is not None:
                self._handle_control(peer, message)
        self._consumed[slot] = consumed

    def _handle_control(self, peer: int, message: ControlMessage) -> None:
        if message.mtype is ControlType.SOURCE:
            if peer == self._schedule.source_index:
                self._commit(message.bit_index, message.bit_value, direct=True)
            return
        if message.mtype is ControlType.COMMIT:
            self._add_vote(message.bit_index, message.bit_value, voter=peer, witness=None)
            if self.config.relay_heard:
                key = (peer, message.bit_index, message.bit_value)
                if key not in self._heard_sent:
                    self._heard_sent.add(key)
                    self._enqueue(
                        ControlMessage(
                            ControlType.HEARD,
                            message.bit_index,
                            message.bit_value,
                            cause=self._schedule.slot_of_node(peer),
                        )
                    )
            return
        if message.mtype is ControlType.HEARD:
            cause = self._resolve_cause(message.cause)
            if cause is None or cause == self.context.node_id:
                return
            self._add_vote(message.bit_index, message.bit_value, voter=cause, witness=peer)

    def _add_vote(self, index: int, value: int, *, voter: int, witness: Optional[int]) -> None:
        if index in self._commit_values:
            return
        key = (index, value)
        per_voter = self._votes.setdefault(key, {})
        per_voter.setdefault(voter, []).append(witness)
        self._check_commit(index, value)

    def _check_commit(self, index: int, value: int) -> None:
        """Commit ``(index, value)`` once ``t + 1`` neighborhood-compatible voters exist."""
        per_voter = self._votes.get((index, value), {})
        needed = self.config.tolerance + 1
        if len(per_voter) < needed:
            return
        radius = self.context.radius
        my_pos = np.asarray(self.context.position, dtype=float)
        centers = [my_pos] + [self._position_of(v) for v in per_voter]
        for center in centers:
            count = 0
            for voter, witnesses in per_voter.items():
                if self._distance(voter, center) > radius + 1e-9:
                    continue
                compatible = False
                for witness in witnesses:
                    if witness is None or self._distance(witness, center) <= radius + 1e-9:
                        compatible = True
                        break
                if compatible:
                    count += 1
                    if count >= needed:
                        self._commit(index, value, direct=False)
                        return

    def _commit(self, index: int, value: int, *, direct: bool) -> None:
        if index in self._commit_values:
            return
        if not (1 <= index <= self.context.message_length):
            return
        self._commit_values[index] = int(value)
        self._votes.pop((index, 0), None)
        self._votes.pop((index, 1), None)
        if not self._is_source:
            self._enqueue(ControlMessage(ControlType.COMMIT, index, int(value)))

    # -- outcome ----------------------------------------------------------------------------------------------
    @property
    def committed(self) -> dict[int, int]:
        """Mapping of committed bit indexes (1-based) to values."""
        return dict(self._commit_values)

    @property
    def delivered(self) -> bool:
        k = self.context.message_length
        return all(index in self._commit_values for index in range(1, k + 1))

    @property
    def delivered_message(self) -> Optional[Bits]:
        if not self.delivered:
            return None
        if self._delivered_message is None:
            k = self.context.message_length
            self._delivered_message = tuple(self._commit_values[i] for i in range(1, k + 1))
        return self._delivered_message


# -- registry plugin ----------------------------------------------------------------------
@register_protocol("multipath", aliases=("multipathrb", "mp"))
class MultiPathPlugin(ProtocolPlugin):
    """Registry plugin wiring MultiPathRB into the scenario builder.

    MultiPathRB streams whole control frames over the 1Hop-Protocol, so one
    hop of pipeline progress costs a frame's worth of successful slots —
    :meth:`bits_per_hop` scales the generous round cap accordingly.
    """

    def build(self, config) -> MultiPathNode:
        return MultiPathNode(
            MultiPathConfig(tolerance=config.multipath_tolerance, idle_veto=config.idle_veto)
        )

    def build_liar(self, config, fake_message) -> MultiPathNode:
        liar_config = MultiPathConfig(
            tolerance=int(config.multipath_tolerance), relay_heard=False
        )
        return MultiPathNode(config=liar_config, preloaded_message=fake_message)

    def build_schedule(self, deployment, config) -> NodeSchedule:
        return NodeSchedule(
            deployment.positions,
            config.radius,
            deployment.source_index,
            separation=config.separation,
            norm=config.norm,
        )

    def bits_per_hop(self, config, num_slots: int) -> int:
        return ControlCodec(config.message_length, num_slots).frame_bits
