"""Core protocols of the paper: 2Bit, 1Hop, NeighborWatchRB, MultiPathRB."""

from .messages import (
    Bits,
    ControlCodec,
    ControlMessage,
    ControlType,
    Frame,
    FrameKind,
    bits_from_bytes,
    bits_from_int,
    bytes_from_bits,
    int_from_bits,
    validate_bits,
)
from .protocol import ChannelState, DeliveryStatus, NodeContext, Observation, Protocol, SILENCE
from .regions import SquareGrid, SquareId, default_square_side
from .schedule import PHASES_PER_SLOT, SOURCE_SLOT, NodeSchedule, Schedule, SquareSchedule
from .twobit import NUM_PHASES, TwoBitBlocker, TwoBitOutcome, TwoBitReceiver, TwoBitSender
from .onehop import OneHopReceiver, OneHopSender, parity_of_index
from .neighborwatch import NeighborWatchConfig, NeighborWatchNode
from .multipath import MultiPathConfig, MultiPathNode
from .epidemic import EpidemicConfig, EpidemicNode
from .digest import digest_matches, polynomial_digest, recommended_digest_length
from .dualmode import DualModeOutcome, DualModeResult, combine_dual_mode

__all__ = [
    "Bits",
    "ControlCodec",
    "ControlMessage",
    "ControlType",
    "Frame",
    "FrameKind",
    "bits_from_bytes",
    "bits_from_int",
    "bytes_from_bits",
    "int_from_bits",
    "validate_bits",
    "ChannelState",
    "DeliveryStatus",
    "NodeContext",
    "Observation",
    "Protocol",
    "SILENCE",
    "SquareGrid",
    "SquareId",
    "default_square_side",
    "PHASES_PER_SLOT",
    "SOURCE_SLOT",
    "NodeSchedule",
    "Schedule",
    "SquareSchedule",
    "NUM_PHASES",
    "TwoBitBlocker",
    "TwoBitOutcome",
    "TwoBitReceiver",
    "TwoBitSender",
    "OneHopReceiver",
    "OneHopSender",
    "parity_of_index",
    "NeighborWatchConfig",
    "NeighborWatchNode",
    "MultiPathConfig",
    "MultiPathNode",
    "EpidemicConfig",
    "EpidemicNode",
    "digest_matches",
    "polynomial_digest",
    "recommended_digest_length",
    "DualModeOutcome",
    "DualModeResult",
    "combine_dual_mode",
]
