"""Radio-network simulator substrate (the reproduction's stand-in for WSNet)."""

from .builder import build_channel, build_schedule, build_simulation, run_scenario
from .config import FaultPlan, ScenarioConfig, canonical_channel, canonical_protocol, default_message
from .engine import Simulation, clear_link_cache, link_cache_info
from .events import Event, EventKind, EventLog
from .node import SimNode
from .plan import SlotPlan
from .radio import Channel, FriisChannel, Transmission, UnitDiskChannel, message_observation
from .results import NodeOutcome, RunResult
from .rng import RngFactory
from .runner import SweepExecutor, SweepTask, resolve_workers, run_repetition
from .backends import (
    ChaosBackend,
    ChaosPlan,
    ExecutorBackend,
    FaultSpec,
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
)
from .supervision import (
    FabricTelemetry,
    JobFailure,
    SupervisionPolicy,
    SweepFailure,
    SweepInterrupted,
    TransientJobError,
    backoff_delay,
)

__all__ = [
    "SweepExecutor",
    "SweepTask",
    "resolve_workers",
    "run_repetition",
    "ExecutorBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "ChaosBackend",
    "ChaosPlan",
    "FaultSpec",
    "resolve_backend",
    "SupervisionPolicy",
    "FabricTelemetry",
    "JobFailure",
    "SweepFailure",
    "SweepInterrupted",
    "TransientJobError",
    "backoff_delay",
    "build_channel",
    "build_schedule",
    "build_simulation",
    "run_scenario",
    "FaultPlan",
    "ScenarioConfig",
    "canonical_channel",
    "canonical_protocol",
    "default_message",
    "Simulation",
    "clear_link_cache",
    "link_cache_info",
    "Event",
    "EventKind",
    "EventLog",
    "SimNode",
    "SlotPlan",
    "Channel",
    "FriisChannel",
    "Transmission",
    "UnitDiskChannel",
    "message_observation",
    "NodeOutcome",
    "RunResult",
    "RngFactory",
]
