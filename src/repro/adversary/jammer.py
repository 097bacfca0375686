"""Jamming adversaries.

The paper's jamming experiments (Section 6.1) select 10% of the devices at
random, give each a broadcast budget, and have every malicious device
broadcast a jamming message in each veto round with probability 1/5 — a value
the authors found to be approximately optimal for the jammers, because it
avoids wasting budget on redundant jamming.  :class:`VetoJammer` reproduces
exactly that behaviour; :class:`ContinuousJammer` is a stress variant that
jams every round of every slot until its budget runs out (useful to verify
that the protocols degrade linearly with the budget, never worse).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.messages import Frame, FrameKind
from ..core.protocol import Observation
from .base import Adversary

__all__ = ["VetoJammer", "ContinuousJammer"]

#: The two veto phases of the six-round broadcast interval.
VETO_PHASES = (4, 5)


class VetoJammer(Adversary):
    """Jam veto rounds with a fixed probability, subject to a broadcast budget.

    Every jamming decision consumes this device's *private* RNG stream in
    ``wants_slot``, which the engine queries in declaration order on every
    tier, so the stream positions never depend on the execution tier.

    Parameters
    ----------
    budget:
        Maximum number of jamming broadcasts (``None`` for unlimited).
    jam_probability:
        Probability of jamming each targeted phase of each slot (paper: 1/5).
    rng:
        Seeded generator driving the jamming decisions.
    target_phases:
        Phases of the slot to target; defaults to the veto rounds, which is
        where a single broadcast does the most damage (it converts an entire
        otherwise-successful 2Bit exchange into a failure).
    """

    def __init__(
        self,
        budget: Optional[int] = None,
        *,
        jam_probability: float = 0.2,
        rng: Optional[np.random.Generator] = None,
        target_phases: tuple[int, ...] = VETO_PHASES,
    ) -> None:
        super().__init__(budget)
        if not (0.0 <= jam_probability <= 1.0):
            raise ValueError("jam_probability must be in [0, 1]")
        if not target_phases:
            raise ValueError("target_phases must not be empty")
        self.jam_probability = float(jam_probability)
        self.target_phases = tuple(int(p) for p in target_phases)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._planned: dict[int, bool] = {}

    def wants_slot(self, slot_cycle: int, slot: int) -> bool:
        """Decide (and cache) whether any phase of this slot will be jammed."""
        if self.budget.exhausted:
            return False
        decisions = {
            phase: bool(self._rng.random() < self.jam_probability) for phase in self.target_phases
        }
        self._planned = decisions
        return any(decisions.values())

    def act(self, slot_cycle: int, slot: int, phase: int) -> Optional[Frame]:
        if not self._planned.get(phase, False):
            return None
        if not self.budget.spend():
            return None
        return self._interned_frame(FrameKind.JAM)

    def observe(self, slot_cycle: int, slot: int, phase: int, observation: Observation) -> None:
        # A veto jammer does not adapt to what it hears.
        return


class ContinuousJammer(Adversary):
    """Jam every phase of every slot until the budget is exhausted.

    This is the most aggressive behaviour the model allows; with budget
    ``beta`` it delays delivery by Theta(beta) slots per hop, which is the
    worst case the running-time analysis (Theorem 5) charges for.
    """

    def __init__(self, budget: Optional[int] = None) -> None:
        super().__init__(budget)

    def wants_slot(self, slot_cycle: int, slot: int) -> bool:
        return not self.budget.exhausted

    def act(self, slot_cycle: int, slot: int, phase: int) -> Optional[Frame]:
        if not self.budget.spend():
            return None
        return self._interned_frame(FrameKind.JAM)
