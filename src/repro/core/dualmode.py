"""The dual-mode protocol: fast epidemic payload + authenticated digest.

The paper's practical recommendation (Sections 1 and 6.2) is not to run a
Byzantine-tolerant protocol for every payload, but to combine:

(a) an *epidemic* broadcast of the full message, which is fast but offers no
    authenticity, and
(b) a NeighborWatchRB broadcast of a short *digest* of the message, which is
    authenticated but slower per bit.

A device accepts the epidemic payload only if its digest matches the
authenticated digest.  The overhead over plain flooding is then governed by
the digest length: with a digest of roughly one tenth of the payload the paper
conjectures a slowdown below 2x.

This module implements the combination logic.  The two phases are simulated
independently (with the existing epidemic and NeighborWatchRB machinery); the
functions here derive, per device, whether the dual-mode protocol delivers,
whether the delivery is correct, and what the end-to-end completion time is.
The DUAL experiment driver (``repro.experiments.driver.DualModeDriver``) and
the ``dualmode`` benchmark drive it.  Both underlying runs execute on the
default struct-of-arrays tier (``repro.sim.soa``), which is bit-identical to
the per-device scalar oracle, so nothing in the combination logic here needs
to know which tier produced the records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from .digest import digest_matches, polynomial_digest, recommended_digest_length
from .messages import Bits, validate_bits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.results import RunResult

__all__ = ["DualModeOutcome", "DualModeResult", "combine_dual_mode", "recommended_digest_length"]


@dataclass(frozen=True, slots=True)
class DualModeOutcome:
    """Outcome of the dual-mode protocol for one device."""

    node_id: int
    payload_delivered: bool
    digest_delivered: bool
    accepted: bool
    correct: Optional[bool]


@dataclass(slots=True)
class DualModeResult:
    """Aggregate outcome of one dual-mode run."""

    message: Bits
    digest: Bits
    outcomes: dict[int, DualModeOutcome]
    payload_rounds: int
    digest_rounds: int

    @property
    def total_rounds(self) -> int:
        """End-to-end completion time.

        The two phases share the channel, so in a deployment they run back to
        back (the digest can only be computed once the payload is known); the
        conservative end-to-end time is therefore the sum of the two phases.
        """
        return self.payload_rounds + self.digest_rounds

    @property
    def acceptance_fraction(self) -> float:
        """Fraction of devices that accepted a payload."""
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes.values() if o.accepted) / len(self.outcomes)

    @property
    def correctness_fraction(self) -> float:
        """Fraction of accepting devices whose accepted payload is correct."""
        accepted = [o for o in self.outcomes.values() if o.accepted]
        if not accepted:
            return 1.0
        return sum(1 for o in accepted if o.correct) / len(accepted)

    @property
    def any_incorrect_acceptance(self) -> bool:
        """Whether any device accepted a payload that differs from the source's."""
        return any(o.accepted and o.correct is False for o in self.outcomes.values())

    def summary(self) -> Mapping[str, float]:
        return {
            "total_rounds": float(self.total_rounds),
            "payload_rounds": float(self.payload_rounds),
            "digest_rounds": float(self.digest_rounds),
            "acceptance_fraction": self.acceptance_fraction,
            "correctness_fraction": self.correctness_fraction,
        }


def combine_dual_mode(
    message: Bits,
    payload_result: "RunResult",
    digest_result: "RunResult",
    *,
    digest_bits: Optional[int] = None,
) -> DualModeResult:
    """Combine an epidemic payload run with an authenticated digest run.

    Parameters
    ----------
    message:
        The true application message (whose digest the honest source secured).
    payload_result:
        Result of the epidemic broadcast of the full message.  Each device's
        delivered payload (possibly a fake injected by a Byzantine device) is
        taken from its recorded outcome.
    digest_result:
        Result of the NeighborWatchRB broadcast of the digest.  A device only
        *accepts* a payload if it delivered the digest and the digest of its
        payload matches.
    digest_bits:
        Length of the digest; defaults to the length of the digest run's
        message.
    """
    message = validate_bits(message)
    digest_len = digest_bits if digest_bits is not None else len(digest_result.message)
    true_digest = polynomial_digest(message, digest_len)
    if tuple(digest_result.message) != tuple(true_digest):
        raise ValueError(
            "the digest run did not broadcast the digest of the given message; "
            "build it with polynomial_digest(message, digest_bits)"
        )

    outcomes: dict[int, DualModeOutcome] = {}
    payload_messages = _delivered_messages(payload_result)
    digest_delivered = _delivered_ok(digest_result)

    for node_id, outcome in payload_result.outcomes.items():
        if not (outcome.honest and outcome.active):
            continue
        payload = payload_messages.get(node_id)
        has_digest = digest_delivered.get(node_id, False)
        accepted = False
        correct: Optional[bool] = None
        if payload is not None and has_digest:
            accepted = digest_matches(payload, true_digest)
            if accepted:
                correct = tuple(payload) == tuple(message)
        outcomes[node_id] = DualModeOutcome(
            node_id=node_id,
            payload_delivered=payload is not None,
            digest_delivered=has_digest,
            accepted=accepted,
            correct=correct,
        )

    return DualModeResult(
        message=message,
        digest=true_digest,
        outcomes=outcomes,
        payload_rounds=payload_result.completion_rounds,
        digest_rounds=digest_result.completion_rounds,
    )


def _delivered_messages(result: "RunResult") -> dict[int, Bits]:
    """Delivered payload per honest device, reconstructed from the run outcomes.

    The epidemic engine records correctness, not content, so we reconstruct
    the delivered message where possible: a correct delivery is the true
    message; an incorrect delivery is marked by the sentinel complement (the
    acceptance test below will reject it unless a digest collision occurs,
    which we model by flipping every bit — the worst case for the digest).
    """
    delivered: dict[int, Bits] = {}
    message = tuple(result.message)
    fake = tuple(1 - b for b in message)
    for node_id, outcome in result.outcomes.items():
        if not outcome.delivered or not outcome.honest:
            continue
        delivered[node_id] = message if outcome.correct else fake
    return delivered


def _delivered_ok(result: "RunResult") -> dict[int, bool]:
    return {
        node_id: bool(outcome.delivered and outcome.correct)
        for node_id, outcome in result.outcomes.items()
        if outcome.honest and outcome.active
    }
