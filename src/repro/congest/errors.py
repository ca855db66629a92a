"""Exception types raised by the CONGEST simulator."""

from __future__ import annotations

from typing import Optional


class CongestSimulationError(Exception):
    """Base class for all simulator errors."""


class BandwidthExceededError(CongestSimulationError):
    """A node attempted to send more bits over one edge than the bandwidth
    allows in a single round (only raised when the network runs in strict
    mode)."""


class RoundLimitExceededError(CongestSimulationError):
    """The algorithm did not terminate within the allowed number of rounds.

    Carries structured progress data (when built via :meth:`for_run`) so
    that timeout-under-faults failures are diagnosable: the sweep layer
    reads :attr:`rounds_completed` into its failure records instead of
    parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        max_rounds: Optional[int] = None,
        rounds_completed: Optional[int] = None,
        messages_sent: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.max_rounds = max_rounds
        self.rounds_completed = rounds_completed
        self.messages_sent = messages_sent

    @classmethod
    def for_run(
        cls, max_rounds: int, rounds_completed: int, messages_sent: int
    ) -> "RoundLimitExceededError":
        """The round-cap abort of the engine's run loop.

        One construction site for the engine's round cap -- and for the
        sparse scheduler's stall abort, which raises the outcome the
        dense scheduler reaches at the cap -- so the (enriched) message
        is identical across the schedulers, with or without faults, and
        states how far the execution got before the cap.
        """
        return cls(
            f"algorithm did not terminate within {max_rounds} rounds "
            f"({rounds_completed} round(s) completed, "
            f"{messages_sent} message(s) sent)",
            max_rounds=max_rounds,
            rounds_completed=rounds_completed,
            messages_sent=messages_sent,
        )


class ProtocolError(CongestSimulationError):
    """An algorithm violated the simulator's contract, e.g. sent a message
    to a node that is not a neighbour."""
