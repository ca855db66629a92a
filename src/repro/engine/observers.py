"""Observers of a CONGEST execution.

The round loop (:meth:`repro.congest.network.Network.run`) does its
core accounting -- rounds, messages, bits, bandwidth violations,
per-node memory, fault counters -- inline.  Observers are the opt-in seam for
everything else: they see the start and end of every top-level run, and
an observer that overrides :meth:`MetricsObserver.on_message` also sees
every message.  The per-message traffic log that the Theorem-10
two-party reduction consumes lives in :class:`TrafficLogObserver` and
:class:`StitchedTrafficObserver`.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.congest.metrics import ExecutionMetrics
from repro.graphs.graph import NodeId

#: One traffic-log entry: ``(round, sender, receiver, bits)``.
TrafficEntry = Tuple[int, NodeId, NodeId, int]


class MetricsObserver:
    """Base class for execution observers.

    All hooks default to no-ops so observers only override what they need.
    Per-message calls are opt-in: the round loop calls :meth:`on_message`
    only on observers whose class overrides it, so an observer that only
    needs run boundaries costs nothing per message.
    """

    def on_run_start(self, network: Any) -> None:
        """Called once before round 0 of a run."""

    def on_message(
        self,
        round_number: int,
        sender: NodeId,
        receiver: NodeId,
        payload: Any,
        size_bits: int,
        violation: bool,
    ) -> None:
        """Called for every message accepted by the transport.

        ``violation`` is true when ``size_bits`` exceeds the bandwidth
        budget (in strict mode the transport raises immediately after the
        observers have seen the message).  Under a fault model the call
        happens before the message's fate is decided: a dropped message
        was still sent.
        """

    def on_run_end(self, metrics: ExecutionMetrics) -> None:
        """Called once when a run completes normally (not on error)."""


class TrafficLogObserver(MetricsObserver):
    """Record every message of one run as ``(round, sender, receiver, bits)``.

    This implements ``Network.run(record_traffic=True)``, which tests use
    to compare one run's traffic; the Theorem-10 reduction records across
    runs with :class:`StitchedTrafficObserver`.
    """

    def __init__(self) -> None:
        self.traffic: List[TrafficEntry] = []

    def on_message(
        self, round_number, sender, receiver, payload, size_bits, violation
    ) -> None:
        self.traffic.append((round_number, sender, receiver, size_bits))


class StitchedTrafficObserver(MetricsObserver):
    """Record traffic across *several* runs with sequential round numbering.

    Multi-phase algorithms (leader election, then BFS, then convergecast,
    ...) issue one ``Network.run`` per phase, each restarting its round
    counter at 0.  Attached as a persistent network observer, this re-bases
    every phase so that phase ``i`` starts right after the last round of
    phase ``i - 1`` in which a message was sent -- exactly the flattening the
    two-party reduction of Theorem 10 needs to reconstruct a single
    transcript from a composed algorithm.
    """

    def __init__(self) -> None:
        self.traffic: List[TrafficEntry] = []
        self._offset = 0
        self._phase_last_round = -1

    def on_run_start(self, network) -> None:
        self._phase_last_round = -1

    def on_message(
        self, round_number, sender, receiver, payload, size_bits, violation
    ) -> None:
        self.traffic.append(
            (self._offset + round_number, sender, receiver, size_bits)
        )
        if round_number > self._phase_last_round:
            self._phase_last_round = round_number

    def on_run_end(self, metrics) -> None:
        self._offset += self._phase_last_round + 1
        self._phase_last_round = -1


class RunLogObserver(MetricsObserver):
    """Count how many simulator runs (and rounds) actually executed.

    The quantum framework (:mod:`repro.qcongest.framework`) distinguishes
    *modelled* rounds (Theorem 7's ``T0 + #calls * T`` accounting) from the
    CONGEST executions it really simulated; attaching this observer for the
    duration of an optimization reports the latter.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.rounds = 0
        self.messages = 0

    def on_run_end(self, metrics) -> None:
        self.runs += 1
        self.rounds += metrics.rounds
        self.messages += metrics.messages
