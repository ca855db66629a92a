"""A round-synchronous CONGEST-model network simulator.

The CONGEST model (Section 2.1 of the paper): the network is an undirected
graph ``G = (V, E)``; execution proceeds in synchronous rounds; in every
round each node may send one message of at most ``O(log n)`` bits to each of
its neighbours; nodes know ``n`` and their own incident edges, and have
distinct identifiers.

The simulator enforces exactly that interface:

* algorithms are written as per-node state machines
  (:class:`repro.congest.node.NodeAlgorithm`) that receive, every round, the
  messages their neighbours sent in the previous round and return the
  messages to send in the current round;
* the network (:class:`repro.congest.network.Network`) delivers messages,
  counts rounds, measures message sizes in bits and enforces (or records
  violations of) the per-edge bandwidth budget;
* :class:`repro.congest.metrics.ExecutionMetrics` aggregates rounds,
  messages, bits and per-node memory so the benchmark harnesses can compare
  measured round counts against the paper's formulas.

Every name loads its module on first use: importing one submodule (say
:mod:`repro.congest.node`) does not load the network and its round loop.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BandwidthExceededError": "repro.congest.errors",
    "CongestSimulationError": "repro.congest.errors",
    "ProtocolError": "repro.congest.errors",
    "RoundLimitExceededError": "repro.congest.errors",
    "message_size_bits": "repro.congest.message",
    "ExecutionMetrics": "repro.congest.metrics",
    "ExecutionResult": "repro.congest.network",
    "Network": "repro.congest.network",
    "NodeAlgorithm": "repro.congest.node",
})
