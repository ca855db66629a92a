"""Cost model: from quantum query counts to CONGEST round counts (Theorem 7).

Theorem 7 (distributed quantum optimization) states that if Initialization
takes ``T0`` rounds and each application of Setup / Evaluation (or their
inverses) takes ``T`` rounds, then the whole optimization takes
``T0 + O(sqrt(log(1/delta) / eps)) * T`` rounds.  The simulation layer
counts the actual number of Setup and Evaluation applications performed by
the (exactly simulated) amplitude-amplification schedule; this module turns
those counts into round counts, message counts and per-node memory
estimates, which is what the benchmark harnesses report next to the paper's
formulas.

The counts come from the one maximum-finding loop
(:func:`repro.quantum.maximum_finding.find_maximum`); its two sources of
marked statistics (:mod:`repro.quantum.backend`) are byte-identical, so
the counts do not depend on which one ran.
"""

from __future__ import annotations

import math

from repro._record import Record
from repro.congest.message import log_n_bits
from repro.congest.metrics import ExecutionMetrics


class QuantumResourceCount(Record):
    """Raw resource counts of one distributed quantum optimization run."""

    __slots__ = ("setup_calls", "evaluation_calls", "measurements")

    _defaults = {"setup_calls": 0, "evaluation_calls": 0, "measurements": 0}

    def merged(self, other: "QuantumResourceCount") -> "QuantumResourceCount":
        """Sum two resource counts (sequential composition)."""
        return QuantumResourceCount(
            setup_calls=self.setup_calls + other.setup_calls,
            evaluation_calls=self.evaluation_calls + other.evaluation_calls,
            measurements=self.measurements + other.measurements,
        )


class QuantumCostModel(Record):
    """Per-operation CONGEST costs of a distributed quantum optimization.

    ``initialization`` is charged once; ``setup`` and ``evaluation`` are
    charged per application (the inverse of an operation costs the same as
    the operation itself, and the simulation's call counts already include
    inverses).
    """

    __slots__ = ("initialization", "setup", "evaluation", "internal_register_bits")

    _defaults = {"internal_register_bits": 0}

    def total_metrics(self, counts: QuantumResourceCount) -> ExecutionMetrics:
        """Total execution metrics implied by the given call counts."""
        total = ExecutionMetrics(
            rounds=self.initialization.rounds,
            messages=self.initialization.messages,
            total_bits=self.initialization.total_bits,
            max_edge_bits_per_round=self.initialization.max_edge_bits_per_round,
            bandwidth_limit_bits=self.initialization.bandwidth_limit_bits,
            max_node_memory_bits=self.initialization.max_node_memory_bits,
        )
        total.record_phase("initialization", self.initialization.rounds)
        setup_total = self.setup.scaled(counts.setup_calls)
        setup_total.record_phase("setup", setup_total.rounds)
        evaluation_total = self.evaluation.scaled(counts.evaluation_calls)
        evaluation_total.record_phase("evaluation", evaluation_total.rounds)
        total = total.merged(setup_total).merged(evaluation_total)
        total.max_node_memory_bits = max(
            total.max_node_memory_bits, self.internal_register_bits
        )
        return total

    def total_rounds(self, counts: QuantumResourceCount) -> int:
        """Total number of CONGEST rounds implied by the given call counts."""
        return (
            self.initialization.rounds
            + counts.setup_calls * self.setup.rounds
            + counts.evaluation_calls * self.evaluation.rounds
        )


def leader_memory_bits(num_nodes: int, eps: float) -> int:
    """Memory used by the leader node, per the proof of Theorem 7.

    The leader stores the internal register (``O(log |X|)`` qubits, with
    ``|X| <= n``) once per outcome of the ``O(log(1/eps))`` amplitude
    amplification stages: ``O(log n * log(1/eps))`` qubits, which is
    ``O((log n)^2)`` for ``eps >= 1 / poly(n)`` -- the memory bound stated
    in Theorem 1.
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    log_n = log_n_bits(num_nodes)
    stages = max(1, math.ceil(math.log2(1.0 / eps)))
    return log_n * stages
