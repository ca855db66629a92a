"""Execution metrics collected by the CONGEST simulator.

The benchmark harnesses compare *measured* metrics against the paper's
round-complexity formulas, so the simulator records:

* ``rounds`` -- the number of communication rounds used;
* ``messages`` -- the total number of (directed) messages delivered;
* ``total_bits`` -- the total number of bits sent over all edges and rounds;
* ``max_edge_bits_per_round`` -- the largest message observed on any single
  edge in any single round (to compare with the bandwidth budget);
* ``bandwidth_limit_bits`` / ``bandwidth_violations`` -- the configured
  budget and how many (edge, round) pairs exceeded it (when the network runs
  in non-strict mode, e.g. for the congestion ablation);
* ``max_node_memory_bits`` -- the largest per-node working-memory footprint
  reported by the algorithms (when they implement ``memory_bits``);
* ``dropped_messages`` / ``delayed_messages`` / ``node_crashes`` /
  ``node_restarts`` / ``churned_edge_rounds`` -- degradation counters of
  the fault layer (:mod:`repro.faults`): messages lost (to loss, churn or
  a crashed receiver), messages that arrived late, crash and restart
  events, and (edge, round) pairs in which a churned edge was down.  All
  zero under the null fault model;
* ``size_cache_hits`` / ``size_cache_misses`` / ``size_cache_overflows`` --
  effectiveness of the transport's payload-size memo cache during the run
  (a hit skips re-measuring a payload; an overflow is a payload measured
  but not cached because the cache budget was exhausted).  Stamped by the
  execution engine so benchmark reports can show cache behaviour.

Metrics compose: multi-phase algorithms (leader election, then BFS, then the
quantum optimization loop, ...) sum their phases with :meth:`ExecutionMetrics.merged`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Iterable, Optional

from repro._record import Record


class ExecutionMetrics(Record):
    """Aggregated cost of one (phase of a) distributed execution.

    Equality compares every field except the three ``size_cache_*``
    diagnostics: they describe *how* the simulation executed (cold vs
    warm memo cache, serial vs pool-worker layout), not *what* it
    computed, so two semantically identical runs may legitimately differ
    there.
    """

    __slots__ = (
        "rounds",
        "messages",
        "total_bits",
        "max_edge_bits_per_round",
        "bandwidth_limit_bits",
        "bandwidth_violations",
        "max_node_memory_bits",
        # Fault-layer degradation counters (zero under the null fault model).
        "dropped_messages",
        "delayed_messages",
        "node_crashes",
        "node_restarts",
        "churned_edge_rounds",
        # Cache-effectiveness diagnostics, excluded from equality.
        "size_cache_hits",
        "size_cache_misses",
        "size_cache_overflows",
        "phase_rounds",
    )

    #: Every count starts at zero; ``phase_rounds`` is each instance's own
    #: fresh dict (``None`` stands for a new empty one).
    _defaults = {
        **dict.fromkeys(__slots__, 0),
        "bandwidth_limit_bits": None,
        "phase_rounds": None,
    }

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if self.phase_rounds is None:
            self.phase_rounds = {}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _compared(self) == _compared(other)

    def record_phase(self, name: str, rounds: int) -> None:
        """Remember how many rounds a named phase contributed."""
        self.phase_rounds[name] = self.phase_rounds.get(name, 0) + rounds

    def merged(self, other: "ExecutionMetrics") -> "ExecutionMetrics":
        """Return the metrics of running ``self`` then ``other`` sequentially."""
        merged = ExecutionMetrics(
            rounds=self.rounds + other.rounds,
            messages=self.messages + other.messages,
            total_bits=self.total_bits + other.total_bits,
            max_edge_bits_per_round=max(
                self.max_edge_bits_per_round, other.max_edge_bits_per_round
            ),
            bandwidth_limit_bits=_merge_limits(
                self.bandwidth_limit_bits, other.bandwidth_limit_bits
            ),
            bandwidth_violations=self.bandwidth_violations
            + other.bandwidth_violations,
            max_node_memory_bits=max(
                self.max_node_memory_bits, other.max_node_memory_bits
            ),
            dropped_messages=self.dropped_messages + other.dropped_messages,
            delayed_messages=self.delayed_messages + other.delayed_messages,
            node_crashes=self.node_crashes + other.node_crashes,
            node_restarts=self.node_restarts + other.node_restarts,
            churned_edge_rounds=self.churned_edge_rounds
            + other.churned_edge_rounds,
            size_cache_hits=self.size_cache_hits + other.size_cache_hits,
            size_cache_misses=self.size_cache_misses + other.size_cache_misses,
            size_cache_overflows=self.size_cache_overflows
            + other.size_cache_overflows,
        )
        merged.phase_rounds = dict(self.phase_rounds)
        for name, rounds in other.phase_rounds.items():
            merged.phase_rounds[name] = merged.phase_rounds.get(name, 0) + rounds
        return merged

    def scaled(self, repetitions: int) -> "ExecutionMetrics":
        """Return the metrics of repeating this execution ``repetitions`` times.

        Used by the quantum framework, where one amplitude-amplification
        iteration repeats the Setup/Evaluation circuits a computed number of
        times.
        """
        if repetitions < 0:
            raise ValueError(f"repetitions must be >= 0, got {repetitions}")
        scaled = ExecutionMetrics(
            rounds=self.rounds * repetitions,
            messages=self.messages * repetitions,
            total_bits=self.total_bits * repetitions,
            max_edge_bits_per_round=self.max_edge_bits_per_round,
            bandwidth_limit_bits=self.bandwidth_limit_bits,
            bandwidth_violations=self.bandwidth_violations * repetitions,
            max_node_memory_bits=self.max_node_memory_bits,
            dropped_messages=self.dropped_messages * repetitions,
            delayed_messages=self.delayed_messages * repetitions,
            node_crashes=self.node_crashes * repetitions,
            node_restarts=self.node_restarts * repetitions,
            churned_edge_rounds=self.churned_edge_rounds * repetitions,
            size_cache_hits=self.size_cache_hits * repetitions,
            size_cache_misses=self.size_cache_misses * repetitions,
            size_cache_overflows=self.size_cache_overflows * repetitions,
        )
        scaled.phase_rounds = {
            name: rounds * repetitions for name, rounds in self.phase_rounds.items()
        }
        return scaled

    @staticmethod
    def total(metrics: Iterable["ExecutionMetrics"]) -> "ExecutionMetrics":
        """Sum a sequence of metrics (sequential composition)."""
        result = ExecutionMetrics()
        for item in metrics:
            result = result.merged(item)
        return result


#: The fields equality compares: all but the ``size_cache_*`` diagnostics.
_compared = attrgetter(*(
    name for name in ExecutionMetrics._fields if not name.startswith("size_cache_")
))


def _merge_limits(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)
