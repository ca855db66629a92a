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
* ``phase_rounds`` -- the rounds each named phase contributed.

Metrics compose: multi-phase algorithms (leader election, then BFS, then the
quantum optimization loop, ...) sum their phases with :meth:`ExecutionMetrics.merged`,
and a repeated execution is :meth:`ExecutionMetrics.scaled`.  Each field
composes by its rule in ``_RULES``: counts add up (and multiply), peaks
take the maximum (and stay), the bandwidth limit takes the tighter one
(and stays), and ``phase_rounds`` adds up per phase.
"""

from __future__ import annotations

from operator import add, mul
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro._record import Record


def _merge_limits(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _merge_phases(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    merged = dict(a)
    for name, rounds in b.items():
        merged[name] = merged.get(name, 0) + rounds
    return merged


def _scale_phases(phases: Dict[str, int], repetitions: int) -> Dict[str, int]:
    return {name: rounds * repetitions for name, rounds in phases.items()}


def _kept(value: Any, repetitions: int) -> Any:
    return value


#: How a field composes: ``(merge, scale)``, where ``merge(a, b)`` is its
#: value over two executions run one after the other and ``scale(value,
#: repetitions)`` its value over one execution repeated.
_Rule = Tuple[Callable[[Any, Any], Any], Callable[[Any, int], Any]]
_SUMMED: _Rule = (add, mul)
_PEAK: _Rule = (max, _kept)
_LIMIT: _Rule = (_merge_limits, _kept)
_PHASES: _Rule = (_merge_phases, _scale_phases)

#: Every field of :class:`ExecutionMetrics`, in order, with its rule.
_RULES: Dict[str, _Rule] = {
    "rounds": _SUMMED,
    "messages": _SUMMED,
    "total_bits": _SUMMED,
    "max_edge_bits_per_round": _PEAK,
    "bandwidth_limit_bits": _LIMIT,
    "bandwidth_violations": _SUMMED,
    "max_node_memory_bits": _PEAK,
    # Fault-layer degradation counters (zero under the null fault model).
    "dropped_messages": _SUMMED,
    "delayed_messages": _SUMMED,
    "node_crashes": _SUMMED,
    "node_restarts": _SUMMED,
    "churned_edge_rounds": _SUMMED,
    "phase_rounds": _PHASES,
}


class ExecutionMetrics(Record):
    """Aggregated cost of one (phase of a) distributed execution."""

    __slots__ = tuple(_RULES)

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

    def record_phase(self, name: str, rounds: int) -> None:
        """Remember how many rounds a named phase contributed."""
        self.phase_rounds[name] = self.phase_rounds.get(name, 0) + rounds

    def merged(self, other: "ExecutionMetrics") -> "ExecutionMetrics":
        """Return the metrics of running ``self`` then ``other`` sequentially."""
        return ExecutionMetrics(*[
            merge(getattr(self, name), getattr(other, name))
            for name, (merge, _) in _RULES.items()
        ])

    def scaled(self, repetitions: int) -> "ExecutionMetrics":
        """Return the metrics of repeating this execution ``repetitions`` times.

        Used by the quantum framework, where one amplitude-amplification
        iteration repeats the Setup/Evaluation circuits a computed number of
        times.
        """
        if repetitions < 0:
            raise ValueError(f"repetitions must be >= 0, got {repetitions}")
        return ExecutionMetrics(*[
            scale(getattr(self, name), repetitions)
            for name, (_, scale) in _RULES.items()
        ])

    @staticmethod
    def total(metrics: Iterable["ExecutionMetrics"]) -> "ExecutionMetrics":
        """Sum a sequence of metrics (sequential composition)."""
        result = ExecutionMetrics()
        for item in metrics:
            result = result.merged(item)
        return result
