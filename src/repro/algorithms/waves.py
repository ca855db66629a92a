"""Pipelined multi-source distance waves (Step 2 of Figure 2).

This module implements the congestion-free pipelining at the heart of both
the paper's Evaluation procedure (Proposition 4 / Figure 2) and the
classical ``O(n)``-round exact-diameter baseline it refines ([PRT12]).

Every *source* node ``u`` starts, at a prescribed round ``start(u)``, a
BFS-like wave tagged with an integer ``tag(u)`` (the DFS number ``tau`` or
the relative number ``tau'``).  Waves propagate one hop per round.  Each
node keeps only ``O(log n)`` bits of state -- the largest tag processed so
far (``t_v``) and the running maximum distance (``d_v``) -- and applies the
Figure-2 filtering rule:

* messages whose tag is not larger than ``t_v`` are disregarded;
* among the remaining messages of a round, (at most) one is kept -- when the
  schedule satisfies the walk property of Lemma 2 (``start`` gaps dominate
  pairwise distances, which the DFS numbering guarantees) they are all
  identical (Lemma 4);
* the kept message ``(tag, delta)`` sets ``t_v = tag``,
  ``d_v = max(d_v, delta + 1)`` and is re-broadcast as ``(tag, delta + 1)``.

A node applies the rule in one pass over its inbox: the largest fresh
``(tag, delta)`` so far lives in two locals (a later equal pair does not
replace an earlier one, as with ``max``), so a round costs constant work
per received message and builds no list of fresh messages.

At the end of the (fixed, globally known) duration, ``d_v`` equals
``max_u d(u, v)`` over all sources ``u``, so a final convergecast of
``max_v d_v`` yields ``max_u ecc(u)`` -- the quantity ``f(u0)`` that the
Evaluation procedure must hand to the leader, and the diameter itself when
the sources are all of ``V``.

Two knobs exist purely for the *ablation benchmark* that justifies the
paper's scheduling (``benchmarks/bench_ablation_pipelining.py``):

* ``forward_all=True`` forwards every non-disregarded message instead of a
  single one, which blows past the CONGEST bandwidth budget when waves
  collide (measured as bandwidth violations in non-strict mode);
* callers can supply any schedule, e.g. the *naive* all-start-at-zero
  schedule, and observe that the computed values become wrong while the
  DFS-based schedule stays correct.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro._record import Record
from repro.congest.network import Network
from repro.congest.node import Inbox, NodeAlgorithm, Outbox
from repro.graphs.graph import NodeId


class WaveScheduleEntry(NamedTuple):
    """Start round and tag of one wave source."""

    start_round: int
    tag: int


class WaveResult(Record):
    """Outcome of the wave phase: the per-node maxima ``d_v``."""

    __slots__ = ("max_distance", "metrics")

    @property
    def overall_max(self) -> int:
        """``max_v d_v = max_u ecc(u)`` over the scheduled sources."""
        return max(self.max_distance.values())


class _WaveNode(NodeAlgorithm):
    """Per-node state machine of the Figure-2 Step-2 process."""

    def __init__(
        self, node_id, neighbors, num_nodes, rng,
        schedule: Optional[WaveScheduleEntry], duration: int,
        forward_all: bool,
    ) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        self._log_n = max(1, math.ceil(math.log2(num_nodes + 1)))
        self.schedule = schedule
        self.duration = duration
        self.forward_all = forward_all
        self.last_tag = -1          # t_v in the paper
        self.max_distance = 0       # d_v in the paper
        self.finished = False
        if schedule is not None and schedule.start_round > 0:
            # A source must act at its prescribed start round even if no
            # wave has reached it by then (event-driven scheduling).
            self.wake_at(schedule.start_round)

    def on_round(self, round_number: int, inbox: Inbox) -> Optional[Outbox]:
        if round_number >= self.duration - 1:
            self.finished = True
            if round_number >= self.duration:
                return {}

        # Step 2(2): a source starts its own wave at its scheduled round.
        last_tag = self.last_tag
        schedule = self.schedule
        started = schedule is not None and round_number == schedule.start_round
        if started and schedule.tag > last_tag:
            last_tag = self.last_tag = schedule.tag

        # Step 3(a)/(b): one pass filters the inbox.  In schedule-correct
        # executions all fresh messages are identical (Lemma 4); the
        # locals keep the largest fresh ``(tag, delta)`` -- the first of
        # equals, as ``max`` would -- for determinism.  The forward-all
        # ablation collects every fresh message instead.
        fresh: Optional[List[Tuple[int, int]]] = [] if self.forward_all else None
        best_tag = best_delta = None
        for payload in inbox.values():
            if payload.__class__ is tuple or isinstance(payload, tuple):
                if not (payload and payload[0] == "w"):
                    continue
                _, tag, delta = payload
                if tag > last_tag:
                    if fresh is not None:
                        fresh.append((tag, delta))
                    elif best_tag is None or tag > best_tag or (
                        tag == best_tag and delta > best_delta
                    ):
                        best_tag, best_delta = tag, delta
            elif isinstance(payload, list):
                for item in payload:
                    tag, delta = item[1], item[2]
                    if tag > last_tag:
                        if fresh is not None:
                            fresh.append((tag, delta))
                        elif best_tag is None or tag > best_tag or (
                            tag == best_tag and delta > best_delta
                        ):
                            best_tag, best_delta = tag, delta

        if best_tag is not None:
            if not started:
                # The common case: forward the one fresh wave.  Its tag
                # exceeds ``last_tag``, which is still ``self.last_tag``.
                self.last_tag = best_tag
                best_delta += 1
                if best_delta > self.max_distance:
                    self.max_distance = best_delta
                return self.broadcast(("w", best_tag, best_delta))
            kept: Sequence[Tuple[int, int]] = ((best_tag, best_delta),)
        elif fresh:
            kept = sorted(set(fresh))
        elif started:
            return self.broadcast(("w", schedule.tag, 0))
        else:
            return {}
        outgoing = [("w", schedule.tag, 0)] if started else []
        for tag, delta in kept:
            if tag > self.last_tag:
                self.last_tag = tag
            delta += 1
            if delta > self.max_distance:
                self.max_distance = delta
            outgoing.append(("w", tag, delta))
        return self.broadcast(outgoing[0] if len(outgoing) == 1 else outgoing)

    def result(self):
        return self.max_distance

    def memory_bits(self) -> Optional[int]:
        # t_v, d_v, the schedule entry and one in-flight message: O(log n).
        return 6 * self._log_n


def run_distance_waves(
    network: Network,
    schedule: Dict[NodeId, WaveScheduleEntry],
    duration: int,
    forward_all: bool = False,
) -> WaveResult:
    """Run the pipelined wave process for exactly ``duration`` rounds.

    Parameters
    ----------
    network:
        The CONGEST network.
    schedule:
        Maps each *source* node to its :class:`WaveScheduleEntry`.  Tags must
        be distinct non-negative integers; for the guarantees of Lemmas 2-4
        to apply the schedule must satisfy ``start(u) = 2 * tag(u)`` with the
        tags given by a DFS numbering (the callers in
        :mod:`repro.algorithms.evaluation` and
        :mod:`repro.algorithms.diameter_exact` construct exactly that).
    duration:
        Total number of rounds to run (globally known to all nodes, e.g.
        ``6 d`` in Figure 2).
    forward_all:
        Ablation knob, see the module docstring.

    Returns
    -------
    WaveResult
        The per-node values ``d_v`` and the execution metrics.
    """
    if duration < 1:
        raise ValueError(f"duration must be >= 1, got {duration}")
    tags = [entry.tag for entry in schedule.values()]
    if len(set(tags)) != len(tags):
        raise ValueError("wave tags must be distinct")
    if any(entry.tag < 0 or entry.start_round < 0 for entry in schedule.values()):
        raise ValueError("wave tags and start rounds must be non-negative")
    if any(entry.start_round >= duration for entry in schedule.values()):
        raise ValueError("every wave must start before the duration elapses")

    execution = network.run(
        lambda node, net: _WaveNode(
            node, net.neighbors(node), net.num_nodes, net.node_seed(node),
            schedule.get(node), duration, forward_all,
        ),
        exact_rounds=duration,
        max_rounds=duration + 2,
    )
    execution.metrics.record_phase("distance_waves", execution.metrics.rounds)
    return WaveResult(max_distance=execution.results, metrics=execution.metrics)
