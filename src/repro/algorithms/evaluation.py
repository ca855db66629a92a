"""The Evaluation procedure of Figure 2 (Proposition 4).

Given that every node of the network knows a common value ``u0`` (this is
the classical content of the quantum data register ``|data(u0)>``), the
procedure lets the leader compute

    ``f(u0) = max_{v in S(u0)} ecc(v)``

in ``O(D)`` rounds and ``O(log n)`` bits of memory per node, where ``S(u0)``
is the window of ``2 d`` consecutive nodes of the DFS traversal of
``BFS(leader)`` starting at ``u0`` (Definition 2).  Maximising ``f`` over a
uniformly random ``u0`` yields the diameter with probability
``P_opt >= d / (2 n)`` (Lemma 1), which is what gives Theorem 1 its
``sqrt(n D)`` round complexity.

The composition follows Figure 2 exactly:

* **Step 1** -- ``2 d`` steps of the Euler-tour traversal starting at
  ``u0`` (:func:`repro.algorithms.dfs_traversal.run_windowed_euler_tour`)
  give every reached node its relative number ``tau'``;
* **Step 2** -- the pipelined distance waves
  (:func:`repro.algorithms.waves.run_distance_waves`) scheduled at rounds
  ``2 tau'(v)`` for ``6 d + O(1)`` rounds leave every node ``v`` with
  ``d_v = max_{u in S(u0)} d(u, v)``;
* **Steps 3-4** -- a convergecast of ``max_v d_v`` up ``BFS(leader)``
  delivers ``f(u0)`` to the leader;
* **Step 5** -- the whole computation is reverted to clean the registers;
  we account for it by doubling the round count (``include_uncompute``).

The same machinery, restricted to a parent-closed member set (the ball
``R`` in the 3/2-approximation algorithm) and driven from a different root,
implements the Evaluation procedure of Theorem 4.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro._record import Record
from repro.algorithms.bfs import BFSTreeResult
from repro.algorithms.broadcast import run_tree_aggregate_max
from repro.algorithms.dfs_traversal import run_windowed_euler_tour
from repro.algorithms.waves import WaveScheduleEntry, run_distance_waves
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.graphs.graph import NodeId


class EvaluationResult(Record):
    """Outcome of one run of the Figure-2 Evaluation procedure."""

    __slots__ = ("u0", "value", "window_nodes", "metrics")


def run_evaluation_procedure(
    network: Network,
    tree: BFSTreeResult,
    d: int,
    u0: NodeId,
    members: Optional[Set[NodeId]] = None,
    include_uncompute: bool = True,
) -> EvaluationResult:
    """Run the Figure-2 Evaluation procedure for the input ``u0``.

    Parameters
    ----------
    network:
        The CONGEST network.
    tree:
        The BFS tree rooted at the leader (or at ``w`` for Theorem 4),
        produced by the Initialization phase.
    d:
        The traversal-window parameter.  The paper takes ``d = ecc(leader)``
        so that ``d <= D <= 2 d``.
    u0:
        The element of the search space handed to all nodes by the Setup
        procedure.
    members:
        Optional parent-closed subset restricting the traversal (the set
        ``R`` in Theorem 4).  ``u0`` must belong to it.
    include_uncompute:
        Whether to charge the Step-5 revert (doubling the round count), as a
        reversible/quantum implementation must.

    Returns
    -------
    EvaluationResult
        ``value = max_{v in S(u0)} ecc(v)``, the window ``S(u0)`` itself and
        the execution metrics.
    """
    if d < 1:
        raise ValueError(f"the window parameter d must be >= 1, got {d}")

    # Step 1: 2d steps of the DFS traversal starting at u0.
    tour = run_windowed_euler_tour(
        network, tree, start=u0, window=2 * d, members=members
    )
    metrics = tour.metrics

    # Step 2: pipelined waves from every node of S(u0), scheduled by tau'.
    schedule: Dict[NodeId, WaveScheduleEntry] = {
        node: WaveScheduleEntry(start_round=2 * time, tag=time)
        for node, time in tour.visit_time.items()
    }
    # The wave phase must run for a duration that does NOT depend on which
    # u0 was received (the Evaluation unitary acts on a superposition of all
    # of them), so we use the worst case: the largest possible tag is the
    # traversal budget, and distances never exceed the diameter, which is at
    # most twice the depth of any BFS tree.  The +2 covers start/delivery
    # offsets.
    duration = 2 * tour.steps + 2 * tree.depth + 2
    waves = run_distance_waves(network, schedule, duration)
    metrics = metrics.merged(waves.metrics)

    # Steps 3-4: convergecast the maximum d_v to the leader.
    aggregate = run_tree_aggregate_max(network, tree, waves.max_distance)
    metrics = metrics.merged(aggregate.metrics)

    # Step 5: revert steps 1-3 to clean all registers.  The revert performs
    # the same communication backwards, so it costs the same number of
    # rounds; no new information is computed, so we account for it without
    # re-simulating.
    if include_uncompute:
        revert = ExecutionMetrics(
            rounds=metrics.rounds,
            messages=metrics.messages,
            total_bits=metrics.total_bits,
            max_edge_bits_per_round=metrics.max_edge_bits_per_round,
            bandwidth_limit_bits=metrics.bandwidth_limit_bits,
            max_node_memory_bits=metrics.max_node_memory_bits,
        )
        revert.record_phase("evaluation_uncompute", revert.rounds)
        metrics = metrics.merged(revert)

    metrics.record_phase("evaluation", metrics.rounds)
    return EvaluationResult(
        u0=u0,
        value=aggregate.value,
        window_nodes=tour.visited,
        metrics=metrics,
    )
