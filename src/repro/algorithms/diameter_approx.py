"""Classical diameter approximation baselines ([LP13, HPRW14]).

Two classical algorithms appear in Table 1 next to the paper's quantum
results:

* the trivial **2-approximation**: compute the eccentricity of an arbitrary
  node in ``O(D)`` rounds -- ``ecc(v) <= D <= 2 ecc(v)``;
* the **3/2-approximation** of Lenzen-Peleg / Holzer et al., running in
  ``O~(sqrt(n) + D)`` rounds, which the paper's Theorem 4 speeds up
  quantumly to ``O~((n D)^(1/3) + D)``.

The 3/2-approximation is split into a *preparation* phase
(:func:`run_hprw_preparation`, Steps 1-3 of Figure 3 -- shared verbatim with
the quantum algorithm of Theorem 4) and a classical *completion* that
computes the eccentricity of every node of the ball ``R`` with the same
pipelined-wave machinery used everywhere else in the library.

The estimate returned is ``D_hat = max(ecc over S, ecc(w), ecc over R)``;
[HPRW14] prove ``floor(2D/3) <= D_hat <= D`` with high probability over the
sampling of ``S``.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Dict, Optional, Set, Tuple

from repro._record import Record
from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.broadcast import (
    run_tree_aggregate_max,
    run_tree_aggregate_max_witness,
    run_tree_aggregate_sum,
    run_tree_broadcast,
)
from repro.algorithms.dfs_traversal import run_full_euler_tour
from repro.algorithms.eccentricity import run_eccentricity
from repro.algorithms.leader_election import run_leader_election
from repro.algorithms.multi_source_bfs import run_multi_source_bfs
from repro.algorithms.waves import WaveScheduleEntry, run_distance_waves
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.graphs.graph import NodeId


class ApproxDiameterResult(Record):
    """Outcome of a diameter-approximation algorithm."""

    __slots__ = ("estimate", "approximation_factor", "metrics")

    @property
    def rounds(self) -> int:
        """Total number of rounds used."""
        return self.metrics.rounds


class HPRWPreparationResult(Record):
    """Outcome of Steps 1-3 of Figure 3 (shared classical preparation)."""

    __slots__ = (
        "sampled_set",
        "w",
        "w_tree",
        "d_w",
        "ball",
        "ball_radius",
        "max_ecc_over_samples",
        "metrics",
        "aborted",
    )

    _defaults = {"aborted": False}


#: Size of the hash space used for trimming the boundary layer of the ball.
_HASH_SPACE = 2 ** 20


def _node_hash(node: NodeId) -> int:
    """A deterministic pseudo-random rank of a node, used to trim ties."""
    return zlib.crc32(repr(node).encode("utf-8")) % _HASH_SPACE


def run_classical_two_approximation(
    network: Network, node: Optional[NodeId] = None
) -> ApproxDiameterResult:
    """The trivial 2-approximation: ``D_hat = ecc(node)`` in ``O(D)`` rounds."""
    metrics = ExecutionMetrics()
    if node is None:
        election = run_leader_election(network)
        node = election.leader
        metrics = metrics.merged(election.metrics)
    eccentricity = run_eccentricity(network, node)
    metrics = metrics.merged(eccentricity.metrics)
    return ApproxDiameterResult(
        estimate=eccentricity.eccentricity,
        approximation_factor=2.0,
        metrics=metrics,
    )


def run_hprw_preparation(
    network: Network,
    s: int,
    seed: Optional[int] = None,
    leader: Optional[NodeId] = None,
) -> HPRWPreparationResult:
    """Steps 1-3 of Figure 3: sample ``S``, find ``w``, select the ball ``R``.

    * every node joins ``S`` independently with probability
      ``min(1, (ln n + 1) / s)``; if more than ``n (ln n + 1)^2 / s`` nodes
      join, the attempt is flagged as aborted (the paper's abort condition);
    * a pipelined multi-source BFS from ``S`` gives every node ``v`` its
      distance ``d(v, S)`` and, as a by-product, ``max_{u in S} ecc(u)``;
    * ``w`` is a node maximising ``d(w, S)``; a BFS tree from ``w`` is
      built and the ball ``R`` of the ``s`` nodes closest to ``w`` is
      selected by binary search on the ball radius.

    Round complexity: ``O(|S| + D log n)`` which is
    ``O~(n / s + D)`` for the sampling probability above.
    """
    if s < 1:
        raise ValueError(f"the parameter s must be >= 1, got {s}")
    metrics = ExecutionMetrics()
    n = network.num_nodes

    if leader is None:
        election = run_leader_election(network)
        leader = election.leader
        metrics = metrics.merged(election.metrics)
    leader_tree = run_bfs_tree(network, leader)
    metrics = metrics.merged(leader_tree.metrics)

    # Step 1: random sampling.  Sampling is a purely local coin flip, so it
    # costs no communication; detecting the abort condition costs one
    # convergecast (O(D) rounds).
    log_term = math.log(n) + 1.0
    probability = min(1.0, log_term / s)
    sampled: Set[NodeId] = set()
    for node in network.graph.nodes():
        digest = zlib.crc32(f"hprw|{seed}|{node!r}".encode("utf-8"))
        if random.Random(digest).random() < probability:
            sampled.add(node)
    if not sampled:
        # Always keep at least the leader so the set is non-empty; this can
        # only happen on very small graphs where it changes nothing.
        sampled.add(leader)
    count_check = run_tree_aggregate_sum(
        network, leader_tree,
        {node: (1 if node in sampled else 0) for node in network.graph.nodes()},
    )
    metrics = metrics.merged(count_check.metrics)
    aborted = count_check.value > max(1.0, n * log_term * log_term / s)

    # Step 2: every node computes its distance to S (and p(v) implicitly),
    # and the maximum eccentricity over S is obtained by a convergecast of
    # the per-node maxima.
    source_bfs = run_multi_source_bfs(network, sorted(sampled, key=repr))
    metrics = metrics.merged(source_bfs.metrics)
    distance_to_set = {
        node: source_bfs.distance_to_set(node) for node in network.graph.nodes()
    }
    per_node_max_to_samples = {
        node: max(source_bfs.distances[node].values())
        for node in network.graph.nodes()
    }
    max_ecc_samples = run_tree_aggregate_max(
        network, leader_tree, per_node_max_to_samples
    )
    metrics = metrics.merged(max_ecc_samples.metrics)

    # w maximises d(w, S); its identity is broadcast to everyone.
    farthest = run_tree_aggregate_max_witness(network, leader_tree, distance_to_set)
    metrics = metrics.merged(farthest.metrics)
    w = farthest.witness
    announce = run_tree_broadcast(network, leader_tree, ("w-is", w))
    metrics = metrics.merged(announce.metrics)

    # Step 3: BFS from w, then select the ball R of the s closest nodes by
    # binary search on the radius (each probe is one convergecast sum).
    w_tree = run_bfs_tree(network, w)
    metrics = metrics.merged(w_tree.metrics)
    d_w = w_tree.depth

    target_size = min(s, n)
    low, high = 0, d_w
    while low < high:
        middle = (low + high) // 2
        count = run_tree_aggregate_sum(
            network, w_tree,
            {
                node: (1 if w_tree.distance[node] <= middle else 0)
                for node in network.graph.nodes()
            },
        )
        metrics = metrics.merged(count.metrics)
        if count.value >= target_size:
            high = middle
        else:
            low = middle + 1
    ball_radius = low
    # The ball of radius ball_radius contains at least `target_size` nodes,
    # but ties in the boundary layer can make it much larger (think of a
    # star).  Trim the boundary layer by a second binary search, over a
    # deterministic per-node hash, so that |R| stays O(s) -- each probe is
    # one more O(D)-round convergecast, which keeps the preparation within
    # its O~(n/s + D) budget.
    inner = {
        node
        for node in network.graph.nodes()
        if w_tree.distance[node] < ball_radius
    }
    full_ball_count = run_tree_aggregate_sum(
        network, w_tree,
        {
            node: (1 if w_tree.distance[node] <= ball_radius else 0)
            for node in network.graph.nodes()
        },
    )
    metrics = metrics.merged(full_ball_count.metrics)
    if full_ball_count.value <= 2 * target_size:
        ball = {
            node
            for node in network.graph.nodes()
            if w_tree.distance[node] <= ball_radius
        }
        return HPRWPreparationResult(
            sampled_set=sampled,
            w=w,
            w_tree=w_tree,
            d_w=d_w,
            ball=ball,
            ball_radius=ball_radius,
            max_ecc_over_samples=max_ecc_samples.value,
            metrics=metrics,
            aborted=aborted,
        )
    boundary_needed = target_size - len(inner)
    hash_low, hash_high = 0, _HASH_SPACE
    while hash_low < hash_high:
        middle = (hash_low + hash_high) // 2
        count = run_tree_aggregate_sum(
            network, w_tree,
            {
                node: (
                    1
                    if w_tree.distance[node] == ball_radius
                    and _node_hash(node) <= middle
                    else 0
                )
                for node in network.graph.nodes()
            },
        )
        metrics = metrics.merged(count.metrics)
        if count.value >= boundary_needed:
            hash_high = middle
        else:
            hash_low = middle + 1
    ball = inner | {
        node
        for node in network.graph.nodes()
        if w_tree.distance[node] == ball_radius and _node_hash(node) <= hash_low
    }

    return HPRWPreparationResult(
        sampled_set=sampled,
        w=w,
        w_tree=w_tree,
        d_w=d_w,
        ball=ball,
        ball_radius=ball_radius,
        max_ecc_over_samples=max_ecc_samples.value,
        metrics=metrics,
        aborted=aborted,
    )


def max_eccentricity_over_ball(
    network: Network, preparation: HPRWPreparationResult
) -> Tuple[int, ExecutionMetrics]:
    """Classically compute ``max_{v in R} ecc(v)`` with pipelined waves.

    The ball ``R`` is parent-closed in ``BFS(w)``, so an Euler tour of the
    induced subtree numbers its nodes in ``O(|R|)`` rounds; the waves then
    need ``O(|R| + D)`` rounds.
    """
    metrics = ExecutionMetrics()
    tour = run_full_euler_tour(
        network, preparation.w_tree, members=preparation.ball
    )
    metrics = metrics.merged(tour.metrics)
    schedule: Dict[NodeId, WaveScheduleEntry] = {
        node: WaveScheduleEntry(start_round=2 * time, tag=time)
        for node, time in tour.visit_time.items()
    }
    max_tag = max(entry.tag for entry in schedule.values())
    duration = 2 * max_tag + 2 * preparation.w_tree.depth + 2
    waves = run_distance_waves(network, schedule, duration)
    metrics = metrics.merged(waves.metrics)
    aggregate = run_tree_aggregate_max(
        network, preparation.w_tree, waves.max_distance
    )
    metrics = metrics.merged(aggregate.metrics)
    return aggregate.value, metrics


def run_hprw_three_halves_approximation(
    network: Network,
    s: Optional[int] = None,
    seed: Optional[int] = None,
) -> ApproxDiameterResult:
    """The classical 3/2-approximation of [HPRW14] in ``O~(sqrt(n) + D)`` rounds.

    ``s`` defaults to ``ceil(sqrt(n))``, the choice that balances the
    ``O~(n / s)`` preparation against the ``O~(s + D)`` completion.
    """
    n = network.num_nodes
    if s is None:
        s = max(1, math.ceil(math.sqrt(n)))

    preparation = run_hprw_preparation(network, s=s, seed=seed)
    metrics = preparation.metrics

    ecc_w = run_eccentricity(network, preparation.w, tree=preparation.w_tree)
    metrics = metrics.merged(ecc_w.metrics)

    ball_max, ball_metrics = max_eccentricity_over_ball(network, preparation)
    metrics = metrics.merged(ball_metrics)

    estimate = max(
        preparation.max_ecc_over_samples, ecc_w.eccentricity, ball_max
    )
    return ApproxDiameterResult(
        estimate=estimate, approximation_factor=1.5, metrics=metrics
    )
