"""Node generators are seeded on first use, and draw the network's stream.

Algorithm factories hand every node the integer ``Network.node_seed(node)``
instead of a ready ``random.Random``; ``NodeAlgorithm.rng`` seeds the
generator on its first read.  A run whose nodes never draw therefore seeds
no generator, while a node that does draw sees exactly the stream of
``Network.node_rng(node)``.
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.leader_election import run_leader_election
from repro.algorithms.waves import WaveScheduleEntry, run_distance_waves
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.faults import FaultModel
from repro.graphs import generators
from repro.graphs.graph import Graph


@pytest.fixture
def seed_calls(monkeypatch):
    """Count ``random.Random.seed`` calls (``Random(x)`` calls it too)."""
    calls = []
    original = random.Random.seed

    def counting_seed(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting_seed)
    return calls


class _Drawer(NodeAlgorithm):
    """Draws one value from ``self.rng`` per activation; sends for a few rounds."""

    ACTIVE_ROUNDS = 5

    def __init__(self, node_id, neighbors, num_nodes, rng) -> None:
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.draws = []

    def on_round(self, round_number, inbox):
        self.draws.append(self.rng.random())
        if round_number >= self.ACTIVE_ROUNDS:
            return {}
        if round_number + 1 < self.ACTIVE_ROUNDS:
            self.wake_next_round()
        else:
            self.finished = True
        return self.broadcast(round_number)

    def result(self):
        return self.draws


class TestSeededOnFirstUse:
    def test_counter_sees_seeding(self, seed_calls):
        network = Network(generators.path_graph(3), seed=5)
        network.node_rng(1)
        assert len(seed_calls) == 1

    def test_bfs_waves_and_leader_election_seed_nothing(self, seed_calls):
        graph = generators.clique_chain(3, 4)
        network = Network(graph, seed=7)
        tree = run_bfs_tree(network, 0)
        schedule = {
            node: WaveScheduleEntry(start_round=2 * tag, tag=tag)
            for tag, node in enumerate(sorted(graph.nodes())[:3])
        }
        run_distance_waves(network, schedule, 2 * 3 + 2 * tree.depth + 2)
        run_leader_election(network)
        assert seed_calls == []

    @pytest.mark.parametrize(
        "fault", [None, FaultModel(loss=0.2, delay=0.1)], ids=["null", "lossy"]
    )
    def test_draws_follow_node_rng(self, fault):
        graph = generators.cycle_graph(8)
        network = Network(graph, seed=11, fault_model=fault)
        execution = network.run(
            lambda node, net: _Drawer(
                node, net.neighbors(node), net.num_nodes, net.node_seed(node)
            )
        )
        if fault is not None:
            assert execution.metrics.dropped_messages > 0
            assert execution.metrics.delayed_messages > 0
        for node, draws in execution.results.items():
            assert len(draws) >= _Drawer.ACTIVE_ROUNDS
            reference = network.node_rng(node)
            assert draws == [reference.random() for _ in draws]


class TestNodeSeedMemo:
    @pytest.mark.parametrize("seed", [None, 0, 11, -3, 2**40])
    def test_memoised_seeds_equal_fresh_crcs(self, seed):
        graph = Graph(nodes=["b", ("a", 1), 7, "a"])
        graph.add_edge("b", ("a", 1))
        graph.add_edge(("a", 1), 7)
        graph.add_edge(7, "a")
        network = Network(graph, seed=seed)
        base = 0 if seed is None else seed
        for _ in range(2):
            for node in graph.nodes():
                fresh = zlib.crc32(f"{base}|{node!r}".encode("utf-8"))
                assert network.node_seed(node) == fresh
                assert network.node_rng(node).random() == random.Random(fresh).random()

    def test_a_run_reuses_the_memo(self, monkeypatch):
        network = Network(generators.cycle_graph(6), seed=4)
        expected = {node: network.node_seed(node) for node in range(6)}
        monkeypatch.setattr(zlib, "crc32", None)  # a recomputation would fail
        assert {node: network.node_seed(node) for node in range(6)} == expected
        run_leader_election(network)


class TestExplicitGenerators:
    def test_explicit_generator_is_used(self):
        rng = random.Random(5)
        node = NodeAlgorithm(0, [1], 2, rng=rng)
        assert node.rng is rng
        assert node.rng.random() == random.Random(5).random()

    def test_none_means_seed_zero(self):
        node = NodeAlgorithm(0, [1], 2)
        assert node.rng.random() == random.Random(0).random()

    def test_assigned_generator_is_used(self):
        node = NodeAlgorithm(0, [1], 2, 1)
        rng = random.Random(9)
        node.rng = rng
        assert node.rng is rng
