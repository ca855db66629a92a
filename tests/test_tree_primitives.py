"""Tests for BFS trees, broadcast/convergecast, leader election, eccentricity."""

from __future__ import annotations

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.broadcast import (
    run_tree_aggregate_max,
    run_tree_aggregate_max_witness,
    run_tree_aggregate_sum,
    run_tree_broadcast,
)
from repro.algorithms.eccentricity import run_eccentricity
from repro.algorithms.leader_election import identifier_key, run_leader_election
from repro.congest.network import Network
from repro.graphs import generators


class TestBFSTree:
    def test_distances_match_oracle(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        assert tree.distance == small_graph.bfs_distances(root)

    def test_parents_are_one_step_closer(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        for node, parent in tree.parent.items():
            if node == root:
                assert parent is None
            else:
                assert small_graph.has_edge(node, parent)
                assert tree.distance[node] == tree.distance[parent] + 1

    def test_children_are_consistent_with_parents(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        for node in small_graph.nodes():
            for child in tree.children_of(node):
                assert tree.parent[child] == node
        total_children = sum(len(tree.children_of(n)) for n in small_graph.nodes())
        assert total_children == small_graph.num_nodes - 1

    def test_depth_equals_eccentricity(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        assert tree.depth == small_graph.eccentricity(root)

    def test_round_complexity_linear_in_depth(self, network_factory):
        graph = generators.path_graph(30)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        assert tree.metrics.rounds <= tree.depth + 5

    def test_invalid_root(self, network_factory):
        network = network_factory(generators.path_graph(4))
        with pytest.raises(ValueError):
            run_bfs_tree(network, 99)

    def test_memory_is_logarithmic(self, network_factory):
        graph = generators.random_connected_gnp(40, 0.1, seed=1)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        assert tree.metrics.max_node_memory_bits <= 3 * 8

    @pytest.mark.parametrize("graph, rounds, messages, total_bits, hub_children", [
        (generators.star_graph(64), 3, 126, 2961, 63),
        (generators.diameter_controlled_graph(576, 6, seed=1), 8, 3424, 92977, 570),
    ], ids=["star", "fixed-diameter"])
    def test_hub_tree_is_pinned(
        self, network_factory, graph, rounds, messages, total_bits, hub_children
    ):
        """Node 0 is a hub that hears from most of the graph; its tree,
        rounds and traffic are pinned to the values of the list-scanning
        implementation, and every node's children are the neighbours one
        step further whose smallest-``repr`` closer neighbour it is."""
        tree = run_bfs_tree(network_factory(graph), 0)
        assert (tree.metrics.rounds, tree.metrics.messages) == (rounds, messages)
        assert tree.metrics.total_bits == total_bits
        assert len(tree.children_of(0)) == hub_children
        distance = graph.bfs_distances(0)
        expected = {node: [] for node in graph.nodes()}
        for node in graph.nodes():
            closer = [
                neighbor for neighbor in graph.neighbors(node)
                if distance[neighbor] == distance[node] - 1
            ]
            if closer:
                expected[min(closer, key=repr)].append(node)
        assert tree.children == {
            node: tuple(sorted(children, key=repr))
            for node, children in expected.items()
        }


class TestTreeBroadcast:
    def test_everyone_receives_value(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        broadcast = run_tree_broadcast(network, tree, ("v", 42))
        assert all(value == ("v", 42) for value in broadcast.values.values())

    def test_round_complexity(self, network_factory):
        graph = generators.path_graph(25)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        broadcast = run_tree_broadcast(network, tree, 7)
        assert broadcast.metrics.rounds <= tree.depth + 4


class TestConvergecast:
    def test_max(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        values = {node: hash(repr(node)) % 100 for node in small_graph.nodes()}
        aggregate = run_tree_aggregate_max(network, tree, values)
        assert aggregate.value == max(values.values())

    def test_sum(self, small_graph, network_factory):
        network = network_factory(small_graph)
        root = small_graph.nodes()[0]
        tree = run_bfs_tree(network, root)
        values = {node: 1 for node in small_graph.nodes()}
        aggregate = run_tree_aggregate_sum(network, tree, values)
        assert aggregate.value == small_graph.num_nodes

    def test_max_witness(self, network_factory):
        graph = generators.path_graph(8)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        values = {node: (10 if node == 5 else node) for node in graph.nodes()}
        aggregate = run_tree_aggregate_max_witness(network, tree, values)
        assert aggregate.value == 10
        assert aggregate.witness == 5

    def test_missing_value_raises(self, network_factory):
        graph = generators.path_graph(4)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        with pytest.raises(ValueError):
            run_tree_aggregate_max(network, tree, {0: 1})

    def test_round_complexity(self, network_factory):
        graph = generators.path_graph(25)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        aggregate = run_tree_aggregate_max(network, tree, {n: n for n in graph.nodes()})
        assert aggregate.metrics.rounds <= tree.depth + 4


class TestLeaderElection:
    def test_unique_leader_has_max_key(self, small_graph, network_factory):
        network = network_factory(small_graph)
        result = run_leader_election(network)
        expected = max(small_graph.nodes(), key=identifier_key)
        assert result.leader == expected

    def test_round_complexity_linear_in_diameter(self, network_factory):
        graph = generators.path_graph(40)
        network = network_factory(graph)
        result = run_leader_election(network)
        assert result.metrics.rounds <= graph.diameter() + 5

    def test_single_node(self, network_factory):
        network = network_factory(generators.path_graph(1))
        assert run_leader_election(network).leader == 0


class TestEccentricity:
    def test_matches_oracle(self, small_graph, network_factory):
        network = network_factory(small_graph)
        for node in list(small_graph.nodes())[:4]:
            result = run_eccentricity(network, node)
            assert result.eccentricity == small_graph.eccentricity(node)

    def test_reuses_given_tree(self, network_factory):
        graph = generators.cycle_graph(10)
        network = network_factory(graph)
        tree = run_bfs_tree(network, 0)
        result = run_eccentricity(network, 0, tree=tree)
        assert result.eccentricity == 5
        # Reusing the tree should cost only the convergecast.
        assert result.metrics.rounds <= tree.depth + 4

    def test_round_complexity(self, network_factory):
        graph = generators.path_graph(30)
        network = network_factory(graph)
        result = run_eccentricity(network, 0)
        assert result.metrics.rounds <= 3 * graph.diameter() + 10
