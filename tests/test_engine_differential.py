"""Differential tests: the sparse engine must be observationally
identical to the dense engine.

The dense scheduler reproduces the seed simulator bit-for-bit; the sparse
scheduler skips idle nodes.  For the paper's (idle-quiescent,
self-waking) algorithms both must therefore agree on *everything*
measurable: per-node results, rounds, messages, total bits, the per-edge
maximum, the memory high-water mark, bandwidth violations and abort
messages -- and even the order of the traffic log, since the sparse
active set is ordered like the dense node order.

Workloads, per the engine-refactor acceptance criteria: single-source BFS,
pipelined multi-source BFS and the Figure-2 Evaluation procedure, on random
graphs (plus structured families), with the composed classical
exact-diameter algorithm as an end-to-end stress.
"""

from __future__ import annotations

import pytest

from repro.algorithms.bfs import _BFSNode, run_bfs_tree
from repro.algorithms.diameter_exact import run_classical_exact_diameter
from repro.algorithms.evaluation import run_evaluation_procedure
from repro.algorithms.multi_source_bfs import run_multi_source_bfs
from repro.congest.errors import BandwidthExceededError, ProtocolError
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.graphs import generators


def _metric_tuple(metrics):
    return (
        metrics.rounds,
        metrics.messages,
        metrics.total_bits,
        metrics.max_edge_bits_per_round,
        metrics.bandwidth_violations,
        metrics.max_node_memory_bits,
    )


DIFFERENTIAL_GRAPHS = {
    "random_gnp_20": lambda: generators.random_connected_gnp(20, p=0.18, seed=3),
    "random_gnp_32": lambda: generators.random_connected_gnp(32, p=0.12, seed=11),
    "random_gnp_40": lambda: generators.random_connected_gnp(40, p=0.09, seed=23),
    "random_tree_25": lambda: generators.random_tree(25, seed=7),
    "path_30": lambda: generators.path_graph(30),
    "clique_chain_4x4": lambda: generators.clique_chain(4, 4),
}


@pytest.fixture(params=sorted(DIFFERENTIAL_GRAPHS))
def diff_graph(request):
    return DIFFERENTIAL_GRAPHS[request.param]()


class _BigBroadcaster(NodeAlgorithm):
    """Broadcasts an over-budget payload once (bandwidth-parity probe)."""

    def on_round(self, round_number, inbox):
        if round_number == 0:
            return self.broadcast(list(range(64)))
        self.finished = True
        return None


class _NonNeighbourSender(NodeAlgorithm):
    """Sends to every node, neighbour or not (protocol-parity probe)."""

    labels = ()

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0:
            return {
                other: 1 for other in self.labels if other != self.node_id
            }
        return None


class TestSchedulerDifferential:
    def test_bfs_identical(self, diff_graph):
        root = diff_graph.nodes()[0]
        dense = run_bfs_tree(Network(diff_graph, engine="dense"), root)
        sparse = run_bfs_tree(Network(diff_graph, engine="sparse"), root)
        assert dense.parent == sparse.parent
        assert dense.distance == sparse.distance
        assert dense.children == sparse.children
        assert _metric_tuple(dense.metrics) == _metric_tuple(sparse.metrics)

    def test_multi_source_bfs_identical(self, diff_graph):
        sources = diff_graph.nodes()[:: max(1, diff_graph.num_nodes // 5)][:5]
        dense = run_multi_source_bfs(Network(diff_graph, engine="dense"), sources)
        sparse = run_multi_source_bfs(Network(diff_graph, engine="sparse"), sources)
        assert dense.distances == sparse.distances
        assert _metric_tuple(dense.metrics) == _metric_tuple(sparse.metrics)

    def test_evaluation_procedure_identical(self, diff_graph):
        root = diff_graph.nodes()[0]
        dense_net = Network(diff_graph, engine="dense")
        sparse_net = Network(diff_graph, engine="sparse")
        dense_tree = run_bfs_tree(dense_net, root)
        sparse_tree = run_bfs_tree(sparse_net, root)
        d = max(1, dense_tree.depth)
        for u0 in diff_graph.nodes()[:: max(1, diff_graph.num_nodes // 4)][:4]:
            dense = run_evaluation_procedure(dense_net, dense_tree, d, u0)
            sparse = run_evaluation_procedure(sparse_net, sparse_tree, d, u0)
            assert dense.value == sparse.value
            assert dense.window_nodes == sparse.window_nodes
            assert _metric_tuple(dense.metrics) == _metric_tuple(sparse.metrics)

    def test_traffic_logs_identical(self, diff_graph):
        """Even the per-message traffic log matches, entry for entry."""
        root = diff_graph.nodes()[0]
        dense_net = Network(diff_graph, engine="dense")
        sparse_net = Network(diff_graph, engine="sparse")

        def bfs_factory(node, net):
            return _BFSNode(
                node, net.graph.neighbors(node), net.num_nodes,
                net.node_rng(node), root,
            )

        dense = dense_net.run(bfs_factory, record_traffic=True)
        sparse = sparse_net.run(bfs_factory, record_traffic=True)
        assert dense.traffic == sparse.traffic

    def test_classical_exact_diameter_end_to_end(self):
        """The composed multi-phase algorithm (election, BFS, Euler tour,
        scheduled waves, convergecast) agrees across engines."""
        for seed in (1, 5):
            graph = generators.random_connected_gnp(24, p=0.15, seed=seed)
            dense = run_classical_exact_diameter(Network(graph, engine="dense"))
            sparse = run_classical_exact_diameter(Network(graph, engine="sparse"))
            assert dense.diameter == sparse.diameter == graph.diameter()
            assert _metric_tuple(dense.metrics) == _metric_tuple(sparse.metrics)

    def test_bandwidth_violations_counted_identically(self):
        chain = generators.clique_chain(5, 4)
        factory = lambda node, net: _BigBroadcaster(
            node, net.neighbors(node), net.num_nodes
        )
        snapshots = {}
        for engine in ("dense", "sparse"):
            network = Network(
                chain, bandwidth_bits=8, strict_bandwidth=False, engine=engine
            )
            execution = network.run(factory)
            snapshots[engine] = _metric_tuple(execution.metrics)
        assert snapshots["dense"] == snapshots["sparse"]
        assert snapshots["dense"][4] > 0  # the probe really violated

    def test_strict_bandwidth_error_identical(self):
        chain = generators.clique_chain(5, 4)
        factory = lambda node, net: _BigBroadcaster(
            node, net.neighbors(node), net.num_nodes
        )
        messages = {}
        for engine in ("dense", "sparse"):
            network = Network(chain, bandwidth_bits=8, engine=engine)
            with pytest.raises(BandwidthExceededError) as error:
                network.run(factory)
            messages[engine] = str(error.value)
        assert messages["dense"] == messages["sparse"]

    def test_non_neighbour_error_identical(self):
        path = generators.path_graph(5)
        _NonNeighbourSender.labels = path.nodes()
        factory = lambda node, net: _NonNeighbourSender(
            node, net.neighbors(node), net.num_nodes
        )
        messages = {}
        for engine in ("dense", "sparse"):
            network = Network(path, engine=engine)
            with pytest.raises(ProtocolError) as error:
                network.run(factory)
            messages[engine] = str(error.value)
        assert messages["dense"] == messages["sparse"]
