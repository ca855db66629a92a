"""Differential tests: the sparse scheduler must be observationally
identical to the dense reference.

The dense scheduler runs every node every round -- the synchronous
CONGEST definition; the sparse scheduler, which every network runs,
skips idle nodes.  For the paper's (idle-quiescent,
self-waking) algorithms both must therefore agree on *everything*
measurable: per-node results, rounds, messages, total bits, the per-edge
maximum, the memory high-water mark, bandwidth violations and abort
messages -- and even the order of the traffic log, since the sparse
active set is ordered like the dense node order.

Workloads, per the engine-refactor acceptance criteria: single-source BFS,
pipelined multi-source BFS and the Figure-2 Evaluation procedure, on random
graphs (plus structured families), with the composed classical
exact-diameter algorithm as an end-to-end stress.  A property test adds
random fault models (loss, delay, crashes with and without restarts,
churn, timeouts), under which the two must also raise the same aborts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import _BFSNode, run_bfs_tree
from repro.algorithms.diameter_exact import run_classical_exact_diameter
from repro.algorithms.evaluation import run_evaluation_procedure
from repro.algorithms.multi_source_bfs import run_multi_source_bfs
from repro.algorithms.resilient import run_resilient_bfs
from repro.congest.errors import (
    BandwidthExceededError,
    CongestSimulationError,
    ProtocolError,
)
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.engine import DenseScheduler, SparseScheduler
from repro.faults import FaultModel
from repro.graphs import generators

#: The dense reference and the production sparse scheduler, by name.
SCHEDULER_CLASSES = {"dense": DenseScheduler, "sparse": SparseScheduler}


def _dense(graph, **kwargs):
    return Network(graph, scheduler=DenseScheduler(), **kwargs)


def _sparse(graph, **kwargs):
    return Network(graph, scheduler=SparseScheduler(), **kwargs)


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
        dense = run_bfs_tree(_dense(diff_graph), root)
        sparse = run_bfs_tree(_sparse(diff_graph), root)
        assert dense.parent == sparse.parent
        assert dense.distance == sparse.distance
        assert dense.children == sparse.children
        assert _metric_tuple(dense.metrics) == _metric_tuple(sparse.metrics)

    def test_multi_source_bfs_identical(self, diff_graph):
        sources = diff_graph.nodes()[:: max(1, diff_graph.num_nodes // 5)][:5]
        dense = run_multi_source_bfs(_dense(diff_graph), sources)
        sparse = run_multi_source_bfs(_sparse(diff_graph), sources)
        assert dense.distances == sparse.distances
        assert _metric_tuple(dense.metrics) == _metric_tuple(sparse.metrics)

    def test_evaluation_procedure_identical(self, diff_graph):
        root = diff_graph.nodes()[0]
        dense_net = _dense(diff_graph)
        sparse_net = _sparse(diff_graph)
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
        dense_net = _dense(diff_graph)
        sparse_net = _sparse(diff_graph)

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
            dense = run_classical_exact_diameter(_dense(graph))
            sparse = run_classical_exact_diameter(_sparse(graph))
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
                chain, bandwidth_bits=8, strict_bandwidth=False,
                scheduler=SCHEDULER_CLASSES[engine](),
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
            network = Network(
                chain, bandwidth_bits=8, scheduler=SCHEDULER_CLASSES[engine]()
            )
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
            network = Network(path, scheduler=SCHEDULER_CLASSES[engine]())
            with pytest.raises(ProtocolError) as error:
                network.run(factory)
            messages[engine] = str(error.value)
        assert messages["dense"] == messages["sparse"]


#: Small topologies for the fault property: a tree, a cycle, cliques.
_FAULT_GRAPHS = {
    "random_tree_10": lambda: generators.random_tree(10, seed=4),
    "cycle_12": lambda: generators.family_for_sweep("cycle", 12, seed=3),
    "clique_chain_16": lambda: generators.family_for_sweep("clique_chain", 16, seed=3),
}

_PROBABILITIES = st.sampled_from([0.0, 0.05, 0.2])

#: The fault-tolerant workloads: a BFS tree, the pipelined multi-source
#: BFS (self-wakes) and the retrying BFS flood (timer wakes).
_FAULT_WORKLOADS = {
    "bfs": lambda network, nodes: run_bfs_tree(network, nodes[0]),
    "msbfs": lambda network, nodes: run_multi_source_bfs(network, nodes[::4]),
    "resilient_bfs": lambda network, nodes: run_resilient_bfs(network, nodes[0]),
}


def _faulty_outcome(workload, graph, model, scheduler):
    """The workload's result, or its error's type, message and progress."""
    network = Network(graph, seed=5, scheduler=scheduler, fault_model=model)
    try:
        return _FAULT_WORKLOADS[workload](network, graph.nodes())
    except (CongestSimulationError, RuntimeError) as error:
        return (
            type(error), str(error),
            getattr(error, "rounds_completed", None),
            getattr(error, "max_rounds", None),
        )


class TestFaultyDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        graph_name=st.sampled_from(sorted(_FAULT_GRAPHS)),
        workload=st.sampled_from(sorted(_FAULT_WORKLOADS)),
        loss=_PROBABILITIES,
        delay=_PROBABILITIES,
        max_delay=st.sampled_from([1, 3]),
        crash=_PROBABILITIES,
        crash_window=st.sampled_from([4, 16]),
        down_rounds=st.sampled_from([0, 1, 4, 1000]),
        churn=st.sampled_from([0.0, 0.01, 0.05]),
        timeout=st.sampled_from([None, 30, 256]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_faulty_runs_identical(
        self, graph_name, workload, loss, delay, max_delay, crash,
        crash_window, down_rounds, churn, timeout, seed,
    ):
        """Equal results and metrics under both schedulers, or the same
        abort: exception type, message, rounds completed and round cap."""
        graph = _FAULT_GRAPHS[graph_name]()
        model = FaultModel(
            loss=loss, delay=delay, max_delay=max_delay, crash=crash,
            crash_window=crash_window, down_rounds=down_rounds, churn=churn,
            timeout=timeout, seed=seed,
        )
        dense = _faulty_outcome(workload, graph, model, DenseScheduler())
        sparse = _faulty_outcome(workload, graph, model, SparseScheduler())
        assert sparse == dense
