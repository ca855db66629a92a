"""The transport's whole-neighbourhood branch against its per-message loop.

``Transport.deliver`` measures a payload once when an outbox sends one
payload object to exactly the sender's neighbours and no per-message
listener is attached.  Passing a no-op listener forces the per-message
loop on the same outbox, so every test below delivers the outbox both
ways and compares everything observable: the raised error, every
``ExecutionMetrics`` field (cache diagnostics included), the cache
counters and the filled inboxes.  The engine-level tests do the same
through ``Network.run`` with a no-op ``on_message`` observer, under a
loss+delay fault model too.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.diameter_exact import run_classical_exact_diameter
from repro.congest.errors import BandwidthExceededError, ProtocolError
from repro.congest.message import message_size_bits
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.engine import MetricsObserver, Transport
from repro.faults import FaultModel
from repro.graphs import generators


def _noop_listener(*event):
    pass


class _Unrepresentable(tuple):
    """A tuple payload whose ``repr`` fails (measured, never cached)."""

    def __repr__(self):
        raise RuntimeError("no repr")


def _deliver(graph, sender, outbox, per_message, prefill=(), **transport_args):
    """Deliver ``outbox`` on a fresh transport; return what it left behind.

    ``prefill`` payloads are measured first (to fill the cache).  The
    outcome holds the error (type and text) or ``None``, every metrics
    field, the cache counters, the number of ``measure`` calls the
    delivery made, and the filled inboxes.
    """
    args = {"bandwidth_bits": 64, "strict_bandwidth": True, **transport_args}
    transport = Transport(graph, **args)
    for payload in prefill:
        transport.measure(payload)
    measured = []
    measure = transport.measure

    def counting_measure(payload):
        measured.append(payload)
        return measure(payload)

    transport.measure = counting_measure
    metrics = ExecutionMetrics()
    next_inboxes = {}
    listeners = (_noop_listener,) if per_message else ()
    try:
        transport.deliver(0, sender, outbox, next_inboxes, [], metrics, listeners)
    except Exception as error:  # compared below, type and text
        outcome_error = (type(error), str(error))
    else:
        outcome_error = None
    return {
        "error": outcome_error,
        "metrics": dataclasses.asdict(metrics),
        "cache": transport.cache_stats(),
        "measured": len(measured),
        "inboxes": {target: dict(inbox) for target, inbox in next_inboxes.items()},
    }


def _both_ways(graph, sender, outbox, **kwargs):
    """The outcomes of the as-is and the forced per-message delivery."""
    fast = _deliver(graph, sender, outbox, per_message=False, **kwargs)
    loop = _deliver(graph, sender, outbox, per_message=True, **kwargs)
    assert loop["measured"] == len(outbox) or loop["error"] is not None
    fast_measured = fast.pop("measured")
    loop.pop("measured")
    assert fast == loop
    return fast, fast_measured


HUB = 0
#: Node 0 of a 6-node star: five neighbours.
STAR = generators.star_graph(6)
LEAVES = sorted(STAR.neighbors(HUB))


class TestTransportBranch:
    def test_broadcast_is_measured_once(self):
        payload = ("bfs", 3)
        outbox = dict.fromkeys(LEAVES, payload)
        # A cold cache measures a second copy (it hits, so the rest would).
        outcome, measured = _both_ways(STAR, HUB, outbox)
        assert measured == 2
        _, measured = _both_ways(STAR, HUB, outbox, prefill=[payload])
        assert measured == 1
        metrics = outcome["metrics"]
        assert metrics["messages"] == len(LEAVES)
        assert metrics["total_bits"] == len(LEAVES) * message_size_bits(payload)
        assert metrics["max_edge_bits_per_round"] == message_size_bits(payload)
        assert outcome["inboxes"] == {leaf: {HUB: payload} for leaf in LEAVES}
        assert outcome["cache"]["misses"] == 1

    @pytest.mark.parametrize(
        "shared, replacement",
        [(2, 2.0), (2.0, 2), (1, True), (True, 1), (int("1000"), int("1000"))],
        ids=["int-float", "float-int", "int-bool", "bool-int", "equal-int"],
    )
    def test_an_equal_value_of_another_object_goes_per_message(
        self, shared, replacement
    ):
        # 2, 2.0 and True cost 2, 64 and 1 bits although 2 == 2.0 and
        # 1 == True; the last case is an equal int of the same type that
        # is a different object.
        assert replacement == shared and replacement is not shared
        outbox = dict.fromkeys(LEAVES, shared)
        outbox[LEAVES[2]] = replacement
        outcome, measured = _both_ways(STAR, HUB, outbox)
        assert measured == len(LEAVES)
        assert outcome["metrics"]["total_bits"] == (
            (len(LEAVES) - 1) * message_size_bits(shared)
            + message_size_bits(replacement)
        )

    def test_degree_length_outbox_with_a_non_neighbour_raises(self):
        cycle = generators.cycle_graph(6)
        neighbours = sorted(cycle.neighbors(0))
        outbox = dict.fromkeys([neighbours[0], 3], ("w", 1, 1))
        assert len(outbox) == len(neighbours)
        outcome, _ = _both_ways(cycle, 0, outbox)
        assert outcome["error"] == (
            ProtocolError, "node 0 tried to send to non-neighbour 3"
        )

    def test_partial_outbox_goes_per_message(self):
        outbox = dict.fromkeys(LEAVES[:-1], ("bfs", 1))
        _, measured = _both_ways(STAR, HUB, outbox)
        assert measured == len(outbox)

    def test_oversized_broadcast_raises_naming_the_first_target(self):
        outbox = dict.fromkeys(LEAVES, "x" * 20)
        outcome, measured = _both_ways(STAR, HUB, outbox)
        assert measured == 1
        error_type, text = outcome["error"]
        assert error_type is BandwidthExceededError
        assert f"to {LEAVES[0]!r}" in text
        assert outcome["metrics"]["messages"] == 0
        assert outcome["inboxes"] == {}

    def test_oversized_broadcast_counts_one_violation_per_copy(self):
        outbox = dict.fromkeys(LEAVES, "x" * 20)
        outcome, _ = _both_ways(STAR, HUB, outbox, strict_bandwidth=False)
        assert outcome["error"] is None
        assert outcome["metrics"]["bandwidth_violations"] == len(LEAVES)
        assert outcome["metrics"]["max_edge_bits_per_round"] == 160

    def test_unsupported_payload_raises_the_same_error(self):
        outcome, _ = _both_ways(STAR, HUB, dict.fromkeys(LEAVES, object()))
        assert outcome["error"][0] is TypeError

    @pytest.mark.parametrize(
        "payload, kwargs, misses, overflows",
        [
            (("bfs", 1), {"size_cache_limit": 0}, 5, 5),
            ([1, (2, "x")], {"size_cache_limit": 0}, 5, 5),
            (("bfs", 1), {"size_cache_limit": 1, "prefill": [("other",)]}, 6, 5),
            ([1, 2], {"size_cache_limit": 1, "prefill": [("other",)]}, 6, 5),
            (_Unrepresentable((1, 2)), {}, 5, 0),
            (("bfs", 1), {"prefill": [("bfs", 1)]}, 1, 0),
            ([1, 2], {}, 1, 0),
        ],
        ids=[
            "no-cache-value-tier",
            "no-cache-repr-tier",
            "full-cache-value-tier",
            "full-cache-repr-tier",
            "failing-repr",
            "warm-cache",
            "cold-cache-repr-tier",
        ],
    )
    def test_cache_counters_match_per_message_measurement(
        self, payload, kwargs, misses, overflows
    ):
        outcome, _ = _both_ways(STAR, HUB, dict.fromkeys(LEAVES, payload), **kwargs)
        assert outcome["error"] is None
        assert outcome["cache"]["misses"] == misses
        assert outcome["cache"]["overflows"] == overflows

    def test_degree_one_sender(self):
        outcome, measured = _both_ways(STAR, LEAVES[0], {HUB: ("ch",)})
        assert measured == 1
        assert outcome["inboxes"] == {HUB: {LEAVES[0]: ("ch",)}}


# ----------------------------------------------------------------------
# Through the engine
# ----------------------------------------------------------------------
class _Flood(NodeAlgorithm):
    """Each node that runs broadcasts a round-stamped token until round six
    and keeps every inbox it sees; one node also sends a partial outbox.
    A node counts as finished after every round, so a node that hears
    nothing (all its messages lost) stops."""

    ROUNDS = 6

    def __init__(self, node_id, neighbors, num_nodes, rng=None):
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.seen = []

    def on_round(self, round_number, inbox):
        self.seen.append((round_number, sorted(inbox.items(), key=repr)))
        self.finished = True
        if round_number >= self.ROUNDS:
            return {}
        if self.node_id == 0 and round_number % 2:
            return {self.neighbors[0]: ("p", round_number)}
        return self.broadcast(("t", self.node_id % 3, round_number))

    def result(self):
        return self.seen


class _NoopMessageObserver(MetricsObserver):
    """Overrides ``on_message``, which forces the per-message loop."""

    def __init__(self):
        self.messages = 0

    def on_message(self, *event):
        self.messages += 1


def _flood_network(fault_model):
    graph = generators.family_for_sweep("clique_chain", 16, seed=3)
    return Network(graph, seed=5, fault_model=fault_model)


def _flood(network, record_traffic=False):
    return network.run(
        lambda node, net: _Flood(node, net.graph.neighbors(node), net.num_nodes),
        max_rounds=50,
        record_traffic=record_traffic,
    )


LOSS_DELAY = FaultModel(loss=0.15, delay=0.25, max_delay=3, timeout=50)


class TestThroughTheEngine:
    @pytest.mark.parametrize("fault_model", [None, LOSS_DELAY], ids=["null", "loss_delay"])
    def test_inboxes_and_metrics_match_the_per_message_loop(self, fault_model):
        fast = _flood(_flood_network(fault_model))
        forced_network = _flood_network(fault_model)
        observer = _NoopMessageObserver()
        forced_network.add_observer(observer)
        forced = _flood(forced_network)
        assert fast.results == forced.results
        assert dataclasses.asdict(fast.metrics) == dataclasses.asdict(forced.metrics)
        assert observer.messages == fast.metrics.messages
        if fault_model is not None:
            assert fast.metrics.dropped_messages > 0
            assert fast.metrics.delayed_messages > 0

    def test_record_traffic_sees_every_message(self):
        result = _flood(_flood_network(None), record_traffic=True)
        graph = generators.family_for_sweep("clique_chain", 16, seed=3)
        assert len(result.traffic) == result.metrics.messages
        first_round = {
            (sender, receiver) for round_number, sender, receiver, _ in result.traffic
            if round_number == 0
        }
        assert first_round == {
            (node, neighbour)
            for node in graph.nodes()
            for neighbour in graph.neighbors(node)
        }

    def test_paper_algorithms_match_the_per_message_loop(self):
        graph = generators.family_for_sweep("clique_chain", 24, seed=1)
        outcomes = []
        for forced in (False, True):
            network = Network(graph, seed=2)
            if forced:
                network.add_observer(_NoopMessageObserver())
            bfs = run_bfs_tree(network, root=graph.nodes()[0])
            exact = run_classical_exact_diameter(network)
            outcomes.append((dataclasses.asdict(bfs), dataclasses.asdict(exact)))
        assert outcomes[0] == outcomes[1]
