"""A ``Broadcast`` outbox against its ``dict`` delivered message by message.

``NodeAlgorithm.broadcast`` returns a :class:`repro.congest.node.Broadcast`
over the node's neighbour tuple.  ``Transport.deliver`` takes it in bulk
when that tuple is the network's own (an identity check) and no
per-message listener is attached: the payload is sized once and its
copies are accounted together.  A plain dict always goes message by
message.  So every test below delivers a ``Broadcast`` and its
``dict(...)`` on fresh transports and compares everything observable: the
raised error, every ``ExecutionMetrics`` field, the filled inboxes in
order and, under a fault plan, the parked delayed messages and the order
the fates were drawn in.  The engine-level tests do the same through
``Network.run``.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro._record import as_dict as record_dict
from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.diameter_exact import run_classical_exact_diameter
from repro.algorithms.resilient import run_resilient_bfs
from repro.congest.errors import BandwidthExceededError, ProtocolError
from repro.congest.message import message_size_bits
from repro.congest.metrics import ExecutionMetrics
from repro.congest.network import Network
from repro.congest.node import Broadcast, NodeAlgorithm
from repro.engine import MetricsObserver, Transport
from repro.engine import transport as transport_module
from repro.engine.scheduler import DenseScheduler
from repro.faults import FaultModel, FaultPlan
from repro.graphs import Graph, generators
from repro.graphs.indexed import IndexedGraph


class _Unrepresentable(tuple):
    """A tuple payload whose ``repr`` fails."""

    def __repr__(self):
        raise RuntimeError("no repr")


class _RecordingPlan(FaultPlan):
    """A fault plan that records the targets of every ``route`` call (the
    transport decides the fates while routing)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.drawn = []

    def route(self, round_number, sender, items, *placement):
        items = list(items)
        self.drawn.append((round_number, sender, [target for target, _ in items]))
        return super().route(round_number, sender, items, *placement)


def _deliver(graph, sender, outbox, listen=False, fault_model=None,
             round_number=0, **transport_args):
    """Deliver ``outbox`` on a fresh transport; return what it left behind.

    With ``listen`` a listener records every message; with
    ``fault_model`` the delivery runs under a fresh plan of it.  The
    outcome holds the error (type and text) or ``None``, every metrics
    field, the filled inboxes (as ordered item lists, in creation order),
    the listener's events, the parked delayed messages and the fate
    draws.
    """
    args = {"bandwidth_bits": 64, "strict_bandwidth": True, **transport_args}
    transport = Transport(graph, **args)
    events = []
    listeners = [lambda *event: events.append(event)] if listen else []
    plan = pending = None
    if fault_model is not None:
        plan = _RecordingPlan(fault_model, 11, graph.compile())
        pending = {}
    metrics = ExecutionMetrics()
    next_inboxes = {}
    try:
        transport.deliver(
            round_number, sender, outbox, next_inboxes, metrics, listeners,
            plan, pending,
        )
    except Exception as error:  # compared below, type and text
        outcome_error = (type(error), str(error))
    else:
        outcome_error = None
    return {
        "error": outcome_error,
        "metrics": record_dict(metrics),
        "inboxes": [(target, list(inbox.items())) for target, inbox in next_inboxes.items()],
        "events": events,
        "pending": pending,
        "drawn": None if plan is None else plan.drawn,
    }


def _sizing(sized):
    """Patch the transport's ``message_size_bits`` to append every payload
    it sizes to ``sized``."""
    size_of = transport_module.message_size_bits

    def recording(payload):
        sized.append(payload)
        return size_of(payload)

    return mock.patch.object(transport_module, "message_size_bits", recording)


def _both_ways(graph, sender, outbox, **kwargs):
    """The outcomes of delivering ``outbox`` and ``dict(outbox)``, which
    must agree, and the payloads the ``Broadcast`` delivery sized."""
    assert isinstance(outbox, Broadcast)
    sized = []
    with _sizing(sized):
        as_is = _deliver(graph, sender, outbox, **kwargs)
    per_message = _deliver(graph, sender, dict(outbox), **kwargs)
    assert as_is == per_message
    return as_is, sized


def _own(graph, node):
    """A ``Broadcast`` target tuple the transport takes in bulk."""
    return graph.compile().neighbors(node)


HUB = 0
#: Node 0 of a 6-node star: five neighbours.
STAR = generators.star_graph(6)
LEAVES = _own(STAR, HUB)


class TestBroadcastMapping:
    def test_reads_and_compares_like_its_dict(self):
        outbox = Broadcast(LEAVES, ("bfs", 1))
        expected = dict.fromkeys(LEAVES, ("bfs", 1))
        assert outbox == expected and expected == outbox
        assert not (outbox != expected)
        assert outbox == Broadcast(tuple(LEAVES), ("bfs", 1))
        assert outbox != dict.fromkeys(LEAVES, ("bfs", 2))
        assert outbox != dict.fromkeys(LEAVES[1:], ("bfs", 1))
        assert outbox != list(LEAVES)
        assert list(outbox) == list(LEAVES)
        assert list(outbox.keys()) == list(LEAVES)
        assert list(outbox.items()) == list(expected.items())
        assert list(outbox.values()) == list(expected.values())
        assert len(outbox) == len(LEAVES) and bool(outbox)
        assert outbox[LEAVES[0]] == ("bfs", 1) and LEAVES[0] in outbox
        assert HUB not in outbox and outbox.get(HUB) is None
        with pytest.raises(KeyError):
            outbox[HUB]  # noqa: B018

    def test_is_read_only_and_slotted(self):
        outbox = Broadcast(LEAVES, 1)
        assert outbox.targets is LEAVES
        with pytest.raises(TypeError):
            outbox[LEAVES[0]] = 2
        with pytest.raises(AttributeError):
            outbox.extra = 1
        with pytest.raises(TypeError):
            hash(outbox)

    def test_node_keeps_the_factory_tuple(self):
        node = NodeAlgorithm(HUB, LEAVES, 6)
        assert node.neighbors is LEAVES
        outbox = node.broadcast(("bfs", 0))
        assert isinstance(outbox, Broadcast) and outbox.targets is LEAVES
        listed = NodeAlgorithm(HUB, list(LEAVES), 6)
        assert listed.neighbors == LEAVES and isinstance(listed.neighbors, tuple)

    def test_node_without_neighbours_broadcasts_an_empty_dict(self):
        outbox = NodeAlgorithm(0, (), 1).broadcast(("bfs", 0))
        assert outbox == {} and type(outbox) is dict


class TestTransportBranch:
    def test_broadcast_is_sized_once(self):
        payload = ("bfs", 3)
        outcome, sized = _both_ways(STAR, HUB, Broadcast(LEAVES, payload))
        assert sized == [payload]
        metrics = outcome["metrics"]
        assert metrics["messages"] == len(LEAVES)
        assert metrics["total_bits"] == len(LEAVES) * message_size_bits(payload)
        assert metrics["max_edge_bits_per_round"] == message_size_bits(payload)
        assert outcome["inboxes"] == [(leaf, [(HUB, payload)]) for leaf in LEAVES]

    def test_oversized_broadcast_raises_naming_the_first_target(self):
        outcome, sized = _both_ways(STAR, HUB, Broadcast(LEAVES, "x" * 20))
        assert len(sized) == 1
        error_type, text = outcome["error"]
        assert error_type is BandwidthExceededError
        assert f"to {LEAVES[0]!r}" in text
        assert outcome["metrics"]["messages"] == 0
        assert outcome["inboxes"] == []

    def test_oversized_broadcast_counts_one_violation_per_copy(self):
        outcome, _ = _both_ways(
            STAR, HUB, Broadcast(LEAVES, "x" * 20), strict_bandwidth=False
        )
        assert outcome["error"] is None
        assert outcome["metrics"]["bandwidth_violations"] == len(LEAVES)
        assert outcome["metrics"]["max_edge_bits_per_round"] == 160

    def test_unsupported_payload_raises_the_same_error(self):
        outcome, _ = _both_ways(STAR, HUB, Broadcast(LEAVES, object()))
        assert outcome["error"][0] is TypeError

    @pytest.mark.parametrize(
        "payload",
        [[1, (2, "x")], {"k": (1, 2.0)}, _Unrepresentable((1, 2)), (2.0,), (("a", 2),)],
        ids=["list", "dict", "failing-repr", "float-tuple", "nested-tuple"],
    )
    def test_any_payload_matches_per_message_sizing(self, payload):
        outcome, sized = _both_ways(
            STAR, HUB, Broadcast(LEAVES, payload), bandwidth_bits=128
        )
        assert outcome["error"] is None
        assert sized == [payload]
        assert outcome["metrics"]["total_bits"] == len(LEAVES) * message_size_bits(
            payload
        )

    def test_degree_one_sender(self):
        sender = LEAVES[0]
        outcome, sized = _both_ways(STAR, sender, Broadcast(_own(STAR, sender), ("ch",)))
        assert sized == [("ch",)]
        assert outcome["inboxes"] == [(HUB, [(sender, ("ch",))])]

    def test_equal_foreign_targets_go_per_message(self):
        foreign = tuple(list(LEAVES))
        assert foreign == LEAVES and foreign is not LEAVES
        outcome, sized = _both_ways(STAR, HUB, Broadcast(foreign, ("bfs", 2)))
        assert sized == [("bfs", 2)] * len(LEAVES)
        assert outcome["metrics"]["messages"] == len(LEAVES)

    @pytest.mark.parametrize("targets", [
        pytest.param(lambda own: (own[0], 3), id="foreign-with-non-neighbour"),
        pytest.param(lambda own: (*own, 3), id="foreign-superset"),
        pytest.param(lambda own: (3,), id="foreign-non-neighbour-only"),
    ])
    def test_non_neighbour_target_raises_the_same_protocol_error(self, targets):
        cycle = generators.cycle_graph(6)
        outbox = Broadcast(targets(_own(cycle, 0)), ("w", 1, 1))
        outcome, _ = _both_ways(cycle, 0, outbox)
        assert outcome["error"] == (
            ProtocolError, "node 0 tried to send to non-neighbour 3"
        )

    def test_own_targets_of_another_sender_raise_the_same_protocol_error(self):
        # A node's own tuple sent from its neighbour: the identity check is
        # per sender, so the hub's leaves sent by a leaf are foreign.
        outcome, _ = _both_ways(STAR, LEAVES[0], Broadcast(LEAVES, ("bfs", 1)))
        assert outcome["error"] == (
            ProtocolError,
            f"node {LEAVES[0]!r} tried to send to non-neighbour {LEAVES[0]!r}",
        )

    def test_an_attached_listener_sees_every_copy(self):
        payload = ("w", 4, 1)
        outcome, sized = _both_ways(STAR, HUB, Broadcast(LEAVES, payload), listen=True)
        size = message_size_bits(payload)
        assert outcome["events"] == [
            (0, HUB, leaf, payload, size, False) for leaf in LEAVES
        ]
        assert sized == [payload] * len(LEAVES)

    def test_an_attached_listener_sees_the_copies_before_the_strict_error(self):
        outcome, _ = _both_ways(
            STAR, HUB, Broadcast(LEAVES, "x" * 20), listen=True
        )
        assert outcome["error"][0] is BandwidthExceededError
        assert outcome["events"] == [(0, HUB, LEAVES[0], "x" * 20, 160, True)]

    @pytest.mark.parametrize("round_number", range(6))
    def test_fault_plan_draws_the_same_fates_in_the_same_order(self, round_number):
        graph = generators.complete_graph(12)
        sender = 3
        model = FaultModel(loss=0.3, delay=0.3, max_delay=3)
        outcome, _ = _both_ways(
            graph, sender, Broadcast(_own(graph, sender), ("t", round_number)),
            fault_model=model, round_number=round_number,
        )
        assert outcome["drawn"] == [(round_number, sender, list(_own(graph, sender)))]
        delivered = len(outcome["inboxes"])
        parked = sum(len(bucket) for bucket in outcome["pending"].values())
        metrics = outcome["metrics"]
        assert metrics["messages"] == 11
        assert delivered + parked + metrics["dropped_messages"] == 11
        assert parked == metrics["delayed_messages"]

    def test_fault_plan_sees_every_fate_kind(self):
        graph = generators.complete_graph(12)
        model = FaultModel(loss=0.3, delay=0.3, max_delay=3)
        dropped = delayed = delivered = 0
        for round_number in range(6):
            outcome, _ = _both_ways(
                graph, 3, Broadcast(_own(graph, 3), 1),
                fault_model=model, round_number=round_number,
            )
            dropped += outcome["metrics"]["dropped_messages"]
            delayed += outcome["metrics"]["delayed_messages"]
            delivered += len(outcome["inboxes"])
        assert dropped and delayed and delivered

    def test_sender_without_neighbours_sends_nothing(self):
        lonely = Graph(nodes=[0])
        own = _own(lonely, 0)
        assert own == ()
        for payload, kwargs in [(("bfs", 0), {}), ("x" * 20, {})]:
            outcome, sized = _both_ways(lonely, 0, Broadcast(own, payload), **kwargs)
            assert sized == []
            assert outcome["error"] is None
            assert outcome["metrics"] == record_dict(ExecutionMetrics())
            assert outcome["inboxes"] == []


# ----------------------------------------------------------------------
# Through the engine
# ----------------------------------------------------------------------
class _Flood(NodeAlgorithm):
    """Each node that runs broadcasts a round-stamped token until round six
    and keeps every inbox it sees; one node also sends a partial outbox.
    A node counts as finished after every round, so a node that hears
    nothing (all its messages lost) stops.  With ``as_dict`` every
    broadcast is sent as its dict."""

    ROUNDS = 6

    def __init__(self, node_id, neighbors, num_nodes, as_dict):
        super().__init__(node_id, neighbors, num_nodes)
        self.as_dict = as_dict
        self.seen = []

    def on_round(self, round_number, inbox):
        self.seen.append((round_number, sorted(inbox.items(), key=repr)))
        self.finished = True
        if round_number >= self.ROUNDS:
            return {}
        if self.node_id == 0 and round_number % 2:
            return {self.neighbors[0]: ("p", round_number)}
        outbox = self.broadcast(("t", self.node_id % 3, round_number))
        return dict(outbox) if self.as_dict else outbox

    def result(self):
        return self.seen


class _NoopMessageObserver(MetricsObserver):
    """Overrides ``on_message``, which forces the per-message loop."""

    def __init__(self):
        self.messages = 0

    def on_message(self, *event):
        self.messages += 1


class _EmptyBroadcaster(NodeAlgorithm):
    """Wakes itself for ``ROUNDS`` rounds and then finishes; every round it
    sends a hand-built empty ``Broadcast`` (``broadcast()`` never returns
    one) or, with ``as_dict``, an empty dict -- both send nothing."""

    ROUNDS = 4

    def __init__(self, node_id, neighbors, num_nodes, as_dict):
        super().__init__(node_id, neighbors, num_nodes)
        self.as_dict = as_dict

    def on_round(self, round_number, inbox):
        if round_number + 1 < self.ROUNDS:
            self.wake_next_round()
        else:
            self.finished = True
        return {} if self.as_dict else Broadcast((), ("t", round_number))

    def result(self):
        return self.finished


def _flood_network(graph, fault_model):
    return Network(graph, seed=5, fault_model=fault_model)


def _flood(network, as_dict=False, record_traffic=False):
    return network.run(
        lambda node, net: _Flood(node, net.neighbors(node), net.num_nodes, as_dict),
        max_rounds=50,
        record_traffic=record_traffic,
    )


CHAIN = generators.family_for_sweep("clique_chain", 16, seed=3)
LOSS_DELAY = FaultModel(loss=0.15, delay=0.25, max_delay=3, timeout=50)


class TestThroughTheEngine:
    @pytest.mark.parametrize("fault_model", [None, LOSS_DELAY], ids=["null", "loss_delay"])
    def test_broadcasts_match_their_dicts(self, fault_model):
        as_is_sized, as_dicts_sized = [], []
        with _sizing(as_is_sized):
            as_is = _flood(_flood_network(CHAIN, fault_model))
        with _sizing(as_dicts_sized):
            as_dicts = _flood(_flood_network(CHAIN, fault_model), as_dict=True)
        # Fewer sizings than messages: the bulk way was taken.
        assert len(as_is_sized) < as_is.metrics.messages
        assert len(as_dicts_sized) == as_dicts.metrics.messages
        assert as_is.results == as_dicts.results
        assert record_dict(as_is.metrics) == record_dict(as_dicts.metrics)
        if fault_model is not None:
            assert as_is.metrics.dropped_messages > 0
            assert as_is.metrics.delayed_messages > 0

    @pytest.mark.parametrize("fault_model", [None, LOSS_DELAY], ids=["null", "loss_delay"])
    def test_an_observer_sees_every_broadcast_copy(self, fault_model):
        plain = _flood(_flood_network(CHAIN, fault_model))
        observed_network = _flood_network(CHAIN, fault_model)
        observer = _NoopMessageObserver()
        observed_network.add_observer(observer)
        sized = []
        with _sizing(sized):
            observed = _flood(observed_network)
        assert len(sized) == observed.metrics.messages
        assert observer.messages == plain.metrics.messages
        assert plain.results == observed.results
        assert record_dict(plain.metrics) == record_dict(observed.metrics)

    def test_record_traffic_sees_every_message(self):
        result = _flood(_flood_network(CHAIN, None), record_traffic=True)
        assert len(result.traffic) == result.metrics.messages
        first_round = {
            (sender, receiver) for round_number, sender, receiver, _ in result.traffic
            if round_number == 0
        }
        assert first_round == {
            (node, neighbour)
            for node in CHAIN.nodes()
            for neighbour in CHAIN.neighbors(node)
        }

    def test_a_single_node_network_rounds_are_unchanged(self):
        lonely = Graph(nodes=[7])
        results = [
            _flood(_flood_network(lonely, None), as_dict=as_dict)
            for as_dict in (False, True)
        ]
        assert results[0].metrics.messages == 0
        assert results[0].metrics.rounds == results[1].metrics.rounds == 1
        assert results[0].results == results[1].results

    @pytest.mark.parametrize("scheduler", [None, DenseScheduler], ids=["sparse", "dense"])
    @pytest.mark.parametrize("graph", [Graph(nodes=[7]), CHAIN], ids=["lonely", "chain"])
    def test_an_empty_broadcast_sends_nothing(self, graph, scheduler):
        """An empty ``Broadcast`` counts as no message, like an empty dict:
        the same rounds and metrics, and nothing sized -- the empty
        tuple is also an isolated node's own neighbour tuple."""
        outcomes = []
        for as_dict in (False, True):
            network = Network(
                graph, seed=5,
                **({} if scheduler is None else {"scheduler": scheduler()}),
            )
            outcomes.append(network.run(
                lambda node, net: _EmptyBroadcaster(
                    node, net.neighbors(node), net.num_nodes, as_dict
                ),
                max_rounds=50,
            ))
        empty_broadcasts, empty_dicts = outcomes
        assert empty_broadcasts.metrics.rounds == _EmptyBroadcaster.ROUNDS
        assert empty_broadcasts.metrics.rounds == empty_dicts.metrics.rounds
        assert empty_broadcasts.metrics.messages == 0
        assert empty_broadcasts.results == empty_dicts.results
        assert (
            record_dict(empty_broadcasts.metrics)
            == record_dict(empty_dicts.metrics)
        )

    def test_paper_algorithms_match_the_per_message_loop(self):
        graph = generators.family_for_sweep("clique_chain", 24, seed=1)
        outcomes = []
        for forced in (False, True):
            network = Network(graph, seed=2)
            if forced:
                network.add_observer(_NoopMessageObserver())
            bfs = run_bfs_tree(network, root=graph.nodes()[0])
            exact = run_classical_exact_diameter(network)
            outcomes.append((record_dict(bfs), record_dict(exact)))
        assert outcomes[0] == outcomes[1]


# ----------------------------------------------------------------------
# Topology binding
# ----------------------------------------------------------------------
class _SendTo(NodeAlgorithm):
    """Node 0 sends a dict outbox to ``target`` in round 0; every node
    keeps the neighbour tuple its factory passed."""

    def __init__(self, node_id, neighbors, num_nodes, target):
        super().__init__(node_id, neighbors, num_nodes)
        self.target = target
        self.finished = True

    def on_round(self, round_number, inbox):
        if self.node_id == 0 and round_number == 0:
            return {self.target: ("p", 0)}
        return {}

    def result(self):
        return self.neighbors


def _send_to(network, target):
    return network.run(
        lambda node, net: _SendTo(node, net.neighbors(node), net.num_nodes, target)
    )


def _counting_neighbor_sets():
    """Patch ``IndexedGraph.neighbor_sets`` to count its calls."""
    return mock.patch.object(
        IndexedGraph, "neighbor_sets", autospec=True,
        side_effect=IndexedGraph.neighbor_sets,
    )


class TestTopologyBinding:
    def test_broadcast_only_runs_never_fetch_the_neighbour_sets(self):
        network = Network(generators.cycle_graph(6), seed=2)
        with _counting_neighbor_sets() as fetched:
            assert run_resilient_bfs(network, 0).complete
            assert fetched.call_count == 0
            _send_to(network, 1)
            assert fetched.call_count == 1
            _send_to(network, 5)
            assert fetched.call_count == 1

    def test_a_fresh_transport_refuses_a_non_neighbour(self):
        graph = generators.cycle_graph(6)
        outcome = _deliver(graph, 0, {1: ("p", 0), 3: ("p", 0)})
        assert outcome["error"] == (
            ProtocolError, "node 0 tried to send to non-neighbour 3"
        )

    def test_the_neighbour_check_follows_graph_mutations_between_runs(self):
        graph = generators.path_graph(4)
        network = Network(graph)
        with pytest.raises(ProtocolError, match="^node 0 tried to send to non-neighbour 2$"):
            _send_to(network, 2)
        graph.add_edge(0, 2)
        assert _send_to(network, 2).metrics.messages == 1
        graph.remove_edge(0, 2)
        with pytest.raises(ProtocolError, match="^node 0 tried to send to non-neighbour 2$"):
            _send_to(network, 2)

    def test_factories_see_the_neighbours_of_a_mutated_graph(self):
        graph = generators.path_graph(4)
        network = Network(graph)
        before = _send_to(network, 1).results
        with mock.patch.object(graph, "compile", wraps=graph.compile) as compile_calls:
            assert network.neighbors(0) is before[0]
            assert compile_calls.call_count == 0
        graph.add_edge(0, 3)
        after = _send_to(network, 1).results
        assert before[0] == (1,) and after[0] == (1, 3)
        assert after[3] == (2, 0)
        # The new tuples are the transport's own, so broadcasts stay bulk.
        own = graph.compile().neighbor_tuples()
        assert all(after[node] is own[node] for node in graph.nodes())
