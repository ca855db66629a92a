"""One transport pass per round, against the node-by-node delivery.

The round loop runs every scheduled node and then hands the round's
outboxes to :meth:`repro.engine.Transport.deliver_round` in one call; fault
fates are decided by :meth:`repro.faults.FaultPlan.route` while it places
each message.  This module holds that delivery to what the engine did when
it delivered each outbox right after its node ran:

* :func:`collect` runs every paper algorithm on small graphs, plainly and
  with an over-budget bandwidth (strict and counted), a per-message
  listener with ``record_traffic``, and under fault models; and probe
  algorithms that send to a non-neighbour, send unhashable and
  unrepresentable payloads, nest a run on the same network in the middle
  of a round, and return their own inbox.  Every
  result digest, every ``ExecutionMetrics`` field of every run and every
  abort must equal ``tests/data/round_delivery.json``, which was written
  by the node-by-node engine (``PYTHONPATH=src python
  tests/test_round_delivery.py OUT.json`` writes the current values);
* under random fault models, ``FaultPlan.route`` places each message where
  ``FaultPlan.outbox_fates`` (the specification) says -- the same inboxes
  in the same order, the same ``pending`` order, the same drop and delay
  counts;
* leader election compares precomputed ranks in ``identifier_key``
  (``repr``) order: ints whose ``repr`` order is not their numeric
  order, tuple labels and strings, and labels with equal ``repr``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro._record import as_dict
from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.diameter_approx import (
    run_classical_two_approximation,
    run_hprw_three_halves_approximation,
)
from repro.algorithms.diameter_exact import run_classical_exact_diameter
from repro.algorithms.leader_election import identifier_key, run_leader_election
from repro.algorithms.multi_source_bfs import run_multi_source_bfs
from repro.algorithms.resilient import run_resilient_two_approximation
from repro.algorithms.waves import WaveScheduleEntry, run_distance_waves
from repro.congest.errors import CongestSimulationError
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.engine import MetricsObserver
from repro.faults import FaultModel
from repro.graphs import generators
from repro.graphs.gadgets_achk import ACHKGadget
from repro.graphs.gadgets_hw12 import HW12Gadget
from repro.graphs.graph import Graph

DATA = Path(__file__).parent / "data" / "round_delivery.json"


def _hw12():
    gadget = HW12Gadget(2)
    bits = gadget.input_length
    return gadget.graph_for_inputs([1, 0] * (bits // 2) + [1] * (bits % 2), [0] * bits)


def _achk():
    gadget = ACHKGadget(2)
    bits = gadget.input_length
    return gadget.graph_for_inputs([1] * bits, [0, 1] * (bits // 2) + [1] * (bits % 2))


GRAPHS = {
    "clique_chain_20": lambda: generators.family_for_sweep("clique_chain", 20, seed=3),
    "cycle_12": lambda: generators.family_for_sweep("cycle", 12, seed=3),
    "random_regular_16": lambda: generators.family_for_sweep("random_regular", 16, seed=3),
    "hw12_2": _hw12,
}


def _root(graph):
    return min(graph.nodes(), key=repr)


def _forward_all_waves(network):
    network.strict_bandwidth = False
    nodes = sorted(network.graph.nodes(), key=repr)
    schedule = {
        node: WaveScheduleEntry(start_round=index % 3, tag=index)
        for index, node in enumerate(nodes)
    }
    return run_distance_waves(network, schedule, 2 * len(nodes) + 4, forward_all=True)


ALGORITHMS = {
    "bfs_tree": lambda network: run_bfs_tree(network, _root(network.graph)),
    "leader_election": run_leader_election,
    "multi_source_bfs": lambda network: run_multi_source_bfs(
        network, sorted(network.graph.nodes(), key=repr)[::3]
    ),
    "classical_exact": run_classical_exact_diameter,
    "two_approx": run_classical_two_approximation,
    "hprw_three_halves": lambda network: run_hprw_three_halves_approximation(
        network, seed=5
    ),
    "resilient_two_approx": run_resilient_two_approximation,
    "forward_all_waves": _forward_all_waves,
}


# -- probes -------------------------------------------------------------------
class _Unrepresentable(tuple):
    """A tuple payload whose ``repr`` fails."""

    def __repr__(self):
        raise RuntimeError("no repr")


class _Probe(NodeAlgorithm):
    """Records every inbox; broadcasts a few rounds, then finishes."""

    ROUNDS = 4

    def __init__(self, node_id, neighbors, num_nodes, rng, network):
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.network = network
        self.seen = []

    def payload(self, round_number):
        return ("p", round_number, repr(self.node_id))

    def on_round(self, round_number, inbox):
        self.seen.append((round_number, sorted(map(repr, inbox.items()))))
        if round_number + 1 < self.ROUNDS:
            self.wake_next_round()
            return self.broadcast(self.payload(round_number))
        self.finished = True
        return {}

    def result(self):
        return self.seen


class _Unhashable(_Probe):
    def payload(self, round_number):
        return [round_number, {"n": repr(self.node_id)}] if round_number % 2 else [1, (2, "x")]


class _NoRepr(_Probe):
    def payload(self, round_number):
        return _Unrepresentable((round_number, 7))


class _BadSender(_Probe):
    """The middle node sends to a node that does not exist in round 1."""

    def on_round(self, round_number, inbox):
        outbox = super().on_round(round_number, inbox)
        nodes = self.network.graph.nodes()
        if round_number == 1 and self.node_id == nodes[len(nodes) // 2]:
            return {999: "hello"}
        return outbox


class _Oversize(_Probe):
    """The middle node broadcasts an over-budget payload in round 1."""

    def payload(self, round_number):
        nodes = self.network.graph.nodes()
        if round_number == 1 and self.node_id == nodes[len(nodes) // 2]:
            return "x" * 64
        return super().payload(round_number)


class _OwnInbox(_Probe):
    """From round 1 on, sends every inbox straight back as the outbox."""

    def on_round(self, round_number, inbox):
        outbox = super().on_round(round_number, inbox)
        if round_number >= 1 and not self.finished:
            return inbox
        return outbox


class _Flood(NodeAlgorithm):
    """A nested protocol: every node broadcasts ``("p", 1, ...)`` once."""

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0:
            return self.broadcast(("p", 1, repr(self.node_id)))
        return {}


class _Nesting(_Probe):
    """The middle node runs a nested flood on the same network in round 1,
    whose payloads the nodes before it sent in that round as well."""

    def on_round(self, round_number, inbox):
        nodes = self.network.graph.nodes()
        if round_number == 1 and self.node_id == nodes[len(nodes) // 2]:
            inner = self.network.run(
                lambda node, net: _Flood(node, net.neighbors(node), net.num_nodes)
            )
            self.seen.append(("inner", as_dict(inner.metrics)))
        return super().on_round(round_number, inbox)


PROBES = {
    "unhashable": _Unhashable,
    "unrepresentable": _NoRepr,
    "non_neighbour": _BadSender,
    "oversize": _Oversize,
    "own_inbox": _OwnInbox,
    "nested": _Nesting,
}


def _probe(cls):
    def algorithm(network):
        return network.run(
            lambda node, net: cls(
                node, net.neighbors(node), net.num_nodes, net.node_seed(node), net
            ),
            max_rounds=60,
        ).results

    return algorithm


# -- conditions -----------------------------------------------------------------
class _Listener(MetricsObserver):
    """Overrides ``on_message``: every message goes the per-message way."""

    def __init__(self):
        self.events = []

    def on_message(self, round_number, sender, receiver, payload, bits, violation):
        self.events.append((round_number, repr(sender), repr(receiver), bits, violation))


def _tiny_bandwidth(strict):
    def condition(network):
        network.bandwidth_bits = 12
        network.strict_bandwidth = strict

    return condition


CONDITIONS = {
    "plain": None,
    "strict_oversize": _tiny_bandwidth(True),
    "lax_oversize": _tiny_bandwidth(False),
    "listener": "listener",
}

FAULT_MODELS = {
    "loss_delay": FaultModel(loss=0.1, delay=0.2, max_delay=3, timeout=300),
    "churn_crash": FaultModel(
        churn=0.05, crash=0.1, crash_window=5, down_rounds=2, timeout=300
    ),
}


def _canonical(value):
    if hasattr(value, "_fields"):
        return _canonical(as_dict(value))
    if isinstance(value, dict):
        return [[repr(key), _canonical(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _digest(value) -> str:
    text = json.dumps(_canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _outcome(network, algorithm, listen=False):
    """Run ``algorithm``; every run's metrics (and traffic digest with
    ``listen``), then the result digest or the abort."""
    runs = []
    run = network.run
    listener = None
    if listen:
        listener = _Listener()
        network.add_observer(listener)

    def recording_run(factory, max_rounds=None, exact_rounds=None, record_traffic=False):
        result = run(factory, max_rounds=max_rounds, exact_rounds=exact_rounds,
                     record_traffic=record_traffic or listen)
        entry = {"metrics": as_dict(result.metrics)}
        if listen:
            entry["traffic"] = _digest(result.traffic)
        runs.append(entry)
        return result

    network.run = recording_run
    try:
        outcome = {"result": _digest(algorithm(network))}
    except (CongestSimulationError, RuntimeError) as error:
        outcome = {"error": [type(error).__name__, str(error)]}
    outcome["runs"] = runs
    if listener is not None:
        outcome["events"] = _digest(listener.events)
    return outcome


def _network(graph, condition=None, fault_model=None):
    network = Network(graph, seed=7, fault_model=fault_model)
    if callable(condition):
        condition(network)
    return network


def collect():
    """Every case's outcome, JSON-ready, keyed ``graph/algorithm/condition``."""
    cases = {}
    algorithms = dict(ALGORITHMS)
    algorithms.update({f"probe_{name}": _probe(cls) for name, cls in PROBES.items()})
    for graph_name, make_graph in GRAPHS.items():
        graph = make_graph()
        for algorithm_name, algorithm in algorithms.items():
            for condition_name, condition in CONDITIONS.items():
                network = _network(graph, condition)
                cases[f"{graph_name}/{algorithm_name}/{condition_name}"] = _outcome(
                    network, algorithm, listen=condition == "listener"
                )
            for model_name, model in FAULT_MODELS.items():
                network = _network(graph, fault_model=model)
                cases[f"{graph_name}/{algorithm_name}/{model_name}"] = _outcome(
                    network, algorithm
                )
    leaders = {}
    families = {
        f"{family}_96": (lambda family=family: generators.family_for_sweep(family, 96, seed=1))
        for family in ("clique_chain", "cycle", "random_regular")
    }
    families.update(hw12_2=_hw12, achk_2=_achk, **{"repr_order_ints": _repr_order_ints})
    for name, make_graph in families.items():
        election = run_leader_election(Network(make_graph(), seed=1))
        leaders[name] = {
            "leader": repr(election.leader),
            "rounds": election.metrics.rounds,
            "messages": election.metrics.messages,
        }
    return {"cases": cases, "leaders": leaders}


def _repr_order_ints():
    """A path over ints whose ``repr`` order is not their numeric order."""
    labels = [9, 100, 2, 10, -1, 30, 3]
    return Graph(nodes=labels, edges=list(zip(labels, labels[1:])))


# -- the pinned cases -------------------------------------------------------------
@pytest.fixture(scope="module")
def pinned_and_current():
    expected = json.loads(DATA.read_text(encoding="utf-8"))
    return expected, json.loads(json.dumps(collect()))


def test_every_case_matches_the_node_by_node_delivery(pinned_and_current):
    expected, current = pinned_and_current
    assert sorted(current["cases"]) == sorted(expected["cases"])
    mismatched = [
        key for key, value in expected["cases"].items()
        if current["cases"][key] != value
    ]
    assert mismatched == []


def test_the_cases_cover_every_kind_of_outcome(pinned_and_current):
    expected, _ = pinned_and_current
    errors = {
        value["error"][0] for value in expected["cases"].values() if "error" in value
    }
    assert {"BandwidthExceededError", "ProtocolError"} <= errors
    runs = [run for value in expected["cases"].values() for run in value["runs"]]
    for field in ("bandwidth_violations", "dropped_messages", "delayed_messages",
                  "node_crashes", "churned_edge_rounds"):
        assert any(run["metrics"][field] for run in runs), field


class _LateFailure(_BadSender):
    """As ``_BadSender``, and the last node raises in the same round."""

    def on_round(self, round_number, inbox):
        if round_number == 1 and self.node_id == self.network.graph.nodes()[-1]:
            raise RuntimeError("late node failed")
        return super().on_round(round_number, inbox)


def test_a_later_node_failing_in_an_aborted_round_raises_first():
    """Delivery follows the whole round, so an error raised by a node
    after the offender (in its own ``on_round``) reaches the caller
    instead of the offender's ``ProtocolError`` -- the one place where an
    abort differs from node-by-node delivery."""
    graph = generators.path_graph(5)
    with pytest.raises(RuntimeError, match="late node failed"):
        _probe(_LateFailure)(_network(graph))
    with pytest.raises(CongestSimulationError, match="non-neighbour"):
        _probe(_BadSender)(_network(graph))


def test_leaders_match_the_pinned_elections(pinned_and_current):
    expected, current = pinned_and_current
    assert current["leaders"] == expected["leaders"]


# -- routing against the fate specification ----------------------------------------
def _specified(plan, round_number, sender, items, next_inboxes, pending):
    """Where ``outbox_fates`` puts each message: the routing rule, spelled
    out over the specified fates."""
    fates = plan.outbox_fates(round_number, sender, [target for target, _ in items])
    dropped = delayed = 0
    for (target, payload), fate in zip(items, fates):
        arrival = round_number + 1 + max(fate, 0)
        if (
            fate < 0
            or plan.edge_down(round_number, sender, target)
            or plan.node_down(arrival, target)
        ):
            dropped += 1
        elif fate:
            delayed += 1
            pending.setdefault(arrival, []).append((sender, target, payload))
        else:
            next_inboxes.setdefault(target, {})[sender] = payload
    return dropped, delayed


def _random_model(rng):
    return FaultModel(
        loss=rng.choice([0.0, 0.1, 0.4]),
        delay=rng.choice([0.0, 0.2, 0.5]),
        max_delay=rng.choice([1, 2, 4]),
        churn=rng.choice([0.0, 0.1, 0.3]),
        crash=rng.choice([0.0, 0.2, 0.5]),
        crash_window=rng.randrange(1, 6),
        down_rounds=rng.randrange(0, 3),
        seed=rng.randrange(100),
    )


@pytest.mark.parametrize("seed", range(40))
def test_route_places_every_message_where_outbox_fates_says(seed):
    rng = random.Random(seed)
    graph = rng.choice([
        generators.complete_graph(9),
        generators.family_for_sweep("random_regular", 12, seed=seed),
        _hw12(),
    ])
    indexed = graph.compile()
    model = _random_model(rng)
    plan = model.resolve(seed, indexed, rng.randrange(3))
    spec = type(plan)(model, plan.seed, indexed)
    routed_inboxes, routed_pending = {}, {}
    specified_inboxes, specified_pending = {}, {}
    counts = [0, 0]
    for round_number in sorted(rng.sample(range(12), 5)):
        for sender in rng.sample(indexed.labels, 4):
            targets = list(indexed.neighbors(sender))
            rng.shuffle(targets)
            items = [(target, (round_number, repr(sender))) for target in targets]
            got = plan.route(round_number, sender, iter(items), routed_inboxes, routed_pending)
            want = _specified(spec, round_number, sender, items, specified_inboxes,
                              specified_pending)
            assert got == want
            counts[0] += got[0]
            counts[1] += got[1]
    assert [(t, list(inbox.items())) for t, inbox in routed_inboxes.items()] == [
        (t, list(inbox.items())) for t, inbox in specified_inboxes.items()
    ]
    assert list(routed_pending.items()) == list(specified_pending.items())


def test_random_models_reach_every_fate():
    dropped = delayed = 0
    for seed in range(40):
        rng = random.Random(seed)
        model = _random_model(rng)
        graph = generators.complete_graph(9)
        plan = model.resolve(seed, graph.compile(), 0)
        inboxes, pending = {}, {}
        for round_number in range(6):
            for sender in graph.nodes():
                lost, late = plan.route(
                    round_number, sender,
                    [(target, 1) for target in graph.compile().neighbors(sender)],
                    inboxes, pending,
                )
                dropped += lost
                delayed += late
    assert dropped and delayed


# -- leader-election ranks ---------------------------------------------------------
class _SameRepr(str):
    """Distinct (string) labels that share one ``repr``."""

    def __repr__(self):
        return "same"


class TestLeaderRanks:
    def test_ints_rank_in_repr_order(self):
        from repro.algorithms.leader_election import identifier_ranks

        labels = [9, 100, 2, 10, -1, 30, 3]
        ranks = identifier_ranks(labels)
        assert sorted(labels, key=ranks.__getitem__) == sorted(labels, key=repr)
        assert sorted(labels, key=ranks.__getitem__) != sorted(labels)
        assert len(set(ranks.values())) == len(labels)

    def test_tuple_and_string_labels_rank_in_repr_order(self):
        from repro.algorithms.leader_election import identifier_ranks

        labels = list(_hw12().nodes()) + ["a", "b10", "b9", ("z", 1), ("z", "1")]
        ranks = identifier_ranks(labels)
        assert sorted(labels, key=ranks.__getitem__) == sorted(labels, key=repr)

    def test_equal_reprs_share_a_rank(self):
        from repro.algorithms.leader_election import identifier_ranks

        first, second = _SameRepr("p"), _SameRepr("q")
        ranks = identifier_ranks([first, "a", second, "z"])
        assert ranks[first] == ranks[second]
        assert ranks["a"] < ranks["z"] < ranks[first]  # "'a'" < "'z'" < "same"

    def test_equal_reprs_keep_the_first_heard(self):
        # Both share the top rank: every node keeps the first it hears, as
        # a strict comparison of ``repr`` strings did.
        first, second = _SameRepr("p"), _SameRepr("q")
        graph = Graph(nodes=["a", first, second], edges=[("a", first), ("a", second)])
        election = run_leader_election(Network(graph, seed=1))
        assert identifier_key(election.leader) == "same"

    def test_the_leader_is_the_largest_repr(self):
        graph = _repr_order_ints()
        election = run_leader_election(Network(graph, seed=1))
        assert election.leader == max(graph.nodes(), key=repr) == 9


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
