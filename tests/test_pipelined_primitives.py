"""The pipelined primitives against straightforward reference forms.

``_WaveNode`` filters a round's inbox in one pass, ``_ResilientBFSNode``
reads its announcements in one loop, and ``_MultiSourceBFSNode`` keeps
its pending pairs in a heap with lazy deletion.  Each test runs the
production code and a test-local reference form on the same inputs:

* waves: collect every fresh ``(tag, delta)`` in a list, keep ``max`` of
  it (or ``sorted(set(...))`` of it for the forward-all ablation);
* resilient BFS: the smallest ``d + 1`` over the ``("bfs", d)``
  announcements, one payload at a time;
* multi-source BFS: ``min`` over the pending set keyed by
  ``(distance, repr(source))``.

(Payload sizing is held to its reference in ``tests/test_message_size.py``.)

The tests compare everything a caller can observe: outboxes (payload
values and types, and which targets share one payload object), the node
state, ``memory_bits()``, and whole runs with their traffic.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import multi_source_bfs, resilient, waves
from repro.algorithms.diameter_approx import run_hprw_three_halves_approximation
from repro.algorithms.diameter_exact import run_classical_exact_diameter
from repro.algorithms.multi_source_bfs import _MultiSourceBFSNode, run_multi_source_bfs
from repro.algorithms.resilient import (
    _ResilientBFSNode,
    run_resilient_two_approximation,
)
from repro.algorithms.waves import WaveScheduleEntry, _WaveNode, run_distance_waves
from repro.congest.errors import CongestSimulationError
from repro.congest.network import Network
from repro.faults import FaultModel
from repro.graphs import generators
from repro.graphs.graph import Graph


# -- reference forms ---------------------------------------------------------
def _reference_wave_round(self, round_number, inbox):
    """The Figure-2 Step-2 rule with a list of fresh messages and ``max``."""
    if round_number >= self.duration:
        self.finished = True
        return {}
    if round_number == self.duration - 1:
        self.finished = True

    outgoing = []
    if self.schedule is not None and round_number == self.schedule.start_round:
        self.last_tag = max(self.last_tag, self.schedule.tag)
        outgoing.append((self.schedule.tag, 0))

    fresh = []
    for _, payload in inbox.items():
        if isinstance(payload, tuple) and payload and payload[0] == "w":
            _, tag, delta = payload
            if tag > self.last_tag:
                fresh.append((tag, delta))
        elif isinstance(payload, list):
            for item in payload:
                tag, delta = item[1], item[2]
                if tag > self.last_tag:
                    fresh.append((tag, delta))

    if fresh:
        kept = sorted(set(fresh)) if self.forward_all else [max(fresh)]
        for tag, delta in kept:
            self.last_tag = max(self.last_tag, tag)
            self.max_distance = max(self.max_distance, delta + 1)
            outgoing.append((tag, delta + 1))

    if not outgoing:
        return {}
    if len(outgoing) == 1:
        tag, delta = outgoing[0]
        return self.broadcast(("w", tag, delta))
    return self.broadcast([("w", tag, delta) for tag, delta in outgoing])


def _reference_bfs_round(self, round_number, inbox):
    """Smallest-distance-first forwarding by ``min`` over the pending set."""
    for _, payload in inbox.items():
        if not (isinstance(payload, tuple) and payload and payload[0] == "m"):
            continue
        source, distance = payload[1], payload[2]
        source = tuple(source) if isinstance(source, list) else source
        candidate = distance + 1
        if source not in self.known or candidate < self.known[source]:
            self.known[source] = candidate
            self.pending.add(source)

    if not self.pending:
        return {}
    chosen = min(self.pending, key=lambda src: (self.known[src], repr(src)))
    self.pending.discard(chosen)
    if self.pending:
        self.wake_next_round()
    return self.broadcast(("m", chosen, self.known[chosen]))


def _reference_resilient_round(self, round_number, inbox):
    """The retrying flood with its announcements read one at a time."""
    best = None
    for payload in inbox.values():
        if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "bfs":
            candidate = payload[1] + 1
            if best is None or candidate < best:
                best = candidate
    if self.node_id == self.root and round_number == 0:
        best = 0

    if best is not None and (self.distance is None or best < self.distance):
        self.distance = best
        self._attempt = 0
        self._next_retry = self.retry_backoff(round_number, 0)
        return self.broadcast(("bfs", self.distance))

    if self._next_retry is not None and round_number >= self._next_retry:
        self._attempt += 1
        if self._attempt > self.max_retries:
            self._next_retry = None
            self.finished = True
            return None
        self._next_retry = self.retry_backoff(round_number, self._attempt)
        return self.broadcast(("bfs", self.distance))
    return None


class _ReferenceWaveNode(_WaveNode):
    on_round = _reference_wave_round


class _ReferenceBFSNode(_MultiSourceBFSNode):
    on_round = _reference_bfs_round


class _ReferenceResilientNode(_ResilientBFSNode):
    on_round = _reference_resilient_round


# -- observation helpers ----------------------------------------------------
def _typed(value):
    """``value`` with its type, so ``5`` and ``5.0`` (equal) stay apart."""
    return type(value).__name__, repr(value)


def _outbox_shape(outbox):
    """Targets, typed payloads, and which targets share a payload object."""
    if outbox is None:
        return None
    payloads = list(outbox.values())
    identities = [id(payload) for payload in payloads]
    sharing = [identities.index(identity) for identity in identities]
    return [(target, _typed(payload)) for target, payload in outbox.items()], sharing


NEIGHBORS = (1, 2, 3)


def _drive_waves(cls, rounds, schedule=None, duration=12, forward_all=False):
    node = cls(0, NEIGHBORS, 8, 0, schedule, duration, forward_all)
    trace = []
    for round_number, inbox in rounds:
        outbox = node.on_round(round_number, inbox)
        trace.append((
            _outbox_shape(outbox),
            _typed(node.last_tag),
            _typed(node.max_distance),
            node.finished,
            node.memory_bits(),
        ))
    return trace


def _assert_waves_agree(rounds, **kwargs):
    expected = _drive_waves(_ReferenceWaveNode, rounds, **kwargs)
    assert _drive_waves(_WaveNode, rounds, **kwargs) == expected
    return expected


def _drive_resilient(cls, rounds, root=0, distance=None):
    node = cls(0, NEIGHBORS, 8, 0, root, 2)
    node.distance = distance
    trace = []
    for round_number, inbox in rounds:
        outbox = node.on_round(round_number, inbox)
        trace.append((
            _outbox_shape(outbox),
            _typed(node.distance),
            node._attempt,
            node._next_retry,
            node.finished,
            list(node._wake_requests),
            node.memory_bits(),
        ))
    return trace


def _assert_resilient_agree(rounds, **kwargs):
    expected = _drive_resilient(_ReferenceResilientNode, rounds, **kwargs)
    assert _drive_resilient(_ResilientBFSNode, rounds, **kwargs) == expected
    return expected


def _drive_bfs(cls, rounds, sources, is_source=False):
    rank = {source: index for index, source in enumerate(sorted(sources, key=repr))}
    node = cls(0, NEIGHBORS, 8, 0, is_source, rank)
    trace = []
    for round_number, inbox in rounds:
        outbox = node.on_round(round_number, inbox)
        trace.append((
            _outbox_shape(outbox),
            [(_typed(source), distance) for source, distance in node.known.items()],
            sorted(map(repr, node.pending)),
            list(node._wake_requests),
            node.memory_bits(),
        ))
    return trace


def _assert_bfs_agree(rounds, sources, is_source=False):
    expected = _drive_bfs(_ReferenceBFSNode, rounds, sources, is_source)
    assert _drive_bfs(_MultiSourceBFSNode, rounds, sources, is_source) == expected
    return expected


# -- waves: hand-built inboxes ----------------------------------------------
class TestWaveRule:
    def test_list_payloads_are_unpacked(self):
        trace = _assert_waves_agree([
            (0, {1: [("w", 4, 0), ("w", 2, 1)], 2: ("w", 3, 2)}),
            (1, {3: [("w", 6, 1)], 1: [("w", 5, 4), ("w", 4, 9)]}),
        ])
        assert trace[0][1] == _typed(4) and trace[1][1] == _typed(6)

    def test_non_wave_payloads_are_ignored(self):
        _assert_waves_agree([
            (0, {1: ("m", 9, 9), 2: (), 3: ("x",), 4: "w", 5: 17, 6: None}),
            (1, {1: ("w", 2, 1), 2: ("bfs", 8), 3: {"w": 9}}),
        ])

    def test_equal_tags_keep_the_largest_delta(self):
        trace = _assert_waves_agree([
            (0, {1: ("w", 5, 1), 2: ("w", 5, 3), 3: ("w", 5, 2)}),
        ])
        assert trace[0][2] == _typed(4)

    @pytest.mark.parametrize("order", [(5.0, 5), (5, 5.0)])
    def test_equal_pairs_keep_the_first(self, order):
        # ``(5, 2) == (5.0, 2)``: ``max`` keeps the first, and the type of
        # the kept tag shows in ``last_tag`` and in the forwarded message.
        first, second = order
        trace = _assert_waves_agree([
            (0, {1: ("w", first, 2), 2: ("w", second, 2)}),
            (1, {1: [("w", 7, True), ("w", 7.0, 1)], 2: ("w", 7, 1)}),
        ])
        assert trace[0][1] == _typed(first)

    @pytest.mark.parametrize("incoming", [9, 5, 7])
    def test_source_starts_while_forwarding(self, incoming):
        schedule = WaveScheduleEntry(start_round=3, tag=7)
        _assert_waves_agree(
            [(0, {1: ("w", 1, 0)}), (3, {2: ("w", incoming, 1)}), (4, {})],
            schedule=schedule,
        )

    def test_source_behind_the_last_tag_still_starts(self):
        schedule = WaveScheduleEntry(start_round=2, tag=2)
        _assert_waves_agree(
            [(0, {1: ("w", 6, 0)}), (2, {2: ("w", 3, 1)}), (2, {})],
            schedule=schedule,
        )

    def test_forward_all_sends_every_fresh_pair_sorted(self):
        schedule = WaveScheduleEntry(start_round=1, tag=3)
        trace = _assert_waves_agree(
            [
                (0, {1: ("w", 5, 1), 2: ("w", 4, 2), 3: ("w", 5, 1)}),
                (1, {1: [("w", 6, 0), ("w", 4, 2)], 2: ("w", 8, 3), 3: ("w", 6, 0)}),
                (2, {1: ("w", 8.0, 3), 2: ("w", 8, 3), 3: ("w", 2, 0)}),
            ],
            schedule=schedule,
            forward_all=True,
        )
        assert "list" in trace[1][0][0][0][1][0]

    def test_duration_ends_the_node(self):
        _assert_waves_agree(
            [(10, {1: ("w", 1, 0)}), (11, {1: ("w", 2, 0)}), (12, {1: ("w", 3, 0)})]
        )


def _random_wave_payload(rng):
    def pair():
        tag = rng.choice([rng.randrange(-1, 10), float(rng.randrange(0, 10))])
        return tag, rng.randrange(0, 6)

    kind = rng.random()
    if kind < 0.6:
        return ("w", *pair())
    if kind < 0.8:
        return [("w", *pair()) for _ in range(rng.randrange(1, 4))]
    return rng.choice([("m", 1, 2), (), ("x",), 3, "w", None])


@pytest.mark.parametrize("forward_all", [False, True])
def test_waves_agree_on_random_inboxes(forward_all):
    for seed in range(300):
        rng = random.Random(seed)
        duration = rng.randrange(4, 14)
        schedule = None
        if rng.random() < 0.7:
            schedule = WaveScheduleEntry(
                start_round=rng.randrange(0, duration), tag=rng.randrange(0, 10)
            )
        rounds = [
            (
                round_number,
                {
                    sender: _random_wave_payload(rng)
                    for sender in rng.sample(range(1, 9), rng.randrange(0, 6))
                },
            )
            for round_number in range(duration + 1)
        ]
        _assert_waves_agree(
            rounds, schedule=schedule, duration=duration, forward_all=forward_all
        )


# -- resilient BFS: random inboxes ------------------------------------------
ANNOUNCEMENTS = st.tuples(
    st.just("bfs"), st.one_of(st.integers(0, 9), st.integers(0, 9).map(float))
)
RESILIENT_PAYLOADS = st.one_of(
    ANNOUNCEMENTS,
    st.lists(ANNOUNCEMENTS, min_size=1, max_size=2),
    st.sampled_from([
        (), ("a", 1), ("bfs",), ("bfs", -1, 0), ("w", 1, 1), ("m", 0, 0), 3, None, "bfs",
    ]),
)


@settings(max_examples=300, deadline=None)
@given(
    inboxes=st.lists(
        st.dictionaries(st.integers(1, 8), RESILIENT_PAYLOADS, max_size=5),
        min_size=1, max_size=4,
    ),
    root=st.sampled_from([0, 5]),
    distance=st.one_of(st.none(), st.integers(0, 10)),
)
def test_resilient_bfs_agrees_on_random_inboxes(inboxes, root, distance):
    # Announcements (``5`` and ``5.0`` alike), foreign and malformed
    # tuples, lists and other payloads; round 0 is the root's start, and
    # the empty rounds after the inboxes run the retries.
    rounds = list(enumerate(inboxes))
    rounds += [(round_number, {}) for round_number in range(len(inboxes), len(inboxes) + 10)]
    trace = _assert_resilient_agree(rounds, root=root, distance=distance)
    if root == 0:
        assert trace[0][1] == _typed(0)


# -- multi-source BFS: hand-built inboxes -----------------------------------
def _sent(trace):
    """The payload each round broadcast, for the rounds that sent one."""
    return [shape[0][0][1][1] for shape, *_ in trace if shape[0]]


def _drain(count):
    return [(round_number, {}) for round_number in range(1, count + 1)]


class TestSourceDetectionRule:
    def test_distance_ties_go_by_repr(self):
        trace = _assert_bfs_agree(
            [(0, {1: ("m", "b", 2), 2: ("m", "a", 2), 3: ("m", "c", 1)})] + _drain(3),
            sources=["a", "b", "c"],
        )
        assert _sent(trace) == ["('m', 'c', 2)", "('m', 'a', 3)", "('m', 'b', 3)"]

    def test_repr_order_differs_from_insertion_order(self):
        # 10 < 9 as reprs; the tuples order the other way round as values.
        sources = [9, 10, (9, "x"), (10, "x"), "n9", "n10"]
        inbox = {index: ("m", source, 4) for index, source in enumerate(reversed(sources))}
        _assert_bfs_agree([(0, inbox)] + _drain(len(sources)), sources=sources)

    def test_improvement_while_pending_leaves_a_stale_entry(self):
        # "x" is learnt at 6, improved to 2 before it is forwarded; the
        # entry for 6 must never be forwarded afterwards.
        trace = _assert_bfs_agree(
            [
                (0, {1: ("m", "x", 5), 2: ("m", "y", 6), 3: ("m", "z", 0)}),
                (1, {1: ("m", "x", 1)}),
                (2, {2: ("m", "x", 0)}),
            ] + _drain(4),
            sources=["x", "y", "z"],
        )
        assert _sent(trace) == [
            "('m', 'z', 1)", "('m', 'x', 2)", "('m', 'x', 1)", "('m', 'y', 7)",
        ]

    def test_list_sources_and_foreign_payloads(self):
        _assert_bfs_agree(
            [
                (0, {1: ("m", [1, 2], 3), 2: ("w", 1, 1), 3: (), 4: 5}),
                (1, {1: ("m", (1, 2), 1), 2: ("m", [0, 5], 1)}),
            ] + _drain(3),
            sources=[(1, 2), (0, 5)],
        )

    def test_a_source_forwards_itself_first(self):
        _assert_bfs_agree(
            [(0, {1: ("m", 3, 0), 2: ("m", 7, 1)})] + _drain(3),
            sources=[0, 3, 7],
            is_source=True,
        )


def test_source_detection_agrees_on_random_inboxes():
    labels = [0, 1, 2, 9, 10, 11, "a", "b", "n10", "n9", (1, "x"), (10, "x")]
    for seed in range(300):
        rng = random.Random(seed)
        sources = rng.sample(labels, rng.randrange(1, len(labels)))
        rounds = [
            (
                round_number,
                {
                    sender: (
                        ("m", rng.choice(sources), rng.randrange(0, 8))
                        if rng.random() < 0.9 else ("w", 1, 1)
                    )
                    for sender in rng.sample(range(1, 9), rng.randrange(0, 5))
                },
            )
            for round_number in range(rng.randrange(1, 12))
        ]
        _assert_bfs_agree(rounds + _drain(len(sources)), sources, is_source=0 in sources)


# -- whole runs --------------------------------------------------------------
def _labelled(graph, label):
    relabelled = Graph(nodes=[label(node) for node in graph.nodes()])
    for u, v in graph.edges():
        relabelled.add_edge(label(u), label(v))
    return relabelled


GRAPHS = {
    "clique_chain": lambda: generators.family_for_sweep("clique_chain", 24, seed=3),
    "cycle": lambda: generators.cycle_graph(11),
    "random_regular": lambda: generators.random_regular_graph(24, 4, seed=5),
    "strings": lambda: _labelled(generators.family_for_sweep("clique_chain", 24, seed=3),
                                 lambda node: f"n{node}"),
    "tuples": lambda: _labelled(generators.random_regular_graph(20, 3, seed=2),
                                lambda node: (node, "x")),
}


def _forward_all_waves(network):
    network.strict_bandwidth = False
    nodes = sorted(network.graph.nodes(), key=repr)
    schedule = {
        node: WaveScheduleEntry(start_round=index % 4, tag=index)
        for index, node in enumerate(nodes)
    }
    return run_distance_waves(network, schedule, 2 * len(nodes) + 4, forward_all=True)


ALGORITHMS = {
    "classical_exact": run_classical_exact_diameter,
    "resilient_two_approx": run_resilient_two_approximation,
    "hprw_three_halves": lambda network: run_hprw_three_halves_approximation(network, seed=4),
    "multi_source_bfs": lambda network: run_multi_source_bfs(
        network, sorted(network.graph.nodes(), key=repr)[::3]
    ),
    "forward_all_waves": _forward_all_waves,
}


def _observe(algorithm, network):
    """The algorithm's outcome and the traffic of every run it makes."""
    run = network.run
    traffic = []

    def recording_run(factory, max_rounds=None, exact_rounds=None, record_traffic=False):
        result = run(factory, max_rounds=max_rounds, exact_rounds=exact_rounds,
                     record_traffic=True)
        traffic.append(result.traffic)
        return result

    network.run = recording_run
    try:
        outcome = algorithm(network)
    except (CongestSimulationError, RuntimeError) as error:
        outcome = (type(error).__name__, str(error))
    return repr(outcome), repr(traffic)


@pytest.mark.parametrize("fault", [None, FaultModel(loss=0.05, delay=0.1, timeout=300)],
                         ids=["null", "lossy"])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
def test_whole_runs_match_the_reference_rules(monkeypatch, algorithm_name, graph_name, fault):
    graph = GRAPHS[graph_name]()
    algorithm = ALGORITHMS[algorithm_name]
    current = _observe(algorithm, Network(graph, seed=7, fault_model=fault))
    monkeypatch.setattr(waves._WaveNode, "on_round", _reference_wave_round)
    monkeypatch.setattr(
        multi_source_bfs._MultiSourceBFSNode, "on_round", _reference_bfs_round
    )
    monkeypatch.setattr(
        resilient._ResilientBFSNode, "on_round", _reference_resilient_round
    )
    reference = _observe(algorithm, Network(graph, seed=7, fault_model=fault))
    assert current == reference
