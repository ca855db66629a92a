"""Tests of the deterministic fault-injection layer (:mod:`repro.faults`).

Covers the model surface and its JSON parser, the stateless per-event decision
hashes, the engine's fault-aware loop (loss, delay, crash/restart,
churn), the retry helpers and the resilient BFS built on them, and the
sweep/store integration (``success``/``failure_reason`` records, fault-
aware task keys, provenance stamping, serial == parallel).

The headline guarantees are differential:

* the **null model is byte-identical** to the fault-free simulator on
  both schedulers and every compute tier (same values, rounds, metrics);
* faulty executions are **identical across schedulers** for wake-driven
  algorithms and reproducible across processes and ``PYTHONHASHSEED``
  values (fault decisions are stateless CRC hashes, not RNG draws).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import zlib

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.diameter_approx import run_classical_two_approximation
from repro.algorithms.resilient import (
    run_resilient_bfs,
    run_resilient_two_approximation,
)
from repro.analysis.sweep import run_sweep_grid, sweep_task_key
from repro.congest.errors import (
    CongestSimulationError,
    ProtocolError,
    RoundLimitExceededError,
)
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.engine import DenseScheduler, SparseScheduler
from repro.faults import (
    NULL_FAULT_MODEL,
    FaultModel,
    FaultPlan,
    fault_stream_seed,
)
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.runner import BatchRunner, GraphSpec, resolve_algorithms
from repro.store import ExperimentStore, collect_provenance, record_from_dict, record_to_dict

#: The dense reference and the production sparse scheduler, by test id.
SCHEDULER_CLASSES = {"dense": DenseScheduler, "sparse": SparseScheduler}
ENGINES = tuple(SCHEDULER_CLASSES)

#: The bench-calibrated loss scenario: at 10% loss the single-shot
#: 2-approximation reliably times out on this graph while the retrying
#: variant still lands inside the approximation bound.
LOSSY = FaultModel(loss=0.1, timeout=256)


def _graph(nodes=18, family="clique_chain"):
    return generators.family_for_sweep(family, nodes, seed=3)


def _root(graph):
    return min(graph.nodes(), key=repr)


class TestFaultModel:
    def test_default_model_is_null(self):
        assert NULL_FAULT_MODEL.is_null
        assert FaultModel().is_null
        assert FaultModel().describe() == "none"

    def test_timeout_only_model_is_not_null(self):
        # A zero-probability model with a timeout must still cap runs.
        assert not FaultModel(timeout=64).is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": 1.5},
            {"delay": -0.1},
            {"crash": 2.0},
            {"churn": -1.0},
            {"max_delay": 0},
            {"crash_window": 0},
            {"down_rounds": -1},
            {"timeout": 0},
        ],
    )
    def test_validation_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            FaultModel(**kwargs)

    def test_describe_distinguishes_models(self):
        a = FaultModel(loss=0.1)
        b = FaultModel(loss=0.1, seed=1)
        assert a.describe() != b.describe()
        assert "loss=0.1" in a.describe()
        # Stable across instances: describe is a pure function of fields.
        assert a.describe() == FaultModel(loss=0.1).describe()

    def test_default_model_toggle(self):
        # A network built without a fault model runs the null model; a
        # model is passed as itself, never by name.
        assert Network(_graph()).fault_model is NULL_FAULT_MODEL
        assert Network(_graph(), fault_model=LOSSY).fault_model is LOSSY
        with pytest.raises(TypeError, match="FaultModel instance"):
            Network(_graph(), fault_model="none")

    def test_frozen_and_picklable(self):
        with pytest.raises(AttributeError):
            LOSSY.loss = 0.0
        assert pickle.loads(pickle.dumps(LOSSY)) == LOSSY

    def test_equal_models_describe_equally(self):
        # Probabilities are stored as float, so an integer and a float
        # spelling of one model share task keys.
        assert FaultModel(loss=0, delay=1) == FaultModel(loss=0.0, delay=1.0)
        assert FaultModel(loss=0, delay=1).describe() == FaultModel(
            loss=0.0, delay=1.0
        ).describe()
        assert FaultModel(loss=0).is_null
        assert type(FaultModel(churn=1).churn) is float


class TestFromDict:
    """:meth:`FaultModel.from_dict`, the one parser of the JSON form a
    fault model takes in ``POST /jobs`` bodies, ledger rows and dispatch
    frames: every malformed input is a ``ValueError``."""

    MODEL = FaultModel(loss=0.1, delay=0.05, max_delay=2, timeout=256, seed=4)

    @pytest.mark.parametrize("model", [
        NULL_FAULT_MODEL, MODEL, FaultModel(timeout=9),
    ], ids=["null", "lossy", "timeout"])
    def test_round_trip(self, model):
        assert FaultModel.from_dict(model.to_dict()) == model

    def test_absent_fields_take_defaults(self):
        assert FaultModel.from_dict({}) == NULL_FAULT_MODEL
        assert FaultModel.from_dict({"timeout": None}) == NULL_FAULT_MODEL

    def test_fault_values_keep_their_type(self):
        # An integer probability is stored as a float, so it describes
        # (and keys) exactly like the float a CLI flag produces.
        model = FaultModel.from_dict({"loss": 1, "timeout": 5})
        assert model == FaultModel(loss=1.0, timeout=5)
        assert "loss=1.0," in model.describe()
        assert "timeout=5," in model.describe()

    @pytest.mark.parametrize("data, message", [
        ({"bogus": 1}, "unknown fault fields"),
        ({"loss": "abc"}, "must be a number"),
        ({"loss": True}, "must be a number"),
        ({"max_delay": 1.5}, "must be an integer"),
        ({"loss": 2.0}, r"must be in \[0, 1\]"),
        ([0.1], "must be an object"),
        ({"timeout": "5"}, "must be an integer"),
        ("lossy", "must be an object"),
        (None, "must be an object"),
    ])
    def test_malformed_input_is_a_value_error(self, data, message):
        with pytest.raises(ValueError, match=message):
            FaultModel.from_dict(data)


#: JSON values, nested a little.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(("stdlib", "numpy", "")),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_FAULT_KEYS = st.sampled_from(
    ["loss", "delay", "max_delay", "crash", "crash_window", "down_rounds",
     "churn", "timeout", "seed", "bogus"]
)
_FAULT_DICTS = st.dictionaries(
    _FAULT_KEYS,
    st.none() | st.booleans() | st.integers(-2, 300)
    | st.floats(-0.5, 1.5) | st.floats() | st.text(max_size=3),
    max_size=4,
) | _JSON


class TestFromDictProperty:
    @settings(max_examples=300, deadline=None)
    @given(_FAULT_DICTS)
    def test_from_dict_returns_a_model_or_raises_value_error(self, data):
        try:
            model = FaultModel.from_dict(data)
        except ValueError:
            return
        assert isinstance(model, FaultModel)
        assert FaultModel.from_dict(model.to_dict()) == model


class TestFaultPlan:
    def test_decisions_are_stateless_and_order_independent(self):
        indexed = _graph().compile()
        model = FaultModel(loss=0.4, delay=0.3, max_delay=3)
        plan = model.resolve(3, indexed)
        coords = [
            (r, u, v)
            for r in range(4)
            for u in list(indexed.labels)[:4]
            for v in list(indexed.labels)[:4]
            if u != v
        ]
        forward = {c: plan.message_fate(*c) for c in coords}
        backward = {c: plan.message_fate(*c) for c in reversed(coords)}
        assert forward == backward
        # A fresh plan over the same inputs decides identically.
        replay = model.resolve(3, indexed)
        assert forward == {c: replay.message_fate(*c) for c in coords}
        assert set(forward.values()) & {-1} and set(forward.values()) & {0}

    def test_fault_stream_is_isolated_per_run_and_seed(self):
        seeds = {
            fault_stream_seed(net, model, run)
            for net in (0, 1)
            for model in (0, 1)
            for run in (0, 1)
        }
        assert len(seeds) == 8  # every coordinate matters

    def test_crash_schedule_and_fail_pause_windows(self):
        indexed = _graph().compile()
        plan = FaultModel(crash=1.0, crash_window=4, down_rounds=3).resolve(
            5, indexed
        )
        assert set(plan.crash_round) == set(indexed.labels)
        for node, at in plan.crash_round.items():
            # Round 0 never crashes: initiators always get to start.
            assert 1 <= at <= 4
            assert plan.restart_round[node] == at + 3
            assert not plan.node_down(at - 1, node)
            assert plan.node_down(at, node)
            assert plan.node_down(at + 2, node)
            assert not plan.node_down(at + 3, node)
        assert plan.restarts_pending(0)
        assert not plan.restarts_pending(max(plan.restart_round.values()) + 1)

    def test_permanent_crash_has_no_restart(self):
        indexed = _graph().compile()
        plan = FaultModel(crash=1.0, crash_window=4).resolve(5, indexed)
        assert plan.crash_round and not plan.restart_round
        node, at = next(iter(plan.crash_round.items()))
        assert plan.node_down(at + 10_000, node)
        assert not plan.restarts_pending(0)

    def test_churn_is_per_round_and_orientation_free(self):
        indexed = _graph().compile()
        plan = FaultModel(churn=0.3).resolve(3, indexed)
        sets = []
        for round_number in range(6):
            down = plan.churned_edges(round_number)
            for u, v in down:
                assert plan.edge_down(round_number, u, v)
                assert plan.edge_down(round_number, v, u)
            sets.append(frozenset(down))
        # The churn draw is per (round, edge): the down set varies.
        assert len(set(sets)) > 1

    def test_full_churn_downs_every_edge(self):
        graph = _graph()
        plan = FaultModel(churn=1.0).resolve(3, graph.compile())
        assert len(plan.churned_edges(0)) == graph.num_edges

    def test_null_probabilities_never_fire(self):
        indexed = _graph().compile()
        plan = FaultModel(timeout=8).resolve(3, indexed)
        labels = list(indexed.labels)
        assert plan.message_fate(0, labels[0], labels[1]) == 0
        assert not plan.node_down(5, labels[0])
        assert plan.churned_edges(5) == ()


def _spec_unit(seed, *coordinates):
    """The decision formula as first written, frozen here as the
    specification: a CRC of ``str(seed)`` and the coordinates' ``repr``s
    joined by ``|``, mapped to ``[0, 1)``."""
    text = "|".join([str(seed)] + [repr(item) for item in coordinates])
    return zlib.crc32(text.encode("utf-8")) / 4294967296.0


def _spec_fate(model, seed, round_number, sender, receiver):
    if model.loss > 0.0 and (
        _spec_unit(seed, "loss", round_number, sender, receiver) < model.loss
    ):
        return -1
    if model.delay > 0.0 and (
        _spec_unit(seed, "delay?", round_number, sender, receiver) < model.delay
    ):
        if model.max_delay == 1:
            return 1
        return 1 + int(
            _spec_unit(seed, "delay+", round_number, sender, receiver)
            * model.max_delay
        )
    return 0


def _spec_edge_down(model, seed, round_number, u, v):
    a, b = repr(u), repr(v)
    key = (a, b) if a <= b else (b, a)
    return model.churn > 0.0 and _spec_unit(seed, "churn", round_number, key) < model.churn


_LABELS = st.one_of(
    st.integers(min_value=-1000, max_value=10**9),
    st.text(max_size=5),
    st.tuples(st.integers(min_value=0, max_value=9), st.text(max_size=3)),
)

_PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)


@st.composite
def _labelled_graphs(draw):
    """A connected graph over int, str and tuple labels: a random path
    through the labels plus random chords."""
    labels = draw(st.lists(_LABELS, min_size=2, max_size=7, unique=True))
    graph = Graph(nodes=labels)
    for u, v in zip(labels, labels[1:]):
        graph.add_edge(u, v)
    for i, j in draw(
        st.lists(st.tuples(st.integers(0, len(labels) - 1),
                           st.integers(0, len(labels) - 1)), max_size=6)
    ):
        if i != j:
            graph.add_edge(labels[i], labels[j])
    return graph


class TestDecisionSpecification:
    """The plan's incremental CRCs against the frozen hashed-text formula."""

    @settings(max_examples=60, deadline=None)
    @given(
        graph=_labelled_graphs(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        loss=_PROBABILITIES,
        delay=_PROBABILITIES,
        max_delay=st.sampled_from([1, 3]),
        churn=_PROBABILITIES,
        crash=_PROBABILITIES,
        down_rounds=st.integers(min_value=0, max_value=4),
        rounds=st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=3),
    )
    def test_decisions_match_the_hashed_text(
        self, graph, seed, loss, delay, max_delay, churn, crash, down_rounds, rounds
    ):
        model = FaultModel(
            loss=loss, delay=delay, max_delay=max_delay, churn=churn,
            crash=crash, crash_window=8, down_rounds=down_rounds,
        )
        plan = FaultPlan(model, seed, graph.compile())
        nodes = graph.nodes()
        for round_number in rounds:
            for sender in nodes:
                # Any node may be a target of the plan, neighbour or not.
                expected = [
                    _spec_fate(model, seed, round_number, sender, target)
                    for target in nodes
                ]
                assert plan.outbox_fates(round_number, sender, nodes) == expected
                assert [
                    plan.message_fate(round_number, sender, target)
                    for target in nodes
                ] == expected
            down = {
                frozenset(edge)
                for edge in graph.edges()
                if _spec_edge_down(model, seed, round_number, *edge)
            }
            churned = plan.churned_edges(round_number)
            assert len(churned) == len(down)
            assert {frozenset(edge) for edge in churned} == down
            for u, v in graph.edges():
                assert plan.edge_down(round_number, u, v) == (frozenset((u, v)) in down)
                assert plan.edge_down(round_number, v, u) == (frozenset((u, v)) in down)
        crash_round = {}
        for node in nodes:
            if crash > 0.0 and _spec_unit(seed, "crash?", node) < crash:
                crash_round[node] = 1 + int(_spec_unit(seed, "crash@", node) * 8)
        assert plan.crash_round == crash_round
        assert plan.restart_round == (
            {node: at + down_rounds for node, at in crash_round.items()}
            if down_rounds else {}
        )

    def test_probability_cut_off_is_exact(self):
        # A probability equal to a message's own unit value must not fire
        # (``<`` is strict); any larger one must, down to half a CRC step.
        indexed = _graph().compile()
        u, v = indexed.labels[0], indexed.labels[1]
        crc = zlib.crc32(f"7|'loss'|3|{u!r}|{v!r}".encode("utf-8"))
        for offset, fate in ((0, 0), (0.5, -1), (1, -1)):
            plan = FaultPlan(FaultModel(loss=(crc + offset) / 2**32), 7, indexed)
            assert plan.message_fate(3, u, v) == fate


class _NonNeighbourSender(NodeAlgorithm):
    """Node 0 sends to its neighbour 1, then to ``target`` (not one)."""

    target = None

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0 and self.node_id == 0:
            return {1: "hi", self.target: "hello"}
        return {}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("target", [2, "ghost"])
def test_faulty_network_rejects_non_neighbour(engine, target):
    # The fates of an outbox are decided only after the neighbour check,
    # so a non-neighbour -- a node or not -- is a protocol error, never a
    # failed fate lookup.
    sender = type("Sender", (_NonNeighbourSender,), {"target": target})
    network = Network(
        generators.path_graph(3),
        scheduler=SCHEDULER_CLASSES[engine](),
        fault_model=FaultModel(
            loss=0.3, delay=0.3, max_delay=3, crash=0.3, churn=0.3, timeout=64
        ),
    )
    with pytest.raises(ProtocolError, match="non-neighbour"):
        network.run(
            lambda node, net: sender(
                node, net.graph.neighbors(node), net.num_nodes, net.node_rng(node)
            )
        )


class TestRetryHelpers:
    def _node(self):
        return NodeAlgorithm("a", ("b",), 4)

    def test_wake_after_schedules_absolute_round(self):
        node = self._node()
        assert node.wake_after(5, 3) == 8
        assert node.wake_after(5, 0) == 6  # delay is clamped to >= 1
        assert node._wake_requests == [8, 6]

    def test_retry_backoff_doubles_and_caps(self):
        node = self._node()
        targets = [node.retry_backoff(0, attempt) for attempt in range(8)]
        assert targets == [1, 2, 4, 8, 16, 32, 64, 64]
        assert node.retry_backoff(10, 2, base=3, factor=2, cap=100) == 22


class TestNullModelIdentity:
    """The null model resolves no fault plan: fault-free behaviour."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_null_model_byte_identical_per_engine(self, engine):
        graph = _graph()
        clean = run_classical_two_approximation(
            Network(graph, seed=3, scheduler=SCHEDULER_CLASSES[engine]())
        )
        null = run_classical_two_approximation(
            Network(
                graph, seed=3, scheduler=SCHEDULER_CLASSES[engine](),
                fault_model=FaultModel(),
            )
        )
        default = run_classical_two_approximation(
            Network(
                graph, seed=3, scheduler=SCHEDULER_CLASSES[engine](),
                fault_model=None,
            )
        )
        for faulty in (null, default):
            assert faulty.estimate == clean.estimate
            assert faulty.metrics == clean.metrics

    def test_null_model_byte_identical_numpy_tier(self):
        """With numpy importable (the oracles may take their vector
        kernel) the null model is still the fault-free simulator."""
        pytest.importorskip("numpy")
        graph = _graph()
        clean = run_classical_two_approximation(Network(graph, seed=3))
        null = run_classical_two_approximation(
            Network(graph, seed=3, fault_model=FaultModel())
        )
        assert null.estimate == clean.estimate
        assert null.metrics == clean.metrics

    def test_null_metrics_report_no_degradation(self):
        result = run_bfs_tree(
            Network(_graph(), seed=3, fault_model=FaultModel()), _root(_graph())
        )
        metrics = result.metrics
        assert metrics.dropped_messages == 0
        assert metrics.delayed_messages == 0
        assert metrics.node_crashes == 0
        assert metrics.node_restarts == 0
        assert metrics.churned_edge_rounds == 0


class TestLossFaults:
    def test_total_loss_times_out_with_enriched_error(self):
        graph = _graph()
        network = Network(
            graph,
            seed=1,
            scheduler=DenseScheduler(),
            fault_model=FaultModel(loss=1.0, timeout=32),
        )
        with pytest.raises(RoundLimitExceededError) as excinfo:
            run_bfs_tree(network, _root(graph))
        error = excinfo.value
        assert error.max_rounds == 32
        assert error.rounds_completed == 32
        assert error.messages_sent >= 0
        assert "32 rounds" in str(error)
        assert "round(s) completed" in str(error)

    def test_moderate_loss_is_counted_and_survivable(self):
        graph = _graph()
        result = run_resilient_bfs(
            Network(graph, seed=1, fault_model=FaultModel(loss=0.2, timeout=512)),
            _root(graph),
        )
        assert result.complete
        assert result.metrics.dropped_messages > 0
        assert result.distance == graph.bfs_distances(_root(graph))

    def test_retry_beats_single_shot_under_loss(self):
        """The robustness headline: at 10% loss the plain 2-approximation
        times out on every probed seed while the retrying variant still
        satisfies the approximation bound."""
        graph = _graph(24)
        true_diameter = graph.compile().diameter()
        for seed in (0, 1, 2):
            with pytest.raises((CongestSimulationError, RuntimeError)):
                run_classical_two_approximation(
                    Network(graph, seed=seed, fault_model=LOSSY)
                )
            result = run_resilient_two_approximation(
                Network(graph, seed=seed, fault_model=LOSSY)
            )
            assert result.estimate <= true_diameter <= 2 * result.estimate


class TestDelayFaults:
    DELAYED = FaultModel(delay=0.5, max_delay=3, timeout=512)

    def test_delay_preserves_information(self):
        # Delays reorder but never destroy messages: the resilient flood
        # still computes exact BFS distances (late announcements can only
        # propose larger distances, which are ignored).
        graph = _graph()
        result = run_resilient_bfs(
            Network(graph, seed=2, fault_model=self.DELAYED), _root(graph)
        )
        assert result.complete
        assert result.metrics.delayed_messages > 0
        assert result.distance == graph.bfs_distances(_root(graph))

    def test_faulty_runs_identical_across_engines(self):
        graph = _graph()
        outcomes = []
        for engine in ENGINES:
            result = run_resilient_bfs(
                Network(
                    graph, seed=2, scheduler=SCHEDULER_CLASSES[engine](),
                    fault_model=self.DELAYED,
                ),
                _root(graph),
            )
            outcomes.append(
                (
                    result.distance,
                    result.metrics.rounds,
                    result.metrics.messages,
                    result.metrics.total_bits,
                    result.metrics.dropped_messages,
                    result.metrics.delayed_messages,
                )
            )
        assert outcomes[0] == outcomes[1]


class TestCrashFaults:
    def test_fail_pause_with_restart_recovers(self):
        graph = _graph()
        result = run_resilient_bfs(
            Network(
                graph,
                seed=4,
                fault_model=FaultModel(
                    crash=0.5, crash_window=4, down_rounds=4, timeout=512
                ),
            ),
            _root(graph),
        )
        assert result.complete
        assert result.metrics.node_crashes > 0
        assert result.metrics.node_restarts == result.metrics.node_crashes

    def test_permanent_crash_cannot_terminate(self):
        # Fail-pause nodes that never restart also never finish: the run
        # must hit the fault timeout rather than hang at the generic cap.
        graph = _graph()
        network = Network(
            graph,
            seed=4,
            fault_model=FaultModel(crash=0.4, crash_window=4, timeout=64),
        )
        with pytest.raises(RoundLimitExceededError) as excinfo:
            run_resilient_bfs(network, _root(graph))
        assert excinfo.value.max_rounds == 64


class TestChurnFaults:
    def test_churn_is_counted_and_tolerated(self):
        graph = _graph()
        result = run_resilient_bfs(
            Network(graph, seed=5, fault_model=FaultModel(churn=0.3, timeout=512)),
            _root(graph),
        )
        assert result.complete
        assert result.metrics.churned_edge_rounds > 0
        assert result.distance == graph.bfs_distances(_root(graph))


class TestSweepIntegration:
    SPECS = (GraphSpec(family="clique_chain", num_nodes=24, seed=3),)

    def _algorithms(self):
        return resolve_algorithms(["two_approx", "two_approx_retry"])

    def test_failed_cells_become_failure_records(self):
        records = run_sweep_grid(
            self.SPECS, self._algorithms(), base_seed=0, fault=LOSSY
        )
        by_name = {record.algorithm: record for record in records}
        failed = by_name["two_approx"]
        assert not failed.success
        assert failed.value == -1.0
        assert failed.correct is None
        assert "RoundLimitExceededError" in failed.failure_reason
        survived = by_name["two_approx_retry"]
        assert survived.success
        assert survived.failure_reason is None
        assert survived.value > 0

    def test_faulty_grid_serial_equals_parallel(self):
        serial = run_sweep_grid(
            self.SPECS, self._algorithms(), base_seed=0, fault=LOSSY
        )
        parallel = run_sweep_grid(
            self.SPECS, self._algorithms(), base_seed=0,
            runner=BatchRunner(jobs=2), fault=LOSSY,
        )
        assert serial == parallel

    def test_task_key_carries_only_non_null_models(self):
        spec = self.SPECS[0]
        base = sweep_task_key(spec, "two_approx", 0)
        assert sweep_task_key(spec, "two_approx", 0, NULL_FAULT_MODEL) == base
        lossy_key = sweep_task_key(spec, "two_approx", 0, LOSSY)
        assert lossy_key != base
        assert "fault=" in lossy_key
        assert sweep_task_key(spec, "two_approx", 0, FaultModel(loss=0.2)) != lossy_key

    def test_store_roundtrip_preserves_outcome_fields(self, tmp_path):
        store = ExperimentStore(tmp_path / "faulty.jsonl")
        records = run_sweep_grid(
            self.SPECS,
            self._algorithms(),
            base_seed=0,
            store=store,
            fault=LOSSY,
        )
        assert store.load_records() == records
        header = store.latest_header()
        assert header["fault_model"] == LOSSY.describe()

    def test_record_loader_defaults_legacy_rows_to_success(self):
        records = run_sweep_grid(self.SPECS, self._algorithms(), base_seed=0)
        data = record_to_dict(records[0])
        assert data["success"] is True and data["failure_reason"] is None
        legacy = {
            key: value
            for key, value in data.items()
            if key not in ("success", "failure_reason")
        }
        loaded = record_from_dict(legacy)
        assert loaded == records[0]

    def test_provenance_stamps_fault_model(self):
        assert collect_provenance()["fault_model"] == "none"
        assert collect_provenance(NULL_FAULT_MODEL)["fault_model"] == "none"
        assert collect_provenance(LOSSY)["fault_model"] == LOSSY.describe()


#: A faulty end-to-end scenario executed in subprocesses: a lossy
#: resilient 2-approximation on both schedulers plus a faulty sweep grid.
#: All fault decisions are CRC hashes, so the JSON must be verbatim-
#: identical across ``PYTHONHASHSEED`` values.
_HASHSEED_SCRIPT = r"""
import json
import sys

from repro.algorithms.resilient import run_resilient_two_approximation
from repro.analysis.sweep import run_sweep_grid
from repro.congest.network import Network
from repro.faults import FaultModel
from repro.graphs import generators
from repro.graphs.graph import Graph
from repro.engine import DenseScheduler, SparseScheduler
from repro.runner import BatchRunner, GraphSpec, resolve_algorithms

model = FaultModel(loss=0.1, delay=0.1, max_delay=2, timeout=256)
graph = generators.family_for_sweep("clique_chain", 20, seed=3)

runs = {}
for engine, scheduler in (("dense", DenseScheduler), ("sparse", SparseScheduler)):
    result = run_resilient_two_approximation(
        Network(graph, seed=7, scheduler=scheduler(), fault_model=model)
    )
    metrics = result.metrics
    runs[engine] = [
        result.estimate, metrics.rounds, metrics.messages, metrics.total_bits,
        metrics.dropped_messages, metrics.delayed_messages,
    ]

records = run_sweep_grid(
    (GraphSpec(family="clique_chain", num_nodes=24, seed=3),),
    resolve_algorithms(["two_approx", "two_approx_retry"]),
    base_seed=0,
    fault=FaultModel(loss=0.1, timeout=256),
)

out = {
    "hash_randomised": sys.flags.hash_randomization,
    "runs": runs,
    "records": [[r.family, r.algorithm, r.num_nodes, r.rounds, r.value,
                 r.success, r.failure_reason, sorted(r.extra.items())]
                for r in records],
}
print(json.dumps(out, sort_keys=True))
"""

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def test_faulty_runs_identical_across_hash_seeds():
    def run(seed: str) -> dict:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        existing = os.environ.get("PYTHONPATH")
        env["PYTHONPATH"] = _SRC + (os.pathsep + existing if existing else "")
        result = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return json.loads(result.stdout)

    first = run("1")
    second = run("4242")
    assert first["hash_randomised"] == second["hash_randomised"] == 1
    # The schedulers must agree inside each subprocess as well.
    assert first["runs"]["dense"] == first["runs"]["sparse"]
    for key in first:
        if key == "hash_randomised":
            continue
        assert first[key] == second[key], f"{key} differs across PYTHONHASHSEED"
