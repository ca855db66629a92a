"""Unit tests for the execution-engine subsystem.

Covers the scheduler seam, the failure paths of ``Network.run`` under
*both* schedulers (strict bandwidth, round limit, protocol violations), the
self-wake API that keeps timer-driven algorithms correct under the sparse
scheduler, the transport's payload-size memo cache, and observers
(traffic logs, stitched multi-phase recording, run logs, opt-in
per-message calls).
"""

from __future__ import annotations

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.congest.errors import (
    BandwidthExceededError,
    ProtocolError,
    RoundLimitExceededError,
)
from repro.congest.message import message_size_bits
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.engine import (
    DenseScheduler,
    MetricsObserver,
    RunLogObserver,
    SparseScheduler,
    StitchedTrafficObserver,
    Transport,
    TrafficLogObserver,
)
from repro.faults import FaultModel
from repro.graphs import generators
from repro.service import GridRequest, execute_grid_request, fault_model_from_flags

#: The production sparse policy and the dense reference, by test id.
SCHEDULER_CLASSES = {"dense": DenseScheduler, "sparse": SparseScheduler}
ENGINES = sorted(SCHEDULER_CLASSES)


def _network(graph, engine, **kwargs):
    return Network(graph, scheduler=SCHEDULER_CLASSES[engine](), **kwargs)


def _factory(cls, *extra):
    return lambda node, net: cls(
        node, net.graph.neighbors(node), net.num_nodes, net.node_rng(node), *extra
    )


class _Chatterbox(NodeAlgorithm):
    """Sends an oversized message to trigger bandwidth enforcement."""

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0:
            return self.broadcast("x" * 4096)
        return {}


class _BadSender(NodeAlgorithm):
    """Sends to a non-neighbour to trigger a protocol error."""

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0 and self.node_id == 0:
            return {999: "hello"}
        return {}


class _NeverFinishes(NodeAlgorithm):
    def on_round(self, round_number, inbox):
        return self.broadcast(1)


class _SilentlyStuck(NodeAlgorithm):
    """Never finishes, never sends, never wakes: a quiescent deadlock."""

    def on_round(self, round_number, inbox):
        return {}


class _TimerNode(NodeAlgorithm):
    """Fires a broadcast at a prescribed round with no prior traffic."""

    FIRE_ROUND = 7

    def __init__(self, node_id, neighbors, num_nodes, rng):
        super().__init__(node_id, neighbors, num_nodes, rng)
        if node_id == 0:
            self.wake_at(self.FIRE_ROUND)
        else:
            self.finished = True

    def on_round(self, round_number, inbox):
        if self.node_id == 0:
            if round_number == self.FIRE_ROUND:
                self.finished = True
                self.fired_at = round_number
                return self.broadcast(("f",))
            return {}
        if inbox:
            self.received_at = round_number
        return {}

    def result(self):
        return getattr(self, "fired_at", None) or getattr(self, "received_at", None)


class _QueueDrainer(NodeAlgorithm):
    """Node 0 seeds a queue and drains one item per round via self-wakes."""

    def __init__(self, node_id, neighbors, num_nodes, rng):
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.queue = [1, 2, 3] if node_id == 0 else []
        self.received = []
        self.finished = node_id != 0

    def on_round(self, round_number, inbox):
        self.received.extend(inbox.values())
        if not self.queue:
            self.finished = True
            return {}
        item = self.queue.pop(0)
        if self.queue:
            self.wake_next_round()
        else:
            self.finished = True
        return self.broadcast(item)

    def result(self):
        return self.received


class TestEngineSelection:
    def test_default_scheduler_is_sparse(self):
        network = Network(generators.path_graph(3))
        assert type(network.scheduler) is SparseScheduler

    @pytest.mark.parametrize("engine", ENGINES)
    def test_explicit_engine(self, engine):
        scheduler = SCHEDULER_CLASSES[engine]()
        network = Network(generators.path_graph(3), scheduler=scheduler)
        assert network.scheduler is scheduler

    def test_unknown_engine_rejected(self):
        with pytest.raises(TypeError, match="Scheduler instance"):
            Network(generators.path_graph(3), scheduler="sparse")

    def test_vector_engine_rejected_everywhere(self, capsys):
        from repro.cli import main

        with pytest.raises(TypeError):
            Network(generators.path_graph(3), engine="vector")
        with pytest.raises(TypeError):
            GridRequest(
                families=("cycle",), sizes=(8,), algorithms=("two_approx",),
                engine="vector",
            )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--families", "cycle", "--sizes", "8",
                  "--algorithms", "two_approx", "--engine", "vector"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_make_scheduler(self):
        """A nested run gets a fresh scheduler of the outer run's type."""
        for base in SCHEDULER_CLASSES.values():
            begun = []

            class _Recording(base):
                def begin_run(self, *args, **kwargs):
                    begun.append(self)
                    super().begin_run(*args, **kwargs)

            class _Nesting(NodeAlgorithm):
                def on_round(self, round_number, inbox):
                    self.finished = True
                    if self.node_id == 0 and round_number == 0:
                        network.run(_factory(_TwoPhasePing))
                    return {}

            network = Network(generators.path_graph(3), scheduler=_Recording())
            network.run(_factory(_Nesting))
            outer, inner = begun
            assert outer is network.scheduler
            assert type(inner) is _Recording and inner is not outer

    def test_unknown_default_rejected(self):
        """No parameter selects an engine any more."""
        with pytest.raises(TypeError):
            Network(generators.path_graph(3), engine="sparse")
        with pytest.raises(TypeError, match="Scheduler instance"):
            Network(generators.path_graph(3), scheduler="sparse")


@pytest.mark.parametrize("engine", ENGINES)
class TestFailurePaths:
    """The seed's failure modes must survive the refactor, on both engines."""

    def test_strict_bandwidth_raises(self, engine):
        network = _network(
            generators.path_graph(3), engine, strict_bandwidth=True
        )
        with pytest.raises(BandwidthExceededError, match="budget"):
            network.run(_factory(_Chatterbox))

    def test_non_strict_counts_violations(self, engine):
        network = _network(
            generators.path_graph(3), engine, strict_bandwidth=False
        )
        result = network.run(_factory(_Chatterbox))
        assert result.metrics.bandwidth_violations >= 1
        assert result.metrics.max_edge_bits_per_round > network.bandwidth_bits

    def test_protocol_error_on_non_neighbour(self, engine):
        network = _network(generators.path_graph(3), engine)
        with pytest.raises(ProtocolError, match="non-neighbour"):
            network.run(_factory(_BadSender))

    def test_round_limit_exceeded(self, engine):
        network = _network(generators.path_graph(3), engine)
        with pytest.raises(RoundLimitExceededError):
            network.run(_factory(_NeverFinishes), max_rounds=5)

    def test_exact_rounds_mode(self, engine):
        network = _network(generators.path_graph(3), engine)
        result = network.run(_factory(_NeverFinishes), exact_rounds=4)
        assert result.rounds == 4

    def test_bandwidth_policy_mutation_after_construction(self, engine):
        """The seed loop read the policy live each run; the engine must too."""
        network = _network(
            generators.path_graph(3), engine, strict_bandwidth=True
        )
        network.strict_bandwidth = False
        result = network.run(_factory(_Chatterbox))
        assert result.metrics.bandwidth_violations >= 1
        network.strict_bandwidth = True
        network.bandwidth_bits = 10 ** 6
        clean = network.run(_factory(_Chatterbox))
        assert clean.metrics.bandwidth_violations == 0
        assert clean.metrics.bandwidth_limit_bits == 10 ** 6

    def test_traffic_recording(self, engine):
        network = _network(generators.path_graph(4), engine)
        result = network.run(_factory(_NeverFinishes), exact_rounds=3)
        assert result.traffic is None
        recorded = network.run(
            _factory(_NeverFinishes), exact_rounds=3, record_traffic=True
        )
        assert recorded.traffic is not None
        assert len(recorded.traffic) == recorded.metrics.messages
        rounds = [entry[0] for entry in recorded.traffic]
        assert rounds == sorted(rounds)


class TestSelfWakes:
    def test_timer_fires_under_both_engines(self):
        outcomes = {}
        for engine in ENGINES:
            network = _network(generators.path_graph(3), engine)
            result = network.run(_factory(_TimerNode))
            outcomes[engine] = (result.results, result.rounds)
        assert outcomes["dense"] == outcomes["sparse"]
        results, _ = outcomes["sparse"]
        assert results[0] == _TimerNode.FIRE_ROUND
        assert results[1] == _TimerNode.FIRE_ROUND + 1

    def test_queue_drains_under_both_engines(self):
        outcomes = {}
        for engine in ENGINES:
            network = _network(generators.path_graph(2), engine)
            result = network.run(_factory(_QueueDrainer))
            outcomes[engine] = (result.results[1], result.metrics.messages)
        assert outcomes["dense"] == outcomes["sparse"]
        assert outcomes["sparse"][0] == [1, 2, 3]

    @staticmethod
    def _stall(engine, algorithm, max_rounds):
        """Run ``algorithm`` to its abort; return the error and how many
        ``on_round`` calls it took."""
        calls = []

        class _Counted(algorithm):
            def on_round(self, round_number, inbox):
                calls.append(round_number)
                return super().on_round(round_number, inbox)

        network = _network(generators.path_graph(3), engine)
        with pytest.raises(RoundLimitExceededError) as excinfo:
            network.run(_factory(_Counted), max_rounds=max_rounds)
        return excinfo.value, len(calls)

    def test_sparse_deadlock_fails_fast(self):
        """A stalled sparse run raises the dense round-cap abort at once."""
        error, calls = self._stall("sparse", _SilentlyStuck, 10_000)
        assert str(error) == (
            "algorithm did not terminate within 10000 rounds "
            "(10000 round(s) completed, 0 message(s) sent)"
        )
        assert calls == 3  # round 0 only; the dense spin makes 30000
        dense, dense_calls = self._stall("dense", _SilentlyStuck, 100)
        sparse, _ = self._stall("sparse", _SilentlyStuck, 100)
        assert str(sparse) == str(dense)
        assert dense_calls == 300

    def test_sparse_deadlock_reports_progress(self):
        """The stall abort carries the same progress data as the dense
        round-cap abort: the cap as rounds completed, the messages sent."""

        class _PingThenStall(NodeAlgorithm):
            def on_round(self, round_number, inbox):
                if round_number == 0 and self.node_id == 0:
                    return self.send_to(1, ("p",))
                return {}

        error, calls = self._stall("sparse", _PingThenStall, 10_000)
        assert calls == 4  # round 0, then node 1's delivery in round 1
        dense, _ = self._stall("dense", _PingThenStall, 10_000)
        for outcome in (error, dense):
            assert str(outcome) == (
                "algorithm did not terminate within 10000 rounds "
                "(10000 round(s) completed, 1 message(s) sent)"
            )
            assert outcome.rounds_completed == 10_000
            assert outcome.max_rounds == 10_000
            assert outcome.messages_sent == 1

    def test_sparse_deadlock_rounds_reach_sweep_records(self):
        request = GridRequest(
            families=("cycle",), sizes=(24,), algorithms=("two_approx",),
            seed=3,
            fault=fault_model_from_flags(
                loss=0.05, crash=0.1, down_rounds=6, timeout=256
            ),
        )
        (record,) = execute_grid_request(request)
        assert not record.success
        assert record.failure_reason.startswith(
            "RoundLimitExceededError: algorithm did not terminate within "
            "256 rounds (256 round(s) completed"
        )
        assert record.rounds == 256

    def test_pending_restarts_do_not_keep_a_finished_run_alive(self):
        """A restart still ahead is not a wake: once every node has
        finished and nothing is in flight, both schedulers stop."""

        class _DoneAtOnce(NodeAlgorithm):
            def on_round(self, round_number, inbox):
                self.finished = True
                return {}

        model = FaultModel(crash=1.0, crash_window=4, down_rounds=100)
        for engine in ENGINES:
            network = _network(generators.path_graph(4), engine, fault_model=model)
            metrics = network.run(_factory(_DoneAtOnce)).metrics
            assert (metrics.rounds, metrics.node_restarts) == (1, 0), engine

    def test_dense_spins_to_round_limit(self):
        network = Network(generators.path_graph(3), scheduler=DenseScheduler())
        with pytest.raises(RoundLimitExceededError, match="did not terminate"):
            network.run(_factory(_SilentlyStuck), max_rounds=17)

    def test_wake_requests_are_drained(self):
        node = NodeAlgorithm(0, [1], 2)
        node.wake_next_round()
        node.wake_at(5)
        assert node._wake_requests == [None, 5]

        class _Timed(NodeAlgorithm):
            def __init__(self, *args):
                super().__init__(*args)
                self.wake_at(3)

            def on_round(self, round_number, inbox):
                self.finished = round_number >= 3
                if not self.finished:
                    self.wake_next_round()
                return {}

        for engine in ENGINES:
            holder = {}

            def factory(node, net):
                holder[node] = _factory(_Timed)(node, net)
                return holder[node]

            metrics = _network(generators.path_graph(3), engine).run(factory).metrics
            assert metrics.rounds == 4, engine
            assert all(a._wake_requests == [] for a in holder.values()), engine

    def test_wake_requests_do_not_pile_up_under_dense(self):
        """The engine drains wake requests even when the scheduler ignores
        them, so re-arming timers cannot grow memory on long dense runs."""

        class _Rearming(NodeAlgorithm):
            def on_round(self, round_number, inbox):
                if round_number >= 6:
                    self.finished = True
                    return {}
                self.wake_at(round_number + 2)
                return {}

        network = Network(generators.path_graph(2), scheduler=DenseScheduler())
        holder = {}

        def factory(node, net):
            algorithm = _Rearming(
                node, net.graph.neighbors(node), net.num_nodes, net.node_rng(node)
            )
            holder[node] = algorithm
            return algorithm

        network.run(factory, max_rounds=50)
        assert all(len(a._wake_requests) == 0 for a in holder.values())

    def test_nested_run_preserves_outer_scheduler_state(self):
        """A nested run on the same network must not clobber the outer
        sparse run's pending wakes."""

        class _NestedCaller(NodeAlgorithm):
            def __init__(self, node_id, neighbors, num_nodes, rng, network):
                super().__init__(node_id, neighbors, num_nodes, rng)
                self.network = network
                self.inner_messages = None
                if node_id == 0:
                    self.wake_at(2)
                    self.wake_at(5)
                else:
                    self.finished = True

            def on_round(self, round_number, inbox):
                if self.node_id != 0:
                    return {}
                if round_number == 2:
                    inner = self.network.run(_factory(_TwoPhasePing))
                    self.inner_messages = inner.metrics.messages
                if round_number == 5:
                    self.finished = True
                    self.fired = True
                return {}

            def result(self):
                return (self.inner_messages, getattr(self, "fired", False))

        network = Network(generators.path_graph(3))
        result = network.run(
            lambda node, net: _NestedCaller(
                node, net.graph.neighbors(node), net.num_nodes,
                net.node_rng(node), net,
            )
        )
        assert result.results[0] == (1, True)


class TestTransportMemoCache:
    def _transport(self, n=8):
        graph = generators.path_graph(n)
        return Transport(graph, bandwidth_bits=64, strict_bandwidth=True)

    def test_measure_matches_reference(self):
        transport = self._transport()
        payloads = [None, True, 7, -7, 3.14, "abc", ("bfs", 5), [1, (2, "x")],
                    {"a": 1}]
        for payload in payloads:
            assert transport.measure(payload) == message_size_bits(payload)

    def test_repeated_payloads_hit_the_cache(self):
        transport = self._transport()
        assert transport.size_cache_entries == 0
        first = transport.measure(("bfs", 5))
        assert transport.size_cache_entries == 1
        second = transport.measure(("bfs", 5))
        assert first == second
        assert transport.size_cache_entries == 1

    def test_cache_distinguishes_equal_but_differently_typed_payloads(self):
        transport = self._transport()
        # 2 == 2.0 and hash(2) == hash(2.0), but they cost 2 vs 64 bits.
        assert transport.measure(2) == message_size_bits(2)
        assert transport.measure(2.0) == message_size_bits(2.0)
        assert transport.measure((2,)) == message_size_bits((2,))
        assert transport.measure((2.0,)) == message_size_bits((2.0,))

    def test_unsupported_payload_still_raises(self):
        transport = self._transport()
        with pytest.raises(TypeError):
            transport.measure(object())

    def test_cache_limit_respected(self):
        graph = generators.path_graph(4)
        transport = Transport(
            graph, bandwidth_bits=64, strict_bandwidth=True, size_cache_limit=2
        )
        for value in range(5):
            transport.measure(("m", value))
        assert transport.size_cache_entries == 2
        # Uncached payloads are still measured correctly.
        assert transport.measure(("m", 4)) == message_size_bits(("m", 4))

    def test_cache_limit_counts_overflows(self):
        graph = generators.path_graph(4)
        transport = Transport(
            graph, bandwidth_bits=64, strict_bandwidth=True, size_cache_limit=2
        )
        for value in range(5):
            transport.measure(("m", value))
        stats = transport.cache_stats()
        assert stats["entries"] == 2
        assert stats["misses"] == 5
        assert stats["overflows"] == 3

    def test_fast_tier_exact_on_numeric_ping_pong(self):
        # Alternating probes that compare equal across types must each get
        # their own size, even though they collide in the value tier.
        transport = self._transport()
        for _ in range(3):
            assert transport.measure((2,)) == message_size_bits((2,))
            assert transport.measure((2.0,)) == message_size_bits((2.0,))
            assert transport.measure((True,)) == message_size_bits((True,))

    def test_nested_tuples_fall_back_to_repr_tier_exactly(self):
        transport = self._transport()
        assert transport.measure((("a", 2),)) == message_size_bits((("a", 2),))
        assert transport.measure((("a", 2.0),)) == message_size_bits(
            (("a", 2.0),)
        )

    def test_unhashable_payloads_are_cached_via_repr(self):
        transport = self._transport()
        first = transport.measure([1, 2, 3])
        entries = transport.size_cache_entries
        assert first == message_size_bits([1, 2, 3])
        assert transport.measure([1, 2, 3]) == first
        assert transport.size_cache_entries == entries


class TestCacheMetricsReporting:
    def test_run_metrics_carry_cache_stats(self):
        network = Network(generators.path_graph(30))
        tree = run_bfs_tree(network, 0)
        metrics = tree.metrics
        assert metrics.size_cache_misses > 0
        assert metrics.size_cache_hits > 0
        assert (
            metrics.size_cache_hits + metrics.size_cache_misses
            == metrics.messages
        )
        assert metrics.size_cache_overflows == 0

    def test_second_run_on_same_network_is_all_hits(self):
        network = Network(generators.path_graph(20))
        run_bfs_tree(network, 0)
        metrics = run_bfs_tree(network, 0).metrics
        assert metrics.size_cache_misses == 0
        assert metrics.size_cache_hits == metrics.messages

    def test_cache_stats_do_not_affect_metric_equality(self):
        cold = run_bfs_tree(Network(generators.path_graph(20)), 0).metrics
        network = Network(generators.path_graph(20))
        run_bfs_tree(network, 0)
        warm = run_bfs_tree(network, 0).metrics
        assert cold.size_cache_misses != warm.size_cache_misses
        assert cold == warm  # diagnostics are excluded from equality


class _TwoPhasePing(NodeAlgorithm):
    """Node 0 pings its neighbour once; used to exercise observers."""

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0 and self.node_id == 0:
            return self.send_to(self.neighbors[0], ("p",))
        return {}


class TestObservers:
    def test_persistent_observer_sees_every_run(self):
        network = Network(generators.path_graph(2))
        log = RunLogObserver()
        network.add_observer(log)
        network.run(_factory(_TwoPhasePing))
        network.run(_factory(_TwoPhasePing))
        assert log.runs == 2
        assert log.messages == 2
        assert log.rounds > 0
        network.remove_observer(log)
        network.run(_factory(_TwoPhasePing))
        assert log.runs == 2

    def test_traffic_log_observer_matches_record_traffic(self):
        network = Network(generators.path_graph(2))
        observer = TrafficLogObserver()
        network.add_observer(observer)
        result = network.run(_factory(_TwoPhasePing), record_traffic=True)
        network.remove_observer(observer)
        assert observer.traffic == result.traffic

    def test_stitched_observer_rebases_phases(self):
        network = Network(generators.path_graph(2))
        stitched = StitchedTrafficObserver()
        network.add_observer(stitched)
        network.run(_factory(_TwoPhasePing))
        network.run(_factory(_TwoPhasePing))
        network.remove_observer(stitched)
        assert len(stitched.traffic) == 2
        first, second = stitched.traffic
        # Phase 2's message is re-based to start after phase 1's last
        # traffic-carrying round (round 0), i.e. at stitched round 1.
        assert first[0] == 0
        assert second[0] == 1

    def test_persistent_observers_skip_nested_runs(self):
        """A nested run must not interleave events into cross-run
        accounting such as the stitched transcript."""

        class _NestingPing(NodeAlgorithm):
            def __init__(self, node_id, neighbors, num_nodes, rng, network):
                super().__init__(node_id, neighbors, num_nodes, rng)
                self.network = network

            def on_round(self, round_number, inbox):
                self.finished = True
                if round_number == 0 and self.node_id == 0:
                    # Simulate a sub-protocol mid-run on the same network.
                    self.network.run(_factory(_TwoPhasePing))
                    return self.send_to(self.neighbors[0], ("p",))
                return {}

        network = Network(generators.path_graph(2))
        log = RunLogObserver()
        network.add_observer(log)
        network.run(
            lambda node, net: _NestingPing(
                node, net.graph.neighbors(node), net.num_nodes,
                net.node_rng(node), net,
            )
        )
        network.remove_observer(log)
        # Only the outer run is reported: one run, one message.
        assert log.runs == 1
        assert log.messages == 1

    def test_observers_do_not_change_metrics(self):
        """Attaching a run log or a traffic log leaves every metric field
        (cache diagnostics included) exactly as in an unobserved run."""
        from repro._record import as_dict

        graph = generators.clique_chain(3, 4)
        plain = run_bfs_tree(Network(graph), 0).metrics
        for observer in (RunLogObserver(), TrafficLogObserver()):
            network = Network(graph)
            network.add_observer(observer)
            assert as_dict(run_bfs_tree(network, 0).metrics) == as_dict(plain)
        assert observer.traffic and len(observer.traffic) == plain.messages

    def test_per_message_calls_are_opt_in(self, monkeypatch):
        """An observer that does not override ``on_message`` gets run
        boundaries but no per-message calls."""
        calls = []
        monkeypatch.setattr(
            MetricsObserver, "on_message", lambda self, *event: calls.append(event)
        )

        class _Boundaries(MetricsObserver):
            def __init__(self):
                self.events = []

            def on_run_start(self, network):
                self.events.append("start")

            def on_run_end(self, metrics):
                self.events.append(metrics.messages)

        network = Network(generators.path_graph(5))
        observer = _Boundaries()
        network.add_observer(observer)
        messages = run_bfs_tree(network, 0).metrics.messages
        assert messages > 0
        assert observer.events == ["start", messages]
        assert calls == []

    @pytest.mark.parametrize("engine", ENGINES)
    def test_faulty_traffic_logs_dropped_messages_as_sent(self, engine):
        network = _network(
            generators.path_graph(4), engine,
            fault_model=FaultModel(loss=1.0, timeout=64),
        )
        result = network.run(
            _factory(_NeverFinishes), exact_rounds=3, record_traffic=True
        )
        metrics = result.metrics
        assert metrics.messages > 0
        assert metrics.dropped_messages == metrics.messages
        assert len(result.traffic) == metrics.messages
