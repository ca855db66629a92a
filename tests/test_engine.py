"""Unit tests for the execution-engine subsystem.

Covers the scheduler seam, the failure paths of ``Network.run`` under
*both* schedulers (strict bandwidth, round limit, protocol violations), the
self-wake API that keeps timer-driven algorithms correct under the sparse
scheduler, observers (traffic logs, stitched multi-phase recording,
run logs, opt-in per-message calls) and the memory high-water mark read
once per node at the end of a run.  Payload sizing is pinned in
``tests/test_message_size.py``.
"""

from __future__ import annotations

import pytest

from repro.algorithms.bfs import run_bfs_tree
from repro.congest.errors import (
    BandwidthExceededError,
    ProtocolError,
    RoundLimitExceededError,
)
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.engine import (
    DenseScheduler,
    MetricsObserver,
    RunLogObserver,
    SparseScheduler,
    StitchedTrafficObserver,
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


class _GrowingMemory(NodeAlgorithm):
    """Floods for ``rounds`` rounds; its footprint grows with every call.

    ``history`` records the footprint after each ``on_round``, the values
    a per-call read would have seen; ``reads`` counts ``memory_bits``
    calls.  With ``opt_out`` the node reports ``None``.
    """

    def __init__(self, node_id, neighbors, num_nodes, rounds, opt_out):
        super().__init__(node_id, neighbors, num_nodes)
        self.rounds = rounds
        self.opt_out = opt_out
        self.calls = 0
        self.history = []
        self.reads = 0

    def _footprint(self):
        return None if self.opt_out else 8 * self.calls + self.node_id

    def on_round(self, round_number, inbox):
        self.calls += 1
        self.history.append(self._footprint())
        self.finished = round_number >= self.rounds - 1
        return self.broadcast(round_number) if round_number < self.rounds else {}

    def memory_bits(self):
        self.reads += 1
        return self._footprint()


class TestMemoryHighWaterMark:
    """``max_node_memory_bits`` is read once per node when a run ends and
    equals the largest footprint any node had after any of its rounds."""

    def _run(self, engine, rounds=5, opt_out=(), fault_model=None, **run_args):
        network = _network(generators.cycle_graph(8), engine, fault_model=fault_model)
        nodes = {}

        def factory(node, net):
            nodes[node] = _GrowingMemory(
                node, net.neighbors(node), net.num_nodes, rounds, node in opt_out
            )
            return nodes[node]

        metrics = network.run(factory, **run_args).metrics
        return metrics, nodes

    @staticmethod
    def _peak(nodes):
        return max(
            (value for node in nodes.values() for value in node.history
             if value is not None),
            default=0,
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_the_final_maximum_is_reported(self, engine):
        metrics, nodes = self._run(engine)
        peak = self._peak(nodes)
        assert peak > max(node.history[0] for node in nodes.values())
        assert metrics.max_node_memory_bits == peak
        assert [node.reads for node in nodes.values()] == [1] * len(nodes)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_run_of_no_rounds_reports_zero_and_reads_nothing(self, engine):
        metrics, nodes = self._run(engine, exact_rounds=0)
        assert metrics.rounds == 0
        assert metrics.max_node_memory_bits == 0
        assert all(node.reads == 0 and not node.history for node in nodes.values())

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("down_rounds", [0, 2], ids=["crash", "crash_restart"])
    def test_crashed_nodes_report_the_state_they_kept(self, engine, down_rounds):
        model = FaultModel(crash=0.5, crash_window=3, down_rounds=down_rounds, seed=4)
        metrics, nodes = self._run(
            engine, rounds=8, fault_model=model, exact_rounds=10
        )
        assert metrics.node_crashes > 0
        assert (metrics.node_restarts > 0) == (down_rounds > 0)
        assert metrics.max_node_memory_bits == self._peak(nodes)
        assert all(node.reads == 1 for node in nodes.values())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nodes_that_return_none_are_left_out(self, engine):
        # Node 7 would hold the peak (the offset is the label).
        metrics, nodes = self._run(engine, opt_out={7})
        assert metrics.max_node_memory_bits == self._peak(nodes)
        assert metrics.max_node_memory_bits % 8 == 6

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_run_where_every_node_opts_out_reports_zero(self, engine):
        metrics, _ = self._run(engine, opt_out=set(range(8)))
        assert metrics.rounds > 0
        assert metrics.max_node_memory_bits == 0
