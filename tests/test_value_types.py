"""The value types a grid command builds behave as values.

Graph specs, wave schedule entries, fault models, sweep algorithm entries
and grid requests are keys, seeds and pickled task arguments: equal
instances must compare and hash equally, survive a pickle round trip and
refuse assignment.  A graph spec's ``repr`` is hashed into every cell's
seed by :func:`repro.runner.batch.task_seed`, so it is pinned to the byte,
together with the seeds it yields.  ``ExecutionMetrics`` is mutable: it
compares by what a run computed (not by its cache counters) and is not
hashable.
"""

from __future__ import annotations

import pickle

import pytest

from repro.algorithms.waves import WaveScheduleEntry
from repro.congest.metrics import ExecutionMetrics
from repro.faults import FaultModel
from repro.runner.algorithms import EXACT, SweepAlgorithmInfo, classical_exact, two_approx
from repro.runner.batch import task_seed
from repro.runner.spec import GraphSpec
from repro.service.gridspec import GridRequest

CYCLE = GraphSpec("cycle", 16, seed=7)
CONTROLLED = GraphSpec(family="controlled", num_nodes=40, diameter=6, seed=3)


class TestGraphSpecSeeds:
    def test_repr_is_pinned(self):
        assert repr(CYCLE) == "GraphSpec(family='cycle', num_nodes=16, diameter=None, seed=7)"
        assert repr(CONTROLLED) == (
            "GraphSpec(family='controlled', num_nodes=40, diameter=6, seed=3)"
        )

    def test_task_seeds_are_pinned(self):
        assert task_seed(11, CYCLE, "classical_exact") == 3873057340
        assert task_seed(11, CONTROLLED, "quantum_exact") == 730621469

    def test_constructor_order_and_defaults(self):
        assert GraphSpec("cycle", 16) == GraphSpec(
            family="cycle", num_nodes=16, diameter=None, seed=0
        )
        assert GraphSpec("controlled", 40, 6, 3) == CONTROLLED
        assert CONTROLLED.label == "controlled[40,D=6]"
        assert CYCLE.label == "cycle[16]"


#: ``(instance, an equal instance built separately, a different instance,
#: the field values in declaration order, a field name)`` per value type.
VALUES = {
    "GraphSpec": (
        CYCLE, GraphSpec(family="cycle", num_nodes=16, seed=7), CONTROLLED,
        ("cycle", 16, None, 7), "num_nodes",
    ),
    "WaveScheduleEntry": (
        WaveScheduleEntry(2, 5), WaveScheduleEntry(start_round=2, tag=5),
        WaveScheduleEntry(2, 6), (2, 5), "tag",
    ),
    "FaultModel": (
        FaultModel(loss=0.1, timeout=50), FaultModel(loss=0.1, timeout=50),
        FaultModel(loss=0.1), (0.1, 0.0, 1, 0.0, 32, 0, 0.0, 50, 0), "loss",
    ),
    "SweepAlgorithmInfo": (
        SweepAlgorithmInfo(classical_exact, guarantee=EXACT),
        SweepAlgorithmInfo(classical_exact, EXACT),
        SweepAlgorithmInfo(two_approx, guarantee=EXACT),
        (classical_exact, EXACT, None, None), "guarantee",
    ),
    "GridRequest": (
        GridRequest(["cycle"], [8], ["two_approx"]),
        GridRequest(("cycle",), (8,), ("two_approx",), "sweep", None, 0, 1, None),
        GridRequest(["cycle"], [8], ["two_approx"], seed=1),
        (("cycle",), (8,), ("two_approx",), "sweep", None, 0, 1, None), "seed",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
class TestValueSemantics:
    def test_equality_and_hash(self, name):
        value, equal, different, field_values, _ = VALUES[name]
        assert value == equal and not value != equal
        assert hash(value) == hash(equal) == hash(field_values)
        assert value != different
        assert len({value, equal, different}) == 2

    def test_pickle_round_trip(self, name):
        value = VALUES[name][0]
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(value, protocol=protocol))
            assert copy == value and hash(copy) == hash(value)
            assert type(copy) is type(value)

    def test_assignment_is_refused(self, name):
        value, _, _, field_values, field = VALUES[name]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert getattr(value, field) == before


def test_fault_model_fields_keep_their_order():
    model = FaultModel(loss=0, churn=0.5, seed=4)
    assert list(model.to_dict()) == [
        "loss", "delay", "max_delay", "crash", "crash_window",
        "down_rounds", "churn", "timeout", "seed",
    ]
    assert model.loss == 0.0 and isinstance(model.loss, float)
    assert model == FaultModel(loss=0.0, churn=0.5, seed=4)
    assert model.describe() == (
        "loss=0.0,delay=0.0,max_delay=1,crash=0.0,crash_window=32,"
        "down_rounds=0,churn=0.5,timeout=None,seed=4"
    )
    assert FaultModel.from_dict(model.to_dict()) == model


class TestExecutionMetrics:
    def test_equality_compares_every_field(self):
        plain = ExecutionMetrics(rounds=3, messages=4, total_bits=9)
        assert plain == ExecutionMetrics(rounds=3, messages=4, total_bits=9)
        assert plain != ExecutionMetrics(rounds=3, messages=4, total_bits=10)
        phased = ExecutionMetrics(rounds=3, messages=4, total_bits=9)
        phased.record_phase("bfs", 3)
        assert plain != phased
        assert ExecutionMetrics() == ExecutionMetrics()
        assert ExecutionMetrics().phase_rounds is not ExecutionMetrics().phase_rounds
        with pytest.raises(TypeError):
            hash(plain)

    def test_merged(self):
        first = ExecutionMetrics(
            rounds=3, messages=4, total_bits=9, max_edge_bits_per_round=6,
            bandwidth_limit_bits=32, max_node_memory_bits=7,
            dropped_messages=1,
        )
        first.record_phase("bfs", 3)
        second = ExecutionMetrics(
            rounds=5, messages=1, total_bits=2, max_edge_bits_per_round=8,
            bandwidth_limit_bits=16, bandwidth_violations=1,
            max_node_memory_bits=3, delayed_messages=2,
        )
        second.record_phase("bfs", 1)
        second.record_phase("tour", 4)
        merged = first.merged(second)
        expected = ExecutionMetrics(
            rounds=8, messages=5, total_bits=11, max_edge_bits_per_round=8,
            bandwidth_limit_bits=16, bandwidth_violations=1,
            max_node_memory_bits=7, dropped_messages=1, delayed_messages=2,
        )
        expected.phase_rounds = {"bfs": 4, "tour": 4}
        assert merged == expected
        assert first.phase_rounds == {"bfs": 3}
        assert ExecutionMetrics.total([first, second]) == merged
        assert repr(ExecutionMetrics(rounds=2)) == (
            "ExecutionMetrics(rounds=2, messages=0, total_bits=0, "
            "max_edge_bits_per_round=0, bandwidth_limit_bits=None, "
            "bandwidth_violations=0, max_node_memory_bits=0, dropped_messages=0, "
            "delayed_messages=0, node_crashes=0, node_restarts=0, "
            "churned_edge_rounds=0, phase_rounds={})"
        )
