"""Tests for the shared grid request (``repro.service.gridspec``).

The grid request is the byte-identity keystone of the experiment
service: ``repro sweep`` run locally and a daemon worker executing a
submitted job both construct a :class:`GridRequest` from the same flags
and run it through :func:`execute_grid_request`.  These tests pin the
properties that identity rests on: validation messages match the CLI's
historical ones, the seed streams derive (never store) from the user
seed, the JSON round-trip is lossless, and the three grid commands'
flag inventories cannot drift apart.
"""

from __future__ import annotations

import argparse

import pytest

from repro.analysis.sweep import grid_signature, run_sweep_grid
from repro.cli import _grid_request_from_args, build_parser
from repro.congest.network import Network
from repro.faults import FaultModel
from repro.graphs import generators
from repro.names import MAX_GRID_NODES
from repro.runner import BatchRunner, task_seed
from repro.service import GridRequest, execute_grid_request, fault_model_from_flags
from repro.store import ExperimentStore


def _request(**overrides) -> GridRequest:
    base = dict(
        families=("cycle",), sizes=(10,), algorithms=("classical_exact",)
    )
    base.update(overrides)
    return GridRequest(**base)


class TestValidation:
    def test_valid_request_passes(self):
        _request().validate()

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family 'bogus'"):
            _request(families=("bogus",)).validate()

    def test_controlled_requires_diameter(self):
        with pytest.raises(ValueError, match="requires --diameter"):
            _request(families=("controlled",)).validate()
        _request(families=("controlled",), diameter=4).validate()

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown sweep algorithm"):
            _request(algorithms=("bogus",)).validate()

    def test_unknown_quantum_problem(self):
        with pytest.raises(ValueError, match="unknown quantum problem"):
            _request(kind="quantum", algorithms=("bogus",)).validate()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown grid kind"):
            _request(kind="banana").validate()

    def test_empty_grid_axes(self):
        with pytest.raises(ValueError, match="at least one family"):
            _request(families=()).validate()
        with pytest.raises(ValueError, match="at least one size"):
            _request(sizes=()).validate()
        with pytest.raises(ValueError, match="at least one algorithm"):
            _request(algorithms=()).validate()

    def test_nonpositive_size(self):
        with pytest.raises(ValueError, match="sizes must be >= 1"):
            _request(sizes=(0,)).validate()

    def test_size_above_the_node_ceiling(self):
        _request(sizes=(MAX_GRID_NODES,)).validate()
        for size in (MAX_GRID_NODES + 1, 10**200):
            with pytest.raises(ValueError, match="sizes must be <= "):
                _request(sizes=(size,)).validate()

    def test_non_integer_diameter(self):
        with pytest.raises(ValueError, match="diameter must be an integer"):
            _request(families=("controlled",), diameter="x").validate()

    def test_unknown_dispatch(self):
        # Where cells run is the caller's runner, not a request field.
        with pytest.raises(TypeError, match="dispatch"):
            _request(dispatch="remote")


class TestSeedStreams:
    def test_streams_derive_from_seed_and_differ(self):
        request = _request(seed=7)
        assert request.graph_seed() == task_seed(7, "sweep-graph-stream")
        assert request.base_seed() == task_seed(7, "sweep-algorithm-stream")
        assert request.graph_seed() != request.base_seed()
        assert request.graph_seed() != 7 and request.base_seed() != 7

    def test_streams_survive_json_round_trip(self):
        request = _request(seed=41)
        clone = GridRequest.from_dict(request.to_dict())
        assert clone.graph_seed() == request.graph_seed()
        assert clone.base_seed() == request.base_seed()


class TestRoundTrip:
    def test_plain_round_trip(self):
        request = _request(
            families=("cycle", "path"), sizes=(10, 12), seed=3, jobs=2,
        )
        assert GridRequest.from_dict(request.to_dict()) == request

    def test_fault_model_round_trip(self):
        fault = FaultModel(loss=0.1, crash=0.05, timeout=400, seed=9)
        request = _request(fault=fault)
        clone = GridRequest.from_dict(request.to_dict())
        assert clone.fault == fault
        assert clone == request

    def test_dispatch_round_trip(self):
        """Payloads written while requests named a dispatch backend
        replay as the same request; new payloads carry no such key."""
        request = _request(jobs=2)
        assert "dispatch" not in request.to_dict()
        for dispatch in (None, "inprocess", "multiprocessing", "remote"):
            data = dict(request.to_dict(), dispatch=dispatch)
            assert GridRequest.from_dict(data) == request

    @pytest.mark.parametrize("retired", [
        {"engine": None, "backend": None},
        {"engine": "dense", "backend": "sampling"},
        {"engine": "sparse", "backend": "batched"},
        {"tier": None},
        {"tier": "stdlib"},
        {"tier": "numpy"},
        {"engine": "dense", "backend": "sampling", "tier": "numpy"},
        {"dispatch": "remote", "tier": "stdlib"},
    ])
    def test_retired_selections_dropped(self, retired):
        request = _request(seed=3)
        data = dict(request.to_dict(), **retired)
        assert GridRequest.from_dict(data) == request

    def test_unknown_field_rejected(self):
        data = _request().to_dict()
        data["faults"] = {"loss": 0.1}  # a typo must not silently drop faults
        with pytest.raises(ValueError, match="unknown grid request fields"):
            GridRequest.from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("families", 5), ("families", "cycle"), ("sizes", 5),
        ("sizes", [10.0]), ("sizes", [True]), ("algorithms", [["x"]]),
        ("seed", [1]), ("seed", "3"), ("jobs", 1.5), ("jobs", False),
    ])
    def test_wrong_typed_field_rejected(self, field, value):
        data = dict(_request().to_dict(), **{field: value})
        with pytest.raises(ValueError, match=f"field '{field}' must be"):
            GridRequest.from_dict(data)

    def test_sequences_normalise_to_tuples(self):
        request = GridRequest(
            families=["cycle"], sizes=[10], algorithms=["classical_exact"]
        )
        assert request == _request()
        assert hash(request) == hash(_request())


class TestFaultModelFromFlags:
    def test_all_defaults_is_none(self):
        assert fault_model_from_flags() is None

    def test_any_probability_builds_model(self):
        model = fault_model_from_flags(loss=0.25, seed=3)
        assert isinstance(model, FaultModel)
        assert model.loss == 0.25 and model.seed == 3

    def test_timeout_alone_builds_model(self):
        model = fault_model_from_flags(timeout=128)
        assert model is not None and model.timeout == 128


class TestIntegerFaultValues:
    """An API body may spell a probability as an integer; the CLI always
    passes floats.  Both spellings are one model and one grid."""

    HTTP = {"families": ["cycle"], "sizes": [10], "algorithms": ["two_approx"],
            "seed": 2, "fault": {"loss": 0, "delay": 0.1}}
    ARGV = ["sweep", "--families", "cycle", "--sizes", "10",
            "--algorithms", "two_approx", "--seed", "2",
            "--loss", "0", "--delay", "0.1"]

    def _requests(self):
        http = GridRequest.from_dict(self.HTTP)
        cli = _grid_request_from_args(build_parser().parse_args(self.ARGV), "sweep")
        return http, cli

    def test_equal_signatures(self):
        http, cli = self._requests()
        assert http == cli
        assert grid_signature(
            http.specs(), http.algorithms, http.base_seed(), http.fault
        ) == grid_signature(
            cli.specs(), cli.algorithms, cli.base_seed(), cli.fault
        )

    def test_cli_resumes_an_api_store(self, tmp_path):
        http, cli = self._requests()
        store = ExperimentStore(tmp_path / "run.jsonl")
        first = execute_grid_request(http, store=store)
        assert execute_grid_request(cli, store=store, resume=True) == first
        assert store.latest_header()["resume"] is True


class TestExecution:
    def test_runner_none_runs_the_request_jobs(self, monkeypatch):
        """``runner=None`` is a local BatchRunner with the request's
        ``jobs``; any other runner object passes through."""
        import repro.service.gridspec as gridspec

        seen = []
        monkeypatch.setattr(
            gridspec, "run_sweep_grid",
            lambda *args, runner, **kwargs: seen.append(runner) or [],
        )
        execute_grid_request(_request(jobs=3))
        assert type(seen[-1]) is BatchRunner and seen[-1].jobs == 3
        runner = BatchRunner(jobs=2)
        execute_grid_request(_request(), runner=runner)
        assert seen[-1] is runner

    def test_execute_matches_direct_run(self):
        request = _request(families=("cycle", "path"), sizes=(10, 12), seed=3)
        records = execute_grid_request(request)
        direct = run_sweep_grid(
            request.specs(),
            request.algorithm_table(),
            base_seed=request.base_seed(),
        )
        assert records == direct

    def test_process_defaults_restored(self):
        """A faulty request leaves nothing behind: a network built
        afterwards runs the null model."""
        execute_grid_request(_request(fault=FaultModel(loss=0.1)))
        assert Network(generators.path_graph(3)).fault_model.is_null


def _grid_subparsers():
    """The sweep / quantum / jobs-submit subparsers of the real CLI."""
    parser = build_parser()
    subs = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    jobs_subs = next(
        action for action in subs.choices["jobs"]._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subs.choices["sweep"], subs.choices["quantum"], jobs_subs.choices["submit"]


def _flags(sub: argparse.ArgumentParser) -> set:
    return {
        option
        for action in sub._actions
        for option in action.option_strings
    } - {"-h", "--help"}


class TestFlagInventories:
    """Regression for the historical drift between the grid commands.

    Before the shared builder, ``sweep`` and ``quantum`` each maintained
    a hand-copied flag list (and ``quantum`` had already drifted: a
    missing flag, divergent help text).  The three grid commands must
    expose identical flag inventories modulo their documented deltas.
    """

    #: The dispatch *connection* flags live only on the locally-executing
    #: grid commands: a submitted job runs on the daemon's coordinator.
    DISPATCH_CONNECTION = {
        "--coordinator", "--dispatch-port", "--dispatch-workers",
        "--dispatch-wait", "--straggler-deadline", "--dispatch-stats",
    }

    SWEEP_ONLY = {"--algorithms", "--out", "--resume"} | DISPATCH_CONNECTION
    QUANTUM_ONLY = (
        {"--problems", "--list", "--out", "--resume"} | DISPATCH_CONNECTION
    )
    SUBMIT_ONLY = {"--algorithms", "--url", "--tenant", "--watch"}

    def test_shared_inventories_identical(self):
        sweep, quantum, submit = map(_flags, _grid_subparsers())
        assert sweep - self.SWEEP_ONLY == quantum - self.QUANTUM_ONLY
        assert sweep - self.SWEEP_ONLY == submit - self.SUBMIT_ONLY

    def test_documented_deltas_exact(self):
        sweep, quantum, submit = map(_flags, _grid_subparsers())
        shared = sweep - self.SWEEP_ONLY
        assert sweep - shared == self.SWEEP_ONLY
        assert quantum - shared == self.QUANTUM_ONLY
        assert submit - shared == self.SUBMIT_ONLY

    def test_shared_flags_cover_grid_request(self):
        # every GridRequest field a flag can set is reachable from the
        # shared inventory (fault flags feed the single `fault` field)
        sweep, _, _ = map(_flags, _grid_subparsers())
        for flag in ("--families", "--sizes", "--diameter", "--seed",
                     "--jobs",
                     "--loss", "--crash", "--fault-seed"):
            assert flag in sweep
