"""Whole-grid differential: the production paths against their references.

Every network runs the sparse scheduler, every quantum schedule the
batched backend and every in-band graph oracle the numpy kernel when
numpy is installed.  Their references -- the dense scheduler (every
node, every round: the synchronous CONGEST definition), the sampling
backend and the stdlib oracle kernels -- survive only for tests.  Each grid below runs twice, as
shipped and with the ``reference_paths`` switch on, and the two
canonical exports must be byte-identical.

The grids are small versions of the perfbench workloads (classical,
lossy, quantum), plus a crash grid without restarts, a churn grid, a
crash-and-restart grid with delays and a timeout, and a grid whose runs
stall under message loss (a stalled sparse run must record what the
dense spin to the round cap records).
"""

from __future__ import annotations

import pytest

import repro.graphs.indexed as indexed
from repro.congest.network import Network
from repro.engine import DenseScheduler, SparseScheduler
from repro.graphs import generators
from repro.quantum.backend import (
    BatchedScheduleBackend,
    SamplingScheduleBackend,
    resolve_schedule_backend,
)
from repro.service import GridRequest, execute_grid_request, fault_model_from_flags
from repro.store import render_records

CLASSICAL = ("classical_exact", "hprw_three_halves", "two_approx")

#: name -> (request fields, fault flags).
GRIDS = {
    "classical": (
        dict(families=("clique_chain", "cycle", "random_regular"), sizes=(48,),
             algorithms=CLASSICAL),
        {},
    ),
    "lossy": (
        dict(families=("clique_chain", "cycle", "ring_of_cliques"), sizes=(64,),
             algorithms=("two_approx_retry",)),
        dict(loss=0.1, delay=0.1),
    ),
    "churny": (
        dict(families=("clique_chain", "cycle", "ring_of_cliques"), sizes=(32,),
             algorithms=("two_approx_retry",)),
        dict(loss=0.05, delay=0.1, max_delay=3, churn=0.02, crash=0.05,
             down_rounds=4, timeout=256),
    ),
    "quantum": (
        dict(families=("clique_chain", "cycle"), sizes=(32,),
             algorithms=("exact_diameter", "radius"), kind="quantum"),
        {},
    ),
    "crash": (
        dict(families=("cycle", "random_regular"), sizes=(24,),
             algorithms=CLASSICAL + ("two_approx_retry",)),
        dict(crash=0.1, down_rounds=1000),
    ),
    "churn": (
        dict(families=("cycle", "random_regular", "clique_chain"), sizes=(24,),
             algorithms=CLASSICAL),
        dict(churn=0.05),
    ),
    "stalling": (
        dict(families=("random_regular", "cycle"), sizes=(24,),
             algorithms=("two_approx", "hprw_three_halves")),
        dict(loss=0.2),
    ),
}


def _request(name: str) -> GridRequest:
    fields, faults = GRIDS[name]
    return GridRequest(
        seed=1, fault=fault_model_from_flags(**faults) if faults else None,
        **fields,
    )


def _export(request: GridRequest) -> str:
    return render_records(execute_grid_request(request), "jsonl")


def test_reference_switch_installs_the_references(reference_paths):
    graph = generators.path_graph(3)
    assert type(Network(graph).scheduler) is SparseScheduler
    assert type(resolve_schedule_backend()) is BatchedScheduleBackend
    reference_paths()
    assert type(Network(graph).scheduler) is DenseScheduler
    assert type(resolve_schedule_backend()) is SamplingScheduleBackend
    assert indexed.numpy_or_none() is None


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_export_matches_reference(name, reference_paths):
    request = _request(name)
    shipped = _export(request)
    reference_paths()
    assert _export(request) == shipped


def test_stalling_grid_records_the_round_cap():
    """The stalling grid does stall: some cell fails on the round cap."""
    records = execute_grid_request(_request("stalling"))
    stalled = [
        record for record in records
        if not record.success
        and record.failure_reason.startswith("RoundLimitExceededError")
    ]
    assert stalled
