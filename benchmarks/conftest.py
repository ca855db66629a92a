"""Pytest fixtures for the benchmark harnesses."""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes for batch-submitted benchmark grids "
            "(1 = serial, 0 = one per CPU).  Parallel results are "
            "byte-identical to serial; only wall-clock changes."
        ),
    )
    parser.addoption(
        "--store",
        default=None,
        metavar="PATH",
        help=(
            "persist measured benchmark rows to this JSONL experiment "
            "store (appended across tests; see repro.store)"
        ),
    )


@pytest.fixture
def jobs(request):
    """The ``--jobs`` worker count for batch-submitted grids."""
    return request.config.getoption("--jobs")


@pytest.fixture
def store(request):
    """The ``--store`` experiment store for persisted rows, or ``None``."""
    path = request.config.getoption("--store")
    if path is None:
        return None
    from repro.store import ExperimentStore

    return ExperimentStore(path)


@pytest.fixture
def run_once(benchmark):
    """Run the measured callable exactly once.

    The workloads are heavy, deterministic sweeps; statistical repetition
    would only multiply the wall-clock time without changing the measured
    round counts, which are the quantities of interest.
    """

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
