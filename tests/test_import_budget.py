"""Each command imports only the layers it runs.

Every ``repro`` command is a fresh interpreter, so whatever it imports is
paid on every run.  These tests run commands in subprocesses and assert
on ``sys.modules`` membership afterwards -- not on timings, so they
cannot flake on a loaded host.  Only modules beyond those a bare
``python -c "import sys, json"`` loads count, so what the host's
``site`` start-up imports (a ``.pth`` hook, say) cannot fail a budget.
They also pin the plain name tuples the parser is built from
(:mod:`repro.names`) to the registries they mirror.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

import repro
from repro import names

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Runs ``repro.cli.main(argv[2:])`` and writes the exit status and the
#: names of the loaded modules to the JSON file ``argv[1]``.
_PROBE = """
import json, sys
import repro.cli
status = repro.cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as handle:
    json.dump({"status": status, "modules": sorted(sys.modules)}, handle)
"""

#: Standard-library modules that only writing or running needs: the
#: dataclass machinery (and the :mod:`inspect` it pulls in), and the
#: :mod:`platform` / :mod:`subprocess` that stamp run headers and lock
#: files.
WRITE_ONLY_STDLIB = ("dataclasses", "inspect", "platform", "subprocess")

#: What ``repro export`` must not import: it reads a JSONL file.
EXPORT_FORBIDDEN = WRITE_ONLY_STDLIB + (
    "numpy",
    "socket",
    "http.server",
    "repro.engine",
    "repro.congest",
    "repro.runner",
    "repro.core",
    "repro.quantum",
    "repro.dispatch",
    "repro.service",
)

#: What a local ``repro sweep`` / ``repro quantum`` of graphs outside the
#: oracles' vector band must not import: numpy, the daemon, remote dispatch, the lower bounds, the fits.
GRID_FORBIDDEN = (
    "numpy",
    "http.server",
    "repro.service.api",
    "repro.dispatch.coordinator",
    "repro.dispatch.worker",
    "repro.lowerbounds",
    "repro.analysis.fitting",
)

#: What a local ``repro sweep`` / ``repro quantum`` must not import
#: either: the dispatch package (and its sockets), the job ledger, the
#: shard merger and the process pool of a parallel run.
GRID_LOCAL_FORBIDDEN = (
    "socket",
    "multiprocessing",
    "repro.dispatch",
    "repro.service.jobs",
    "repro.store.merge",
)

#: What a classical ``repro sweep`` must not import: the quantum layers.
SWEEP_FORBIDDEN = ("repro.core", "repro.quantum", "repro.qcongest")

#: What ``repro quantum --list`` must not import: it prints the problem
#: registry, so it loads no simulator, quantum layer, grid, store or
#: dispatch.
LIST_FORBIDDEN = WRITE_ONLY_STDLIB + (
    "numpy",
    "socket",
    "multiprocessing",
    "http.server",
    "repro.algorithms",
    "repro.analysis.sweep",
    "repro.congest",
    "repro.dispatch",
    "repro.engine",
    "repro.graphs",
    "repro.lowerbounds",
    "repro.qcongest",
    "repro.quantum",
    "repro.runner",
    "repro.service",
    "repro.store",
)

SWEEP_ARGS = [
    "sweep", "--families", "clique_chain,cycle", "--sizes", "16",
    "--algorithms", "classical_exact,two_approx", "--seed", "1",
]
QUANTUM_ARGS = [
    "quantum", "--families", "cycle", "--sizes", "16",
    "--problems", "exact_diameter,radius", "--seed", "1",
]


@functools.lru_cache(maxsize=None)
def _bare_modules():
    """The modules a bare ``python -c "import sys, json"`` loads here."""
    completed = subprocess.run(
        [sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=SRC_ROOT),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return frozenset(json.loads(completed.stdout))


def _probe(tmp_path, argv):
    """Run one command in a fresh interpreter; return the modules it loaded
    beyond a bare interpreter's."""
    out = tmp_path / "probe.json"
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, str(out), *argv],
        env=env, cwd=str(tmp_path), capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(out.read_text())
    assert result["status"] == 0, completed.stderr
    return set(result["modules"]) - _bare_modules()


def _loaded(modules, forbidden):
    """The forbidden packages (or any of their submodules) in ``modules``."""
    return sorted(
        name for name in forbidden
        if any(module == name or module.startswith(name + ".") for module in modules)
    )


@pytest.fixture(scope="module")
def sweep_store(tmp_path_factory):
    """A store written by a probed ``repro sweep``, and that run's modules."""
    tmp_path = tmp_path_factory.mktemp("budget")
    store = tmp_path / "run.jsonl"
    modules = _probe(tmp_path, SWEEP_ARGS + ["--out", str(store)])
    return store, modules


class TestImportBudget:
    def test_export_loads_no_simulator_layer(self, sweep_store, tmp_path):
        store, _ = sweep_store
        for fmt in ("table",) + names.EXPORT_FORMATS:
            modules = _probe(tmp_path, ["export", "--store", str(store), "--format", fmt])
            assert _loaded(modules, EXPORT_FORBIDDEN) == []
            assert "repro.store" in modules

    def test_stdlib_sweep_loads_no_numpy_daemon_or_remote_dispatch(self, sweep_store):
        _, modules = sweep_store
        assert _loaded(modules, GRID_FORBIDDEN) == []
        assert "repro.engine" in modules  # the probe did run the simulator

    def test_stdlib_quantum_loads_no_numpy_daemon_or_remote_dispatch(self, tmp_path):
        modules = _probe(tmp_path, QUANTUM_ARGS)
        assert _loaded(modules, GRID_FORBIDDEN) == []
        assert "repro.quantum.backend" in modules
        assert _loaded(modules, GRID_LOCAL_FORBIDDEN) == []

    def test_local_sweep_loads_no_dispatch_ledger_merger_or_pool(self, sweep_store):
        _, modules = sweep_store
        assert _loaded(modules, GRID_LOCAL_FORBIDDEN) == []

    def test_classical_sweep_loads_no_quantum_layer(self, sweep_store):
        _, modules = sweep_store
        assert _loaded(modules, SWEEP_FORBIDDEN) == []

    def test_quantum_list_loads_only_the_problem_registry(self, tmp_path):
        modules = _probe(tmp_path, ["quantum", "--list"])
        assert _loaded(modules, LIST_FORBIDDEN) == []
        assert "repro.core.problems" in modules

    def test_bare_package_import_loads_no_subpackage(self, tmp_path):
        code = "import json, sys, repro; print(json.dumps(sorted(sys.modules)))"
        completed = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC_ROOT),
            capture_output=True, text=True, check=True, timeout=60,
        )
        modules = json.loads(completed.stdout)
        assert [m for m in modules if m.startswith("repro.")] == []


class TestLazyPackageNames:
    """Public names of the package ``__init__``s still resolve on use."""

    def test_lazy_names_resolve_to_their_definitions(self):
        from repro.analysis import fit_power_law, render_table, run_sweep_grid
        from repro.analysis.fitting import fit_power_law as fitting_fit
        from repro.analysis.sweep import run_sweep_grid as sweep_run
        from repro.analysis.tables import render_table as tables_render
        from repro.dispatch import DispatchCoordinator
        from repro.dispatch.coordinator import DispatchCoordinator as coordinator_cls
        from repro.quantum import StateVector
        from repro.quantum.state import StateVector as state_cls
        from repro.service import ExperimentService, ServiceClient, serve_api
        from repro.service.api import serve_api as api_serve
        from repro.service.client import ServiceClient as client_cls
        from repro.service.queue import ExperimentService as queue_service

        assert fit_power_law is fitting_fit
        assert render_table is tables_render
        assert run_sweep_grid is sweep_run
        assert DispatchCoordinator is coordinator_cls
        assert StateVector is state_cls
        assert ExperimentService is queue_service
        assert ServiceClient is client_cls
        assert serve_api is api_serve

    def test_every_public_name_resolves(self):
        import importlib

        for package in ("repro.analysis", "repro.dispatch", "repro.quantum",
                        "repro.service", "repro.store", "repro.algorithms",
                        "repro.congest", "repro.core", "repro.engine",
                        "repro.graphs", "repro.lowerbounds", "repro.qcongest",
                        "repro.runner"):
            module = importlib.import_module(package)
            for name in module.__all__:
                assert getattr(module, name) is not None, (package, name)
                assert name in dir(module)

    def test_unknown_name_is_an_attribute_error(self):
        import repro.analysis

        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            repro.analysis.bogus  # noqa: B018

    def test_record_type_is_shared_by_store_and_analysis(self):
        from repro.analysis.sweep import SweepRecord, sweep_table
        from repro.store import SweepRecord as store_record
        from repro.store import sweep_table as store_table

        assert SweepRecord is store_record
        assert sweep_table is store_table


class TestNameTuplesMatchRegistries:
    """The parser's choices are the registries' names."""

    def test_export_formats(self):
        from repro.store.export import EXPORT_FORMATS, render_records

        assert names.EXPORT_FORMATS is EXPORT_FORMATS
        for fmt in EXPORT_FORMATS:
            assert render_records([], fmt) is not None

    def test_families(self):
        from repro.graphs import generators

        assert names.SWEEP_FAMILIES is generators.SWEEP_FAMILIES
        for family in names.SWEEP_FAMILIES:
            assert generators.family_for_sweep(family, 12, seed=1).num_nodes > 0

    def test_sweep_algorithms(self):
        from repro.runner import SWEEP_ALGORITHMS

        assert names.SWEEP_ALGORITHM_NAMES == tuple(sorted(SWEEP_ALGORITHMS))

    def test_quantum_problems(self):
        from repro.core.problems import quantum_problem_names

        assert names.QUANTUM_PROBLEM_NAMES == quantum_problem_names()
