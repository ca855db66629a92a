"""Benchmark: remote dispatch overhead, scaling, stragglers, merge fidelity.

Measures the ``repro.dispatch`` remote backend against the serial
baseline on a Table-1-style grid, written to ``BENCH_dispatch.json``
next to the repository root (sibling of ``BENCH_runner.json``):

* **Scaling / overhead** -- the same grid through
  :func:`repro.analysis.sweep.run_sweep_grid` serially and via a local
  coordinator with two subprocess workers.  Worker startup and
  registration happen *before* the timed window, so the measurement is
  the steady-state dispatch cost (framing, shard leasing, result
  streaming), not Python import time.  Both sides are the best of
  ``REPEATS`` equally cold runs.  Each remote run gets a fresh
  coordinator, fleet and shard directory (a worker replays the task
  keys already in its shard store, so a reused directory would time
  replay, not computation), and its workers import the cell kernels
  and build the graphs inside the timed window.  So each serial run
  gets a fresh interpreter: in one process, later runs skip those
  imports and reuse the graph and eccentricity caches, and the serial
  side would be timed warm against a cold remote side.  On a >= 4-core box two workers
  must deliver >= 1.8x; on smaller boxes (CI smoke runners are often
  1-2 cores) the gate is instead an overhead cap -- remote may not cost
  more than ``OVERHEAD_CAP``x serial, because the cells dominate and the
  per-cell frames are tiny.
* **Straggler scenario** -- the scheduler's reason to cut leases at
  lease time: the same grid with one worker artificially slowed via the
  ``REPRO_DISPATCH_THROTTLE`` env hook (an *unexpected* straggler -- its
  advertised capabilities look normal).  Work stealing trims the
  straggler's lease down to its in-flight cell, so the tail shrinks from
  a whole equal slice to one cell.  The comparison is a bound, not a
  second run: any one-shot equal split hands the straggler ``cells //
  WORKERS`` cells, each followed by a ``STRAGGLER_THROTTLE`` sleep, so
  it takes at least ``static_bound_seconds = STRAGGLER_THROTTLE * (cells
  // WORKERS)``.  The gate is bound / measured >= ``STRAGGLER_GATE`` on
  >= 4-core boxes, and at least one steal/speculative lease
  everywhere.
* **Merge fidelity** -- asserted everywhere, *including* under stealing:
  the streamed remote records, and the offline
  :func:`repro.store.merge.merge_shards` of the workers' shard stores,
  must both render the *byte-identical* canonical export of the serial
  run.

The recorded ``headline_speedup`` is the two-worker scaling speedup on
boxes with >= 4 cores; on smaller boxes, where a sub-1.0 speedup is
physically expected and meaningless to gate on, it is the *overhead
headroom* ``OVERHEAD_CAP / overhead_ratio`` instead (>= 1.0 means the
cap holds, and a growing dispatch overhead shows up as a shrinking
headline).  The ``gate`` field names which meaning applies.  With
``--smoke`` the headline must reach ``SMOKE_FLOOR`` on top of the gates
above (:func:`check`).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_dispatch.py [--smoke]

or through pytest (smoke sizes, same gates)::

    PYTHONPATH=src python -m pytest benchmarks/bench_dispatch.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import repro
from repro.analysis.sweep import run_sweep_grid
from repro.dispatch import DispatchCoordinator, RemoteDispatch
from repro.runner import GraphSpec, resolve_algorithms
from repro.store import ExperimentStore, merge_shards, render_records

from _harness import Harness, report_path

#: Where the results land (repository root, next to ROADMAP.md).
OUTPUT_PATH = report_path("BENCH_dispatch.json")

#: Remote wall-clock may not exceed this multiple of serial when the
#: machine is too small for real scaling (see module docstring).
OVERHEAD_CAP = 3.0

#: Two-worker scaling required on >= 4-core boxes.
SCALING_GATE = 1.8

#: The headline's ``--smoke`` floor: 75% of the last committed smoke
#: baseline.
SMOKE_FLOOR = 0.75 * 1.8

#: Timed runs per side of the scaling comparison; each side reports its
#: fastest (standard min-time benchmarking, as ``bench_quantum.py``).
REPEATS = 3

#: Two workers: the smallest fleet that exercises shard partitioning,
#: concurrent appends to distinct shard stores, and the merge.
WORKERS = 2

#: The straggler grid must finish at least this factor under the least
#: time of a one-shot equal split (gated on >= 4 cores, recorded
#: everywhere).
STRAGGLER_GATE = 1.4

# Cell weight matters: the dispatch setup cost (connect, describe,
# shard-store opens) is fixed per grid, so the overhead gate only
# measures the steady state when the cells are heavy enough to dominate.
GRID_FAMILIES = ("cycle", "clique_chain")
GRID_SIZES = (64, 96)
SMOKE_SIZES = (32, 48)
GRID_ALGORITHMS = ("classical_exact", "two_approx")
BASE_SEED = 11

# The straggler grid: many cheap cells, so one throttled worker's
# per-cell sleep dominates and the scheduler is what decides the tail.
# (Cheap compute keeps the scenario fast on tiny CI boxes.)
# The straggler deadline is deliberately *shorter than one throttled
# cell*: whenever the fast worker idles while the straggler computes,
# either a steal (>= 2 cells remaining in the straggler's lease) or a
# speculative re-lease (1 remaining) must fire, so the scenario cannot
# complete without at least one scheduler intervention.
STRAGGLER_FAMILIES = ("cycle",)
STRAGGLER_SIZES = (24, 26, 28, 30, 32, 34, 36, 38, 40, 42, 44, 46)
STRAGGLER_ALGORITHMS = ("two_approx",)
STRAGGLER_THROTTLE = 0.3
STRAGGLER_DEADLINE = 0.2


def _grid_specs(sizes, families=GRID_FAMILIES):
    return tuple(
        GraphSpec(family=family, num_nodes=n, seed=1)
        for family in families
        for n in sizes
    )


def _worker_env(throttle=None):
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src_root, env.get("PYTHONPATH")) if part
    )
    if throttle is not None:
        env["REPRO_DISPATCH_THROTTLE"] = str(throttle)
    else:
        env.pop("REPRO_DISPATCH_THROTTLE", None)
    return env


def _spawn_workers(address, shard_dir, count=WORKERS, throttles=None):
    host, port = address
    procs = []
    for index in range(count):
        throttle = throttles[index] if throttles else None
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro.dispatch.worker",
             f"{host}:{port}", "--shard-dir", shard_dir,
             "--name", f"bench{index + 1}", "--once", "--heartbeat", "0.5"],
            env=_worker_env(throttle),
            stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
        ))
    return procs


def _reap(procs):
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()


def _remote_run(specs, algorithms, shard_dir, throttles=None, **coordinator_kw):
    """One timed remote run on a fresh coordinator + subprocess fleet.

    Returns ``(records, seconds, coordinator stats)``.  Worker startup
    and registration stay outside the timed window.
    """
    coordinator = DispatchCoordinator(worker_timeout=15.0, **coordinator_kw)
    coordinator.start()
    procs = []
    try:
        procs = _spawn_workers(
            coordinator.address, shard_dir, throttles=throttles
        )
        coordinator.wait_for_workers(WORKERS, timeout=60.0)
        runner = RemoteDispatch(coordinator=coordinator, workers=WORKERS)
        start = time.perf_counter()
        records = run_sweep_grid(
            specs, algorithms, base_seed=BASE_SEED, runner=runner,
        )
        seconds = time.perf_counter() - start
        stats = coordinator.stats()
    finally:
        coordinator.stop()
        _reap(procs)
    return records, seconds, stats


def _timed_serial(sizes):
    """One serial run of the scaling grid: ``(seconds, jsonl export)``."""
    specs = _grid_specs(sizes)
    algorithms = resolve_algorithms(list(GRID_ALGORITHMS))
    start = time.perf_counter()
    records = run_sweep_grid(specs, algorithms, base_seed=BASE_SEED)
    return time.perf_counter() - start, render_records(records, "jsonl")


def _serial_run(sizes):
    """:func:`_timed_serial` in a fresh interpreter, as cold as a worker."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); "
        "from bench_dispatch import _timed_serial; "
        "print(json.dumps(_timed_serial(json.loads(sys.argv[2]))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__)),
         json.dumps(list(sizes))],
        env=_worker_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(result.stdout)


def _merged_canon(shard_dir, work_dir, tag):
    shard_paths = sorted(
        os.path.join(shard_dir, name)
        for name in os.listdir(shard_dir)
        if name.endswith(".jsonl")
    )
    merged_path = os.path.join(work_dir, f"merged-{tag}.jsonl")
    merged_records = merge_shards(shard_paths, out_path=merged_path)
    return (
        render_records(merged_records, "jsonl"),
        render_records(ExperimentStore(merged_path).load_records(), "jsonl"),
        len(shard_paths),
    )


def _straggler_scenario(work_dir: dict, smoke: bool) -> dict:
    """The straggler grid against the least time of an equal split."""
    sizes = STRAGGLER_SIZES[: 8 if smoke else len(STRAGGLER_SIZES)]
    specs = _grid_specs(sizes, families=STRAGGLER_FAMILIES)
    algorithms = resolve_algorithms(list(STRAGGLER_ALGORITHMS))
    serial_records = run_sweep_grid(specs, algorithms, base_seed=BASE_SEED)
    serial_canon = render_records(serial_records, "jsonl")

    # A one-shot equal split gives the throttled worker cells // WORKERS
    # cells, and it sleeps STRAGGLER_THROTTLE after each of them.
    cells = len(specs) * len(algorithms)
    static_bound = STRAGGLER_THROTTLE * (cells // WORKERS)
    adaptive_dir = os.path.join(work_dir, "straggler-adaptive")
    adaptive_records, adaptive_seconds, stats = _remote_run(
        specs, algorithms, adaptive_dir,
        throttles=[STRAGGLER_THROTTLE, None],
        straggler_deadline=STRAGGLER_DEADLINE,
    )
    merged_canon, _, shards = _merged_canon(
        adaptive_dir, work_dir, "straggler"
    )
    return {
        "cells": cells,
        "throttle": STRAGGLER_THROTTLE,
        "straggler_deadline": STRAGGLER_DEADLINE,
        "static_bound_seconds": round(static_bound, 4),
        "adaptive_seconds": round(adaptive_seconds, 4),
        "speedup": round(static_bound / max(adaptive_seconds, 1e-9), 3),
        "gate": STRAGGLER_GATE,
        "steals": stats["steals"],
        "speculative_leases": stats["speculative_leases"],
        "trims_sent": stats["trims_sent"],
        "duplicate_cells": stats["duplicate_cells"],
        "shards": shards,
        "adaptive_identical":
            render_records(adaptive_records, "jsonl") == serial_canon,
        "merge_identical": merged_canon == serial_canon,
    }


def run_benchmark(smoke: bool = False) -> dict:
    """Serial vs remote runs of the scaling and straggler grids."""
    sizes = SMOKE_SIZES if smoke else GRID_SIZES
    specs = _grid_specs(sizes)
    algorithms = resolve_algorithms(list(GRID_ALGORITHMS))
    cells = len(specs) * len(algorithms)

    serial_runs = [_serial_run(sizes) for _ in range(REPEATS)]
    serial_seconds = min(seconds for seconds, _ in serial_runs)
    serial_canon = serial_runs[0][1]

    work_dir = tempfile.mkdtemp(prefix="bench-dispatch-")
    try:
        remote_runs = []
        for repeat in range(REPEATS):
            shard_dir = os.path.join(work_dir, f"shards-{repeat}")
            records, seconds, _ = _remote_run(specs, algorithms, shard_dir)
            remote_runs.append((seconds, shard_dir, records))
        remote_seconds, shard_dir, _ = min(remote_runs, key=lambda run: run[0])
        remote_identical = all(
            render_records(records, "jsonl") == serial_canon
            for _, _, records in remote_runs
        )
        merged_canon, reloaded_canon, shards = _merged_canon(
            shard_dir, work_dir, "scaling"
        )
        straggler = _straggler_scenario(work_dir, smoke)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    cpu_count = os.cpu_count() or 1
    speedup = serial_seconds / max(remote_seconds, 1e-9)
    overhead_ratio = remote_seconds / max(serial_seconds, 1e-9)
    if cpu_count >= 4:
        gate = "speedup"
        headline = round(speedup, 3)
    else:
        # Too few cores for scaling to be physically possible: gate on
        # the overhead *headroom* instead (cap / measured ratio, >= 1.0
        # while the cap holds), so a growing dispatch overhead still
        # regresses the headline on small CI boxes.
        gate = "overhead"
        headline = round(OVERHEAD_CAP / max(overhead_ratio, 1e-9), 3)
    report = {
        "cpu_count": cpu_count,
        "smoke": smoke,
        "workers": WORKERS,
        "grid": {
            "families": list(GRID_FAMILIES),
            "sizes": list(sizes),
            "algorithms": list(GRID_ALGORITHMS),
            "cells": cells,
        },
        "serial_seconds": round(serial_seconds, 4),
        "remote_seconds": round(remote_seconds, 4),
        "speedup": round(speedup, 3),
        "overhead_ratio": round(overhead_ratio, 3),
        "overhead_cap": OVERHEAD_CAP,
        "shards": shards,
        "remote_identical": remote_identical,
        "merge_identical": merged_canon == serial_canon,
        "merged_store_identical": reloaded_canon == serial_canon,
        "straggler": straggler,
        "gate": gate,
        "headline_speedup": headline,
    }
    return report


def check(report: dict) -> list:
    """The gates besides the headline floor; returns the ones that fail.

    Byte-identical streaming and merge hold everywhere -- including the
    straggler scenario, whose run must survive forced work stealing with
    identical output.  The ``SCALING_GATE`` two-worker scaling gate and
    the ``STRAGGLER_GATE`` gate of the straggler grid against the
    equal-split bound apply only where scaling is physically possible
    (>= 4 cores: two busy workers plus coordinator and client); smaller
    boxes get the overhead cap instead.  The scheduler must intervene
    (steal or speculate) on every box -- the throttled worker sleeps
    most of its wall time, so an idle second worker always appears.
    """
    straggler = report["straggler"]
    gates = {
        "remote export identical to serial": report["remote_identical"],
        "merged shards identical to serial": report["merge_identical"],
        "merged store identical to serial": report["merged_store_identical"],
        "at least one shard": report["shards"] >= 1,
        "straggler export identical to serial": straggler["adaptive_identical"],
        "straggler merge identical to serial": straggler["merge_identical"],
        "a steal or speculative lease":
            straggler["steals"] + straggler["speculative_leases"] >= 1,
    }
    if report["cpu_count"] >= 4:
        gates[f"two-worker speedup >= {SCALING_GATE}x"] = (
            report["speedup"] >= SCALING_GATE
        )
        gates[f"straggler speedup >= {STRAGGLER_GATE}x"] = (
            straggler["speedup"] >= STRAGGLER_GATE
        )
    else:
        gates[f"overhead ratio <= {OVERHEAD_CAP}"] = (
            report["overhead_ratio"] <= OVERHEAD_CAP
        )
    return [gate for gate, held in gates.items() if not held]


HARNESS = Harness(
    run_benchmark, OUTPUT_PATH, smoke_floor=SMOKE_FLOOR, full_floor=None,
    check=check, description=__doc__,
)


def test_dispatch_identical_and_bounded():
    """Acceptance gates for the remote dispatch backend (:func:`check`)."""
    HARNESS.gate(run_benchmark(smoke=True))


if __name__ == "__main__":
    raise SystemExit(HARNESS.main())
