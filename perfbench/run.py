"""End-to-end benchmark of the ``repro`` command line, one process per command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload classical --seed 1 --seconds 30 --trace 0

Set-up installs ``src/repro`` into a private directory under
``.bench_build/`` and times its first, cold-cache invocation.  This is done
``SETUPS`` times and ``setup_s`` is the median.  The measurement is then a
closed loop with one client: run the workload's grid command (``repro
sweep`` or ``repro quantum`` writing a JSONL store), then ``repro export``
of that store, and repeat until ``--seconds`` have passed.  Each command is
a fresh interpreter, as a user starts it, so interpreter start-up, imports
and store writes are all inside the timings.

Every time is reported at a reference host speed.  The speed of a shared
host drifts by tens of percent within minutes, so a fixed pure-Python
calibration loop is timed right before and after each command, and the
command's time is scaled by ``HOST_REFERENCE_SECONDS`` over the
calibration's time.  A change to the program moves the scaled times; a
change in the host's speed cancels out.

The grid inputs come from ``--seed``: it picks ``SEED_POOL`` CLI seeds,
used in turn.  The first store written for each CLI seed is checked against
independent reference answers (:mod:`reference`).  Every later export for
that seed must be byte-identical to the first.

``--trace 1`` runs each grid command under :mod:`traced_cli` instead and
reports the per-layer metrics; ``--trace 0`` reports the end-to-end ones.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from reference import Reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "repro")
BUILD = os.path.join(ROOT, ".bench_build")

SETUPS = 5
SEED_POOL = 4
#: A single command that takes longer than this is a hang, not a sample.
COMMAND_TIMEOUT = 120
#: Reported times are scaled to a host on which :func:`host_seconds` takes
#: this long (a shared 2-core Xeon host took 10 to 17 ms).
HOST_REFERENCE_SECONDS = 0.015


@dataclass(frozen=True)
class Workload:
    command: str
    args: Tuple[str, ...]
    faulty: bool = False


# Each workload is one user-shaped grid on the default engine, schedule
# backend and compute tier.  Sizes are chosen so one grid command takes
# about a second on a 2-core host, so a run collects a dozen or more samples.
WORKLOADS: Dict[str, Workload] = {
    # Classical CONGEST simulation: the round loop, transport and metrics
    # accounting dominate.
    "classical": Workload(
        "sweep",
        (
            "--families", "clique_chain,cycle,random_regular",
            "--sizes", "96",
            "--algorithms", "classical_exact,hprw_three_halves,two_approx",
        ),
    ),
    # Theorem-7 quantum optimisation: the quantum schedule, the oracle and
    # interpreter start-up take a larger share.
    "quantum": Workload(
        "quantum",
        (
            "--families", "clique_chain,cycle,random_regular",
            "--sizes", "48,96",
            "--problems", "exact_diameter,radius",
        ),
    ),
    # Message loss and delay: the fault-injecting delivery path, on larger
    # graphs with the one algorithm that converges under faults.
    "lossy": Workload(
        "sweep",
        (
            "--families", "clique_chain,cycle,random_regular,ring_of_cliques",
            "--sizes", "192,384",
            "--algorithms", "two_approx_retry",
            "--loss", "0.1",
            "--delay", "0.1",
        ),
        faulty=True,
    ),
}

#: Per-layer metrics of ``--trace 1``.  Span self times and sampled CPU
#: times are milliseconds per grid command (median over commands, at the
#: reference host speed); counts are per grid command, averaged over the
#: seed pool.
SPAN_METRICS = (
    "import", "cli", "graph_build", "compile", "oracle", "kernel", "simulate", "store",
)
SAMPLE_METRICS = (
    "transport", "size", "scheduler", "metrics", "round_loop", "faults",
    "quantum", "node", "graph", "store", "other",
)
COUNT_METRICS = (
    "network_runs", "rounds", "messages", "total_bits", "size_cache_hits",
    "size_cache_misses", "dropped_messages", "delayed_messages",
)

_CALIBRATION_NODES = 600
_CALIBRATION_GRAPH = [
    [(node + 1) % _CALIBRATION_NODES, (node - 1) % _CALIBRATION_NODES,
     (node * 7 + 3) % _CALIBRATION_NODES]
    for node in range(_CALIBRATION_NODES)
]


def host_seconds() -> float:
    """Seconds a fixed pure-Python BFS workload takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for source in range(0, _CALIBRATION_NODES, 8):
            distance = {source: 0}
            frontier = [source]
            while frontier:
                following = []
                for node in frontier:
                    for neighbor in _CALIBRATION_GRAPH[node]:
                        if neighbor not in distance:
                            distance[neighbor] = distance[node] + 1
                            following.append(neighbor)
                frontier = following
        best = min(best, time.perf_counter() - started)
    return best


def child_environment(install: str) -> Dict[str, str]:
    """The environment of every program command: only the installed copy.

    Bytecode writing is forced on, so set-up fills the cache the measured
    commands then read, whatever the caller's environment says.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env.update(
        PYTHONPATH=install,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_command(argv: List[str], env: Dict[str, str], cwd: str) -> Tuple[float, subprocess.CompletedProcess]:
    """Run one command to completion; return its wall time and result."""
    started = time.perf_counter()
    result = subprocess.run(
        argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=COMMAND_TIMEOUT
    )
    return time.perf_counter() - started, result


def set_up(work: str, count: int) -> Tuple[List[float], str]:
    """Install the package ``count`` times, timing each install + cold start.

    Returns the set-up times at reference host speed and the last install,
    whose bytecode cache is now warm.
    """
    times = []
    for index in range(count):
        install = os.path.join(work, f"install-{index}")
        before = host_seconds()
        started = time.perf_counter()
        shutil.copytree(SOURCE, os.path.join(install, "repro"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        _, result = run_command(
            [sys.executable, "-m", "repro", "quantum", "--list"],
            child_environment(install), work,
        )
        elapsed = time.perf_counter() - started
        times.append(elapsed * 2 * HOST_REFERENCE_SECONDS / (before + host_seconds()))
        if result.returncode != 0 or "exact_diameter" not in result.stdout:
            raise RuntimeError(f"cold start failed: {result.stderr.strip()}")
    return times, install


def seed_pool(workload: str, seed: int) -> List[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(SEED_POOL)]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = os.path.join(BUILD, f"perfbench-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        setup_times, install = set_up(work, 1 if trace else SETUPS)
        sys.path.insert(0, install)
        from repro.graphs import generators

        reference = Reference(generators)
        env = child_environment(install)
        store = os.path.join(work, "store.jsonl")
        trace_path = os.path.join(work, "trace.json")
        if trace:
            program = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path]
        else:
            program = [sys.executable, "-m", "repro"]
        export_argv = [sys.executable, "-m", "repro", "export", "--store", store, "--format", "csv"]
        pool = seed_pool(name, seed)
        exports: Dict[int, str] = {}
        grid_ms: List[float] = []
        export_ms: List[float] = []
        hosts: List[float] = []
        traces: List[Tuple[dict, float]] = []
        attempted = failed = 0
        deadline = time.perf_counter() + seconds
        # Every pool seed runs at least once, so the checks and the trace
        # counts cover the same inputs for a given --seed.
        while attempted < len(pool) or time.perf_counter() < deadline:
            cli_seed = pool[attempted % len(pool)]
            attempted += 1
            for path in (store, trace_path):
                if os.path.exists(path):
                    os.remove(path)
            grid_argv = program + [
                workload.command, *workload.args, "--seed", str(cli_seed), "--out", store,
            ]
            before = host_seconds()
            grid_time, grid = run_command(grid_argv, env, work)
            between = host_seconds()
            export_time, export = run_command(export_argv, env, work)
            after = host_seconds()
            problems = []
            if grid.returncode != 0 or export.returncode != 0:
                problems.append(f"exit codes {grid.returncode}/{export.returncode}: "
                                f"{grid.stderr.strip()[-2000:]} {export.stderr.strip()[-2000:]}")
            elif cli_seed not in exports:
                try:
                    problems = reference.check_store(store, workload.faulty)
                except (OSError, ValueError, KeyError) as error:
                    problems = [f"unreadable store: {error!r}"]
                exports[cli_seed] = export.stdout
            elif export.stdout != exports[cli_seed]:
                problems.append("export differs from the first run of the same seed")
            if problems:
                failed += 1
                print(f"seed {cli_seed}: " + "; ".join(problems), file=sys.stderr)
                continue
            grid_scale = 2 * HOST_REFERENCE_SECONDS / (before + between)
            grid_ms.append(grid_time * grid_scale * 1e3)
            export_ms.append(export_time * 2 * HOST_REFERENCE_SECONDS / (between + after) * 1e3)
            hosts.append(before)
            if trace:
                with open(trace_path, encoding="utf-8") as handle:
                    traces.append((json.load(handle), grid_scale))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not grid_ms:
        raise RuntimeError("no command succeeded")
    if trace:
        metrics = layer_metrics(traces, grid_ms, len(pool))
        metrics["host_calibration_ms"] = (statistics.median(hosts) * 1e3, "ms")
    else:
        metrics = {
            "grid_ms": (statistics.median(grid_ms), "ms"),
            "export_ms": (statistics.median(export_ms), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def layer_metrics(traces: List[Tuple[dict, float]], grid_ms: List[float], pool: int) -> dict:
    """Per-layer metrics from the traces of the successful grid commands."""
    missing = sorted({hook for trace, _ in traces for hook in trace["missing"]})
    if missing:
        print("hook points not found: " + ", ".join(missing), file=sys.stderr)
    metrics = {"traced_grid_ms": (statistics.median(grid_ms), "ms")}
    for span in SPAN_METRICS:
        values = [trace["spans"].get(span, 0.0) * scale * 1e3 for trace, scale in traces]
        metrics[f"{span}_ms"] = (statistics.median(values), "ms")
    for layer in SAMPLE_METRICS:
        values = [
            trace["samples"].get(layer, 0) / max(1, sum(trace["samples"].values()))
            * trace["cpu_seconds"] * scale * 1e3
            for trace, scale in traces
        ]
        metrics[f"cpu_{layer}_ms"] = (statistics.median(values), "ms")
    totals = Counter()
    for trace, _ in traces[:pool]:
        totals.update(trace["counts"])
    for count in COUNT_METRICS:
        metrics[count] = (totals[count] / pool, "count")
    lookups = totals["size_cache_hits"] + totals["size_cache_misses"]
    metrics["size_cache_hit_pct"] = (100.0 * totals["size_cache_hits"] / lookups if lookups else 0.0, "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SOURCE, "__main__.py")):
        print(f"no program to benchmark: {SOURCE} is missing", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
