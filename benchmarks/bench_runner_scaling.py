"""Benchmark: batch-runner scaling and engine hot-path before/after.

Two measurements, written to ``BENCH_runner.json`` next to the repository
root so later PRs can track the perf trajectory (sibling of
``BENCH_engine.json``):

* **Across-run parallelism** -- a Table-1-style grid (several graph
  families and sizes, three algorithms per point) executed through
  :func:`repro.analysis.sweep.run_sweep_grid`, serially and with
  ``--jobs`` workers.  The records must be byte-identical; only the
  wall-clock may differ.  The achievable speedup is bounded by the
  machine: on an N-core box the ideal is ~min(jobs, N), and on a 1-core
  box parallel ~= serial (the report records ``cpu_count`` so the number
  can be interpreted).
* **Hot-path optimization** -- the per-run transport work, measured
  before/after *in the same process*: the seed engine's
  ``(type, repr(payload))`` memo keying and per-message ``has_edge``
  delivery versus the current direct sizing
  (:func:`repro.congest.message.message_size_bits`) and prebound
  neighbour sets.  The "before" path is replicated faithfully by
  :class:`LegacyTransport` below and assigned as the network's
  ``transport``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_runner_scaling.py [--jobs 4] [--smoke]

or through pytest (asserts record identity always, and the parallel
speedup only on machines with enough cores to make it physically
possible)::

    PYTHONPATH=src python -m pytest benchmarks/bench_runner_scaling.py -q

Either way :func:`check` gates the report, and with ``--smoke`` the
headline (the grid speedup) must reach ``SMOKE_FLOOR``.
"""

from __future__ import annotations

import os
import time

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.multi_source_bfs import run_multi_source_bfs
from repro.analysis.sweep import run_sweep_grid
from repro.congest.message import message_size_bits
from repro.congest.network import Network
from repro.engine.scheduler import DenseScheduler
from repro.engine.transport import Transport
from repro.graphs import generators
from repro.runner import BatchRunner, GraphSpec, resolve_algorithms

from _harness import Harness, report_path

#: Where the results land (repository root, next to ROADMAP.md).
OUTPUT_PATH = report_path("BENCH_runner.json")

#: Worker count of the headline parallel measurement.
DEFAULT_JOBS = 4

#: The headline's ``--smoke`` floor: 75% of the last committed smoke
#: baseline (at ``DEFAULT_JOBS``).
SMOKE_FLOOR = 0.75 * 0.8

#: The Table-1-style grid: families x sizes, three algorithms per point.
GRID_FAMILIES = ("controlled", "clique_chain", "cycle")
GRID_SIZES = (48, 72, 96)
SMOKE_SIZES = (24, 32)
GRID_ALGORITHMS = ("classical_exact", "two_approx", "hprw_three_halves")


def _grid_specs(sizes):
    return tuple(
        GraphSpec(
            family=family,
            num_nodes=n,
            diameter=6 if family == "controlled" else None,
            seed=1,
        )
        for family in GRID_FAMILIES
        for n in sizes
    )


#: Each grid timing is the best of this many runs: one run of the smoke
#: grid sits inside a shared host's noise.
GRID_REPEATS = 3


def _time_grid(specs, algorithms, jobs):
    best = float("inf")
    for _ in range(GRID_REPEATS):
        runner = BatchRunner(jobs=jobs)
        start = time.perf_counter()
        records = run_sweep_grid(specs, algorithms, runner=runner, base_seed=1)
        best = min(best, time.perf_counter() - start)
    return best, records


class LegacyTransport(Transport):
    """The pre-optimization transport, for the before/after measurement.

    Replicates the seed engine's hot path: memo keyed by
    ``(type, repr(payload))`` for every payload, up to ``size_cache_limit``
    entries, and a ``graph.has_edge`` call per message instead of a
    prebound neighbour set.
    """

    size_cache_limit = 65536

    def __init__(self, graph, bandwidth_bits, strict_bandwidth):
        super().__init__(graph, bandwidth_bits, strict_bandwidth)
        self._size_cache = {}

    def measure(self, payload):
        try:
            key = (payload.__class__, repr(payload))
        except Exception:
            return message_size_bits(payload)
        cache = self._size_cache
        size = cache.get(key)
        if size is None:
            size = message_size_bits(payload)
            if len(cache) < self.size_cache_limit:
                cache[key] = size
        return size

    def deliver_round(self, round_number, sends, next_inboxes, metrics,
                      listeners=(), plan=None, pending=None):
        # The seed engine delivered each outbox right after its node ran.
        for sender, outbox in sends:
            self.deliver(round_number, sender, outbox, next_inboxes, metrics,
                         listeners, plan, pending)

    def deliver(self, round_number, sender, outbox, next_inboxes, metrics,
                listeners=(), plan=None, pending=None):
        from repro.congest.errors import BandwidthExceededError, ProtocolError

        graph = self.graph
        budget = self.bandwidth_bits
        for target, payload in outbox.items():
            if not graph.has_edge(sender, target):
                raise ProtocolError(
                    f"node {sender!r} tried to send to non-neighbour {target!r}"
                )
            size = self.measure(payload)
            violation = size > budget
            # Per-message accounting, as the seed's metrics observer did.
            metrics.messages += 1
            metrics.total_bits += size
            if size > metrics.max_edge_bits_per_round:
                metrics.max_edge_bits_per_round = size
            if violation:
                metrics.bandwidth_violations += 1
            for listener in listeners:
                listener(round_number, sender, target, payload, size, violation)
            if violation and self.strict_bandwidth:
                raise BandwidthExceededError(
                    f"round {round_number}: node {sender!r} sent {size} bits "
                    f"to {target!r} (budget {budget} bits)"
                )
            inbox = next_inboxes.get(target)
            if inbox is None:
                inbox = next_inboxes[target] = {}
            inbox[sender] = payload


def _network_with_transport(graph, transport_cls):
    network = Network(graph, scheduler=DenseScheduler())
    network.transport = transport_cls(
        network.graph, network.bandwidth_bits, network.strict_bandwidth
    )
    return network


def _legacy_deliver_runs():
    """Whether a network on :class:`LegacyTransport` routes its rounds
    through the legacy per-message ``deliver`` (checked on a small,
    untimed run, so the timed legacy arm does the seed engine's work)."""
    graph = generators.path_graph(3)
    network = _network_with_transport(graph, LegacyTransport)
    calls = []
    legacy_deliver = network.transport.deliver

    def recording_deliver(*args):
        calls.append(args)
        return legacy_deliver(*args)

    network.transport.deliver = recording_deliver
    run_bfs_tree(network, graph.nodes()[0])
    return bool(calls)


def _time_traffic_workload(scale, transport_cls, repeats=3):
    """Wall-clock of two message-heavy workloads with the given transport.

    The transport's share of the round loop grows with messages per round,
    so the before/after comparison uses dense-traffic workloads: BFS on a
    complete graph (every edge busy every round) and pipelined
    multi-source BFS on a clique chain (wide waves for many rounds).
    """
    complete = generators.complete_graph(scale)
    chain = generators.clique_chain(num_cliques=scale // 3, clique_size=6)
    sources = chain.nodes()[:8]
    best = float("inf")
    results = None
    for _ in range(repeats):
        complete_net = _network_with_transport(complete, transport_cls)
        chain_net = _network_with_transport(chain, transport_cls)
        start = time.perf_counter()
        tree = run_bfs_tree(complete_net, complete.nodes()[0])
        multi = run_multi_source_bfs(chain_net, sources)
        best = min(best, time.perf_counter() - start)
        results = (tree, multi)
    return best, results


#: Timed runs per keying arm; each arm's time is its best run.
KEYING_REPEATS = 3


def _time_measure_keying(repeats=200_000):
    """Sizing microbenchmark: legacy repr keying (a warm cache) vs sizing
    each payload directly.

    Each arm is timed ``KEYING_REPEATS`` times, the arms alternating which
    goes first, and keeps its best run, so one busy moment of the host
    does not decide the ratio.
    """
    payloads = [("bfs", 5), ("w", 3, 7), ("d-is", 12), 5, "token",
                ("bfs", 6), None, ("w", 2, 9)]
    legacy = LegacyTransport(generators.path_graph(4), 64, True).measure
    for payload in payloads:  # warm the cache: steady-state keying cost
        legacy(payload)
    arms = [("legacy", legacy), ("optimized", message_size_bits)]
    timings = {label: float("inf") for label, _ in arms}
    for _ in range(KEYING_REPEATS):
        for label, size_of in arms:
            start = time.perf_counter()
            for _ in range(repeats):
                for payload in payloads:
                    size_of(payload)
            timings[label] = min(timings[label], time.perf_counter() - start)
        arms.reverse()
    return timings


def run_benchmark(jobs: int = DEFAULT_JOBS, smoke: bool = False) -> dict:
    """Measure grid scaling and the hot path; return the report."""
    report = {
        "cpu_count": os.cpu_count() or 1,
        "jobs": jobs,
        "smoke": smoke,
    }

    # Part 1: the Table-1-style grid, serial vs --jobs.
    specs = _grid_specs(SMOKE_SIZES if smoke else GRID_SIZES)
    algorithms = resolve_algorithms(GRID_ALGORITHMS)
    serial_seconds, serial_records = _time_grid(specs, algorithms, jobs=1)
    parallel_seconds, parallel_records = _time_grid(specs, algorithms, jobs=jobs)
    if serial_records != parallel_records:
        raise AssertionError("parallel sweep records differ from serial records")
    report["grid"] = {
        "families": list(GRID_FAMILIES),
        "sizes": list(SMOKE_SIZES if smoke else GRID_SIZES),
        "algorithms": list(GRID_ALGORITHMS),
        "tasks": len(specs) * len(GRID_ALGORITHMS),
        "records": len(serial_records),
        "records_identical": True,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / max(parallel_seconds, 1e-9), 2),
        "ideal_speedup": min(jobs, os.cpu_count() or 1),
    }

    # Part 2: the hot path, before/after on the same workloads.
    scale = 48 if smoke else 120
    if not _legacy_deliver_runs():
        raise AssertionError("the legacy arm does not run LegacyTransport.deliver")
    legacy_seconds, legacy_results = _time_traffic_workload(scale, LegacyTransport)
    optimized_seconds, optimized_results = _time_traffic_workload(scale, Transport)
    legacy_tree, legacy_multi = legacy_results
    optimized_tree, optimized_multi = optimized_results
    if legacy_tree.distance != optimized_tree.distance:
        raise AssertionError("hot-path optimization changed BFS distances")
    if legacy_tree.metrics != optimized_tree.metrics:
        raise AssertionError("hot-path optimization changed BFS metrics")
    if legacy_multi.distances != optimized_multi.distances:
        raise AssertionError("hot-path optimization changed MS-BFS distances")
    if legacy_multi.metrics != optimized_multi.metrics:
        raise AssertionError("hot-path optimization changed MS-BFS metrics")
    keying = _time_measure_keying(repeats=20_000 if smoke else 200_000)
    report["hot_path"] = {
        "workload_scale": scale,
        "legacy_seconds": round(legacy_seconds, 6),
        "optimized_seconds": round(optimized_seconds, 6),
        "end_to_end_speedup": round(
            legacy_seconds / max(optimized_seconds, 1e-9), 3
        ),
        "keying_legacy_seconds": round(keying["legacy"], 6),
        "keying_optimized_seconds": round(keying["optimized"], 6),
        "keying_speedup": round(
            keying["legacy"] / max(keying["optimized"], 1e-9), 3
        ),
        "results_identical": True,
    }

    report["headline_speedup"] = report["grid"]["speedup"]
    return report


def check(report: dict) -> list:
    """The gates besides the headline floor; returns the ones that fail.

    Parallel records and hot-path results are identical in both modes.
    In full mode the hot path's keying must also be faster, and where
    ``--jobs`` workers can run on as many cores (>= 4) the grid must
    reach the >= 3x ``--jobs 4`` criterion (process parallelism cannot
    beat the core count, so smaller boxes record the number without the
    gate).
    """
    gates = {
        "parallel records identical": report["grid"]["records_identical"],
        "hot-path results identical": report["hot_path"]["results_identical"],
    }
    if not report["smoke"]:
        gates["keying speedup >= 1.2x"] = (
            report["hot_path"]["keying_speedup"] >= 1.2
        )
        if report["grid"]["ideal_speedup"] >= 4:
            gates["grid speedup >= 3.0x"] = report["grid"]["speedup"] >= 3.0
    return [gate for gate, held in gates.items() if not held]


HARNESS = Harness(
    run_benchmark, OUTPUT_PATH, smoke_floor=SMOKE_FLOOR, full_floor=None,
    check=check, description=__doc__,
)


def test_parallel_records_identical_and_hot_path_faster():
    """Acceptance: byte-identical parallel records; hot path not slower
    (:func:`check`)."""
    HARNESS.gate(run_benchmark())


if __name__ == "__main__":
    parser = HARNESS.parser()
    parser.add_argument("--jobs", type=int, default=DEFAULT_JOBS,
                        help="worker processes for the parallel grid run")
    raise SystemExit(HARNESS.main(parser=parser))
