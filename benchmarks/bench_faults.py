"""Fault-injection benchmark: success probability vs message-loss rate.

The deterministic fault layer (:mod:`repro.faults`) exists to ask a
question the clean simulator cannot: *how do the paper's building blocks
degrade on an unreliable network, and how much does a retry layer buy
back?*  This harness answers it for the 2-approximation workload:

* the **plain** 2-approximation (leader election + single BFS
  eccentricity) sends each message exactly once -- one lost activation
  silences a subtree and the run times out;
* the **retrying** 2-approximation
  (:func:`repro.algorithms.resilient.run_resilient_two_approximation`)
  rebroadcasts on an exponential-backoff schedule built on the self-wake
  API, trading a constant-factor message overhead for loss tolerance.

For each loss rate both variants run over a panel of seeds; a run
*succeeds* when it converges within the fault timeout **and** its
estimate satisfies the 2-approximation bound ``ceil(D/2) <= value <= D``.
The report carries the success-probability curve, the headline is the
smoothed success-odds ratio ``(retry_successes + 1) / (plain_successes +
1)`` at the headline loss rate, and two differential checks run inside
the workloads:

* at ``loss=0.0`` the faulty path must reproduce the clean (no fault
  model) run exactly -- estimate and full metrics;
* a delay-only model (``delay=0.3, max_delay=3``) loses no information,
  so the retrying variant must stay correct on every seed.

A third workload measures the absolute throughput of the fault path:
messages per second through a ``loss=0.1, delay=0.1`` run of the retrying
2-approximation on a fixed graph (best of several repeats, stamped with
``os.cpu_count()``).  It is informational; the headline does not use it.

Everything but the timings is deterministic (stateless hashed fault
decisions), so the headline is stable for fixed sizes and its floor in
each mode is exact: ``TARGET_ODDS_RATIO`` in full mode, ``SMOKE_FLOOR``
with ``--smoke``.  Results land in ``BENCH_faults.json`` next to the
repository root.

Run it standalone (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_faults.py
    PYTHONPATH=src python benchmarks/bench_faults.py --smoke

or through pytest (the ``test_`` wrapper asserts the success gap)::

    PYTHONPATH=src python -m pytest benchmarks/bench_faults.py -q
"""

from __future__ import annotations

import os
import time

from repro.algorithms.diameter_approx import run_classical_two_approximation
from repro.algorithms.resilient import run_resilient_two_approximation
from repro.congest.errors import CongestSimulationError
from repro.congest.network import Network
from repro.faults import FaultModel
from repro.graphs import generators

from _harness import Harness, report_path

#: The loss-rate curve of the full report.
LOSS_RATES = (0.0, 0.02, 0.05, 0.1, 0.15)

#: The loss rate the headline odds ratio is evaluated at.
HEADLINE_LOSS = 0.1

#: Per-run round budget under faults: failures abort here instead of at
#: the generic 64*(n+2) cap, keeping the failure rows cheap.
FAULT_TIMEOUT = 256

#: The fault mix of the throughput workload (the perfbench ``lossy`` one).
THROUGHPUT_MODEL = FaultModel(loss=0.1, delay=0.1)

#: Acceptance bar (full mode): at the headline loss rate the retrying
#: variant must succeed at strictly better smoothed odds than the plain
#: one.
TARGET_ODDS_RATIO = 1.5

#: The headline's ``--smoke`` floor: 75% of the last committed smoke
#: baseline.
SMOKE_FLOOR = 0.75 * 4.0

#: Where the results land (repository root, next to ROADMAP.md).
OUTPUT_PATH = report_path("BENCH_faults.json")


def _run_variant(variant: str, graph, seed: int, fault_model):
    """One run of one variant; returns ``(converged, estimate, metrics)``."""
    network = Network(graph, seed=seed, fault_model=fault_model)
    runner = (
        run_resilient_two_approximation
        if variant == "retry"
        else run_classical_two_approximation
    )
    try:
        result = runner(network)
    except (CongestSimulationError, RuntimeError):
        return False, None, None
    return True, result.estimate, result.metrics


def _succeeds(converged: bool, estimate, true_diameter: int) -> bool:
    """The success predicate: converged and 2-approximation-correct."""
    if not converged:
        return False
    return estimate <= true_diameter and 2 * estimate >= true_diameter


def _bench_loss_curve(nodes: int, seeds) -> dict:
    """Success probability of both variants across :data:`LOSS_RATES`."""
    graph = generators.family_for_sweep("clique_chain", nodes, seed=3)
    true_diameter = graph.compile().diameter()
    rows = []
    for loss in LOSS_RATES:
        fault_model = (
            FaultModel(loss=loss, timeout=FAULT_TIMEOUT) if loss else None
        )
        row = {"loss": loss}
        for variant in ("plain", "retry"):
            successes = 0
            dropped = 0
            started = time.perf_counter()
            for seed in seeds:
                converged, estimate, metrics = _run_variant(
                    variant, graph, seed, fault_model
                )
                if _succeeds(converged, estimate, true_diameter):
                    successes += 1
                if metrics is not None:
                    dropped += metrics.dropped_messages
                if loss == 0.0:
                    # Differential gate: with nothing to inject the
                    # (null-model) faulty path must reproduce the clean
                    # simulator exactly.
                    clean_converged, clean_estimate, clean_metrics = (
                        _run_variant(variant, graph, seed, None)
                    )
                    if (converged, estimate) != (clean_converged, clean_estimate):
                        raise AssertionError(
                            f"loss=0.0 {variant} run diverged from the "
                            f"clean run at seed {seed}"
                        )
                    if metrics != clean_metrics:
                        raise AssertionError(
                            f"loss=0.0 {variant} metrics diverged from the "
                            f"clean run at seed {seed}"
                        )
            row[f"{variant}_successes"] = successes
            row[f"{variant}_success_prob"] = round(successes / len(seeds), 4)
            row[f"{variant}_dropped_messages"] = dropped
            row[f"{variant}_seconds"] = round(time.perf_counter() - started, 6)
        rows.append(row)
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "family": "clique_chain",
        "true_diameter": true_diameter,
        "seeds": len(seeds),
        "fault_timeout": FAULT_TIMEOUT,
        "rows": rows,
    }


def _bench_delay_tolerance(nodes: int, seeds) -> dict:
    """Delay-only faults lose no information: retry must stay correct."""
    graph = generators.family_for_sweep("clique_chain", nodes, seed=3)
    true_diameter = graph.compile().diameter()
    fault_model = FaultModel(delay=0.3, max_delay=3, timeout=FAULT_TIMEOUT)
    successes = {"plain": 0, "retry": 0}
    delayed = 0
    for seed in seeds:
        for variant in ("plain", "retry"):
            converged, estimate, metrics = _run_variant(
                variant, graph, seed, fault_model
            )
            if _succeeds(converged, estimate, true_diameter):
                successes[variant] += 1
            elif variant == "retry":
                raise AssertionError(
                    f"retry variant failed under delay-only faults at seed "
                    f"{seed} (estimate {estimate!r}, D={true_diameter})"
                )
            if metrics is not None:
                delayed += metrics.delayed_messages
    return {
        "nodes": graph.num_nodes,
        "delay": 0.3,
        "max_delay": 3,
        "seeds": len(seeds),
        "delayed_messages": delayed,
        "plain_successes": successes["plain"],
        "retry_successes": successes["retry"],
    }


def _bench_fault_throughput(nodes: int, repeats: int) -> dict:
    """Messages per second through the fault-injecting delivery path."""
    graph = generators.family_for_sweep("clique_chain", nodes, seed=3)
    best = float("inf")
    counts = None
    for _ in range(repeats):
        network = Network(graph, seed=1, fault_model=THROUGHPUT_MODEL)
        started = time.perf_counter()
        metrics = run_resilient_two_approximation(network).metrics
        best = min(best, time.perf_counter() - started)
        run_counts = (
            metrics.messages, metrics.dropped_messages, metrics.delayed_messages
        )
        if counts is not None and run_counts != counts:
            raise AssertionError("repeated fault runs diverged")
        counts = run_counts
    messages, dropped, delayed = counts
    return {
        "family": "clique_chain",
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "loss": THROUGHPUT_MODEL.loss,
        "delay": THROUGHPUT_MODEL.delay,
        "messages": messages,
        "dropped_messages": dropped,
        "delayed_messages": delayed,
        "repeats": repeats,
        "best_seconds": round(best, 6),
        "messages_per_second": round(messages / best),
        "cpu_count": os.cpu_count(),
    }


def run_benchmark(smoke: bool = False) -> dict:
    """Measure all workloads; return the report."""
    nodes = 24 if smoke else 32
    seeds = tuple(range(3)) if smoke else tuple(range(8))
    curve = _bench_loss_curve(nodes, seeds)
    headline_row = next(
        row for row in curve["rows"] if row["loss"] == HEADLINE_LOSS
    )
    # Smoothed success-odds ratio: deterministic, finite even when the
    # plain variant never succeeds, and > 1 exactly when retry wins.
    odds_ratio = round(
        (headline_row["retry_successes"] + 1)
        / (headline_row["plain_successes"] + 1),
        2,
    )
    report = {
        "smoke": smoke,
        "workloads": {
            "loss_curve_clique_chain": curve,
            "delay_tolerance": _bench_delay_tolerance(nodes, seeds),
            "fault_throughput": _bench_fault_throughput(
                96 if smoke else 192, 3 if smoke else 5
            ),
        },
        "headline_loss": HEADLINE_LOSS,
        "headline_speedup": odds_ratio,
    }
    return report


HARNESS = Harness(
    run_benchmark, OUTPUT_PATH, smoke_floor=SMOKE_FLOOR,
    full_floor=TARGET_ODDS_RATIO, description=__doc__,
)


def test_fault_success_gap():
    """The fault layer's acceptance bar: at the headline loss rate the
    retrying 2-approximation succeeds at better smoothed odds than the
    plain one (the loss=0 differential identity and the delay-tolerance
    gate are asserted inside the workloads)."""
    HARNESS.gate(run_benchmark())


if __name__ == "__main__":
    raise SystemExit(HARNESS.main())
