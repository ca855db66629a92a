"""Micro-benchmark: the numpy oracle kernel vs the stdlib reference path.

The oracles' vector band exists because the bitset regime of the
all-eccentricities oracle -- the correctness gate of every large sweep --
spends its time OR-ing reachability sets, and a 64-source batched
Takes-Kosters sweep over ``uint64`` words (:mod:`repro.graphs.vector`)
covers the same ground in a handful of vectorized passes.

This harness measures the headline ``all_eccentricities`` oracle on an
n>=4000 clique chain, numpy kernel vs the stdlib dispatch (the
acceptance bar: >= 5x), results asserted identical.  The stdlib side
hides numpy from the oracle, as the tests' ``reference_paths`` switch
does.

Results land in ``BENCH_vector.json`` next to the repository root.

Run it standalone (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_vector.py
    PYTHONPATH=src python benchmarks/bench_vector.py --smoke

or through pytest (the ``test_`` wrappers assert the speedup bars)::

    PYTHONPATH=src python -m pytest benchmarks/bench_vector.py -q
"""

from __future__ import annotations

import time
from unittest import mock

import repro.graphs.indexed as indexed
from repro._numpy import require_numpy
from repro.graphs import generators

from _harness import Harness, report_path

#: Node count of the headline all-eccentricities workload (>= 4000 so the
#: batched sweep amortises its block setup).
ORACLE_NODES = 4096

#: Acceptance bar for the headline oracle (full mode).
TARGET_SPEEDUP = 5.0

#: The headline's ``--smoke`` floor (smaller sizes amortise the fast
#: path's setup less): 75% of the last committed smoke baseline.
SMOKE_FLOOR = 0.75 * 2.66

#: Where the results land (repository root, next to ROADMAP.md).
OUTPUT_PATH = report_path("BENCH_vector.json")


def _time(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


#: Each oracle timing is the best of this many runs: one run of the
#: smoke size sits inside a shared host's noise.
REPEATS = 3


def _time_oracle(nodes: int, stdlib: bool):
    """End-to-end oracle timing (fresh graph + compile), numpy hidden
    from the oracle when ``stdlib``; the best of ``REPEATS`` runs, each
    on its own fresh graph."""
    if not stdlib:
        # Import numpy up front, so the timing covers the oracle only.
        require_numpy("the vector oracle benchmark")
    best = float("inf")
    for _ in range(REPEATS):
        graph = generators.family_for_sweep("clique_chain", nodes, seed=3)
        if stdlib:
            with mock.patch.object(indexed, "numpy_or_none", lambda: None):
                seconds, value = _time(lambda: graph.compile().all_eccentricities())
        else:
            seconds, value = _time(lambda: graph.compile().all_eccentricities())
        best = min(best, seconds)
    return best, value


def _bench_all_eccentricities(nodes: int) -> dict:
    """Headline workload: the full eccentricity oracle, stdlib vs numpy.

    Both timings go through the public dispatch, include ``compile()``
    and run on freshly built graphs, so the reported speedup is what a
    sweep's correctness gate sees.
    """
    stdlib_seconds, stdlib_result = _time_oracle(nodes, stdlib=True)
    numpy_seconds, numpy_result = _time_oracle(nodes, stdlib=False)
    if numpy_result != stdlib_result or list(numpy_result) != list(stdlib_result):
        raise AssertionError("numpy and stdlib eccentricity oracles disagree")
    graph = generators.family_for_sweep("clique_chain", nodes, seed=3)
    return {
        "nodes": graph.num_nodes,
        "edges": graph.num_edges,
        "family": "clique_chain",
        "diameter": max(stdlib_result.values()),
        "stdlib_seconds": round(stdlib_seconds, 6),
        "numpy_seconds": round(numpy_seconds, 6),
        "speedup": round(stdlib_seconds / max(numpy_seconds, 1e-9), 2),
    }


def run_benchmark(smoke: bool = False) -> dict:
    """Measure the oracle workload; return the report."""
    oracle_nodes = 1500 if smoke else ORACLE_NODES
    report = {
        "smoke": smoke,
        "workloads": {
            "all_eccentricities_clique_chain": _bench_all_eccentricities(
                oracle_nodes
            ),
        },
    }
    report["headline_speedup"] = report["workloads"][
        "all_eccentricities_clique_chain"
    ]["speedup"]
    return report


HARNESS = Harness(
    run_benchmark, OUTPUT_PATH, smoke_floor=SMOKE_FLOOR,
    full_floor=TARGET_SPEEDUP, description=__doc__,
)


def test_vector_oracle_speedup():
    """The numpy kernel's acceptance bar: >= 5x on the n>=4000 clique-chain
    all-eccentricities oracle, byte-identical results (the identity is
    asserted inside the workload)."""
    HARNESS.gate(run_benchmark())


if __name__ == "__main__":
    raise SystemExit(HARNESS.main())
