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

import argparse
import json
import os
import time
from unittest import mock

import repro.graphs.indexed as indexed
from repro._numpy import require_numpy
from repro.graphs import generators

#: Node count of the headline all-eccentricities workload (>= 4000 so the
#: batched sweep amortises its block setup).
ORACLE_NODES = 4096

#: Acceptance bar for the headline oracle (full mode).
TARGET_SPEEDUP = 5.0

#: Relaxed bar asserted in ``--smoke`` mode (n=1500; smaller graphs
#: amortise the per-block numpy overhead less, and CI boxes are noisy).
SMOKE_TARGET_SPEEDUP = 1.5

#: Where the results land (repository root, next to ROADMAP.md).
OUTPUT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_vector.json",
)


def _time(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _time_oracle(nodes: int, stdlib: bool):
    """End-to-end oracle timing (fresh graph + compile), numpy hidden
    from the oracle when ``stdlib``."""
    graph = generators.family_for_sweep("clique_chain", nodes, seed=3)
    if stdlib:
        with mock.patch.object(indexed, "numpy_or_none", lambda: None):
            return _time(lambda: graph.compile().all_eccentricities())
    # Import numpy up front, so the timing covers the oracle only.
    require_numpy("the vector oracle benchmark")
    return _time(lambda: graph.compile().all_eccentricities())


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


def write_report(report: dict, path: str = OUTPUT_PATH) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def test_vector_oracle_speedup():
    """The numpy kernel's acceptance bar: >= 5x on the n>=4000 clique-chain
    all-eccentricities oracle, byte-identical results (the identity is
    asserted inside the workload)."""
    report = run_benchmark()
    write_report(report)
    assert report["headline_speedup"] >= TARGET_SPEEDUP, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI (relaxed speedup bar)",
    )
    parser.add_argument(
        "--out",
        default=OUTPUT_PATH,
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    report = run_benchmark(smoke=args.smoke)
    destination = write_report(report, args.out)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"written to {destination}")
    bar = SMOKE_TARGET_SPEEDUP if args.smoke else TARGET_SPEEDUP
    if report["headline_speedup"] < bar:
        print(
            f"FAIL: headline speedup {report['headline_speedup']}x "
            f"is below the {bar}x bar"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
