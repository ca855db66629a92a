"""Regression: runs are reproducible across ``PYTHONHASHSEED`` values.

An earlier revision stored neighbourhoods in ``set``s, whose iteration
order for tuple (and string) node labels is randomised per process: two
identical runs under different hash seeds could report neighbours, BFS
discovery orders and component listings in different orders.  The graph
core now keeps adjacency insertion-ordered, so everything derived from it
-- including full sweep records -- must be byte-identical across hash
seeds.

The test executes the same scenario script in two subprocesses with
different ``PYTHONHASHSEED`` values and compares their JSON output
verbatim.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: The scenario: a tuple-labelled graph exercised end-to-end -- neighbour
#: order, BFS discovery order, component order, a full sweep with the
#: correctness gate, and a distributed BFS over the engine.
_SCRIPT = r"""
import json
import sys

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.diameter_exact import run_classical_exact_diameter
from repro.analysis.sweep import run_sweep_grid
from repro.congest.network import Network
from repro.graphs.graph import Graph
from repro.runner import GraphSpec
from repro.runner.algorithms import SweepAlgorithmInfo, EXACT

graph = Graph()
for i in range(12):
    graph.add_edge(("ring", i), ("ring", (i + 1) % 12))
for i in (0, 4, 8):
    graph.add_edge(("ring", i), ("spoke", i))
    graph.add_edge(("spoke", i), ("hub", "center"))

class WheelSpec(GraphSpec):
    def build(self):
        return graph

def exact_kernel(g, seed, fault):
    result = run_classical_exact_diameter(Network(g, seed=3, fault_model=fault))
    return result.rounds, float(result.diameter)

records = run_sweep_grid(
    [WheelSpec(family="tuple-wheel", num_nodes=graph.num_nodes)],
    {"classical_exact": SweepAlgorithmInfo(exact_kernel, guarantee=EXACT)},
)

tree = run_bfs_tree(Network(graph, seed=3), ("hub", "center"))

split = Graph(nodes=[("a", 1), ("b", 2)], edges=[])
split.add_edge(("a", 1), ("a", 2))
split.add_edge(("b", 2), ("b", 3))

out = {
    "hash_randomised": sys.flags.hash_randomization,
    "neighbors": [[repr(n), [repr(v) for v in graph.neighbors(n)]]
                  for n in graph.nodes()],
    "csr_neighbors": [[repr(n), [repr(v) for v in graph.compile().neighbors(n)]]
                      for n in graph.nodes()],
    "bfs_order": [repr(n) for n in graph.bfs_distances(("hub", "center"))],
    "components": [sorted(map(repr, c)) for c in split.connected_components()],
    "eccentricities": [[repr(n), e]
                       for n, e in graph.compile().all_eccentricities().items()],
    "records": [[r.family, r.algorithm, r.num_nodes, r.diameter, r.rounds,
                 r.value, r.correct, sorted(r.extra.items())] for r in records],
    "bfs_tree": sorted((repr(n), repr(p)) for n, p in tree.parent.items()),
    "bfs_metrics": [tree.metrics.rounds, tree.metrics.messages,
                    tree.metrics.total_bits],
}
print(json.dumps(out, sort_keys=True))
"""


def _run_with_hash_seed(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout)


def test_sweep_records_identical_across_hash_seeds():
    first = _run_with_hash_seed("1")
    second = _run_with_hash_seed("4242")
    # Make sure the subprocesses really ran under different, active hash
    # randomisation (otherwise the comparison proves nothing).
    assert first["hash_randomised"] == second["hash_randomised"] == 1
    for key in first:
        if key == "hash_randomised":
            continue
        assert first[key] == second[key], f"{key} differs across PYTHONHASHSEED"


#: The quantum scenario: the full Theorem-7 stack -- both schedule
#: backends, the seed-stream split of the quantum kernels, all four
#: registered problems, a tuple-labelled graph, and a quantum sweep with
#: the custom-oracle correctness gate.  Everything derives randomness
#: from CRC-based task seeds and insertion-ordered adjacency, so the JSON
#: must be verbatim-identical across hash seeds.
_QUANTUM_SCRIPT = r"""
import json
import sys

from repro.analysis.sweep import run_sweep_grid
from repro.congest.network import Network
from repro.core import (
    quantum_exact_diameter,
    quantum_exact_radius,
    quantum_source_eccentricity,
    quantum_three_halves_diameter,
)
from repro.graphs.graph import Graph
from repro.quantum.backend import BatchedScheduleBackend, SamplingScheduleBackend
from repro.runner import GraphSpec, resolve_algorithms

graph = Graph()
for i in range(10):
    graph.add_edge(("ring", i), ("ring", (i + 1) % 10))
graph.add_edge(("ring", 0), ("chord", "x"))
graph.add_edge(("chord", "x"), ("ring", 5))

runs = {}
for name, backend in (("sampling", SamplingScheduleBackend()),
                      ("batched", BatchedScheduleBackend())):
    result = quantum_exact_diameter(
        Network(graph, seed=2, bandwidth_bits=160), oracle_mode="reference",
        seed=7, backend=backend
    )
    runs[name] = [
        result.diameter, result.rounds, repr(result.leader),
        result.counts.setup_calls, result.counts.evaluation_calls,
        result.counts.measurements,
    ]

radius = quantum_exact_radius(
    Network(graph, seed=2, bandwidth_bits=160), oracle_mode="reference", seed=3
)

problems = {}
for name, entry, field in (
    ("exact_diameter", quantum_exact_diameter, "diameter"),
    ("radius", quantum_exact_radius, "radius"),
    ("source_ecc", quantum_source_eccentricity, "eccentricity"),
    ("three_halves", quantum_three_halves_diameter, "estimate"),
):
    run = entry(Network(graph, seed=1, bandwidth_bits=160),
                oracle_mode="reference", seed=5)
    problems[name] = [float(getattr(run, field)), run.rounds,
                      run.counts.evaluation_calls]

records = run_sweep_grid(
    (GraphSpec(family="clique_chain", num_nodes=12, seed=4),),
    resolve_algorithms(["quantum_exact", "quantum_radius", "quantum_source_ecc"]),
    base_seed=9,
)

out = {
    "hash_randomised": sys.flags.hash_randomization,
    "backend_runs": runs,
    "radius": [radius.radius, repr(radius.center), radius.rounds],
    "problems": problems,
    "records": [[r.family, r.algorithm, r.num_nodes, r.diameter, r.rounds,
                 r.value, r.correct, sorted(r.extra.items())] for r in records],
}
print(json.dumps(out, sort_keys=True))
"""


def test_quantum_stack_identical_across_hash_seeds():
    """Regression for the quantum seed-stream isolation work: schedule,
    network and graph streams are derived with CRC task seeds, so the
    whole quantum stack (both backends, all registered problems, quantum
    sweep records) must be reproducible under hash randomisation."""
    env = dict(os.environ)

    def run(seed: str) -> dict:
        env["PYTHONHASHSEED"] = seed
        existing = os.environ.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
        result = subprocess.run(
            [sys.executable, "-c", _QUANTUM_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return json.loads(result.stdout)

    first = run("1")
    second = run("4242")
    assert first["hash_randomised"] == second["hash_randomised"] == 1
    # The two backends must agree inside each subprocess as well.
    assert first["backend_runs"]["sampling"] == first["backend_runs"]["batched"]
    for key in first:
        if key == "hash_randomised":
            continue
        assert first[key] == second[key], f"{key} differs across PYTHONHASHSEED"
