"""Generate ``engine_golden.json``: a pinned record of engine behaviour.

The fixture freezes what the CONGEST round loop produces on a small test
matrix, so a rewrite of the engine can be checked for byte-identity
against the code that wrote the fixture:

* {dense, sparse} schedulers x {null, loss+delay, crash+restart, churn}
  fault models x {BFS tree, multi-source BFS, resilient 2-approximation,
  classical exact diameter, [HPRW14] 3/2-approximation, forward-all
  distance waves} on a clique chain and a cycle.  Each case
  records the algorithm's result (every field, including every
  ``ExecutionMetrics`` field) -- or the error it raised -- and the
  sha256 of the ``record_traffic`` logs of all its ``Network.run`` calls;
* the error type and message of the strict-bandwidth, non-neighbour,
  round-cap and quiescence aborts;
* a nested run under a persistent ``StitchedTrafficObserver``;
* fixed-length (``exact_rounds``) runs that end while crashes and
  restarts are still ahead, which pins where the fault counters stop.

Usage (from the repository root)::

    PYTHONPATH=src python tests/data/make_engine_golden.py tests/data/engine_golden.json

``tests/test_engine_golden.py`` imports :func:`collect` and compares its
output with the committed fixture.
"""

from __future__ import annotations

import hashlib
import json
import sys

from repro.algorithms.bfs import run_bfs_tree
from repro.algorithms.diameter_approx import run_hprw_three_halves_approximation
from repro.algorithms.diameter_exact import run_classical_exact_diameter
from repro.algorithms.multi_source_bfs import run_multi_source_bfs
from repro.algorithms.resilient import run_resilient_two_approximation
from repro.algorithms.waves import WaveScheduleEntry, run_distance_waves
from repro.congest.errors import CongestSimulationError
from repro.congest.network import Network
from repro.congest.node import NodeAlgorithm
from repro.engine import DenseScheduler, SparseScheduler, StitchedTrafficObserver
from repro.faults import FaultModel
from repro.graphs import generators

#: The dense reference and the production sparse scheduler, by key prefix.
ENGINES = {"dense": DenseScheduler, "sparse": SparseScheduler}

FAULT_MODELS = {
    "null": FaultModel(),
    "loss_delay": FaultModel(loss=0.08, delay=0.2, max_delay=3, timeout=400),
    "crash_restart": FaultModel(
        crash=0.1, crash_window=6, down_rounds=3, timeout=400
    ),
    "churn": FaultModel(churn=0.03, timeout=400),
}

GRAPHS = {
    "clique_chain_16": lambda: generators.family_for_sweep("clique_chain", 16, seed=3),
    "cycle_12": lambda: generators.family_for_sweep("cycle", 12, seed=3),
}


def _root(graph):
    return min(graph.nodes(), key=repr)


def _forward_all_waves(network):
    """The forward-all ablation on a staggered schedule: colliding waves
    are forwarded together as list payloads, over budget but counted."""
    network.strict_bandwidth = False
    nodes = sorted(network.graph.nodes(), key=repr)
    schedule = {
        node: WaveScheduleEntry(start_round=index % 4, tag=index)
        for index, node in enumerate(nodes)
    }
    return run_distance_waves(network, schedule, 2 * len(nodes) + 4, forward_all=True)


ALGORITHMS = {
    "bfs_tree": lambda network: run_bfs_tree(network, _root(network.graph)),
    "multi_source_bfs": lambda network: run_multi_source_bfs(
        network, sorted(network.graph.nodes(), key=repr)[::4]
    ),
    "resilient_two_approx": run_resilient_two_approximation,
    "classical_exact_diameter": run_classical_exact_diameter,
    "hprw_three_halves": lambda network: run_hprw_three_halves_approximation(
        network, seed=5
    ),
    "forward_all_waves": _forward_all_waves,
}


def canonical(value):
    """A JSON-ready form of ``value`` that keeps every field and order."""
    fields = getattr(type(value), "_fields", None)  # a record or a named tuple
    if fields is not None:
        return {name: canonical(getattr(value, name)) for name in fields}
    if isinstance(value, dict):
        return [[repr(key), canonical(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(repr(item) for item in value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


#: What an algorithm may raise when a fault stalls it: simulator aborts and
#: the drivers' unreached-node ``RuntimeError``.
SIMULATION_ERRORS = (CongestSimulationError, RuntimeError)


def _error(error):
    return {"type": type(error).__name__, "message": str(error)}


def _outcome(build, algorithm):
    """Run ``algorithm`` twice on fresh networks: once as-is (result or
    error), once with every ``Network.run`` recording traffic."""
    try:
        outcome = {"result": canonical(algorithm(build()))}
    except SIMULATION_ERRORS as error:  # a faulty run may abort
        outcome = {"error": _error(error)}

    network = build()
    run = network.run
    digest = hashlib.sha256()

    def recording_run(factory, max_rounds=None, exact_rounds=None, record_traffic=False):
        result = run(factory, max_rounds=max_rounds, exact_rounds=exact_rounds,
                     record_traffic=True)
        digest.update(repr(result.traffic).encode("utf-8"))
        return result

    network.run = recording_run
    try:
        algorithm(network)
    except SIMULATION_ERRORS:
        pass
    outcome["traffic_sha256"] = digest.hexdigest()
    return outcome


# -- abort probes -----------------------------------------------------------
class _Chatterbox(NodeAlgorithm):
    """Broadcasts an over-budget payload in round 0."""

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0:
            return self.broadcast("x" * 4096)
        return {}


class _BadSender(NodeAlgorithm):
    """Node 0 sends to a node that does not exist."""

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0 and self.node_id == 0:
            return {999: "hello"}
        return {}


class _NeverFinishes(NodeAlgorithm):
    def on_round(self, round_number, inbox):
        return self.broadcast(1)


class _SilentlyStuck(NodeAlgorithm):
    def on_round(self, round_number, inbox):
        return {}


class _Ping(NodeAlgorithm):
    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0 and self.node_id == 0:
            return self.send_to(self.neighbors[0], ("p",))
        return {}


class _NestingPing(NodeAlgorithm):
    """Node 0 runs a nested protocol on the same network, then pings."""

    def __init__(self, node_id, neighbors, num_nodes, rng, network):
        super().__init__(node_id, neighbors, num_nodes, rng)
        self.network = network
        self.inner = None

    def on_round(self, round_number, inbox):
        self.finished = True
        if round_number == 0 and self.node_id == 0:
            self.inner = self.network.run(_factory(_Ping)).metrics
            return self.send_to(self.neighbors[0], ("p",))
        return {}

    def result(self):
        return self.inner


def _factory(cls):
    return lambda node, net: cls(
        node, net.graph.neighbors(node), net.num_nodes, net.node_rng(node)
    )


ABORTS = {
    "strict_bandwidth": (_Chatterbox, {}),
    "non_neighbour": (_BadSender, {}),
    "round_cap": (_NeverFinishes, {"max_rounds": 5}),
    "quiescence": (_SilentlyStuck, {"max_rounds": 40}),
}


def collect():
    """The fixture as a JSON-ready dictionary."""
    cases = {}
    for engine in ENGINES:
        for model_name, model in FAULT_MODELS.items():
            for graph_name, make_graph in GRAPHS.items():
                graph = make_graph()
                for algo_name, algorithm in ALGORITHMS.items():
                    def build(graph=graph, engine=engine, model=model):
                        return Network(
                            graph, seed=7, scheduler=ENGINES[engine](),
                            fault_model=model,
                        )

                    key = f"{engine}/{model_name}/{graph_name}/{algo_name}"
                    cases[key] = _outcome(build, algorithm)

    aborts = {}
    for engine in ENGINES:
        for model_name, model in FAULT_MODELS.items():
            for abort_name, (cls, kwargs) in ABORTS.items():
                network = Network(
                    generators.path_graph(4), seed=7, scheduler=ENGINES[engine](),
                fault_model=model,
                )
                try:
                    network.run(_factory(cls), **kwargs)
                except CongestSimulationError as error:
                    outcome = _error(error)
                else:
                    outcome = None
                aborts[f"{engine}/{model_name}/{abort_name}"] = outcome

    nested = {}
    for engine in ENGINES:
        for model_name, model in FAULT_MODELS.items():
            network = Network(
                generators.path_graph(3), seed=7, scheduler=ENGINES[engine](),
                fault_model=model,
            )
            stitched = StitchedTrafficObserver()
            network.add_observer(stitched)
            outer = network.run(
                lambda node, net: _NestingPing(
                    node, net.graph.neighbors(node), net.num_nodes,
                    net.node_rng(node), net,
                ),
                record_traffic=True,
            )
            network.run(_factory(_Ping))
            nested[f"{engine}/{model_name}"] = {
                "outer": canonical(outer),
                "stitched": canonical(stitched.traffic),
            }
    short = {}
    heavy = dict(FAULT_MODELS, crash_all=FaultModel(crash=1.0, crash_window=6, down_rounds=2))
    for engine in ENGINES:
        for model_name, model in heavy.items():
            network = Network(
                generators.cycle_graph(8), seed=7, scheduler=ENGINES[engine](),
                fault_model=model,
            )
            result = network.run(
                _factory(_NeverFinishes), exact_rounds=4, record_traffic=True
            )
            short[f"{engine}/{model_name}"] = canonical(result)
    return {"cases": cases, "aborts": aborts, "nested": nested, "short": short}


def main(argv) -> int:
    with open(argv[0], "w", encoding="utf-8") as handle:
        json.dump(collect(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
