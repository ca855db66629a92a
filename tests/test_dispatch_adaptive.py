"""Tests for the work-stealing scheduler (``repro.dispatch``).

Byte-identity would be easy if every cell ran once: one shard per
worker, no re-execution.  The scheduler re-executes cells on purpose --
work stealing trims a straggler's lease, speculative re-execution races
a second copy of an overdue shard, supervised workers replay their
shard stores after a coordinator restart -- so the
load-bearing property here is that **byte-identity survives every one
of those paths**: the streamed records, the shard stores, and the
offline merge must all render exactly the serial export, with the
duplicates dropped first-complete-wins.

Around that sit the deterministic foundations: the cost model's
estimates are independent of observation order (stealing reorders
completions freely), and the shard plan for a grid is byte-identical
across ``PYTHONHASHSEED`` values and processes.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.analysis.sweep import run_sweep_grid
from repro.cli import main
from repro.dispatch import DispatchCoordinator, RemoteDispatch
from repro.dispatch.coordinator import _GridState, _WorkerState
from repro.dispatch.cost import (
    FACTOR,
    CostModel,
    guarantee_of,
    plan_chunks,
    static_cell_cost,
    take_cost_prefix,
)
from repro.dispatch.worker import probe_capabilities, run_worker
from repro.names import MAX_GRID_NODES
from repro.runner import GraphSpec, resolve_algorithms
from repro.store import ExperimentStore, merge_shards, render_records, shard_stats

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _subprocess_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC_ROOT, env.get("PYTHONPATH")) if part
    )
    env.update(extra)
    return env


def _grid(sizes, families=("cycle",), algorithms=("two_approx",)):
    specs = tuple(
        GraphSpec(family, n, seed=1) for family in families for n in sizes
    )
    return specs, resolve_algorithms(list(algorithms))


def _canon(records):
    return render_records(records, "jsonl")


class TestCostPriors:
    def test_exponent_by_guarantee(self):
        # an exact oracle grows much faster than a two-approx BFS wave
        assert static_cell_cost(100, "exact") == pytest.approx(100.0 ** 2.0)
        assert static_cell_cost(100, "two_approx") == pytest.approx(100.0 ** 1.3)
        assert static_cell_cost(100, "exact") > static_cell_cost(100, None)
        assert static_cell_cost(100, None) > static_cell_cost(100, "two_approx")

    def test_unknown_guarantee_gets_middle_prior(self):
        assert static_cell_cost(50, "banana") == static_cell_cost(50, None)

    def test_tiny_cells_keep_nonzero_cost(self):
        assert static_cell_cost(0) > 0.0
        assert static_cell_cost(1) == static_cell_cost(2)

    def test_guarantee_of_resolves_registries(self):
        assert guarantee_of("classical_exact") == "exact"
        assert guarantee_of("two_approx") == "two_approx"
        assert guarantee_of("not-an-algorithm") is None

    def test_quantum_grid_costs_use_the_exact_prior(self):
        """A quantum grid ships sweep names, so its cells get their
        kernels' ``exact`` prior -- also from a frame that still carries
        the ``"kind": "quantum"`` key clients used to send."""
        description = {
            "kind": "quantum",
            "specs": [{"family": "cycle", "num_nodes": n, "seed": 1}
                      for n in (12, 20)],
            "algorithms": ["quantum_exact", "quantum_radius"],
            "tasks": [[s, a] for s in range(2) for a in range(2)],
        }
        expected = [static_cell_cost(n, "exact") for n in (12, 12, 20, 20)]
        assert CostModel().grid_costs(description) == expected
        del description["kind"]
        assert CostModel().grid_costs(description) == expected


class TestCostModelCalibration:
    def test_calibration_scales_to_observed_seconds(self):
        model = CostModel()
        # observed cells ran 3x slower than the prior's unit suggests
        for nodes in (10, 20, 40):
            prior = static_cell_cost(nodes, "two_approx")
            model.observe("two_approx", nodes, 3.0 * prior,
                          guarantee="two_approx")
        estimate = model.estimate("two_approx", 80, guarantee="two_approx")
        assert estimate == pytest.approx(
            3.0 * static_cell_cost(80, "two_approx")
        )

    def test_uncalibrated_estimate_is_the_prior(self):
        model = CostModel()
        assert model.estimate("x", 32) == static_cell_cost(32)
        assert model.observation_count() == 0

    def test_unseen_algorithm_falls_back_to_global_scale(self):
        model = CostModel()
        model.observe("a", 16, 2.0 * static_cell_cost(16, "exact"),
                      guarantee="exact")
        # "b" has no observations of its own: the all-algorithm ratio
        # (2.0) still rescales its prior.
        assert model.estimate("b", 16, guarantee="exact") == pytest.approx(
            2.0 * static_cell_cost(16, "exact")
        )

    def test_negative_observations_ignored(self):
        model = CostModel()
        model.observe("a", 16, -1.0)
        assert model.observation_count() == 0

    def test_impossible_node_counts_ignored(self):
        # One timing claiming a huge cell used to rescale every algorithm
        # without observations of its own through the all-algorithm ratio.
        fresh = CostModel().estimate("classical_exact", 50, guarantee="exact")
        for nodes in (10**200, MAX_GRID_NODES + 1, 0, -3):
            model = CostModel()
            model.observe("two_approx", nodes, 1.0, guarantee="two_approx")
            assert model.observation_count() == 0
            assert model.estimate("classical_exact", 50, guarantee="exact") == fresh

    def test_impossible_heartbeat_timing_ignored(self):
        coordinator = DispatchCoordinator()
        coordinator._on_heartbeat({"timings": [
            {"algorithm": "two_approx", "num_nodes": 10**200, "seconds": 1.0},
        ]})
        assert coordinator._cost_model.estimate(
            "classical_exact", 50, guarantee="exact"
        ) == CostModel().estimate("classical_exact", 50, guarantee="exact")

    def test_grid_costs_refuse_sizes_outside_the_grid_range(self):
        description = {
            "specs": [{"family": "cycle", "num_nodes": MAX_GRID_NODES, "seed": 1}],
            "algorithms": ["two_approx"],
            "tasks": [[0, 0]],
        }
        assert len(CostModel().grid_costs(description)) == 1
        for nodes in (MAX_GRID_NODES + 1, 10**200, 0):
            description["specs"][0]["num_nodes"] = nodes
            with pytest.raises(ValueError, match="asks for"):
                CostModel().grid_costs(description)

    def test_non_finite_observations_ignored(self):
        # A heartbeat is JSON, which admits NaN and Infinity; one such
        # timing used to turn every later estimate into NaN.
        model = CostModel()
        prior = model.estimate("classical_exact", 96, guarantee="exact")
        for seconds in (float("nan"), float("inf"), float("-inf")):
            model.observe("classical_exact", 96, seconds, guarantee="exact")
        assert model.observation_count() == 0
        assert model.estimate("classical_exact", 96, guarantee="exact") == prior

    def test_estimates_independent_of_observation_order(self):
        observations = [
            ("two_approx", nodes, seconds, "two_approx")
            for nodes, seconds in
            [(10, 0.1), (20, 0.5), (30, 0.4), (40, 2.0), (50, 1.1)]
        ] + [
            ("classical_exact", nodes, seconds, "exact")
            for nodes, seconds in [(10, 0.3), (30, 2.2), (50, 6.0)]
        ]
        shuffled = list(observations)
        random.Random(99).shuffle(shuffled)
        forward, scrambled = CostModel(), CostModel()
        for model, sequence in ((forward, observations),
                                (scrambled, shuffled)):
            for name, nodes, seconds, guarantee in sequence:
                model.observe(name, nodes, seconds, guarantee=guarantee)
        for name, guarantee in (("two_approx", "two_approx"),
                                ("classical_exact", "exact"),
                                ("never_seen", None)):
            for nodes in (15, 33, 64):
                assert forward.estimate(name, nodes, guarantee) == \
                    pytest.approx(scrambled.estimate(name, nodes, guarantee))


class TestShardPlanning:
    def test_take_cost_prefix_partitions(self):
        indices = [3, 1, 4, 1, 5]  # indices index into costs positionally
        costs = {1: 1.0, 3: 2.0, 4: 4.0, 5: 0.5}
        taken, rest = take_cost_prefix(indices, costs, budget=3.5)
        assert taken + rest == indices
        assert taken == [3, 1, 4]  # 2.0, then 3.0 < 3.5, stop after 4

    def test_always_takes_at_least_one(self):
        taken, rest = take_cost_prefix([7], {7: 1e9}, budget=0.0)
        assert taken == [7] and rest == []

    def test_max_cells_caps_the_prefix(self):
        taken, rest = take_cost_prefix(
            list(range(6)), [0.1] * 6, budget=100.0, max_cells=2
        )
        assert taken == [0, 1] and rest == [2, 3, 4, 5]

    def test_plan_covers_every_cell(self):
        for total in (0, 1, 2, 7, 33):
            for workers in (1, 2, 5):
                plan = plan_chunks([1.0] * total, workers)
                assert sum(plan) == total
                assert all(size >= 1 for size in plan)

    def test_plan_shrinks_toward_the_tail(self):
        plan = plan_chunks([1.0] * 64, workers=2)
        assert plan[0] > plan[-1]
        assert plan[-1] == 1  # a straggler holds one cell at the end

    def test_plan_respects_max_cells(self):
        plan = plan_chunks([1.0] * 100, workers=1, max_cells=4)
        assert max(plan) <= 4 and sum(plan) == 100

    def test_expensive_head_cell_gets_its_own_chunk(self):
        costs = [100.0] + [1.0] * 10
        plan = plan_chunks(costs, workers=2, factor=FACTOR)
        assert plan[0] == 1  # the oracle cell alone exceeds the budget


#: Fixed cost lists for the cut tables below.
CUT_COSTS = {
    "uniform": [1.0] * 10,
    "heavy_head": [100.0] + [1.0] * 10,
    "heavy_tail": [1.0] * 9 + [50.0],
    "ramp": [float(i) for i in range(1, 13)],
    "mixed": [0.5, 3.0, 0.25, 8.0, 1.0, 1.0, 2.0, 0.125, 6.0],
}


class _SentFrames:
    """A connection stand-in that keeps what is sent on it."""

    def __init__(self):
        self.frames = []

    def send(self, frame):
        self.frames.append(frame)


class TestCutTables:
    """Plans and steal splits pinned to the outputs of the loops that
    :func:`take_cost_prefix` replaced."""

    @pytest.mark.parametrize("name, workers, max_cells, plan", [
        ("uniform", 1, None, [5, 3, 1, 1]),
        ("uniform", 3, 4, [2, 2, 1, 1, 1, 1, 1, 1]),
        ("heavy_head", 1, 4, [1, 4, 3, 2, 1]),
        ("heavy_head", 2, None, [1, 3, 2, 2, 1, 1, 1]),
        ("heavy_tail", 1, None, [10]),
        ("heavy_tail", 2, 4, [4, 4, 2]),
        ("ramp", 1, None, [9, 2, 1]),
        ("ramp", 2, 4, [4, 3, 2, 1, 1, 1]),
        ("ramp", 3, None, [5, 2, 2, 1, 1, 1]),
        ("mixed", 1, 4, [4, 4, 1]),
        ("mixed", 1, None, [4, 5]),
        ("mixed", 3, None, [3, 1, 2, 1, 2]),
    ])
    def test_plan_chunks(self, name, workers, max_cells, plan):
        costs = CUT_COSTS[name]
        assert plan_chunks(costs, workers, max_cells=max_cells) == plan

    @pytest.mark.parametrize("name, remaining, stolen", [
        ("uniform", range(10), [5, 6, 7, 8, 9]),
        ("uniform", range(1, 10, 2), [5, 7, 9]),
        ("heavy_head", range(11), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
        ("heavy_head", range(1, 11, 2), [5, 7, 9]),
        ("heavy_tail", range(10), [9]),
        ("ramp", range(12), [8, 9, 10, 11]),
        ("ramp", range(1, 12, 2), [9, 11]),
        ("mixed", range(9), [3, 4, 5, 6, 7, 8]),
        ("mixed", range(1, 9, 2), [3, 5, 7]),
        ("mixed", [0, 1], [1]),
    ])
    def test_steal_split(self, name, remaining, stolen):
        coordinator = DispatchCoordinator()
        grid = _GridState("g1", {}, CUT_COSTS[name], client=None)
        coordinator._grids["g1"] = grid
        victim = _WorkerState("victim", _SentFrames())
        victim.shard = coordinator._new_shard_locked(grid, list(remaining))
        coordinator._workers[id(victim)] = victim
        shard = coordinator._steal_locked(_WorkerState("thief", _SentFrames()))
        assert shard.indices == stolen
        assert sorted(victim.shard.remaining) == sorted(
            set(remaining) - set(stolen)
        )
        assert victim.conn.frames[-1]["indices"] == stolen


class TestPlanHashSeedInvariance:
    """The shard plan must not depend on interpreter hash randomisation.

    Stealing and speculation reorder *execution*, never the plan: the
    cost model is a ratio of sums and the planner walks lists, so two
    processes with different ``PYTHONHASHSEED`` values -- and
    calibration observations arriving in different orders -- must emit
    byte-identical plans.
    """

    SCRIPT = """
import json, random, sys
from repro.dispatch.cost import CostModel, plan_chunks

model = CostModel()
observations = [
    ("two_approx", 10 + 2 * i, 0.01 * (i + 1), "two_approx") for i in range(8)
] + [
    ("classical_exact", 10 + 3 * i, 0.05 * (i + 1), "exact") for i in range(5)
]
random.Random(int(sys.argv[1])).shuffle(observations)
for name, nodes, seconds, guarantee in observations:
    model.observe(name, nodes, seconds, guarantee=guarantee)

description = {
    "kind": "sweep",
    "specs": [
        {"family": "cycle", "num_nodes": n, "seed": 1}
        for n in (12, 16, 20, 24, 28, 32)
    ],
    "algorithms": ["classical_exact", "two_approx"],
    "tasks": [[s, a] for s in range(6) for a in range(2)],
}
costs = model.grid_costs(description)
print(json.dumps({
    "costs": costs,
    "plan": plan_chunks(costs, workers=3, max_cells=4),
}, sort_keys=True))
"""

    def _run(self, hash_seed, shuffle_seed):
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(shuffle_seed)],
            env=_subprocess_env(PYTHONHASHSEED=str(hash_seed)),
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_plan_identical_across_hash_seeds_and_orders(self):
        baseline = self._run(0, shuffle_seed=1)
        # hash randomisation must not perturb a single byte
        assert self._run(4242, shuffle_seed=1) == baseline
        # a different arrival order of the same observations: estimates
        # agree to float rounding (sums commute only up to ulps), and
        # the resulting shard plan is exactly identical.
        reordered = json.loads(self._run(7, shuffle_seed=2))
        expected = json.loads(baseline)
        assert reordered["plan"] == expected["plan"]
        assert reordered["costs"] == pytest.approx(expected["costs"])


def _start_worker_thread(address, shard_dir, name, throttle=0.0,
                         supervise=False, stop_event=None, results=None):
    host, port = address

    def _target():
        stats = run_worker(
            host, port, str(shard_dir), worker_id=name,
            once=not supervise, connect_wait=20.0, heartbeat_interval=0.2,
            supervise=supervise, throttle=throttle, stop_event=stop_event,
        )
        if results is not None:
            results[name] = stats

    thread = threading.Thread(target=_target, name=f"worker-{name}",
                              daemon=True)
    thread.start()
    return thread


def _merge_all(shard_dir, out_path=None):
    paths = sorted(
        os.path.join(str(shard_dir), name)
        for name in os.listdir(str(shard_dir))
        if name.endswith(".jsonl")
    )
    return merge_shards(paths, out_path=out_path), paths


class TestForcedStealing:
    def test_stolen_grid_byte_identical(self, tmp_path):
        """One throttled worker forces steals; output must not notice.

        The straggler deadline is shorter than one throttled cell, so
        the moment the fast worker idles while the straggler computes,
        the scheduler must intervene (steal while >= 2 cells remain in
        the lease, speculate on the final in-flight cell).
        """
        specs, table = _grid(sizes=(12, 14, 16, 18, 20, 22, 24, 26))
        serial = run_sweep_grid(specs, table, base_seed=11)
        shard_dir = tmp_path / "shards"

        coordinator = DispatchCoordinator(straggler_deadline=0.15)
        coordinator.start()
        threads = [
            _start_worker_thread(coordinator.address, shard_dir, "slow",
                                 throttle=0.25),
            _start_worker_thread(coordinator.address, shard_dir, "fast"),
        ]
        try:
            coordinator.wait_for_workers(2, timeout=30.0)
            remote = run_sweep_grid(
                specs, table, base_seed=11,
                runner=RemoteDispatch(coordinator=coordinator, workers=2),
            )
            stats = coordinator.stats()
        finally:
            coordinator.stop()
        for thread in threads:
            thread.join(timeout=20.0)
            assert not thread.is_alive(), "worker thread failed to exit"

        assert stats["steals"] + stats["speculative_leases"] >= 1, stats
        assert _canon(remote) == _canon(serial)
        merged, _ = _merge_all(shard_dir)
        assert _canon(merged) == _canon(serial)

    def test_worker_capabilities_reported(self):
        capabilities = probe_capabilities(throttle=0.0)
        assert capabilities["cpus"] >= 1
        assert capabilities["score"] > 0.0
        assert isinstance(capabilities["numpy"], bool)


class TestSpeculativeDuplicates:
    def test_duplicate_completion_dropped_first_wins(self, tmp_path):
        """A speculative copy races the straggler; both results persist
        in shard stores, the stream and merge keep exactly one."""
        specs, table = _grid(sizes=(12,),
                             algorithms=("classical_exact", "two_approx"))
        serial = run_sweep_grid(specs, table, base_seed=7)
        shard_dir = tmp_path / "shards"

        coordinator = DispatchCoordinator(straggler_deadline=0.1)
        coordinator.start()
        outcome = {}

        def _client():
            try:
                outcome["records"] = run_sweep_grid(
                    specs, table, base_seed=7,
                    runner=RemoteDispatch(coordinator=coordinator),
                )
            except Exception as error:
                outcome["error"] = error

        slow = _start_worker_thread(coordinator.address, shard_dir, "slow",
                                    throttle=0.6)
        fast = None
        client = threading.Thread(target=_client, daemon=True)
        try:
            coordinator.wait_for_workers(1, timeout=30.0)
            client.start()
            # wait until the whole 2-cell grid is leased to the slow
            # worker, then bring up the fast one: it must steal the
            # tail cell, then speculate on the in-flight head cell.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if coordinator.stats()["in_flight_shards"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("grid never leased to the slow worker")
            fast = _start_worker_thread(coordinator.address, shard_dir,
                                        "fast")
            client.join(timeout=60.0)
            assert not client.is_alive(), "grid never completed"
            stats = coordinator.stats()
        finally:
            coordinator.stop()
        for thread in (slow, fast):
            if thread is not None:
                thread.join(timeout=20.0)
                assert not thread.is_alive()

        assert "error" not in outcome, outcome.get("error")
        assert stats["speculative_leases"] >= 1, stats
        assert _canon(outcome["records"]) == _canon(serial)

        # both the straggler and the speculative copy persisted the
        # contested cell -- the merge layer sees the duplicate and
        # drops it first-complete-wins.
        merged, paths = _merge_all(shard_dir, str(tmp_path / "merged.jsonl"))
        aggregate = shard_stats(paths)
        assert aggregate["duplicate_cells"] >= 1, aggregate
        assert _canon(merged) == _canon(serial)


def _spawn_worker_process(address, shard_dir, name, throttle=None):
    host, port = address
    extra = {}
    if throttle is not None:
        extra["REPRO_DISPATCH_THROTTLE"] = str(throttle)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.dispatch.worker",
         f"{host}:{port}", "--shard-dir", str(shard_dir),
         "--name", name, "--once", "--heartbeat", "0.2"],
        env=_subprocess_env(**extra),
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )


class TestMidStealWorkerDeath:
    def test_victim_killed_after_steal_grid_completes(self, tmp_path):
        """SIGKILL a straggler that has already been stolen from: the
        coordinator must requeue its remainder and the surviving worker
        finishes the grid byte-identically."""
        specs, table = _grid(sizes=(12, 14, 16, 18, 20, 22, 24, 26))
        serial = run_sweep_grid(specs, table, base_seed=13)
        shard_dir = tmp_path / "shards"

        coordinator = DispatchCoordinator(straggler_deadline=30.0)
        coordinator.start()
        victim = _spawn_worker_process(
            coordinator.address, shard_dir, "victim", throttle=0.4
        )
        outcome = {}

        def _client():
            try:
                outcome["records"] = run_sweep_grid(
                    specs, table, base_seed=13,
                    runner=RemoteDispatch(coordinator=coordinator),
                )
            except Exception as error:
                outcome["error"] = error

        client = threading.Thread(target=_client, daemon=True)
        thief = None
        try:
            coordinator.wait_for_workers(1, timeout=30.0)
            client.start()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if coordinator.stats()["in_flight_shards"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("grid never leased to the victim")
            thief = _start_worker_thread(coordinator.address, shard_dir,
                                         "thief")
            # the thief drains the queue, then steals from the victim
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if coordinator.stats()["steals"] >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("no steal before the deadline")
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)
            client.join(timeout=60.0)
            assert not client.is_alive(), "grid never completed after death"
            stats = coordinator.stats()
        finally:
            coordinator.stop()
            try:
                victim.wait(timeout=10)
            except subprocess.TimeoutExpired:
                victim.kill()
        if thief is not None:
            thief.join(timeout=20.0)
            assert not thief.is_alive()

        assert "error" not in outcome, outcome.get("error")
        assert stats["steals"] >= 1, stats
        assert stats["requeues"] >= 1, stats
        assert _canon(outcome["records"]) == _canon(serial)
        merged, _ = _merge_all(shard_dir)
        assert _canon(merged) == _canon(serial)


class TestSupervisedWorker:
    def test_once_and_supervise_are_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            run_worker("127.0.0.1", 1, ".", once=True, supervise=True)

    def test_rejoins_after_coordinator_restart_and_replays(self, tmp_path):
        """A supervised worker rides out a coordinator restart: it
        reconnects with backoff, replays its shard store for the
        repeated grid, and only exits when told to stop."""
        specs, table = _grid(sizes=(10, 12))
        serial = run_sweep_grid(specs, table, base_seed=5)
        shard_dir = tmp_path / "shards"
        stop_event = threading.Event()
        results = {}

        first = DispatchCoordinator().start()
        port = first.address[1]
        worker = _start_worker_thread(
            first.address, shard_dir, "lifer",
            supervise=True, stop_event=stop_event, results=results,
        )
        second = None
        try:
            first.wait_for_workers(1, timeout=30.0)
            records = run_sweep_grid(
                specs, table, base_seed=5,
                runner=RemoteDispatch(coordinator=first),
            )
            assert _canon(records) == _canon(serial)
            first.stop()

            # restart on the same port: the supervised worker must
            # rejoin on its own (capped-backoff reconnect loop).
            second = DispatchCoordinator(port=port).start()
            second.wait_for_workers(1, timeout=30.0)
            again = run_sweep_grid(
                specs, table, base_seed=5,
                runner=RemoteDispatch(coordinator=second),
            )
            assert _canon(again) == _canon(serial)
        finally:
            stop_event.set()
            if second is not None:
                second.stop()
            first.stop()
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "supervised worker failed to stop"

        # the second run replayed the store instead of recomputing
        stats = results["lifer"]
        assert stats["sessions"] >= 2, stats
        assert stats["replayed"] >= 1, stats
        _, paths = _merge_all(shard_dir)
        aggregate = shard_stats(paths)
        assert aggregate["workers"]["lifer"]["replayed"] >= 1, aggregate
        assert aggregate["workers"]["lifer"]["leases"] >= 2, aggregate


class TestMergeStatsCli:
    def test_merge_stats_renders_per_worker_table(self, tmp_path, capsys):
        specs, table = _grid(sizes=(10, 12),
                             algorithms=("classical_exact", "two_approx"))
        serial = run_sweep_grid(specs, table, base_seed=3)
        shard_dir = tmp_path / "shards"

        coordinator = DispatchCoordinator()
        coordinator.start()
        threads = [
            _start_worker_thread(coordinator.address, shard_dir, "w1"),
            _start_worker_thread(coordinator.address, shard_dir, "w2"),
        ]
        try:
            coordinator.wait_for_workers(2, timeout=30.0)
            run_sweep_grid(
                specs, table, base_seed=3,
                runner=RemoteDispatch(coordinator=coordinator, workers=2),
            )
        finally:
            coordinator.stop()
        for thread in threads:
            thread.join(timeout=20.0)

        paths = sorted(
            str(shard_dir / name) for name in os.listdir(shard_dir)
        )
        out_path = tmp_path / "merged.jsonl"
        exit_code = main(["merge", *paths, "--out", str(out_path), "--stats"])
        captured = capsys.readouterr()
        assert exit_code == 0
        # the per-worker table is the command's primary output (the
        # records went to --out); the summary lines go to stderr
        table_text = captured.out
        assert "worker" in table_text and "cells/s" in table_text
        assert "duplicate(s) dropped" in captured.err
        # every worker that computed cells appears in the table
        for worker_id, entry in shard_stats(paths)["workers"].items():
            if entry["cells"]:
                assert worker_id in table_text

        merged = merge_shards(paths)
        assert _canon(merged) == _canon(serial)

    def test_merged_store_carries_dispatch_stats(self, tmp_path):
        specs, table = _grid(sizes=(10,))
        shard_dir = tmp_path / "shards"
        coordinator = DispatchCoordinator()
        coordinator.start()
        thread = _start_worker_thread(coordinator.address, shard_dir, "solo")
        try:
            coordinator.wait_for_workers(1, timeout=30.0)
            run_sweep_grid(
                specs, table, base_seed=9,
                runner=RemoteDispatch(coordinator=coordinator),
            )
        finally:
            coordinator.stop()
        thread.join(timeout=20.0)

        paths = sorted(
            str(shard_dir / name) for name in os.listdir(shard_dir)
        )
        out_path = str(tmp_path / "merged.jsonl")
        merge_shards(paths, out_path=out_path)
        with open(out_path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        stamped = header.get("dispatch_stats")
        assert stamped is not None, header
        assert stamped["unique_cells"] == len(specs) * len(table)
        assert "solo" in stamped["workers"]


class TestCliSurface:
    def test_scheduling_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["sweep", "--families", "cycle",
                                  "--sizes", "10"])
        # Absent flags stay None (so a misplaced one is detectable) and
        # the embedded coordinator supplies the defaults.
        assert args.straggler_deadline is None
        assert args.dispatch_stats is None
        coordinator = DispatchCoordinator()
        assert coordinator.straggler_deadline == pytest.approx(10.0)
        args = parser.parse_args([
            "sweep", "--families", "cycle", "--sizes", "10",
            "--straggler-deadline", "3", "--dispatch-stats", "stats.json",
        ])
        assert args.straggler_deadline == pytest.approx(3.0)
        assert args.dispatch_stats == "stats.json"

    @pytest.mark.parametrize("flag, value", [
        ("--dispatch-stats", "stats.json"),
        ("--dispatch-wait", "5"),
        ("--dispatch-port", "8799"),
        ("--straggler-deadline", "3"),
    ])
    @pytest.mark.parametrize("placement", [[], ["--coordinator", "127.0.0.1:1"]],
                             ids=["local", "coordinator"])
    def test_embedded_coordinator_flags_need_one(
        self, flag, value, placement, capsys, tmp_path
    ):
        """These flags configure an embedded coordinator; without one
        (a local run, or ``--coordinator``) they used to be dropped
        silently."""
        stats = tmp_path / "stats.json"
        value = str(stats) if flag == "--dispatch-stats" else value
        code = main([
            "sweep", "--families", "cycle", "--sizes", "12",
            "--algorithms", "two_approx", flag, value, *placement,
            "--out", str(tmp_path / "run.jsonl"),
        ])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not stats.exists()
        assert not (tmp_path / "run.jsonl").exists()

    SWEEP = ["sweep", "--families", "cycle,path", "--sizes", "10,12",
             "--algorithms", "two_approx,classical_exact", "--seed", "4"]

    def _export(self, path):
        return render_records(ExperimentStore(str(path)).load_records(), "jsonl")

    def test_dispatch_workers_embeds_a_coordinator(
        self, tmp_path, monkeypatch
    ):
        """``--dispatch-workers N`` alone makes the grid remote: the
        embedded coordinator waits for a worker, and the export equals a
        local run's."""
        wait = DispatchCoordinator.wait_for_workers
        joined = []

        def wait_for_a_joining_worker(coordinator, count, timeout=60.0):
            worker = threading.Thread(
                target=run_worker,
                args=(*coordinator.address, str(tmp_path / "shards")),
                kwargs=dict(worker_id="cli", once=True, connect_wait=15.0,
                            heartbeat_interval=0.5),
                daemon=True,
            )
            worker.start()
            joined.append(worker)
            return wait(coordinator, count, timeout)

        monkeypatch.setattr(
            DispatchCoordinator, "wait_for_workers", wait_for_a_joining_worker
        )
        assert main([*self.SWEEP, "--out", str(tmp_path / "local.jsonl")]) == 0
        assert joined == []
        stats = tmp_path / "stats.json"
        assert main([
            *self.SWEEP, "--out", str(tmp_path / "remote.jsonl"),
            "--dispatch-workers", "1", "--dispatch-stats", str(stats),
        ]) == 0
        (worker,) = joined
        worker.join(timeout=15.0)
        assert not worker.is_alive()
        assert self._export(tmp_path / "remote.jsonl") == self._export(
            tmp_path / "local.jsonl"
        )
        assert json.loads(stats.read_text())["cells"] == 8

    def test_coordinator_joins_an_existing_one(self, tmp_path):
        coordinator = DispatchCoordinator().start()
        worker = threading.Thread(
            target=run_worker,
            args=(*coordinator.address, str(tmp_path / "shards")),
            kwargs=dict(worker_id="joined", once=True, connect_wait=15.0,
                        heartbeat_interval=0.5),
            daemon=True,
        )
        try:
            worker.start()
            coordinator.wait_for_workers(1, timeout=30.0)
            host, port = coordinator.address
            assert main([
                *self.SWEEP, "--out", str(tmp_path / "remote.jsonl"),
                "--coordinator", f"{host}:{port}",
            ]) == 0
            assert coordinator.stats()["registered_workers"] == 1
        finally:
            coordinator.stop()
            worker.join(timeout=15.0)
        assert main([*self.SWEEP, "--out", str(tmp_path / "local.jsonl")]) == 0
        assert self._export(tmp_path / "remote.jsonl") == self._export(
            tmp_path / "local.jsonl"
        )
        assert os.listdir(tmp_path / "shards")

    def test_invalid_straggler_deadline_rejected(self):
        with pytest.raises(ValueError, match="straggler_deadline"):
            DispatchCoordinator(straggler_deadline=0.0)
