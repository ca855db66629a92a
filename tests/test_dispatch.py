"""Tests for the distributed dispatch subsystem (``repro.dispatch``).

The load-bearing property is the same one the batch runner pins: remote
execution must be **byte-identical** to serial execution -- for the
streamed records, for the per-worker shard stores after merging, and
regardless of worker deaths, reconnects or completion order.  Around
that sit the protocol-level contracts (framing, EOF, oversize refusal)
and the runner object that decides where cells run.

Thread workers are used for fault-free grids (cheap, deterministic);
grids that mutate process defaults (fault models) and the worker-death
path use real subprocess workers, as the CLI would.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro._digest import key_digest
from repro.analysis.sweep import SweepCancelled, run_sweep_grid
from repro.cli import main
from repro.dispatch import (
    DispatchCoordinator,
    DispatchError,
    FrameError,
    FramedSocket,
    MAX_FRAME_BYTES,
    RemoteDispatch,
    parse_address,
)
from repro.dispatch.protocol import decode_grid, encode_grid
from repro.dispatch.worker import (
    default_worker_id,
    run_worker,
    shard_store_path,
    validate_worker_id,
)
from repro.faults import NULL_FAULT_MODEL, FaultModel
from repro.runner import BatchRunner, GraphSpec, resolve_algorithms
from repro.service.gridspec import GridRequest, execute_grid_request
from repro.store import ExperimentStore, merge_shards, render_records
from repro.store.records import canonical_json

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (SRC_ROOT, env.get("PYTHONPATH")) if part
    )
    return env


def _grid(sizes=(12, 16)):
    specs = tuple(GraphSpec("cycle", n, seed=1) for n in sizes) + tuple(
        GraphSpec("clique_chain", n, seed=1) for n in sizes
    )
    table = resolve_algorithms(["classical_exact", "two_approx"])
    return specs, table


class TestProtocol:
    def _pair(self):
        left, right = socket.socketpair()
        return FramedSocket(left), FramedSocket(right)

    def test_frames_round_trip_in_order(self):
        a, b = self._pair()
        frames = [
            {"type": "register", "worker": "w1"},
            {"type": "cell", "index": 3, "record": {"nested": [1, 2, 3]}},
            {"type": "heartbeat"},
        ]
        for frame in frames:
            a.send(frame)
        received = [b.recv() for _ in frames]
        assert received == frames
        a.close()
        b.close()

    def test_clean_eof_returns_none(self):
        a, b = self._pair()
        a.close()
        assert b.recv() is None
        b.close()

    def test_eof_mid_frame_raises(self):
        left, right = socket.socketpair()
        # A length header promising bytes that never arrive.
        left.sendall(struct.pack(">I", 64) + b'{"type":')
        left.close()
        with pytest.raises(FrameError):
            FramedSocket(right).recv()
        right.close()

    def test_oversize_length_prefix_refused(self):
        left, right = socket.socketpair()
        left.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameError, match="cap"):
            FramedSocket(right).recv()
        left.close()
        right.close()

    def test_non_object_payload_refused(self):
        left, right = socket.socketpair()
        payload = b"[1, 2, 3]"
        left.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(FrameError, match="JSON object"):
            FramedSocket(right).recv()
        left.close()
        right.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert parse_address("my.host:1") == ("my.host", 1)
        for bad in ("nohost", ":8080", "host:", "host:zero", "host:0",
                    "host:70000"):
            with pytest.raises(ValueError):
                parse_address(bad)


class _CountingRunner(BatchRunner):
    """A serial runner that counts the cells it is handed."""

    def __init__(self):
        super().__init__(jobs=1)
        self.cells = 0

    def imap(self, function, tasks, context=None):
        tasks = list(tasks)
        self.cells += len(tasks)
        return super().imap(function, tasks, context=context)


class TestBackendResolution:
    def test_none_keeps_runner_or_builds_one(self, tmp_path):
        specs, table = _grid(sizes=(10,))
        store = ExperimentStore(str(tmp_path / "serial.jsonl"))
        serial = run_sweep_grid(specs, table, base_seed=7, store=store)
        assert store.latest_header()["jobs"] == 1
        store = ExperimentStore(str(tmp_path / "pool.jsonl"))
        pooled = run_sweep_grid(
            specs, table, base_seed=7, store=store, runner=BatchRunner(jobs=2)
        )
        assert store.latest_header()["jobs"] == 2
        assert pooled == serial

    def test_configured_object_passes_through(self, tmp_path):
        specs, table = _grid(sizes=(10,))
        runner = _CountingRunner()
        records = run_sweep_grid(
            specs, table, base_seed=7, runner=runner,
            store=ExperimentStore(str(tmp_path / "run.jsonl")),
        )
        assert runner.cells == len(records) == len(specs) * len(table)

    def test_signature_depends_on_keys(self):
        first = key_digest(["a", "b"])
        assert first == key_digest(["a", "b"])
        assert first != key_digest(["a", "c"])
        assert first == "7e18f737311b2dc3"


class TestRemoteDispatchMisuse:
    def test_needs_exactly_one_target(self):
        with pytest.raises(ValueError, match="exactly one"):
            RemoteDispatch()
        with pytest.raises(ValueError, match="exactly one"):
            RemoteDispatch(
                address=("127.0.0.1", 1),
                coordinator=DispatchCoordinator(),
            )

    def test_arbitrary_callables_refused(self):
        backend = RemoteDispatch(address=("127.0.0.1", 1))
        with pytest.raises(DispatchError, match="only executes sweep grid"):
            backend.map(len, [((), "x")], context=({}, 0))

    def test_empty_task_list_never_connects(self):
        # port 1 is unreachable: an empty batch must not even try.
        backend = RemoteDispatch(address=("127.0.0.1", 1))
        from repro.analysis.sweep import _sweep_one_grid_cell

        assert backend.map(_sweep_one_grid_cell, [], context=({}, 0)) == []


class TestGridFrame:
    """The grid frame keeps the ``"config": {"fault": ...}`` bytes of
    earlier releases, so coordinators and workers of either release
    interoperate."""

    def _config(self, fault):
        specs, table = _grid(sizes=(10,))
        tasks = [(spec, name) for spec in specs for name in table]
        return encode_grid(tasks, (table, 3, fault))["config"]

    def test_null_fault_ships_as_none(self):
        assert self._config(NULL_FAULT_MODEL) == {"fault": None}

    def test_fault_ships_every_field(self):
        fault = FaultModel(loss=0.05, crash=0.1, timeout=256, seed=3)
        assert self._config(fault) == {"fault": {
            "loss": 0.05, "delay": 0.0, "max_delay": 1, "crash": 0.1,
            "crash_window": 32, "down_rounds": 0, "churn": 0.0,
            "timeout": 256, "seed": 3,
        }}

    SPECS = (
        GraphSpec("cycle", 6, seed=1),
        GraphSpec("controlled", 9, diameter=4, seed=2),
    )
    TASKS = [(SPECS[0], "two_approx"), (SPECS[1], "classical_exact"),
             (SPECS[1], "two_approx")]
    FAULT = FaultModel(loss=0.25, timeout=64, seed=5)

    def _encoded(self):
        table = resolve_algorithms(["two_approx", "classical_exact"])
        return encode_grid(self.TASKS, (table, 7, self.FAULT))

    def test_encoding_is_pinned(self):
        """The bytes earlier releases wrote for the same cells."""
        assert canonical_json(self._encoded()) == (
            '{"algorithms":["two_approx","classical_exact"],"base_seed":7,'
            '"config":{"fault":{"churn":0.0,"crash":0.0,"crash_window":32,'
            '"delay":0.0,"down_rounds":0,"loss":0.25,"max_delay":1,"seed":5,'
            '"timeout":64}},"signature":"4ae5740d12536e2f","specs":['
            '{"diameter":null,"family":"cycle","num_nodes":6,"seed":1},'
            '{"diameter":4,"family":"controlled","num_nodes":9,"seed":2}],'
            '"tasks":[[0,0],[1,1],[1,0]]}'
        )

    def test_decoding_inverts_encoding(self):
        decoded = decode_grid(self._encoded())
        assert [decoded.cell(index) for index in range(3)] == self.TASKS
        assert (decoded.base_seed, decoded.fault) == (7, self.FAULT)
        assert list(decoded.table) == ["two_approx", "classical_exact"]


class TestCoordinator:
    def test_wait_for_workers_times_out(self):
        coordinator = DispatchCoordinator()
        coordinator.start()
        try:
            with pytest.raises(DispatchError, match="repro worker join"):
                coordinator.wait_for_workers(1, timeout=0.2)
        finally:
            coordinator.stop()

    def test_invalid_shard_size_rejected(self):
        with pytest.raises(ValueError):
            DispatchCoordinator(shard_size=0)

    def test_stop_is_prompt_and_joins_its_threads(self):
        # Regression: close() on the listening socket did not wake the
        # blocked accept(), so stop() waited out a 5 s join timeout and
        # left the accept thread running.  The ticker must go too.
        before = set(threading.enumerate())
        coordinator = DispatchCoordinator().start()
        assert {"dispatch-accept", "dispatch-ticker"} <= {
            thread.name for thread in threading.enumerate()
            if thread not in before
        }
        started = time.perf_counter()
        coordinator.stop()
        assert time.perf_counter() - started < 0.5
        leaked = [
            thread.name for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("dispatch-")
        ]
        assert leaked == []

    def test_stop_with_a_registered_worker_is_prompt(self, tmp_path):
        before = set(threading.enumerate())
        coordinator = DispatchCoordinator().start()
        host, port = coordinator.address
        worker = threading.Thread(
            target=run_worker, args=(host, port, str(tmp_path)),
            kwargs=dict(worker_id="w1", once=True, connect_wait=15.0,
                        heartbeat_interval=0.5),
            daemon=True,
        )
        worker.start()
        coordinator.wait_for_workers(1, timeout=30.0)
        started = time.perf_counter()
        coordinator.stop()
        assert time.perf_counter() - started < 0.5
        worker.join(timeout=15.0)
        assert not worker.is_alive()
        leaked = [
            thread.name for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("dispatch-")
        ]
        assert leaked == []


class TestWorkerIds:
    def test_default_id_is_valid(self):
        assert validate_worker_id(default_worker_id())

    def test_unsafe_ids_rejected(self):
        for bad in ("", "../escape", "a/b", ".hidden", "x" * 65):
            with pytest.raises(ValueError):
                validate_worker_id(bad)

    def test_shard_path_shape(self):
        path = shard_store_path("dir", "abcd", "w1")
        assert path == os.path.join("dir", "shard-abcd-w1.jsonl")


@contextlib.contextmanager
def _remote_coordinator(shard_dir, workers=2, shard_size=None, start_delay=0.0):
    """A started coordinator with ``workers`` in-thread workers; stops it
    and joins the workers on exit."""
    coordinator = DispatchCoordinator(shard_size=shard_size)
    coordinator.start()
    host, port = coordinator.address
    threads = [
        threading.Thread(
            target=run_worker,
            args=(host, port, shard_dir),
            kwargs=dict(worker_id=f"w{index + 1}", once=True,
                        connect_wait=15.0, heartbeat_interval=0.5),
            daemon=True,
        )
        for index in range(workers)
    ]
    try:
        if start_delay:
            # Late workers: the grid must queue until somebody registers.
            starter = threading.Timer(
                start_delay, lambda: [t.start() for t in threads]
            )
            starter.start()
        else:
            for thread in threads:
                thread.start()
            coordinator.wait_for_workers(workers, timeout=30.0)
        yield coordinator
    finally:
        coordinator.stop()
    for thread in threads:
        thread.join(timeout=15.0)
        assert not thread.is_alive(), "worker thread failed to exit"


def _run_remote(specs, table, base_seed, shard_dir, workers=2,
                shard_size=None, start_delay=0.0):
    """A full remote round-trip with in-thread workers; returns records."""
    with _remote_coordinator(
        shard_dir, workers, shard_size, start_delay
    ) as coordinator:
        return run_sweep_grid(
            specs, table, base_seed=base_seed,
            runner=RemoteDispatch(coordinator=coordinator, workers=workers),
        )


class TestRemoteEndToEnd:
    def test_two_workers_byte_identical_and_merge(self, tmp_path):
        specs, table = _grid()
        serial = run_sweep_grid(specs, table, base_seed=11)
        shard_dir = str(tmp_path / "shards")
        remote = _run_remote(specs, table, 11, shard_dir, workers=2,
                             shard_size=2)
        assert render_records(remote, "jsonl") == render_records(serial, "jsonl")

        shard_paths = sorted(
            os.path.join(shard_dir, name) for name in os.listdir(shard_dir)
        )
        assert len(shard_paths) == 2  # one store shard per worker
        merged = merge_shards(shard_paths, out_path=str(tmp_path / "m.jsonl"))
        assert render_records(merged, "jsonl") == render_records(serial, "jsonl")

    def test_grid_queues_until_a_worker_joins(self, tmp_path):
        specs, table = _grid(sizes=(10,))
        serial = run_sweep_grid(specs, table, base_seed=5)
        remote = _run_remote(specs, table, 5, str(tmp_path / "shards"),
                             workers=1, start_delay=0.4)
        assert remote == serial

    def test_closed_client_trims_its_leaseholder(self, tmp_path):
        # A client that stops mid-grid (a cancelled service job) closes
        # its connection; the coordinator trims the leaseholder, which
        # skips the rest of its shard instead of computing it.
        specs, table = _grid()
        coordinator = DispatchCoordinator(shard_size=8).start()
        host, port = coordinator.address
        shard_dir = str(tmp_path / "shards")
        worker = threading.Thread(
            target=run_worker, args=(host, port, shard_dir),
            kwargs=dict(worker_id="w1", once=True, connect_wait=15.0,
                        heartbeat_interval=0.5, throttle=0.2),
            daemon=True,
        )
        worker.start()
        done = []
        try:
            coordinator.wait_for_workers(1, timeout=30.0)
            with pytest.raises(SweepCancelled):
                run_sweep_grid(
                    specs, table, base_seed=3,
                    store=ExperimentStore(str(tmp_path / "run.jsonl")),
                    runner=RemoteDispatch(coordinator=coordinator),
                    progress=lambda count, total: done.append(count),
                    should_stop=lambda: done[-1] >= 1,
                )
            deadline = time.monotonic() + 30
            while coordinator.stats()["in_flight_shards"]:
                assert time.monotonic() < deadline, "worker never freed"
                time.sleep(0.02)
            assert coordinator.stats()["trims_sent"] == 1
        finally:
            coordinator.stop()
        worker.join(timeout=15.0)
        (shard,) = os.listdir(shard_dir)
        computed = ExperimentStore(os.path.join(shard_dir, shard)).completed()
        assert len(computed) < len(specs) * len(table)

    def test_unreachable_coordinator_fails_loudly(self):
        specs, table = _grid(sizes=(10,))
        backend = RemoteDispatch(address=("127.0.0.1", 1),
                                 connect_timeout=0.5)
        with pytest.raises(DispatchError, match="could not reach"):
            run_sweep_grid(specs, table, base_seed=5, runner=backend)


#: A ``repro quantum`` grid: problem names, resolved by the request.
QUANTUM_REQUEST = GridRequest(
    families=("cycle", "clique_chain"), sizes=(8, 12),
    algorithms=("exact_diameter", "radius"), kind="quantum", seed=3,
)


class TestQuantumGrids:
    """A quantum request's problems resolve to their sweep names once, in
    the request; below it a quantum grid is a sweep grid, so remote
    workers run it byte-identical to the local run."""

    def _description(self, request):
        table = request.algorithm_table()
        tasks = [(spec, name) for spec in request.specs() for name in table]
        return encode_grid(
            tasks, (table, request.base_seed(), NULL_FAULT_MODEL)
        )

    def test_request_through_remote_dispatch(self, tmp_path):
        local = execute_grid_request(QUANTUM_REQUEST)
        with _remote_coordinator(
            str(tmp_path / "shards"), workers=2, shard_size=2
        ) as coordinator:
            remote = execute_grid_request(
                QUANTUM_REQUEST,
                runner=RemoteDispatch(coordinator=coordinator, workers=2),
            )
        assert remote == local
        for fmt in ("csv", "jsonl"):
            assert render_records(remote, fmt) == render_records(local, fmt)
        assert {record.algorithm for record in remote} == {
            "quantum_exact", "quantum_radius",
        }

    def test_cli_quantum_over_two_workers(self, tmp_path, monkeypatch):
        """``repro quantum --dispatch-workers 2`` streams and stores the
        local run's export."""
        wait = DispatchCoordinator.wait_for_workers
        joined = []

        def wait_for_joining_workers(coordinator, count, timeout=60.0):
            for index in range(count):
                worker = threading.Thread(
                    target=run_worker,
                    args=(*coordinator.address, str(tmp_path / "shards")),
                    kwargs=dict(worker_id=f"q{index + 1}", once=True,
                                connect_wait=15.0, heartbeat_interval=0.5),
                    daemon=True,
                )
                worker.start()
                joined.append(worker)
            return wait(coordinator, count, timeout)

        monkeypatch.setattr(
            DispatchCoordinator, "wait_for_workers", wait_for_joining_workers
        )
        args = ["quantum", "--families", "cycle,clique_chain",
                "--sizes", "8,12", "--problems", "exact_diameter,radius",
                "--seed", "3"]
        assert main([*args, "--out", str(tmp_path / "local.jsonl")]) == 0
        assert main([
            *args, "--out", str(tmp_path / "remote.jsonl"),
            "--dispatch-workers", "2",
        ]) == 0
        for worker in joined:
            worker.join(timeout=15.0)
            assert not worker.is_alive()
        assert len(joined) == 2
        exports = [
            render_records(
                ExperimentStore(str(tmp_path / name)).load_records(), "csv"
            )
            for name in ("local.jsonl", "remote.jsonl")
        ]
        assert exports[0] == exports[1]

    def test_frames_carry_no_grid_kind(self):
        description = self._description(QUANTUM_REQUEST)
        assert "kind" not in description
        assert description["algorithms"] == ["quantum_exact", "quantum_radius"]

    def test_worker_ignores_a_grid_kind(self):
        """A frame that still carries ``"kind": "quantum"`` (as clients
        sent it while workers resolved problem names) names sweep
        algorithms all the same."""
        description = self._description(QUANTUM_REQUEST)
        for kind in ("quantum", "sweep", "banana"):
            decoded = decode_grid({**description, "kind": kind})
            assert list(decoded.table) == ["quantum_exact", "quantum_radius"]


def _spawn_worker(address, shard_dir, name, heartbeat=0.5):
    host, port = address
    return subprocess.Popen(
        [sys.executable, "-m", "repro.dispatch.worker",
         f"{host}:{port}", "--shard-dir", str(shard_dir),
         "--name", name, "--once", "--heartbeat", str(heartbeat)],
        env=_subprocess_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
    )


class TestSubprocessWorkers:
    def test_fault_grid_byte_identical(self, tmp_path):
        """Fault-injected grids survive the trip: the fault model rides
        the grid description's ``config`` to the worker."""
        specs, _ = _grid(sizes=(10,))
        table = resolve_algorithms(["two_approx_retry"])
        fault = FaultModel(loss=0.05, crash=0.1, timeout=256, seed=3)
        serial = run_sweep_grid(specs, table, base_seed=9, fault=fault)

        coordinator = DispatchCoordinator(worker_timeout=20.0)
        coordinator.start()
        proc = _spawn_worker(coordinator.address, tmp_path / "shards", "fw1")
        try:
            coordinator.wait_for_workers(1, timeout=30.0)
            remote = run_sweep_grid(
                specs, table, base_seed=9, fault=fault,
                runner=RemoteDispatch(coordinator=coordinator),
            )
        finally:
            coordinator.stop()
            proc.wait(timeout=30)
        assert render_records(remote, "jsonl") == render_records(serial, "jsonl")

        shard_dir = tmp_path / "shards"
        merged = merge_shards(
            sorted(str(shard_dir / name) for name in os.listdir(shard_dir))
        )
        assert merged == serial

    def test_killed_worker_shard_requeued(self, tmp_path):
        """SIGKILL the only worker mid-grid: its unfinished shards must be
        requeued (the ledger's stale-lease idiom) and completed by a
        replacement, with the stream and the merge still byte-identical.
        """
        specs, table = _grid(sizes=(24, 32))
        serial = run_sweep_grid(specs, table, base_seed=11)
        shard_dir = tmp_path / "shards"

        coordinator = DispatchCoordinator(shard_size=2, worker_timeout=3.0)
        coordinator.start()
        victim = _spawn_worker(coordinator.address, shard_dir, "victim")

        outcome = {}

        def _client():
            try:
                outcome["records"] = run_sweep_grid(
                    specs, table, base_seed=11,
                    runner=RemoteDispatch(coordinator=coordinator),
                )
            except Exception as error:  # surfaced in the main thread
                outcome["error"] = error

        client = threading.Thread(target=_client, daemon=True)
        rescue = None
        try:
            coordinator.wait_for_workers(1, timeout=30.0)
            client.start()
            victim_shard = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if shard_dir.is_dir():
                    stores = [
                        path for path in shard_dir.iterdir()
                        if path.name.endswith("-victim.jsonl")
                        and path.stat().st_size > 200
                    ]
                    if stores:
                        victim_shard = stores[0]
                        break
                time.sleep(0.05)
            assert victim_shard is not None, "victim never started computing"
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=10)
            rescue = _spawn_worker(coordinator.address, shard_dir, "rescue")
            client.join(timeout=120.0)
            assert not client.is_alive(), "grid never completed after requeue"
        finally:
            coordinator.stop()
            for proc in (victim, rescue):
                if proc is not None:
                    try:
                        proc.wait(timeout=15)
                    except subprocess.TimeoutExpired:
                        proc.kill()

        assert "error" not in outcome, outcome.get("error")
        remote = outcome["records"]
        assert render_records(remote, "jsonl") == render_records(serial, "jsonl")
        # the rescue worker actually computed cells...
        rescue_store = [
            path for path in shard_dir.iterdir()
            if path.name.endswith("-rescue.jsonl")
        ]
        assert rescue_store and rescue_store[0].stat().st_size > 0
        # ...and merging the victim's partial shard with the rescue's
        # dedups the overlap back to the exact serial record list.
        merged = merge_shards(
            sorted(str(path) for path in shard_dir.iterdir())
        )
        assert render_records(merged, "jsonl") == render_records(serial, "jsonl")
