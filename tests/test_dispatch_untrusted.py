"""The dispatch layer against untrusted peers.

Every byte a coordinator reads comes from another process: a frame may be
truncated, oversized, not JSON, or a well-formed frame whose fields are
nonsense.  These tests pin what such input may do -- a frame reader
returns a frame, ``None`` or raises :class:`FrameError`; a registered
worker that breaks the protocol is dropped and its lease requeued -- and
what it may not: fail, corrupt or hang another client's grid, or kill a
coordinator thread.

The fake worker registers before the grid arrives, on a coordinator
whose leases are 64 cells, so it is leased the grid's only shard
(``g1s1`` of grid ``g1``).  It sends its frames and hangs up; a real
worker then joins and finishes the requeued shard, and the grid must
match a serial run.
"""

from __future__ import annotations

import json
import math
import socket
import struct
import tempfile
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import run_sweep_grid
from repro.dispatch import (
    DispatchCoordinator,
    DispatchError,
    FrameError,
    FramedSocket,
    MAX_FRAME_BYTES,
    RemoteDispatch,
)
from repro.dispatch.protocol import encode_grid
from repro.dispatch.worker import run_worker
from repro.faults import NULL_FAULT_MODEL, FaultModel
from repro.runner import SWEEP_ALGORITHMS, GraphSpec, resolve_algorithms
from repro.store import record_from_dict, record_to_dict, render_records

SPECS = (GraphSpec("cycle", 8, seed=1), GraphSpec("path", 6, seed=1))
TABLE = resolve_algorithms(["two_approx"])
TOTAL = len(SPECS) * len(TABLE)
SERIAL_RECORDS = run_sweep_grid(SPECS, TABLE, base_seed=3)
SERIAL = render_records(SERIAL_RECORDS, "jsonl")


def _raw_frame(frame) -> bytes:
    """A length-prefixed frame, encoded leniently (``NaN`` allowed) --
    what a non-conforming peer may put on the wire."""
    payload = json.dumps(frame).encode("utf-8")
    return struct.pack(">I", len(payload)) + payload


def _fake_worker(address, frames, leased):
    """Register, take the lease, send ``frames`` raw, then hang up."""
    conn = FramedSocket(socket.create_connection(address, timeout=30))
    try:
        conn.send({"type": "register", "worker": "fake", "capabilities": {}})
        while True:
            frame = conn.recv()
            if frame is None or frame.get("type") == "shard":
                break
        leased.set()
        for frame in frames:
            conn.sock.sendall(_raw_frame(frame))
    except OSError:
        pass  # dropped mid-send: the coordinator hung up first
    finally:
        conn.close()


def _run_past_fake_worker(frames, tmp_path):
    """Run the grid with a fake worker holding its lease first.

    Returns the client's export, or the exception it raised, and the
    exceptions that escaped coordinator threads.  Whatever the fake
    worker sent, every cost estimate must stay finite.
    """
    escaped = []
    previous_hook = threading.excepthook
    threading.excepthook = lambda args: escaped.append(args.exc_value)
    coordinator = DispatchCoordinator(shard_size=64)
    coordinator.start()
    leased = threading.Event()
    fake = threading.Thread(
        target=_fake_worker, args=(coordinator.address, frames, leased),
        daemon=True,
    )
    real = threading.Thread(
        target=run_worker,
        args=(*coordinator.address, str(tmp_path / "shards")),
        kwargs=dict(worker_id="real", once=True, connect_wait=15.0,
                    heartbeat_interval=0.5),
        daemon=True,
    )
    outcome = {}

    def client():
        try:
            outcome["export"] = render_records(run_sweep_grid(
                SPECS, TABLE, base_seed=3,
                runner=RemoteDispatch(coordinator=coordinator),
            ), "jsonl")
        except Exception as error:  # reported to the test thread
            outcome["error"] = error

    grid = threading.Thread(target=client, daemon=True)
    try:
        fake.start()
        coordinator.wait_for_workers(1, timeout=30.0)
        grid.start()
        assert leased.wait(30.0), "the fake worker was never leased a shard"
        fake.join(timeout=30.0)
        deadline = time.monotonic() + 30.0
        while coordinator.worker_count():
            assert time.monotonic() < deadline, "the fake worker was never dropped"
            time.sleep(0.01)
        real.start()
        coordinator.wait_for_workers(1, timeout=30.0)
        grid.join(timeout=60.0)
        assert not grid.is_alive(), "the grid never finished"
    finally:
        started = time.perf_counter()
        coordinator.stop()
        stop_seconds = time.perf_counter() - started
        real.join(timeout=15.0)
        threading.excepthook = previous_hook
    assert stop_seconds < 2.0
    assert not real.is_alive()
    for name, info in SWEEP_ALGORITHMS.items():
        assert math.isfinite(
            coordinator._cost_model.estimate(name, 64, info.guarantee)
        ), name
    return outcome.get("export", outcome.get("error")), escaped


class TestMalformedWorkerFrames:
    @pytest.mark.parametrize("frames", [
        # Cells beyond the grid used to count towards its completion.
        [{"type": "cell", "grid": "g1", "index": index, "record": {}}
         for index in range(1000, 1004)],
        [{"type": "cell", "grid": "g1", "index": -1, "record": {}}],
        # A null record used to reach the client as a TypeError.
        [{"type": "cell", "grid": "g1", "index": 0, "record": None}],
        # A missing or non-integer index raised in the reader thread.
        [{"type": "cell", "grid": "g1", "record": {}}],
        [{"type": "cell", "grid": "g1", "index": "0", "record": {}}],
        [{"type": "cell", "grid": "g1", "index": True, "record": {}}],
        # So did heartbeat timings that are not a list; a heartbeat is
        # now liveness only.
        [{"type": "heartbeat", "timings": 7}],
        # A failure report for a shard this worker does not hold used to
        # fail the grid.
        [{"type": "shard_failed", "grid": "g1", "shard": "g1s9",
          "message": "not mine"}],
        [{"type": "shard_failed", "grid": "g1", "message": "no shard"}],
    ], ids=["beyond-total", "negative", "null-record", "no-index",
            "string-index", "bool-index", "timings-not-a-list",
            "foreign-shard-failed", "shardless-failed"])
    def test_grid_unaffected(self, frames, tmp_path):
        result, escaped = _run_past_fake_worker(frames, tmp_path)
        assert escaped == []
        assert result == SERIAL

    def test_unparseable_record_is_a_dispatch_error(self, tmp_path):
        frames = [{"type": "cell", "grid": "g1", "index": 0,
                   "record": {"family": 5}}]
        result, escaped = _run_past_fake_worker(frames, tmp_path)
        assert escaped == []
        assert isinstance(result, DispatchError)
        assert "malformed record for cell 0" in str(result)

    def test_parent_grid_frame_with_a_tier_runs(self, tmp_path):
        """Coordinators that still ship ``"config": {"tier": ..., ...}``
        reach workers that no longer know the field."""
        fault = FaultModel(loss=0.1, delay=0.1, timeout=256, seed=2)
        faulty, null = _run_raw_grids([
            (fault, {"tier": "stdlib", "fault": fault.to_dict()}),
            (NULL_FAULT_MODEL, {"fault": None}),
        ], tmp_path)
        assert faulty == render_records(
            run_sweep_grid(SPECS, TABLE, base_seed=3, fault=fault), "jsonl"
        )
        assert null == SERIAL

    def test_unknown_config_key_fails_only_its_grid(self, tmp_path):
        bogus, null = _run_raw_grids([
            (NULL_FAULT_MODEL, {"bogus": 1}),
            (NULL_FAULT_MODEL, {"fault": None}),
        ], tmp_path)
        assert bogus["type"] == "error"
        assert null == SERIAL


class TestRegisteredCapabilities:
    def test_stats_stay_strict_json(self):
        """A worker may register any JSON, ``Infinity`` and ``NaN``
        included; ``stats()`` (``--dispatch-stats``, the service
        ``/metrics``) reports every capability that is not a finite
        number, string, bool or null as null."""
        coordinator = DispatchCoordinator()
        coordinator.start()
        conn = FramedSocket(
            socket.create_connection(coordinator.address, timeout=30)
        )
        try:
            conn.sock.sendall(_raw_frame({
                "type": "register", "worker": "odd", "capabilities": {
                    "score": math.inf, "drift": -math.inf, "noise": math.nan,
                    "nested": {"a": [1]}, "list": [2], "cpus": 2,
                    "ratio": 0.5, "name": "box", "numpy": False, "gpu": None,
                },
            }))
            coordinator.wait_for_workers(1, timeout=30.0)
            stats = coordinator.stats()
        finally:
            conn.close()
            coordinator.stop()
        json.dumps(stats, allow_nan=False)
        [worker] = stats["workers"]
        assert worker["weight"] == 1.0
        assert worker["capabilities"] == {
            "score": None, "drift": None, "noise": None, "nested": None,
            "list": None, "cpus": 2, "ratio": 0.5, "name": "box",
            "numpy": False, "gpu": None,
        }


def _raw_grid_client(address, fault, config, outcomes, slot):
    """Submit the test grid under ``fault`` with its frame's ``config``
    replaced by ``config``; store the export or the error frame."""
    tasks = [(spec, name) for spec in SPECS for name in TABLE]
    description = encode_grid(tasks, (TABLE, 3, fault))
    description["config"] = config
    conn = FramedSocket(socket.create_connection(address, timeout=60))
    try:
        conn.send({"type": "grid", "description": description})
        records = {}
        while len(records) < len(tasks):
            frame = conn.recv()
            if frame is None or frame.get("type") == "error":
                outcomes[slot] = frame
                return
            if frame.get("type") == "cell":
                records[frame["index"]] = record_from_dict(frame["record"])
        outcomes[slot] = render_records(
            [records[index] for index in sorted(records)], "jsonl"
        )
    finally:
        conn.close()


def _run_raw_grids(grids, tmp_path):
    """Run hand-built grid frames concurrently on one real worker."""
    coordinator = DispatchCoordinator(shard_size=64)
    coordinator.start()
    worker = threading.Thread(
        target=run_worker,
        args=(*coordinator.address, str(tmp_path / "shards")),
        kwargs=dict(worker_id="real", once=True, connect_wait=15.0,
                    heartbeat_interval=0.5),
        daemon=True,
    )
    outcomes = [None] * len(grids)
    clients = [
        threading.Thread(
            target=_raw_grid_client,
            args=(coordinator.address, fault, config, outcomes, slot),
            daemon=True,
        )
        for slot, (fault, config) in enumerate(grids)
    ]
    try:
        worker.start()
        coordinator.wait_for_workers(1, timeout=30.0)
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=60.0)
            assert not client.is_alive(), "a grid never finished"
    finally:
        coordinator.stop()
        worker.join(timeout=15.0)
    return outcomes


# ----------------------------------------------------------------------
# Fuzzing: arbitrary frames from a registered worker
# ----------------------------------------------------------------------
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
#: Grid and shard names the coordinator really uses, so fuzzed frames
#: reach live state -- minus the fake worker's own shard ``g1s1``, whose
#: completion and failure it may legitimately report.
_GRID = st.sampled_from(["g1", "g2"]) | _JSON
_SHARD = st.sampled_from(["g1s2", "g2s1"]) | _JSON
_BAD_INDEX = (
    st.integers().filter(lambda index: not 0 <= index < TOTAL)
    | st.none() | st.booleans() | st.floats() | st.text(max_size=3)
)
_NON_OBJECT = st.none() | st.booleans() | st.integers() | st.floats() | st.lists(_JSON)
_SECONDS = st.floats() | st.integers(-1, 10**400) | _JSON
_TIMING = st.fixed_dictionaries({}, optional={
    "algorithm": st.sampled_from(["two_approx", "classical_exact"]) | _JSON,
    "num_nodes": st.integers(-5, 10**400) | _JSON,
    "seconds": _SECONDS,
    "kind": st.sampled_from(["sweep", "quantum"]) | _JSON,
})
_FRAMES = st.lists(st.one_of(
    # A record is the worker's word, so a fuzzed cell pairs a valid
    # index only with a value that is not a record object, or with the
    # record the serial run computed there.
    st.fixed_dictionaries({"type": st.just("cell")}, optional={
        "grid": _GRID, "index": _BAD_INDEX, "record": _JSON, "key": _JSON,
        "seconds": _SECONDS,
    }),
    st.fixed_dictionaries({
        "type": st.just("cell"), "grid": _GRID,
        "index": st.integers(0, TOTAL - 1), "record": _NON_OBJECT,
    }, optional={"seconds": _SECONDS}),
    st.integers(0, TOTAL - 1).flatmap(lambda index: st.fixed_dictionaries({
        "type": st.just("cell"), "grid": st.just("g1"),
        "index": st.just(index),
        "record": st.just(record_to_dict(SERIAL_RECORDS[index])),
        "seconds": _SECONDS,
    })),
    st.fixed_dictionaries({"type": st.just("heartbeat")}, optional={
        "timings": st.lists(_TIMING | _JSON, max_size=4) | _JSON,
    }),
    st.fixed_dictionaries({"type": st.just("shard_done")}, optional={
        "grid": _GRID, "shard": _SHARD,
    }),
    st.fixed_dictionaries({"type": st.just("shard_failed")}, optional={
        "grid": _GRID, "shard": _SHARD, "message": _JSON,
    }),
    st.dictionaries(st.text(max_size=6), _JSON, max_size=3),
), max_size=6)


class TestWorkerFrameFuzz:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(frames=_FRAMES)
    def test_arbitrary_frames_leave_a_concurrent_grid_identical(
        self, frames, tmp_path
    ):
        result, escaped = _run_past_fake_worker(frames, tmp_path)
        assert escaped == []
        assert result == SERIAL


# ----------------------------------------------------------------------
# Grid descriptions from an untrusted client
# ----------------------------------------------------------------------
_DESCRIPTION = encode_grid(
    [(spec, name) for spec in SPECS for name in TABLE],
    (TABLE, 3, NULL_FAULT_MODEL),
)


def _edited(drop=(), **override):
    """:data:`_DESCRIPTION` without the ``drop`` fields, then overridden."""
    description = {
        key: value for key, value in _DESCRIPTION.items() if key not in drop
    }
    description.update(override)
    return description


def _submit_description(description, shard_dir):
    """Submit ``description`` to a coordinator with one real worker.

    Returns what the client got -- its records or the
    :class:`DispatchError` it raised -- the exceptions that escaped any
    thread, and the grids the coordinator still holds once the client is
    gone.
    """
    escaped = []
    previous_hook = threading.excepthook
    threading.excepthook = lambda args: escaped.append(args.exc_value)
    coordinator = DispatchCoordinator()
    coordinator.start()
    worker = threading.Thread(
        target=run_worker, args=(*coordinator.address, shard_dir),
        kwargs=dict(worker_id="real", once=True, connect_wait=15.0,
                    heartbeat_interval=0.5),
        daemon=True,
    )
    runner = RemoteDispatch(coordinator=coordinator)
    tasks = description.get("tasks") if isinstance(description, dict) else None
    total = len(tasks) if isinstance(tasks, list) else 1
    outcome = {}

    def client():
        try:
            outcome["result"] = list(runner._stream(description, total))
        except DispatchError as error:
            outcome["result"] = error

    grid = threading.Thread(target=client, daemon=True)
    try:
        worker.start()
        coordinator.wait_for_workers(1, timeout=30.0)
        grid.start()
        grid.join(timeout=15.0)
        hung = grid.is_alive()
        runner.close()
        deadline = time.monotonic() + 10.0
        while coordinator._grids and time.monotonic() < deadline:
            time.sleep(0.01)
        left = list(coordinator._grids)
    finally:
        coordinator.stop()
        worker.join(timeout=15.0)
        threading.excepthook = previous_hook
    assert not hung, "the client never heard back"
    return outcome["result"], escaped, left


def _one_spec(**spec):
    return _edited(specs=[{"seed": 1, **spec}], tasks=[[0, 0]])


class TestMalformedGridDescriptions:
    """Each of these was once admitted; a worker then failed it, or
    (``slash-signature``) failed to open its shard file and dropped its
    connection, leaving the client waiting."""

    @pytest.mark.parametrize("description", [
        _edited(specs=[], tasks=[[5, 0]]),
        _edited(tasks=[[0, 7]]),
        _edited(tasks=[["x", 0]]),
        _one_spec(family="cycle", num_nodes=10**400),
        _edited(specs=["cycle"], tasks=[[0, 0]]),
        _one_spec(family="cycle"),
        _edited(algorithms=["nope"]),
        _edited(drop=("base_seed",)),
        _one_spec(family="cycle", num_nodes=8.7),
        _one_spec(family="cycle", num_nodes="8"),
        _one_spec(family="moebius", num_nodes=8),
        _edited(signature="a/b"),
    ], ids=["no-specs", "name-out-of-range", "string-index", "huge-nodes",
            "string-spec", "no-num-nodes", "unknown-algorithm",
            "no-base-seed", "float-nodes", "string-nodes", "unknown-family",
            "slash-signature"])
    def test_refused_with_an_error(self, description, tmp_path):
        result, escaped, left = _submit_description(
            description, str(tmp_path)
        )
        assert escaped == []
        assert left == []
        assert isinstance(result, DispatchError)
        assert "malformed grid description" in str(result)

    def test_well_formed_description_runs(self, tmp_path):
        result, escaped, left = _submit_description(
            _DESCRIPTION, str(tmp_path)
        )
        assert escaped == [] and left == []
        assert render_records(result, "jsonl") == SERIAL


#: Node counts a worker builds in no time, or that no float prior holds.
_NUM_NODES = (
    st.integers(-2, 12) | st.integers(10**309, 10**500)
    | st.sampled_from([None, True, "x", "", 2.5, float("nan"), float("inf"),
                       [], {}])
)
_SPEC = st.fixed_dictionaries(
    {"family": st.sampled_from(["cycle", "path", "controlled"]) | _JSON},
    optional={
        "num_nodes": _NUM_NODES,
        "seed": st.integers(0, 3) | _JSON,
        "diameter": st.none() | st.integers(-1, 6) | _JSON,
        "colour": _JSON,
    },
) | _JSON
_FAULT = st.none() | st.just(
    FaultModel(loss=0.1, timeout=64, seed=1).to_dict()
) | _JSON
_DESCRIPTIONS = st.fixed_dictionaries({}, optional={
    "specs": st.lists(_SPEC, max_size=3) | _JSON,
    "algorithms": st.lists(
        st.sampled_from(["two_approx", "classical_exact", "nope"]) | _JSON,
        max_size=3,
    ) | _JSON,
    "tasks": st.lists(
        st.lists(st.integers(-1, 3), min_size=2, max_size=2) | _JSON,
        max_size=4,
    ) | _JSON,
    "base_seed": st.integers(-3, 3) | _JSON,
    "signature": st.sampled_from(
        [_DESCRIPTION["signature"], "a/b", "../0123456789abc", "0" * 17,
         _DESCRIPTION["signature"].upper()]
    ) | st.text(max_size=17) | _JSON,
    "config": st.fixed_dictionaries({}, optional={
        "fault": _FAULT, "tier": _JSON, "bogus": _JSON,
    }) | _JSON,
}).map(lambda override: {**_DESCRIPTION, **override}) | _JSON


class TestGridDescriptionFuzz:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(description=_DESCRIPTIONS)
    def test_client_gets_records_or_an_error(self, description, tmp_path):
        result, escaped, left = _submit_description(
            description, tempfile.mkdtemp(dir=tmp_path)
        )
        assert escaped == []
        assert left == []
        if isinstance(result, DispatchError):
            # Every admitted description decodes on the worker too.
            assert "unknown grid" not in str(result)
        else:
            assert len(result) == len(description["tasks"])


# ----------------------------------------------------------------------
# Fuzzing: the frame reader on arbitrary byte streams
# ----------------------------------------------------------------------
def _prefixed(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


_STREAMS = st.one_of(
    st.binary(max_size=512),
    # A frame whose payload is arbitrary bytes.
    st.binary(max_size=256).map(_prefixed),
    # A prefix promising more than follows (truncation).
    st.tuples(st.integers(1, 4096), st.binary(max_size=64)).map(
        lambda item: struct.pack(">I", item[0] + len(item[1])) + item[1]
    ),
    # An oversized prefix.
    st.integers(MAX_FRAME_BYTES + 1, 2**32 - 1).map(lambda n: struct.pack(">I", n)),
    # Well-formed JSON that is not an object, or is nested absurdly deep.
    _JSON.map(lambda value: _prefixed(json.dumps(value).encode())),
    st.integers(1, 5000).map(lambda depth: _prefixed(b"[" * depth + b"]" * depth)),
    st.lists(st.binary(max_size=64), max_size=4).map(b"".join),
)


class TestFrameReaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(stream=st.lists(_STREAMS, min_size=1, max_size=3).map(b"".join))
    def test_recv_returns_a_frame_none_or_frame_error(self, stream):
        left, right = socket.socketpair()
        right.settimeout(5.0)  # a hang fails the test instead of stalling it
        reader = FramedSocket(right)
        try:
            left.sendall(stream)
            left.shutdown(socket.SHUT_WR)
            for _ in range(len(stream) + 1):
                try:
                    frame = reader.recv()
                except FrameError:
                    break
                if frame is None:
                    break
                assert isinstance(frame, dict)
            else:
                pytest.fail("recv never reached the end of the stream")
        finally:
            left.close()
            reader.close()

    def test_deeply_nested_payload_is_a_frame_error(self):
        left, right = socket.socketpair()
        depth = 100_000
        left.sendall(_prefixed(b"[" * depth + b"]" * depth))
        with pytest.raises(FrameError, match="undecodable"):
            FramedSocket(right).recv()
        left.close()
        right.close()

