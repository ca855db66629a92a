"""The dispatch worker: execute leased shards, persist a local store shard.

``repro worker join HOST:PORT --shard-dir DIR`` runs this loop: connect
to a :class:`repro.dispatch.coordinator.DispatchCoordinator`, register
(reporting a ``capabilities`` probe: cpu count, numpy availability
and a micro-benchmark throughput score the coordinator uses to weight
lease sizes), heartbeat, and for every leased shard run the exact
per-cell body of a local sweep
(:func:`repro.analysis.sweep._sweep_one_grid_cell`) with the grid's
fault model, decoded from the grid frame by the coordinator's own
admission decoder (:func:`repro.dispatch.protocol.decode_grid`) into the
same task context local pool workers receive -- so a remote
cell computes the byte-identical record a serial run would.

Every completed cell is appended to the worker's **own** JSONL store
shard (``DIR/shard-<signature>-<worker_id>.jsonl``) under the store's
advisory writer lock before the result frame is sent, and cells whose
task keys are already in the shard (a requeue after a reconnect) are
replayed from disk instead of recomputed.  Shards are therefore durable
and idempotent: kill a worker mid-shard and either the coordinator
requeues the remainder elsewhere, or the restarted worker resumes its own
shard file -- the provenance-aware merge
(:func:`repro.store.merge.merge_shards`) deduplicates whichever way the
race went.  Each lease's completion footer records the worker id, shard
id and cells/sec throughput for ``repro merge --stats``.

Between cells the worker polls its connection for ``trim`` frames -- the
adaptive coordinator's work stealing: trimmed indices were re-leased to
an idle worker and are skipped here.  A late trim merely means both
workers computed the cell; the records are identical by construction and
dedup'd downstream.  A freshly computed cell's frame carries its wall
time (``seconds``), calibrating the coordinator's cost model online;
heartbeats are liveness only.

The connection drops when the coordinator stops or dies; with
``once=True`` the worker then exits (the CI smoke mode); with
``supervise=True`` it instead reconnects forever with capped exponential
backoff -- surviving coordinator restarts and replaying its shard store
on rejoin -- until ``stop_event`` is set; otherwise it retries the
connect for ``connect_wait`` seconds before giving up.

``REPRO_DISPATCH_THROTTLE`` (seconds, float) sleeps after every freshly
computed cell -- the deterministic slow-worker hook the straggler
benchmark and the CI heterogeneous smoke use to manufacture stragglers.
The registration micro-benchmark deliberately ignores it: the hook
models an *unexpected* runtime straggler whose capabilities looked
normal, the case stealing and speculation exist to absorb (the cost
model still learns the true cell times from the cell frames).
"""

from __future__ import annotations

import importlib.util
import os
import platform
import re
import select
import socket
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.dispatch.protocol import (
    DecodedGrid,
    DispatchError,
    FramedSocket,
    FrameError,
    decode_grid,
    parse_address,
)

#: Worker ids become shard filename components; same shape as the store's
#: tenant names so an id can never escape the shard directory.
_WORKER_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: How long a worker waits on a shard store's advisory writer lock.  A
#: worker only ever contends with its own previous (crashed) incarnation,
#: whose lock the stale-holder break clears almost immediately.
_LOCK_WAIT_SECONDS = 15.0

#: Environment hook: seconds slept after each freshly computed cell.
THROTTLE_ENV = "REPRO_DISPATCH_THROTTLE"

#: Supervisor reconnect backoff: initial delay and cap (seconds).
_BACKOFF_INITIAL = 0.5
_BACKOFF_CAP = 15.0


def default_worker_id() -> str:
    """A host- and pid-derived worker id, sanitised for filenames."""
    raw = f"{platform.node()}-{os.getpid()}"
    cleaned = re.sub(r"[^A-Za-z0-9_.-]", "-", raw).lstrip(".-") or "worker"
    return cleaned[:64]


def validate_worker_id(worker_id: str) -> str:
    """Reject worker ids that are not safe shard-filename components."""
    if not _WORKER_ID_PATTERN.match(worker_id):
        raise ValueError(
            f"invalid worker id {worker_id!r}: use letters, digits, "
            "'_', '-' or '.' (max 64 chars, no leading '.')"
        )
    return worker_id


def shard_store_path(shard_dir: str, signature: str, worker_id: str) -> str:
    """Where a worker persists its cells for one grid."""
    return os.path.join(shard_dir, f"shard-{signature}-{worker_id}.jsonl")


def resolve_throttle(throttle: Optional[float] = None) -> float:
    """The effective per-cell throttle: explicit arg, else the env hook."""
    if throttle is None:
        raw = os.environ.get(THROTTLE_ENV, "").strip()
        if raw:
            try:
                throttle = float(raw)
            except ValueError:
                throttle = None
    return max(0.0, throttle or 0.0)


def probe_capabilities(throttle: Optional[float] = None) -> Dict[str, Any]:
    """What this worker tells the coordinator about itself at register.

    ``score`` is work units per second from a short fixed arithmetic
    micro-benchmark -- a *hardware* throughput probe feeding the
    coordinator's capability-weighted lease sizing; only ratios between
    workers matter.  The throttle hook is deliberately NOT part of the
    timed window: it models an **unexpected** runtime straggler (a
    worker whose capabilities looked normal but whose cells run slow --
    contended box, thermal limit), which is precisely the case work
    stealing and speculative re-execution exist to absorb.  The
    effective throttle is still *reported* (diagnostic only; the
    coordinator weights by ``score`` alone).
    """
    throttle = resolve_throttle(throttle)
    rounds = 3
    started = time.perf_counter()
    sink = 0
    for _ in range(rounds):
        for value in range(20_000):
            sink ^= (value * 2654435761) & 0xFFFFFFFF
    elapsed = max(time.perf_counter() - started, 1e-9)
    del sink
    return {
        "cpus": os.cpu_count() or 1,
        "numpy": importlib.util.find_spec("numpy") is not None,
        "score": round(rounds / elapsed, 6),
        "throttle": throttle,
    }


def _poll_frames(conn: FramedSocket) -> List[Dict[str, Any]]:
    """Frames already waiting on the connection, without blocking.

    The shard-execution loop calls this between cells so the adaptive
    coordinator's ``trim`` frames (work stealing) land mid-shard; any
    other frame types surfaced here are deferred back to the main serve
    loop untouched.
    """
    frames: List[Dict[str, Any]] = []
    while True:
        readable, _, _ = select.select([conn.sock], [], [], 0.0)
        if not readable:
            return frames
        frame = conn.recv()
        if frame is None:
            raise OSError("dispatch connection closed mid-shard")
        frames.append(frame)


def _execute_shard(
    conn: FramedSocket,
    grid: DecodedGrid,
    frame: Dict[str, Any],
    shard_dir: str,
    worker_id: str,
    stats: Dict[str, int],
    throttle: float,
) -> Tuple[int, List[Dict[str, Any]]]:
    """Run one leased shard.

    Returns ``(cells streamed back, frames deferred to the serve loop)``
    -- frames other than ``trim`` that arrived while polling mid-shard.
    """
    from repro.analysis.sweep import _sweep_one_grid_cell, sweep_task_key
    from repro.store import ExperimentStore
    from repro.store.records import record_to_dict

    shard_id = frame["shard"]
    indices = [int(index) for index in frame["indices"]]
    trimmed: set = set()
    deferred: List[Dict[str, Any]] = []

    def absorb(frames: List[Dict[str, Any]]) -> None:
        for item in frames:
            if (
                item.get("type") == "trim"
                and item.get("shard") == shard_id
            ):
                trimmed.update(int(index) for index in item.get("indices", ()))
            else:
                deferred.append(item)

    store = ExperimentStore(
        shard_store_path(shard_dir, grid.signature, worker_id)
    )
    started = time.perf_counter()
    streamed = 0
    fresh = 0
    with store.acquire_writer(timeout=_LOCK_WAIT_SECONDS):
        completed = store.begin_sweep(
            specs=grid.specs,
            algorithms=grid.names,
            base_seed=grid.base_seed,
            signature=grid.signature,
            jobs=1,
            resume=store.exists(),
            fault=grid.fault,
        )
        for index in indices:
            absorb(_poll_frames(conn))
            if index in trimmed:
                stats["trimmed"] += 1
                continue
            spec, name = grid.cell(index)
            key = sweep_task_key(spec, name, grid.base_seed, grid.fault)
            record = completed.get(key)
            cell: Dict[str, Any] = {
                "type": "cell",
                "grid": frame["grid"],
                "shard": shard_id,
                "index": index,
                "key": key,
            }
            if record is None:
                cell_started = time.perf_counter()
                record = _sweep_one_grid_cell(
                    (grid.table, grid.base_seed, grid.fault), (spec, name)
                )
                store.append_record(key, index, record)
                if throttle:
                    time.sleep(throttle)
                cell["seconds"] = round(time.perf_counter() - cell_started, 9)
                fresh += 1
            else:
                stats["replayed"] += 1
            cell["record"] = record_to_dict(record)
            conn.send(cell)
            streamed += 1
        wall = time.perf_counter() - started
        store.finish_sweep(
            wall_seconds=wall,
            total_records=streamed,
            resumed_records=streamed - fresh,
            extra={
                "worker": worker_id,
                "shard": str(shard_id),
                "cells": streamed,
                "fresh": fresh,
                "cells_per_second": round(streamed / wall, 6)
                if wall > 0 else 0.0,
            },
        )
    return streamed, deferred


def _serve_connection(
    conn: FramedSocket,
    shard_dir: str,
    worker_id: str,
    stats: Dict[str, int],
    throttle: float,
) -> str:
    """Process frames on one live connection.

    Returns ``"shutdown"`` (coordinator said goodbye) or ``"lost"`` (the
    connection dropped, reconnect may help).
    """
    grids: Dict[str, DecodedGrid] = {}
    backlog: List[Dict[str, Any]] = []
    while True:
        if backlog:
            frame = backlog.pop(0)
        else:
            try:
                frame = conn.recv()
            except (FrameError, OSError):
                return "lost"
            if frame is None:
                return "lost"
        kind = frame.get("type")
        if kind == "shutdown":
            return "shutdown"
        if kind == "trim":
            continue  # stale: its shard already finished here
        if kind == "grid":
            try:
                grids[str(frame["grid"])] = decode_grid(frame["description"])
            except Exception as error:
                _report_failure(conn, frame, "grid", error)
            continue
        if kind == "shard":
            grid = grids.get(str(frame.get("grid")))
            if grid is None:
                _report_failure(
                    conn, frame, "shard",
                    DispatchError("shard for an unknown grid"),
                )
                continue
            try:
                streamed, deferred = _execute_shard(
                    conn, grid, frame, shard_dir, worker_id, stats, throttle,
                )
                stats["cells"] += streamed
                stats["shards"] += 1
                backlog.extend(deferred)
                conn.send({
                    "type": "shard_done",
                    "grid": frame["grid"],
                    "shard": frame["shard"],
                })
            except OSError:
                return "lost"
            except Exception as error:  # kernel bug: surface, keep serving
                _report_failure(conn, frame, "shard", error)


def _report_failure(
    conn: FramedSocket, frame: Dict[str, Any], what: str, error: Exception
) -> None:
    message = "".join(
        traceback.format_exception_only(type(error), error)
    ).strip()
    conn.send_quietly({
        "type": "shard_failed",
        "grid": frame.get("grid"),
        "shard": frame.get("shard"),
        "message": f"{what} failed on this worker: {message}",
    })


def run_worker(
    host: str,
    port: int,
    shard_dir: str,
    worker_id: Optional[str] = None,
    once: bool = False,
    connect_wait: float = 30.0,
    heartbeat_interval: float = 2.0,
    poll: float = 0.25,
    supervise: bool = False,
    throttle: Optional[float] = None,
    stop_event: Optional[threading.Event] = None,
) -> Dict[str, int]:
    """Join a coordinator and serve shards until it shuts down.

    Returns ``{"cells", "shards", "replayed", "trimmed", "sessions"}``
    counters.  With ``once`` the worker exits as soon as its connection
    ends; with ``supervise`` it never gives up -- connection drops *and*
    clean coordinator shutdowns alike trigger a reconnect with capped
    exponential backoff (0.5s doubling to 15s, reset after each
    successful registration), so the worker rides out coordinator
    restarts and replays its shard store on rejoin; it returns only when
    ``stop_event`` is set.  Otherwise the worker keeps retrying the
    connect for ``connect_wait`` seconds after each drop and raises
    :class:`DispatchError` when the coordinator stays unreachable.
    """
    if once and supervise:
        raise ValueError("once and supervise are mutually exclusive")
    worker_id = validate_worker_id(worker_id or default_worker_id())
    os.makedirs(shard_dir, exist_ok=True)
    throttle = resolve_throttle(throttle)
    capabilities = probe_capabilities(throttle)
    stop_event = stop_event or threading.Event()
    stats = {
        "cells": 0, "shards": 0, "replayed": 0, "trimmed": 0, "sessions": 0,
    }
    backoff = _BACKOFF_INITIAL
    while True:
        deadline = time.monotonic() + connect_wait
        sock = None
        while sock is None:
            if supervise and stop_event.is_set():
                return stats
            try:
                sock = socket.create_connection((host, port), timeout=5.0)
            except OSError:
                if supervise:
                    if stop_event.wait(backoff):
                        return stats
                    backoff = min(backoff * 2.0, _BACKOFF_CAP)
                    continue
                if time.monotonic() >= deadline:
                    raise DispatchError(
                        f"could not reach dispatch coordinator at "
                        f"{host}:{port} within {connect_wait:g}s"
                    )
                time.sleep(poll)
        sock.settimeout(None)
        conn = FramedSocket(sock)
        stop_heartbeat = threading.Event()

        def _beat(conn=conn, stop=stop_heartbeat):
            while not stop.wait(heartbeat_interval):
                if not conn.send_quietly({"type": "heartbeat"}):
                    return

        if not conn.send_quietly({
            "type": "register",
            "worker": worker_id,
            "pid": os.getpid(),
            "host": platform.node(),
            "capabilities": capabilities,
        }):
            conn.close()
            continue
        backoff = _BACKOFF_INITIAL  # registered: a restart starts fresh
        heartbeat = threading.Thread(
            target=_beat, name="dispatch-heartbeat", daemon=True
        )
        heartbeat.start()
        try:
            outcome = _serve_connection(
                conn, shard_dir, worker_id, stats, throttle
            )
        finally:
            stop_heartbeat.set()
            conn.close()
            heartbeat.join(timeout=heartbeat_interval + 1.0)
        stats["sessions"] += 1
        if supervise:
            if stop_event.is_set():
                return stats
            if stop_event.wait(backoff):
                return stats
            backoff = min(backoff * 2.0, _BACKOFF_CAP)
            continue
        if outcome == "shutdown" or once:
            return stats


def main(argv=None) -> int:
    """``python -m repro.dispatch.worker`` -- the bare worker entry point.

    The CLI front door is ``repro worker join``; this module entry exists
    so benchmark harnesses and CI can spawn workers without the argparse
    tree import cost.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.dispatch.worker",
        description="Join a dispatch coordinator and execute sweep shards.",
    )
    parser.add_argument("address", help="coordinator HOST:PORT")
    parser.add_argument(
        "--shard-dir", required=True,
        help="directory for this worker's JSONL store shards",
    )
    parser.add_argument(
        "--name", default=None, help="worker id (default: host-pid)"
    )
    parser.add_argument(
        "--once", action="store_true",
        help="exit when the coordinator connection ends (no reconnect)",
    )
    parser.add_argument(
        "--supervise", action="store_true",
        help="never give up: reconnect with capped exponential backoff "
        "across coordinator restarts (mutually exclusive with --once)",
    )
    parser.add_argument(
        "--connect-wait", type=float, default=30.0,
        help="seconds to keep retrying the coordinator connect",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=2.0,
        help="seconds between heartbeat frames",
    )
    args = parser.parse_args(argv)
    try:
        host, port = parse_address(args.address)
        stats = run_worker(
            host,
            port,
            shard_dir=args.shard_dir,
            worker_id=args.name,
            once=args.once,
            connect_wait=args.connect_wait,
            heartbeat_interval=args.heartbeat,
            supervise=args.supervise,
        )
    except (ValueError, DispatchError) as error:
        print(f"error: {error}")
        return 2
    print(
        f"worker done: {stats['cells']} cell(s) over {stats['shards']} shard(s)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
