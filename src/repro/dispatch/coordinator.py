"""The dispatch coordinator: registration, shard scheduling, requeue.

One coordinator serves two kinds of peers over the same listening socket
(:mod:`repro.dispatch.protocol` frames):

* **workers** (``repro worker join HOST:PORT``) open a connection, send a
  ``register`` frame (carrying a ``capabilities`` report: cpu count,
  numpy availability, a micro-benchmark throughput score) and then
  wait for work, sending ``heartbeat`` frames while idle.  The
  coordinator answers with a ``grid`` description frame (once per worker
  per grid) followed by ``shard`` frames naming the task indices to run;
  the worker streams back one ``cell`` frame per completed cell and a
  ``shard_done`` when the slice is finished.  A freshly computed cell's
  frame carries its wall time, which calibrates the coordinator's cost
  model online with the algorithm and node count that the *admitted*
  grid holds at that index; a heartbeat is liveness only.
* **clients** (a :class:`repro.dispatch.backend.RemoteDispatch` inside
  ``repro sweep`` or a service daemon job) send a single ``grid`` frame
  describing the cells to run and then receive the completed ``cell``
  frames -- in completion order, dedup'd -- until ``grid_done``.  A
  description no worker could run (one that
  :func:`repro.dispatch.protocol.decode_grid` refuses) is answered with
  an ``error`` frame instead.  A client cancels its grid by closing the
  connection: the grid's unleased cells are dropped and its leaseholders
  trimmed.

Shards are cut **at lease time** from the grid's pending index range,
sized by the per-cell cost model (:mod:`repro.dispatch.cost`) and
weighted by the leasing worker's capability score: a fast worker takes a
larger slice of the remaining *cost*, and every cut takes ``remaining /
(factor * fleet)`` so shards shrink toward the tail (factoring / guided
self-scheduling).  When the work drains and a live worker idles, the
coordinator **steals**: the largest in-flight remainder is split, the
tail half re-leased to the idle worker, and the victim told to skip the
stolen cells (a ``trim`` frame, honoured between cells).  Past
``straggler_deadline`` seconds it also **speculates**: an unfinished
shard's remainder is re-leased *as a copy* to an idle worker and both
race.  Every cut -- lease, steal split -- is one
:func:`repro.dispatch.cost.take_cost_prefix` call.

Stealing and speculation never threaten correctness: every cell is
deterministic in its task key (:func:`repro.analysis.sweep.sweep_task_key`),
so a cell computed twice produces identical records; the coordinator
forwards only the first completion and the shard-store merge
(:func:`repro.store.merge.merge_shards`) deduplicates the rest
first-complete-wins, so the final output is byte-identical to a serial
run no matter how the race went.  A worker that disappears -- EOF,
connection reset, or no heartbeat within ``worker_timeout`` -- has the
unfinished remainder of its shard requeued at the *front* of the queue.

All coordinator state lives behind one lock; worker/client connection
reader threads mutate it through the ``_on_*`` handlers, and a ticker
thread re-runs scheduling periodically so straggler deadlines fire even
when no frame arrives.  Frames to peers are sent while holding the lock
-- peers recv promptly by protocol (workers between cells, clients in
their result loop), so sends cannot wedge the coordinator.
"""

from __future__ import annotations

import collections
import math
import socket
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.dispatch.cost import FACTOR, CostModel, take_cost_prefix
from repro.dispatch.protocol import (
    DecodedGrid,
    DispatchError,
    FramedSocket,
    FrameError,
    decode_grid,
)

#: Ceiling on one shard's cell count: large enough to amortise per-shard
#: framing, small enough that a dead worker forfeits little work and
#: load stays balanced.  Set on its own; BatchRunner's local chunk cap
#: (``MAX_CHUNK_CELLS``) is 32.
MAX_SHARD_CELLS = 16

#: Capability scores outside ``(_MIN_WEIGHT, _MAX_WEIGHT]`` weigh 1.0: a
#: worker that reported a zero/garbage score must still receive work, and
#: one claiming a score far above any real probe (a few hundred) must not
#: overflow the fleet's total weight or take every lease.
_MIN_WEIGHT = 1e-6
_MAX_WEIGHT = 1e6


def _json_scalar(value: Any) -> Any:
    """``value`` if it is a finite number, a string, a bool or ``None``,
    else ``None``: a capability as the coordinator keeps and reports it,
    so :meth:`DispatchCoordinator.stats` stays strict JSON whatever a
    worker registered (``Infinity``, ``NaN``, nested objects)."""
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float) and math.isfinite(value):
        return value
    return None


class _WorkerState:
    """One registered worker connection and its current lease."""

    def __init__(
        self,
        worker_id: str,
        conn: FramedSocket,
        capabilities: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.shard: Optional["_Shard"] = None
        self.known_grids: set = set()
        self.alive = True
        self.capabilities: Dict[str, Any] = {
            key: _json_scalar(value) for key, value in (capabilities or {}).items()
        }
        self.cells = 0
        try:
            score = float(self.capabilities.get("score", 1.0))
        except (TypeError, ValueError, OverflowError):
            score = 1.0
        #: Relative throughput weight for capability-weighted lease
        #: sizing; only ratios between workers matter.  NaN fails the
        #: range test too.
        self.weight = score if _MIN_WEIGHT < score <= _MAX_WEIGHT else 1.0


class _Shard:
    """A slice of one grid's task indices, leased as a unit."""

    def __init__(
        self,
        shard_id: str,
        grid_id: str,
        indices: List[int],
        speculative: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.grid_id = grid_id
        self.indices = list(indices)
        self.remaining = set(indices)
        self.speculative = speculative
        #: The original shard this one speculatively duplicates, if any.
        self.origin: Optional["_Shard"] = None
        #: Whether a speculative copy of *this* shard is in flight.
        self.has_speculative_copy = False
        #: ``time.monotonic()`` of the last lease (straggler detection).
        self.leased_at = 0.0


class _GridState:
    """One client's submitted grid and its completion bookkeeping."""

    def __init__(
        self, grid_id: str, description: Dict[str, Any],
        decoded: DecodedGrid, costs: List[float],
        client: FramedSocket,
    ) -> None:
        self.grid_id = grid_id
        #: The client's description, forwarded to workers as received.
        self.description = description
        #: The description as admitted: what each index's cell is.
        self.decoded = decoded
        #: Per-task-index cost estimates, one per cell.
        self.costs = costs
        self.total = len(costs)
        self.client = client
        self.completed: set = set()
        self.shard_counter = 0
        self.finished = False
        #: Unleased task indices, in grid order.
        self.pending: List[int] = list(range(self.total))


class DispatchCoordinator:
    """Register workers, lease grid shards to them, forward results.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    :meth:`start`.  An explicit ``shard_size`` fixes every lease at that
    many cells instead of sizing it by cost (tests use it to pin the
    shard layout).
    ``straggler_deadline`` is how long an in-flight shard may run before
    idle workers are allowed to speculatively re-execute its remainder.
    ``worker_timeout`` is the heartbeat deadline after which a silent
    worker is declared dead and its shards requeued.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        shard_size: Optional[int] = None,
        worker_timeout: float = 30.0,
        straggler_deadline: float = 10.0,
    ) -> None:
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if straggler_deadline <= 0:
            raise ValueError(
                f"straggler_deadline must be > 0, got {straggler_deadline}"
            )
        self.host = host
        self.port = port
        self.shard_size = shard_size
        self.worker_timeout = worker_timeout
        self.straggler_deadline = straggler_deadline
        self._lock = threading.Lock()
        self._workers_changed = threading.Condition(self._lock)
        self._workers: Dict[int, _WorkerState] = {}
        self._grids: Dict[str, _GridState] = {}
        self._queue: Deque[_Shard] = collections.deque()
        self._grid_counter = 0
        self._running = False
        self._server: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stop_ticker = threading.Event()
        self._cost_model = CostModel()
        self._counters: Dict[str, int] = {
            "cells": 0,
            "duplicate_cells": 0,
            "shards_leased": 0,
            "requeues": 0,
            "steals": 0,
            "speculative_leases": 0,
            "trims_sent": 0,
        }

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "DispatchCoordinator":
        """Bind, listen and start accepting peers (returns self)."""
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((self.host, self.port))
        server.listen(64)
        self.port = server.getsockname()[1]
        self._server = server
        self._running = True
        self._stop_ticker.clear()
        thread = threading.Thread(
            target=self._accept_loop, name="dispatch-accept", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        # Straggler deadlines must fire even when no frames arrive: a
        # ticker re-runs scheduling on a fraction of the deadline.
        ticker = threading.Thread(
            target=self._ticker_loop, name="dispatch-ticker", daemon=True
        )
        ticker.start()
        self._threads.append(ticker)
        return self

    def stop(self) -> None:
        """Shut down: notify workers, drop clients, close the socket."""
        with self._lock:
            if not self._running:
                return
            self._running = False
            workers = list(self._workers.values())
            grids = list(self._grids.values())
            self._queue.clear()
        self._stop_ticker.set()
        if self._server is not None:
            # close() alone does not wake the accept() blocked in the
            # accept thread; shutting the listening socket down does.
            try:
                self._server.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._server.close()
            except OSError:
                pass
        for worker in workers:
            worker.conn.send_quietly({"type": "shutdown"})
            worker.conn.close()
        for grid in grids:
            grid.client.close()
        for thread in self._threads:
            thread.join(timeout=5.0)

    @property
    def address(self) -> Tuple[str, int]:
        """The ``(host, port)`` peers connect to (valid after start)."""
        return (self.host, self.port)

    def worker_count(self) -> int:
        """Number of currently registered (live) workers."""
        with self._lock:
            return len(self._workers)

    def stats(self) -> Dict[str, Any]:
        """A snapshot of the scheduler's counters and fleet state.

        ``steals`` / ``speculative_leases`` / ``trims_sent`` /
        ``requeues`` / ``duplicate_cells`` count scheduling events since
        start; ``workers`` describes the registered fleet (id, weight,
        capabilities, cells completed); ``idle_workers`` is the number of
        live workers currently without a lease.  Every value is strict
        JSON (a capability that was not is ``None``).  Surfaced by
        ``--dispatch-stats``, the service ``/metrics`` endpoint and the
        dispatch benchmark's straggler scenario.
        """
        with self._lock:
            workers = [
                {
                    "worker": state.worker_id,
                    "weight": round(state.weight, 6),
                    "cells": state.cells,
                    "capabilities": dict(state.capabilities),
                    "idle": state.shard is None,
                }
                for state in self._workers.values()
            ]
            in_flight = sum(
                1 for state in self._workers.values() if state.shard is not None
            )
            return {
                **dict(self._counters),
                "straggler_deadline": self.straggler_deadline,
                "registered_workers": len(workers),
                "idle_workers": sum(1 for item in workers if item["idle"]),
                "in_flight_shards": in_flight,
                "queued_shards": len(self._queue),
                "calibrated_algorithms": self._cost_model.observation_count(),
                "workers": sorted(workers, key=lambda item: item["worker"]),
            }

    def wait_for_workers(self, count: int, timeout: float = 60.0) -> None:
        """Block until ``count`` workers are registered.

        Raises :class:`DispatchError` on timeout -- starting a remote
        grid with no workers would hang silently otherwise.
        """
        with self._workers_changed:
            ok = self._workers_changed.wait_for(
                lambda: len(self._workers) >= count, timeout=timeout
            )
        if not ok:
            raise DispatchError(
                f"timed out after {timeout:g}s waiting for {count} dispatch "
                f"worker(s) to register (have {self.worker_count()}); start "
                "workers with: repro worker join "
                f"{self.host}:{self.port}"
            )

    # -- peer connections ----------------------------------------------
    def _accept_loop(self) -> None:
        assert self._server is not None
        while self._running:
            try:
                sock, _ = self._server.accept()
            except OSError:
                return  # listening socket closed by stop()
            conn = FramedSocket(sock)
            thread = threading.Thread(
                target=self._serve_peer, args=(conn,),
                name="dispatch-peer", daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _ticker_loop(self) -> None:
        interval = max(0.05, min(1.0, self.straggler_deadline / 4.0))
        while not self._stop_ticker.wait(interval):
            with self._lock:
                if not self._running:
                    return
                self._schedule_locked()

    def _serve_peer(self, conn: FramedSocket) -> None:
        """Route a fresh connection by its first frame (register/grid)."""
        try:
            first = conn.recv()
        except (FrameError, OSError):
            conn.close()
            return
        if first is None:
            conn.close()
            return
        kind = first.get("type")
        if kind == "register":
            self._serve_worker(conn, first)
        elif kind == "grid":
            self._serve_client(conn, first)
        else:
            conn.send_quietly({
                "type": "error",
                "message": f"expected a register or grid frame, got {kind!r}",
            })
            conn.close()

    # -- worker side ---------------------------------------------------
    def _serve_worker(self, conn: FramedSocket, register: Dict[str, Any]) -> None:
        capabilities = register.get("capabilities")
        worker = _WorkerState(
            str(register.get("worker", "worker")),
            conn,
            capabilities if isinstance(capabilities, dict) else None,
        )
        conn.sock.settimeout(self.worker_timeout)
        with self._workers_changed:
            if not self._running:
                conn.close()
                return
            self._workers[id(worker)] = worker
            self._workers_changed.notify_all()
            self._schedule_locked()
        try:
            while True:
                frame = conn.recv()  # socket.timeout == missed heartbeats
                if frame is None:
                    return
                # Any frame, a heartbeat included, proves liveness.
                kind = frame.get("type")
                if kind == "cell":
                    self._on_cell(worker, frame)
                elif kind == "shard_done":
                    self._on_shard_done(worker, frame)
                elif kind == "shard_failed":
                    self._on_shard_failed(worker, frame)
        except (FrameError, OSError):
            return
        finally:
            self._drop_worker(worker)
            conn.close()

    def _drop_worker(self, worker: _WorkerState) -> None:
        """Forget a dead worker, requeueing its unfinished shard first.

        The stale-lease idiom of the job ledger: work leased to a dead
        holder goes back to the front of the queue, trimmed to the cells
        the worker had not already streamed back.
        """
        with self._workers_changed:
            worker.alive = False
            self._workers.pop(id(worker), None)
            shard = worker.shard
            worker.shard = None
            if shard is not None and shard.remaining:
                grid = self._grids.get(shard.grid_id)
                if grid is not None and not grid.finished:
                    shard.indices = sorted(shard.remaining)
                    self._queue.appendleft(shard)
                    self._counters["requeues"] += 1
            if shard is not None and shard.origin is not None:
                # A dead speculator frees its original for re-speculation.
                shard.origin.has_speculative_copy = False
            self._workers_changed.notify_all()
            self._schedule_locked()

    # -- client side ---------------------------------------------------
    def _serve_client(self, conn: FramedSocket, submit: Dict[str, Any]) -> None:
        grid = self._admit_grid(conn, submit)
        if grid is None:
            conn.close()
            return
        try:
            # The client sends nothing after the grid frame; this recv
            # exists to detect its disconnect (cancel, crash) promptly.
            while conn.recv() is not None:
                pass
        except (FrameError, OSError):
            pass
        finally:
            # The client is gone (finished, cancelled or crashed).
            with self._lock:
                self._drop_grid_locked(grid)
            conn.close()

    def _admit_grid(
        self, conn: FramedSocket, submit: Dict[str, Any]
    ) -> Optional[_GridState]:
        """Register a client's grid, or answer an ``error`` frame.

        The description must decode with the workers' own decoder
        (:func:`repro.dispatch.protocol.decode_grid`); anything else is
        refused here, before it can reach a lease or a worker.
        """
        description = submit.get("description")
        try:
            decoded = decode_grid(description)
        except ValueError as error:
            conn.send_quietly({
                "type": "error",
                "message": f"malformed grid description: {error}",
            })
            return None
        with self._lock:
            if not self._running:
                return None
            self._grid_counter += 1
            grid_id = f"g{self._grid_counter}"
            grid = _GridState(
                grid_id, description, decoded,
                self._cost_model.grid_costs(decoded), conn,
            )
            self._grids[grid_id] = grid
            if grid.total == 0:
                grid.finished = True
                conn.send_quietly({"type": "grid_done"})
                return grid
            self._schedule_locked()
        return grid

    def _new_shard_locked(
        self, grid: _GridState, indices: List[int], speculative: bool = False
    ) -> _Shard:
        grid.shard_counter += 1
        suffix = "spec" if speculative else ""
        shard_id = f"{grid.grid_id}s{grid.shard_counter}{suffix}"
        return _Shard(shard_id, grid.grid_id, indices, speculative=speculative)

    def _drop_grid_locked(self, grid: _GridState) -> None:
        """Forget a grid: orphan its queued shards and send every
        leaseholder still working on it a ``trim`` for the shard's
        remaining indices, so the worker frees up at its next cell
        boundary."""
        grid.finished = True
        grid.pending = []
        self._grids.pop(grid.grid_id, None)
        self._queue = collections.deque(
            shard for shard in self._queue if shard.grid_id != grid.grid_id
        )
        for worker in self._workers.values():
            shard = worker.shard
            if (
                shard is None or shard.grid_id != grid.grid_id
                or not shard.remaining
            ):
                continue
            # A dead worker is dropped by its reader thread.
            if worker.conn.send_quietly({
                "type": "trim",
                "grid": grid.grid_id,
                "shard": shard.shard_id,
                "indices": sorted(shard.remaining),
            }):
                self._counters["trims_sent"] += 1

    def _fail_grid(self, grid: _GridState, message: str) -> None:
        """A worker reported a cell exception: surface it to the client.

        Only reachable for genuine kernel bugs -- under a fault model,
        non-convergence becomes a failed *record*, not an exception
        (see :func:`repro.analysis.sweep._run_cell`).
        """
        self._drop_grid_locked(grid)
        grid.client.send_quietly({"type": "error", "message": message})
        grid.client.close()

    # -- frame handlers (worker reader threads) ------------------------
    def _on_cell(self, worker: _WorkerState, frame: Dict[str, Any]) -> None:
        with self._lock:
            grid = self._grids.get(str(frame.get("grid")))
            if grid is None or grid.finished:
                return  # stale result from an aborted/finished grid
            index = frame.get("index")
            if (
                not isinstance(index, int) or isinstance(index, bool)
                or not 0 <= index < grid.total
            ):
                raise FrameError(f"cell index {index!r} is not a cell of the grid")
            if not isinstance(frame.get("record"), dict):
                raise FrameError(f"cell {index} carries no record object")
            for state in self._workers.values():
                shard = state.shard
                if shard is not None and shard.grid_id == grid.grid_id:
                    shard.remaining.discard(index)
            for shard in self._queue:
                if shard.grid_id == grid.grid_id:
                    shard.remaining.discard(index)
            if index in grid.completed:
                # A speculative / stolen / requeued duplicate: the record
                # is byte-identical by construction, so first-complete
                # wins and the copy is only counted.
                self._counters["duplicate_cells"] += 1
                return
            grid.completed.add(index)
            # Calibrate once per admitted cell, with what the grid holds
            # at this index: the worker's word is only the wall time.
            spec, name = grid.decoded.cell(index)
            self._cost_model.observe(
                name, spec.num_nodes, frame.get("seconds"),
                grid.decoded.table[name].guarantee,
            )
            worker.cells += 1
            self._counters["cells"] += 1
            if not grid.client.send_quietly({
                "type": "cell",
                "index": index,
                "key": frame.get("key"),
                "record": frame.get("record"),
            }):
                self._drop_grid_locked(grid)
                return
            if len(grid.completed) >= grid.total:
                self._drop_grid_locked(grid)
                grid.client.send_quietly({"type": "grid_done"})

    def _on_shard_done(self, worker: _WorkerState, frame: Dict[str, Any]) -> None:
        with self._lock:
            shard = worker.shard
            if shard is not None and shard.shard_id == frame.get("shard"):
                worker.shard = None
                if shard.origin is not None:
                    shard.origin.has_speculative_copy = False
            self._schedule_locked()

    def _on_shard_failed(self, worker: _WorkerState, frame: Dict[str, Any]) -> None:
        """A worker's kernel raised: fail the grid of the shard it holds.

        A report naming any other shard is ignored -- one worker cannot
        fail a grid it is not computing.
        """
        with self._lock:
            shard = worker.shard
            if shard is None or shard.shard_id != frame.get("shard"):
                return
            worker.shard = None
            grid = self._grids.get(shard.grid_id)
            if grid is not None:
                self._fail_grid(
                    grid,
                    str(frame.get("message", "worker reported a shard failure")),
                )
            self._schedule_locked()

    # -- scheduling ----------------------------------------------------
    def _schedule_locked(self) -> None:
        """Lease work to every idle worker (caller holds the lock).

        Source order: requeued shards first (orphans of dead workers),
        then fresh cuts from grids with pending cells, then steals from
        the largest in-flight remainder, then speculative re-leases of
        shards past the straggler deadline.
        """
        if not self._running:
            return
        while True:
            worker = next(
                (
                    candidate
                    for candidate in self._workers.values()
                    if candidate.alive and candidate.shard is None
                ),
                None,
            )
            if worker is None:
                return
            shard = self._next_shard_locked(worker)
            if shard is None:
                return
            self._lease_locked(worker, shard)

    def _next_shard_locked(self, worker: _WorkerState) -> Optional[_Shard]:
        # 1. Orphaned / stolen-then-orphaned shards, front of the queue.
        while self._queue:
            shard = self._queue[0]
            grid = self._grids.get(shard.grid_id)
            if grid is None or grid.finished or not shard.remaining:
                self._queue.popleft()
                continue
            self._queue.popleft()
            shard.indices = sorted(shard.remaining)
            return shard
        # 2. A fresh cut from the first grid with pending cells
        #    (admission order -- deterministic and FIFO-fair).
        for grid in self._grids.values():
            if grid.finished or not grid.pending:
                continue
            return self._cut_shard_locked(grid, worker)
        # 3. Steal: split the largest in-flight remainder.
        shard = self._steal_locked(worker)
        if shard is not None:
            return shard
        # 4. Speculate: duplicate a straggler's remainder past deadline.
        return self._speculate_locked(worker)

    def _cut_shard_locked(
        self, grid: _GridState, worker: _WorkerState
    ) -> _Shard:
        """Cut the next lease off a grid's pending range, sized for
        ``worker``: its capability-weight share of the remaining cost,
        divided by the factoring divisor so shards shrink toward the
        tail, floored at one cell and capped at :data:`MAX_SHARD_CELLS`
        -- or, with a fixed ``shard_size``, exactly that many cells.
        """
        if self.shard_size is None:
            total_weight = sum(
                state.weight for state in self._workers.values() if state.alive
            )
            share = worker.weight / total_weight if total_weight > 0 else 1.0
            remaining_cost = sum(grid.costs[index] for index in grid.pending)
            budget = remaining_cost * share / FACTOR
            max_cells = MAX_SHARD_CELLS
        else:
            budget, max_cells = math.inf, self.shard_size
        taken, grid.pending = take_cost_prefix(
            grid.pending, grid.costs, budget, max_cells=max_cells
        )
        return self._new_shard_locked(grid, taken)

    def _in_flight_locked(self) -> List[Tuple[_WorkerState, _Shard, _GridState]]:
        triples = []
        for state in self._workers.values():
            shard = state.shard
            if shard is None or not shard.remaining:
                continue
            grid = self._grids.get(shard.grid_id)
            if grid is None or grid.finished:
                continue
            triples.append((state, shard, grid))
        return triples

    def _remaining_cost(self, shard: _Shard, grid: _GridState) -> float:
        return sum(grid.costs[index] for index in shard.remaining)

    def _steal_locked(self, thief: _WorkerState) -> Optional[_Shard]:
        """Split the costliest in-flight remainder; the thief takes the
        tail half and the victim is told to skip it (``trim`` frame).

        The victim streams cells in index order, so stealing the *tail*
        minimises the window where both compute the same cell; if the
        trim arrives late the duplicates are deduplicated downstream.
        """
        candidates = [
            (state, shard, grid)
            for state, shard, grid in self._in_flight_locked()
            if len(shard.remaining) >= 2
        ]
        if not candidates:
            return None
        victim, shard, grid = max(
            candidates,
            key=lambda item: (self._remaining_cost(item[1], item[2]),
                              item[1].shard_id),
        )
        remaining = sorted(shard.remaining)
        # Half the remaining cost off the tail; the victim keeps at least
        # its current cell.
        half = self._remaining_cost(shard, grid) / 2.0
        stolen, _ = take_cost_prefix(
            remaining[::-1], grid.costs, half, max_cells=len(remaining) - 1
        )
        stolen.sort()
        shard.remaining.difference_update(stolen)
        shard.indices = [
            index for index in shard.indices if index in shard.remaining
        ]
        self._counters["steals"] += 1
        # A dead victim's reader thread requeues what is left of its
        # shard; the stolen cells are already ours.
        if victim.conn.send_quietly({
            "type": "trim",
            "grid": grid.grid_id,
            "shard": shard.shard_id,
            "indices": stolen,
        }):
            self._counters["trims_sent"] += 1
        return self._new_shard_locked(grid, stolen)

    def _speculate_locked(self, thief: _WorkerState) -> Optional[_Shard]:
        """Re-lease a copy of a straggling shard's remainder.

        Only shards leased longer than ``straggler_deadline`` ago and
        without a live speculative copy qualify; the original keeps
        computing (no trim) and the two races' duplicates are dropped
        first-complete-wins.
        """
        now = time.monotonic()
        candidates = [
            (state, shard, grid)
            for state, shard, grid in self._in_flight_locked()
            if not shard.has_speculative_copy
            and now - shard.leased_at >= self.straggler_deadline
        ]
        if not candidates:
            return None
        _, original, grid = max(
            candidates,
            key=lambda item: (self._remaining_cost(item[1], item[2]),
                              item[1].shard_id),
        )
        copy = self._new_shard_locked(
            grid, sorted(original.remaining), speculative=True
        )
        copy.origin = original
        original.has_speculative_copy = True
        self._counters["speculative_leases"] += 1
        return copy

    def _lease_locked(self, worker: _WorkerState, shard: _Shard) -> None:
        grid = self._grids.get(shard.grid_id)
        if grid is None or grid.finished:
            return
        try:
            if shard.grid_id not in worker.known_grids:
                worker.conn.send({
                    "type": "grid",
                    "grid": shard.grid_id,
                    "description": grid.description,
                })
                worker.known_grids.add(shard.grid_id)
            worker.conn.send({
                "type": "shard",
                "grid": shard.grid_id,
                "shard": shard.shard_id,
                "indices": shard.indices,
            })
        except OSError:
            # Dead before the lease landed: put the shard back and
            # drop the worker (its reader thread will also land here
            # eventually; removal is idempotent).
            self._queue.appendleft(shard)
            if shard.origin is not None:
                shard.origin.has_speculative_copy = False
            worker.alive = False
            self._workers.pop(id(worker), None)
            return
        shard.leased_at = time.monotonic()
        worker.shard = shard
        self._counters["shards_leased"] += 1
