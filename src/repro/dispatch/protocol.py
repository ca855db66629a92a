"""Length-prefixed JSON frames: the dispatch coordinator/worker wire format.

The distributed dispatch layer (:mod:`repro.dispatch`) speaks a
deliberately boring protocol over plain TCP sockets: every message is one
JSON object, encoded canonically (:func:`repro.store.records.canonical_json`)
and prefixed with its byte length as a 4-byte big-endian unsigned integer.
No pickling (a worker must never execute a frame), no partial messages (a
reader either gets a whole object or detects the truncation), no framing
ambiguity (newlines inside strings cannot split a message the way a
line-delimited protocol would).

This mirrors the MAAS region/rack controller RPC in spirit -- a small,
versionless set of typed JSON messages between a coordinator and its
registered workers -- without dragging in Twisted: the stdlib ``socket``
and ``struct`` modules are the whole dependency surface.

Every frame is a JSON *object* with a ``"type"`` key; the coordinator and
worker modules document the concrete frame vocabulary:

* worker -> coordinator: ``register`` (with a ``capabilities`` report --
  cpu count, numpy availability, micro-benchmark ``score`` -- feeding
  capability-weighted lease sizing), ``heartbeat`` (liveness only; the
  ``timings`` and ``kind`` keys older workers send are ignored),
  ``cell`` (a freshly computed cell's frame carries its wall time in
  ``seconds``, which calibrates the coordinator's cost model; a replayed
  cell's carries none), ``shard_done``, ``shard_failed``.
* coordinator -> worker: ``grid``, ``shard``, ``trim`` (work stealing:
  the named indices were re-leased elsewhere, skip them), ``shutdown``.
* client <-> coordinator: ``grid`` in; ``cell``, ``grid_done``,
  ``error`` out.

A ``grid`` frame carries a grid description: :func:`encode_grid` writes
it, and :func:`decode_grid` reads it both to admit a grid and to run its
shards, so a coordinator admits exactly the grids its workers can run.

A frame larger than :data:`MAX_FRAME_BYTES` is refused on both ends --
the largest legitimate frame is a grid description (a few hundred bytes
per spec), so the cap is purely a defence against a garbage length
prefix from a non-protocol peer.
"""

from __future__ import annotations

import json
import re
import socket
import struct
import threading
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.store.records import canonical_json

#: Upper bound on one frame's JSON payload.  Grid descriptions grow with
#: the number of specs (~100 bytes each); 64 MiB leaves orders of
#: magnitude of headroom while rejecting nonsense length prefixes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class DispatchError(RuntimeError):
    """A dispatch-layer failure: protocol violation, lost peer, bad grid."""


class FrameError(DispatchError):
    """A peer sent bytes that are not a well-formed frame."""


def _recv_exactly(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes, or ``None`` on a clean EOF at a
    frame boundary.  EOF *inside* a frame raises :class:`FrameError` --
    the peer died mid-message and the partial bytes are unusable.
    """
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count and not chunks:
                return None
            raise FrameError(
                f"peer closed the connection mid-frame "
                f"({count - remaining}/{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class FramedSocket:
    """One peer connection speaking length-prefixed JSON frames.

    ``send`` is serialised with a lock so concurrent senders (a worker's
    heartbeat thread next to its shard-result stream, the coordinator's
    per-worker reader threads forwarding cells to one client) cannot
    interleave bytes of two frames.  ``recv`` is only ever called from a
    single reader thread per connection, so it takes no lock.
    """

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self._send_lock = threading.Lock()

    def send(self, frame: Dict[str, Any]) -> None:
        """Send one frame; raises ``OSError`` when the peer is gone."""
        payload = canonical_json(frame).encode("utf-8")
        if len(payload) > MAX_FRAME_BYTES:
            raise FrameError(
                f"refusing to send a {len(payload)}-byte frame "
                f"(cap {MAX_FRAME_BYTES})"
            )
        with self._send_lock:
            self.sock.sendall(_LENGTH.pack(len(payload)) + payload)

    def send_quietly(self, frame: Dict[str, Any]) -> bool:
        """Send one frame unless the peer is gone; whether it was sent."""
        try:
            self.send(frame)
        except OSError:
            return False
        return True

    def recv(self) -> Optional[Dict[str, Any]]:
        """Receive one frame; ``None`` on clean EOF at a frame boundary.

        Raises :class:`FrameError` on truncation, an oversized or
        negative length prefix, or a payload that is not a JSON object
        (undecodable, nested too deep or with an oversized integer
        included) -- all signs the peer is not speaking this protocol (or
        died mid-send), in which case the connection is unusable.
        """
        header = _recv_exactly(self.sock, _LENGTH.size)
        if header is None:
            return None
        (length,) = _LENGTH.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise FrameError(
                f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
            )
        payload = _recv_exactly(self.sock, length)
        if payload is None:
            raise FrameError("peer closed the connection between header and payload")
        try:
            frame = json.loads(payload.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            raise FrameError(f"undecodable frame payload: {error}") from None
        if not isinstance(frame, dict):
            raise FrameError(
                f"frame payload must be a JSON object, got {type(frame).__name__}"
            )
        return frame

    def close(self) -> None:
        """Close the underlying socket (idempotent, never raises)."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def parse_address(text: str) -> tuple:
    """Parse a ``host:port`` string into an ``(host, port)`` pair.

    The shared parser of ``repro worker join HOST:PORT`` and ``repro
    sweep --coordinator``.  Raises ``ValueError`` with a usage-grade message.
    """
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"invalid coordinator address {text!r}: expected HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid coordinator port {port_text!r} in {text!r}"
        ) from None
    if not 0 < port < 65536:
        raise ValueError(f"coordinator port {port} out of range 1..65535")
    return host, port


# ----------------------------------------------------------------------
# The grid description
# ----------------------------------------------------------------------
#: A grid signature: the 16 lowercase hex digits of
#: :func:`repro._digest.key_digest`.  It names the workers' shard files,
#: so nothing else may pass.
_SIGNATURE = re.compile(r"[0-9a-f]{16}")
_GRID_FIELDS = ["algorithms", "base_seed", "config", "signature", "specs", "tasks"]
_SPEC_FIELDS = {"diameter", "family", "num_nodes", "seed"}


class DecodedGrid(NamedTuple):
    """What a worker runs a grid's cells from (see :func:`decode_grid`).

    ``table`` maps each algorithm name to its registry entry; ``tasks``
    holds one ``(spec, algorithm)`` index pair per grid index.
    """

    specs: List[Any]
    names: List[str]
    table: Dict[str, Any]
    tasks: List[Tuple[int, int]]
    base_seed: int
    signature: str
    fault: Any

    def cell(self, index: int):
        """The ``(spec, name)`` task of one grid index."""
        spec_index, name_index = self.tasks[index]
        return self.specs[spec_index], self.names[name_index]


def encode_grid(tasks: List, context) -> Dict[str, Any]:
    """The wire description of a batch of ``(spec, name)`` grid cells.

    ``context`` is the ``(algorithms, base_seed, fault)`` task context of
    :func:`repro.analysis.sweep._sweep_one_grid_cell`, so remote cells
    run under the fault model local pool workers receive.  The
    ``"config": {"fault": ...}`` wrapper is that of earlier releases, so
    coordinators and workers of either release interoperate.
    """
    from repro._digest import key_digest
    from repro.analysis.sweep import sweep_task_key
    from repro.faults import NULL_FAULT_MODEL
    from repro.store.records import spec_to_dict

    algorithms, base_seed, fault = context
    names = list(algorithms)
    name_index = {name: position for position, name in enumerate(names)}
    specs: List = []
    spec_index: dict = {}
    task_refs: List[List[int]] = []
    keys: List[str] = []
    for spec, name in tasks:
        position = spec_index.get(spec)
        if position is None:
            position = spec_index[spec] = len(specs)
            specs.append(spec)
        task_refs.append([position, name_index[name]])
        keys.append(sweep_task_key(spec, name, base_seed, fault))
    # The signature digests the *submitted* cells (a resumed grid
    # dispatches a subset, which is its own identity); workers stamp
    # it into their shard headers so merge_shards refuses to mix grids.
    return {
        "specs": [spec_to_dict(spec) for spec in specs],
        "algorithms": names,
        "tasks": task_refs,
        "base_seed": int(base_seed),
        "signature": key_digest(keys),
        "config": {
            "fault": None if fault == NULL_FAULT_MODEL else fault.to_dict(),
        },
    }


def decode_grid(description: Any) -> DecodedGrid:
    """Decode an :func:`encode_grid` description, or raise ``ValueError``.

    Accepts exactly what a worker can run: specs of a grid family
    (:func:`repro.names.check_family`) with an integer seed, diameter (or
    null) and ``num_nodes`` in ``1..MAX_GRID_NODES``; registered sweep
    algorithms; in-range task index pairs; an integer base seed; a
    :func:`repro._digest.key_digest` signature; and a config holding at
    most a fault model.  A config ``tier`` and a top-level ``kind`` from
    earlier releases are ignored.  No graph is built: a size its family
    cannot build fails on the worker, as it does in a local run.
    """
    from repro.faults import NULL_FAULT_MODEL, FaultModel
    from repro.names import MAX_GRID_NODES, check_family
    from repro.runner import GraphSpec, resolve_algorithms

    if not (
        isinstance(description, dict)
        and sorted(set(description) - {"kind"}) == _GRID_FIELDS
    ):
        raise ValueError(f"the description must be an object of {_GRID_FIELDS}")
    items, names, tasks, config = (
        description[key] for key in ("specs", "algorithms", "tasks", "config")
    )
    if not (
        isinstance(items, list) and isinstance(tasks, list)
        and isinstance(names, list) and all(isinstance(n, str) for n in names)
    ):
        raise ValueError("specs and tasks must be lists, algorithms names")
    specs = []
    for position, item in enumerate(items):
        if not (isinstance(item, dict) and set(item) <= _SPEC_FIELDS):
            raise ValueError(f"spec {position} is not an object of "
                             f"{sorted(_SPEC_FIELDS)}")
        nodes, diameter, seed = (
            item.get(key) for key in ("num_nodes", "diameter", "seed")
        )
        if not (type(nodes) is int and 1 <= nodes <= MAX_GRID_NODES):
            raise ValueError(f"spec {position} asks for {nodes!r} nodes "
                             f"(an integer from 1 to {MAX_GRID_NODES})")
        if type(seed) is not int or type(diameter) not in (int, type(None)):
            raise ValueError(f"spec {position} needs an integer seed and "
                             "diameter (or null)")
        check_family(item.get("family"), diameter)
        specs.append(GraphSpec(item["family"], nodes, diameter, seed))
    table = resolve_algorithms(names)
    for task in tasks:
        if not (
            isinstance(task, list) and len(task) == 2
            and all(type(index) is int for index in task)
            and 0 <= task[0] < len(specs) and 0 <= task[1] < len(names)
        ):
            raise ValueError(f"task {task!r} is not a [spec, algorithm] index pair")
    base_seed, signature = description["base_seed"], description["signature"]
    if type(base_seed) is not int:
        raise ValueError(f"base_seed {base_seed!r} is not an integer")
    if not (isinstance(signature, str) and _SIGNATURE.fullmatch(signature)):
        raise ValueError(f"signature {signature!r} is not 16 lowercase hex digits")
    if not (isinstance(config, dict) and set(config) <= {"fault", "tier"}):
        raise ValueError("the grid config must be an object of 'fault' (or 'tier')")
    fault = config.get("fault")
    return DecodedGrid(
        specs, names, table, [tuple(task) for task in tasks], base_seed,
        signature,
        NULL_FAULT_MODEL if fault is None else FaultModel.from_dict(fault),
    )
