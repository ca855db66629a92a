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
  capability-weighted lease sizing), ``heartbeat`` (optionally carrying
  ``timings``, completed-cell wall times that calibrate the
  coordinator's cost model), ``cell``, ``shard_done``, ``shard_failed``.
* coordinator -> worker: ``grid``, ``shard``, ``trim`` (work stealing:
  the named indices were re-leased elsewhere, skip them), ``shutdown``.
* client <-> coordinator: ``grid`` in; ``cell``, ``grid_done``,
  ``error`` out.

A frame larger than :data:`MAX_FRAME_BYTES` is refused on both ends --
the largest legitimate frame is a grid description (a few hundred bytes
per spec), so the cap is purely a defence against a garbage length
prefix from a non-protocol peer.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Any, Dict, Optional

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
