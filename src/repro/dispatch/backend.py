"""Remote dispatch: ship a sweep grid's cells to workers on other hosts.

:func:`repro.analysis.sweep.run_sweep_grid` aggregates results from
whatever runner object the caller hands in -- anything offering the
:class:`repro.runner.batch.BatchRunner` mapping surface (``jobs`` /
``map`` / ``imap`` with ordered results).  A ``BatchRunner`` runs the
cells locally (serially, or over a process pool); a
:class:`RemoteDispatch` ships them as shards to workers registered with
a :class:`repro.dispatch.coordinator.DispatchCoordinator`, possibly on
other hosts, and the results stream back over the socket.

``RemoteDispatch`` reorders out-of-order completions back into task
order before yielding, so the consumer-side aggregation (checkpoint
appends, progress, cancellation) is exactly the code path the local
runners use -- byte-identical output is structural, not coincidental.
"""

from __future__ import annotations

import socket
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.dispatch.protocol import DispatchError, FramedSocket, encode_grid


class RemoteDispatch:
    """A runner that ships grid cells to remote workers.

    Duck-types the ``BatchRunner`` mapping surface for grid-cell tasks:
    ``map``/``imap`` accept the ``(spec, name)`` task list and
    ``(algorithms, base_seed, fault)`` context of
    :func:`repro.analysis.sweep._sweep_one_grid_cell` -- the one callable
    this backend understands, since workers rebuild the kernel table from
    registry *names* rather than unpickling callables.

    Construct with either ``coordinator`` (a started, in-process
    :class:`DispatchCoordinator` -- the embedded ``repro sweep
    --dispatch-workers N`` path and every service daemon job) or
    ``address`` (join an existing coordinator, e.g. a daemon's).  Closing
    the stream (a cancelled or stopped sweep) closes the connection,
    which is how a client cancels its grid; :meth:`close` does the same
    from another thread.  The cells name sweep algorithms only (a
    quantum grid's problems were resolved to their sweep names by the
    request), so the frame carries no grid kind.  ``workers`` is the
    *requested* worker count, recorded as the run header's ``jobs``
    value.
    """

    def __init__(
        self,
        address: Optional[Tuple[str, int]] = None,
        coordinator=None,
        workers: int = 1,
        connect_timeout: float = 10.0,
    ) -> None:
        if (address is None) == (coordinator is None):
            raise ValueError(
                "RemoteDispatch needs exactly one of address= or coordinator="
            )
        self._address = address
        self._coordinator = coordinator
        self.jobs = max(1, int(workers))
        self.connect_timeout = connect_timeout
        self._conn: Optional[FramedSocket] = None
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        if self._coordinator is not None:
            return self._coordinator.address
        return self._address

    def close(self) -> None:
        """Cancel the grid from another thread by closing its connection.

        The stream then raises :class:`DispatchError`; a stream that has
        not connected yet raises as soon as it does.
        """
        self._closed = True
        if self._conn is not None:
            self._conn.close()

    # -- BatchRunner mapping surface -----------------------------------
    def map(self, function, tasks: Iterable, context: Any = None) -> List:
        return list(self.imap(function, tasks, context=context))

    def imap(self, function, tasks: Iterable, context: Any = None) -> Iterator:
        """Stream one record per task, in task order.

        ``function`` must be the grid-cell body
        (``_sweep_one_grid_cell``); anything else cannot be named over
        the wire and is refused loudly rather than silently misrun.
        """
        from repro.analysis.sweep import _sweep_one_grid_cell

        if function is not _sweep_one_grid_cell:
            raise DispatchError(
                "remote dispatch only executes sweep grid cells "
                f"(got {getattr(function, '__name__', function)!r}); use a "
                "local BatchRunner for arbitrary callables"
            )
        tasks = list(tasks)
        if not tasks:
            return iter(())
        return self._stream(encode_grid(tasks, context), len(tasks))

    # -- the result stream ---------------------------------------------
    def _stream(self, description: dict, total: int) -> Iterator:
        from repro.store.records import record_from_dict

        try:
            sock = socket.create_connection(
                self.address, timeout=self.connect_timeout
            )
        except OSError as error:
            raise DispatchError(
                f"could not reach dispatch coordinator at "
                f"{self.address[0]}:{self.address[1]}: {error}"
            ) from None
        sock.settimeout(None)
        conn = self._conn = FramedSocket(sock)
        try:
            if self._closed:
                raise DispatchError("the grid was cancelled before it started")
            conn.send({"type": "grid", "description": description})
            buffered: dict = {}
            next_index = 0
            while next_index < total:
                frame = conn.recv()
                if frame is None:
                    raise DispatchError(
                        "dispatch coordinator closed the connection with "
                        f"{total - next_index} cell(s) outstanding"
                    )
                kind = frame.get("type")
                if kind == "cell":
                    index = int(frame["index"])
                    if index < next_index or index in buffered:
                        continue  # duplicate completion: first write wins
                    try:
                        buffered[index] = record_from_dict(frame["record"])
                    except (TypeError, ValueError) as error:
                        raise DispatchError(
                            f"malformed record for cell {index}: {error}"
                        ) from None
                    while next_index in buffered:
                        yield buffered.pop(next_index)
                        next_index += 1
                elif kind == "error":
                    raise DispatchError(
                        f"remote grid failed: {frame.get('message')}"
                    )
                elif kind == "grid_done":
                    raise DispatchError(
                        "coordinator reported completion with "
                        f"{total - next_index} cell(s) missing"
                    )
        except OSError as error:
            raise DispatchError(
                f"lost the dispatch coordinator connection: {error}"
            ) from None
        finally:
            conn.close()

