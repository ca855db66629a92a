"""The append-only JSONL experiment store.

One store file holds one experiment: a sweep grid's records plus the
provenance of every run attempt that produced them.  The file is a
sequence of JSON lines, each tagged with a ``kind``:

* ``run`` -- a run-attempt header: grid signature, specs, algorithms,
  base seed, worker count, engine, git describe (see
  :mod:`repro.store.provenance`).  Appended once per attempt, so the file
  carries the full history of interruptions and resumes.
* ``record`` -- one completed sweep cell: its stable task key, its grid
  index and the serialized :class:`repro.analysis.sweep.SweepRecord`.
* ``row`` -- one free-form measurement dict (used by the benchmark
  harnesses, which persist fitted-exponent rows rather than raw records).
* ``finish`` -- a completion footer with the wall time and record counts.

Records are appended (and flushed) the moment they complete, so a killed
process loses at most the cells still in flight; the scanner tolerates a
truncated final line, which is the only corruption an append-only writer
can produce.  Resume reads the completed task keys back and the sweep
layer skips them -- see :func:`repro.analysis.sweep.run_sweep_grid`.
"""

from __future__ import annotations

import errno
import json
import os
import re
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.store.provenance import RUN_CONTEXT_KEYS, collect_provenance
from repro.store.records import (
    SweepRecord,
    canonical_json,
    record_from_dict,
    record_to_dict,
    spec_to_dict,
)

#: Store file schema, bumped on incompatible layout changes.
SCHEMA_VERSION = 1

#: Tenant namespaces are plain path components: no separators, no leading
#: dot, so a tenant name can never escape the store root.
_TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class ExperimentStoreError(ValueError):
    """A store file cannot be used as requested (mixed grids, no resume)."""


class StoreLockError(ExperimentStoreError):
    """Another writer holds the store's advisory lock."""


def append_jsonl_line(path: str, obj: Dict[str, Any]) -> None:
    """Append one canonical JSON line to ``path`` and flush it.

    The shared append primitive of the experiment store and the service
    job ledger: open, write one line, flush, close -- no handle survives
    between appends, so concurrent readers always see a prefix of
    complete lines.  A previous writer killed mid-line leaves a tail with
    no newline; a fresh line is started first so the new entry cannot
    merge into (and be lost with) the truncated one.
    """
    with open(path, "a", encoding="utf-8") as handle:
        if handle.tell() > 0 and not _ends_with_newline(path):
            handle.write("\n")
        handle.write(canonical_json(obj))
        handle.write("\n")
        handle.flush()


def _ends_with_newline(path: str) -> bool:
    with open(path, "rb") as handle:
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) == b"\n"


def iter_jsonl_entries(path: str) -> Iterator[Dict[str, Any]]:
    """Parsed JSON-object lines of ``path``, tolerating a truncated tail.

    The shared reader of the experiment store and the service job ledger.
    Append-only writers can only corrupt the final line (cut short by a
    kill); unparseable lines -- garbage bytes anywhere in the file
    included -- are dropped so a consumer recomputes the lost entry
    instead of crashing on it.  Each line is decoded on its own, so one
    torn multi-byte character costs only its line.  Non-object lines are
    skipped for the same reason.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        for line in handle:
            try:
                entry = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):
                continue
            if isinstance(entry, dict):
                yield entry


class StoreWriterLock:
    """An advisory, cross-process writer lock for an append-only file.

    The lock is a sidecar ``<path>.lock`` file created with
    ``O_CREAT | O_EXCL`` (atomic on POSIX and NT) whose content names the
    holder (pid, host).  Two cooperating writers -- daemon workers and
    ``repro sweep --out`` both acquire it through
    :meth:`ExperimentStore.acquire_writer` -- can therefore never
    interleave appends to one shard.  A lock whose holder pid is dead
    (same host) is stale -- the previous writer was killed without
    cleanup -- and is silently broken, so crashes never wedge a store.
    """

    def __init__(self, path: str, timeout: float = 0.0, poll: float = 0.05) -> None:
        self.path = os.fspath(path)
        self.lock_path = self.path + ".lock"
        self.timeout = timeout
        self.poll = poll
        self._held = False

    # -- acquisition ---------------------------------------------------
    def acquire(self) -> "StoreWriterLock":
        deadline = time.monotonic() + self.timeout
        while True:
            if self._try_acquire():
                self._held = True
                return self
            holder = self._read_holder()
            if holder is None:
                if not os.path.exists(self.lock_path):
                    continue  # released between attempts -- retry now
                # Unreadable content: either a torn lock write (stale) or
                # the creator between open and write -- give it one beat
                # to finish before declaring the lock dead.
                time.sleep(min(self.poll, 0.05))
                if self._read_holder() is None and os.path.exists(self.lock_path):
                    self._break_stale()
                continue
            if self._is_stale(holder):
                self._break_stale()
                continue
            if time.monotonic() >= deadline:
                pid = holder.get("pid") if holder else "unknown"
                raise StoreLockError(
                    f"store {self.path!r} is locked by another writer "
                    f"(pid {pid}, lock file {self.lock_path!r}); two "
                    "writers must never interleave appends to one shard"
                )
            time.sleep(self.poll)

    def _try_acquire(self) -> bool:
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except OSError as error:
            if error.errno == errno.EEXIST:
                return False
            raise
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(
                canonical_json({"pid": os.getpid(), "host": os.uname().nodename})
            )
        return True

    def _read_holder(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.lock_path, "r", encoding="utf-8") as handle:
                holder = json.loads(handle.read())
        except (OSError, json.JSONDecodeError):
            return None
        return holder if isinstance(holder, dict) else None

    def _is_stale(self, holder: Dict[str, Any]) -> bool:
        """Whether the holder is provably dead (same host, no such pid)."""
        if holder.get("host") != os.uname().nodename:
            return False
        pid = holder.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            return True  # unreadable holder: a torn lock write, break it
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False
        return False

    def _break_stale(self) -> None:
        try:
            os.unlink(self.lock_path)
        except FileNotFoundError:
            pass  # a racing writer broke it first

    # -- release -------------------------------------------------------
    def release(self) -> None:
        if not self._held:
            return
        self._held = False
        try:
            os.unlink(self.lock_path)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "StoreWriterLock":
        if not self._held:
            self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class ExperimentStore:
    """Append-only JSONL persistence for sweep records and run provenance.

    The store is deliberately file-handle-free between operations: every
    append opens the file, writes one line and flushes, so concurrent
    readers always see a prefix of complete lines and a crashed writer
    cannot hold the file hostage.

    ``run_context`` (keys from :data:`RUN_CONTEXT_KEYS`: the experiment
    service's submitting tenant and job id) is stamped on every run
    header this store writes; records never carry it, so they stay
    byte-identical to a local run.
    """

    def __init__(self, path, run_context: Optional[Dict[str, Any]] = None) -> None:
        self.path = os.fspath(path)
        self.run_context = dict(run_context or {})
        unknown = set(self.run_context) - set(RUN_CONTEXT_KEYS)
        if unknown:
            raise ValueError(
                f"unknown run-context keys {sorted(unknown)} "
                f"(allowed: {list(RUN_CONTEXT_KEYS)})"
            )

    @classmethod
    def namespaced(
        cls, root, tenant: str, name: str,
        run_context: Optional[Dict[str, Any]] = None,
    ) -> "ExperimentStore":
        """A store under ``root/tenant/name.jsonl`` (per-tenant namespacing).

        The experiment service gives every tenant its own directory so
        one tenant's shards can be listed, quota-ed or deleted without
        touching another's.  Tenant names are validated as single path
        components (no separators, no leading dot) so a request can
        never escape the store root.
        """
        if not _TENANT_PATTERN.match(tenant):
            raise ExperimentStoreError(
                f"invalid tenant name {tenant!r}: use letters, digits, "
                "'_', '-' or '.' (max 64 chars, no leading '.')"
            )
        directory = os.path.join(os.fspath(root), tenant)
        os.makedirs(directory, exist_ok=True)
        if not name.endswith(".jsonl"):
            name += ".jsonl"
        return cls(os.path.join(directory, name), run_context=run_context)

    # -- low-level line access -----------------------------------------
    def exists(self) -> bool:
        return os.path.exists(self.path)

    def acquire_writer(
        self, timeout: float = 0.0, poll: float = 0.05
    ) -> StoreWriterLock:
        """The advisory writer lock of this store (not yet acquired).

        Use as a context manager::

            with store.acquire_writer():
                ...append...

        Raises :class:`StoreLockError` -- naming the holder pid -- when
        another live writer holds the lock past ``timeout`` seconds.
        """
        return StoreWriterLock(self.path, timeout=timeout, poll=poll)

    def _append(self, obj: Dict[str, Any]) -> None:
        append_jsonl_line(self.path, obj)

    def iter_entries(self) -> Iterator[Dict[str, Any]]:
        """Parsed store lines, skipping a truncated (killed-writer) tail."""
        return iter_jsonl_entries(self.path)

    # -- reading --------------------------------------------------------
    def run_headers(self) -> List[Dict[str, Any]]:
        """Every run-attempt header, oldest first."""
        return [entry for entry in self.iter_entries() if entry.get("kind") == "run"]

    def latest_header(self) -> Optional[Dict[str, Any]]:
        headers = self.run_headers()
        return headers[-1] if headers else None

    def completed(self) -> Dict[str, Tuple[int, SweepRecord]]:
        """Completed cells: task key -> ``(grid index, record)``.

        Keys are unique per grid; should duplicate appends ever occur
        (e.g. two racing resumes), the first write wins so the result is
        independent of any later, redundant recomputation.
        """
        _, table = self._scan()
        return table

    def _scan(
        self,
    ) -> Tuple[Optional[Dict[str, Any]], Dict[str, Tuple[int, SweepRecord]]]:
        """One pass over the file: ``(latest run header, completed cells)``."""
        header: Optional[Dict[str, Any]] = None
        table: Dict[str, Tuple[int, SweepRecord]] = {}
        for entry in self.iter_entries():
            kind = entry.get("kind")
            if kind == "run":
                header = entry
                continue
            if kind != "record":
                continue
            key = entry.get("key")
            index = entry.get("index")
            if (
                not isinstance(key, str) or key in table
                or not isinstance(index, int) or isinstance(index, bool)
            ):
                continue
            try:
                record = record_from_dict(entry["record"])
            except (KeyError, TypeError, ValueError):
                continue
            table[key] = (index, record)
        return header, table

    def load_records(self) -> List[SweepRecord]:
        """All persisted records in grid order (the sweep's task order)."""
        completed = self.completed()
        return [record for _, record in sorted(completed.values(), key=lambda item: item[0])]

    def load_rows(self) -> List[Dict[str, Any]]:
        """All free-form benchmark rows, in append order."""
        return [
            entry["row"]
            for entry in self.iter_entries()
            if entry.get("kind") == "row" and isinstance(entry.get("row"), dict)
        ]

    # -- writing --------------------------------------------------------
    def begin_sweep(
        self,
        specs: Sequence,
        algorithms: Sequence[str],
        base_seed: int,
        signature: str,
        jobs: int,
        resume: bool = False,
        fault=None,
    ) -> Dict[str, SweepRecord]:
        """Open a run attempt; return the already-completed cells.

        A non-empty store can only be continued with ``resume=True``, and
        only when its grid signature matches -- resuming a store written
        for a different grid would silently mix incompatible records.
        The header stamps the run's ``fault`` model (see
        :func:`repro.store.provenance.collect_provenance`) and this
        store's ``run_context``.
        """
        header, completed = self._scan()
        if header is not None or completed:
            if not resume:
                raise ExperimentStoreError(
                    f"store {self.path!r} already holds an experiment; "
                    "resume it (--resume / resume=True) or use a fresh path"
                )
            previous = header.get("signature") if header else None
            if previous is not None and previous != signature:
                raise ExperimentStoreError(
                    f"store {self.path!r} holds a different grid "
                    f"(signature {previous} != {signature}); refusing to mix"
                )
        self._append(
            {
                "kind": "run",
                "schema": SCHEMA_VERSION,
                "signature": signature,
                "specs": [spec_to_dict(spec) for spec in specs],
                "algorithms": list(algorithms),
                "base_seed": base_seed,
                "jobs": jobs,
                "resume": bool(resume),
                **collect_provenance(fault),
                **self.run_context,
            }
        )
        return {key: record for key, (_, record) in completed.items()}

    def append_record(self, key: str, index: int, record: SweepRecord) -> None:
        """Persist one completed cell (flushed immediately)."""
        self._append(
            {
                "kind": "record",
                "key": key,
                "index": int(index),
                "record": record_to_dict(record),
            }
        )

    def append_row(self, key: str, row: Dict[str, Any]) -> None:
        """Persist one free-form benchmark measurement row."""
        self._append({"kind": "row", "key": key, "row": row})

    def finish_sweep(
        self,
        wall_seconds: float,
        total_records: int,
        resumed_records: int,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Append the completion footer of the current run attempt.

        ``extra`` attaches free-form attempt metadata under the footer's
        ``extra`` key -- dispatch workers stamp per-lease timing there
        (worker id, shard id, cells/sec) for ``repro merge --stats``.
        """
        footer: Dict[str, Any] = {
            "kind": "finish",
            "wall_seconds": round(float(wall_seconds), 6),
            "total_records": int(total_records),
            "resumed_records": int(resumed_records),
        }
        if extra:
            footer["extra"] = dict(extra)
        self._append(footer)
