"""Jobs and the durable job ledger of the experiment service.

A **job** is one submitted grid request: a tenant, a
:class:`repro.service.gridspec.GridRequest`, and a per-tenant experiment
store shard the records land in.  Its lifecycle is::

    queued --> running --> done
                      \\-> failed
         \\----------- \\-> cancelled

plus the recovery edge ``running -> queued`` taken when a daemon restart
finds a stale lease (the previous daemon died mid-job); the job's store
checkpoint makes that resume exact.

The **ledger** is an append-only JSONL file -- the same durability
discipline as the experiment store, sharing its appender and its
truncated-tail-tolerant reader (:func:`repro.store.append_jsonl_line` /
:func:`repro.store.iter_jsonl_entries`) -- holding one ``job`` entry per
submission and one ``state`` entry per transition.  Replaying the file
reconstructs the queue exactly, so a SIGKILLed daemon resumes its queue
the way ``sweep --resume`` resumes a grid.  Task-level progress is *not*
written per cell: the job store already holds every completed record
durably, and the daemon tracks the running count from the sweep's
progress hook; the ledger only snapshots the count on state transitions.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.service.gridspec import GridRequest
from repro.store import (
    ExperimentStore,
    append_jsonl_line,
    iter_jsonl_entries,
)

#: Every state a job can be in.  ``queued`` and ``running`` are active
#: (they occupy quota); the rest are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
ACTIVE_STATES = frozenset({"queued", "running"})
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Ledger file schema, bumped on incompatible layout changes.
LEDGER_SCHEMA_VERSION = 1

#: The type every ledger field replay reads must have; an entry with a
#: field of any other type is skipped whole (``bool`` is not an ``int``).
_FIELD_TYPES = {
    "job_id": str, "tenant": str, "store_name": str, "request": dict,
    "state": str, "total": int, "done": int, "created": (int, float),
    "at": (int, float), "detail": (str, type(None)), "cancel_requested": bool,
}


def _well_typed(entry: Mapping[str, Any]) -> bool:
    return all(
        isinstance(entry[key], kinds)
        and (kinds is bool or not isinstance(entry[key], bool))
        for key, kinds in _FIELD_TYPES.items() if key in entry
    )


class JobError(ValueError):
    """A job operation cannot be performed (unknown id, bad transition)."""


@dataclass
class JobRecord:
    """The daemon's view of one job, reconstructed by ledger replay."""

    job_id: str
    tenant: str
    request: GridRequest
    store_name: str
    total: int
    state: str = "queued"
    done: int = 0
    detail: Optional[str] = None
    cancel_requested: bool = False
    created: float = 0.0
    updated: float = 0.0

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def store(self, data_dir: str) -> ExperimentStore:
        """This job's per-tenant experiment store shard under ``data_dir``,
        stamping the tenant and job id on its run headers."""
        return ExperimentStore.namespaced(
            data_dir, self.tenant, self.store_name,
            run_context={"tenant": self.tenant, "job_id": self.job_id},
        )

    def to_api(self) -> Dict[str, Any]:
        """The JSON shape served by the status endpoints."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "progress": {"done": self.done, "total": self.total},
            "cancel_requested": self.cancel_requested,
            "detail": self.detail,
            "created": self.created,
            "updated": self.updated,
            "request": self.request.to_dict(),
            "store": f"{self.tenant}/{self.store_name}",
        }


class JobLedger:
    """Append-only JSONL persistence of the service's job queue.

    One daemon owns one ledger; every mutation appends a line and
    flushes, so a killed daemon loses nothing it acknowledged.  Two
    entry kinds:

    * ``job`` -- a submission: id, tenant, the full grid request, the
      store shard name and the grid's total cell count.
    * ``state`` -- a transition: new state, the durable progress count
      at transition time, and optional detail (error text) /
      cancel-request flag.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)

    # -- writing -------------------------------------------------------
    def append_job(self, record: JobRecord) -> None:
        append_jsonl_line(
            self.path,
            {
                "kind": "job",
                "schema": LEDGER_SCHEMA_VERSION,
                "job_id": record.job_id,
                "tenant": record.tenant,
                "request": record.request.to_dict(),
                "store_name": record.store_name,
                "total": record.total,
                "created": record.created,
            },
        )

    def append_state(
        self,
        job_id: str,
        state: str,
        done: int = 0,
        detail: Optional[str] = None,
        cancel_requested: Optional[bool] = None,
    ) -> None:
        if state not in JOB_STATES:
            raise JobError(f"unknown job state {state!r}")
        entry: Dict[str, Any] = {
            "kind": "state",
            "job_id": job_id,
            "state": state,
            "done": int(done),
            "at": time.time(),
        }
        if detail is not None:
            entry["detail"] = detail
        if cancel_requested is not None:
            entry["cancel_requested"] = bool(cancel_requested)
        append_jsonl_line(self.path, entry)

    # -- replay --------------------------------------------------------
    def replay(self) -> Dict[str, JobRecord]:
        """Reconstruct every job's latest state, in submission order.

        Unknown-job state entries and malformed entries -- wrong-typed
        fields, unknown kinds or states -- are skipped whole (the only
        corruption an append-only writer can produce is a truncated tail,
        already dropped by the shared reader; anything else is a foreign
        line that must not take the queue down).  Keys replay does not
        read, such as the worker pid older daemons recorded, are ignored.
        """
        records: Dict[str, JobRecord] = {}
        for entry in iter_jsonl_entries(self.path):
            if not _well_typed(entry):
                continue
            kind = entry.get("kind")
            if kind == "job":
                try:
                    record = JobRecord(
                        job_id=entry["job_id"],
                        tenant=entry["tenant"],
                        request=GridRequest.from_dict(entry["request"]),
                        store_name=entry["store_name"],
                        total=entry["total"],
                        created=float(entry.get("created", 0.0)),
                    )
                except (KeyError, TypeError, ValueError):
                    continue
                record.updated = record.created
                # First write wins, like the store's completed-cell scan:
                # a duplicate submission line cannot reset a job.
                records.setdefault(record.job_id, record)
            elif kind == "state":
                record = records.get(entry.get("job_id"))
                if record is None or entry.get("state") not in JOB_STATES:
                    continue
                record.state = entry["state"]
                record.done = entry.get("done", record.done)
                record.updated = float(entry.get("at", record.updated))
                if "detail" in entry:
                    record.detail = entry["detail"]
                if "cancel_requested" in entry:
                    record.cancel_requested = entry["cancel_requested"]
        return records

    def recover(self) -> Dict[str, JobRecord]:
        """Replay and release stale leases (daemon startup).

        A job still marked ``running`` was leased by a daemon that died
        without transitioning it; requeue it -- keeping any pending
        cancel request -- so a worker re-leases it and ``resume=True``
        continues from the store checkpoint.
        """
        records = self.replay()
        for record in records.values():
            if record.state == "running":
                self.append_state(
                    record.job_id,
                    "queued",
                    done=record.done,
                    detail="requeued after daemon restart (stale lease)",
                    cancel_requested=record.cancel_requested,
                )
                record.state = "queued"
                record.detail = "requeued after daemon restart (stale lease)"
        return records

    def next_job_id(self, records: Optional[Mapping[str, JobRecord]] = None) -> str:
        """The next sequential job id (``job-000001``, ``job-000002``, ...)."""
        if records is None:
            records = self.replay()
        highest = 0
        for job_id in records:
            try:
                highest = max(highest, int(job_id.rsplit("-", 1)[-1]))
            except ValueError:
                continue
        return f"job-{highest + 1:06d}"
