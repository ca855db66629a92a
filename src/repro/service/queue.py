"""The experiment service daemon: a multi-tenant job queue over the store.

:class:`ExperimentService` owns:

* the **job ledger** (:class:`repro.service.jobs.JobLedger`) -- the
  durable queue.  Every submission and transition is appended before it
  is acknowledged, so a SIGKILLed daemon recovers its exact queue on
  restart (stale ``running`` leases are requeued and resume from their
  store checkpoints);
* a **dispatch coordinator** that every job runs on: a job is a
  dispatched grid whose cells are leased to the daemon's local worker
  processes and to any ``repro worker join`` workers;
* the **worker slots** -- ``workers`` threads, each leasing one queued
  job at a time and running it in-process through
  :func:`repro.service.gridspec.execute_grid_request`.  A running job
  brings ``jobs`` local ``python -m repro.dispatch.worker`` processes
  (one per CPU for ``0``), which join the coordinator's fleet until the
  job ends; a job whose local worker dies fails.  The sweep's progress
  hook counts the job's cells; cancelling a running job closes its
  grid's connection;
* the **capacity accounting** (:mod:`repro.service.quota`), mutated and
  read under one state lock so concurrent submissions always see
  consistent total/used/available counts.

The HTTP face lives in :mod:`repro.service.api`; this module is fully
usable in-process (tests drive it directly).
"""

from __future__ import annotations

import collections
import os
import shutil
import subprocess
import sys
import threading
import time
from typing import Any, Deque, Dict, List, Optional

from repro.analysis.sweep import SweepCancelled
from repro.dispatch import DispatchCoordinator, DispatchError, RemoteDispatch
from repro.runner.batch import resolve_jobs
from repro.service.gridspec import GridRequest, execute_grid_request
from repro.service.jobs import JobError, JobLedger, JobRecord
from repro.service.quota import QuotaPolicy, capacity_report
from repro.store import render_records


class ExperimentService:
    """The job daemon: submit/lease/execute/cancel over a durable ledger."""

    def __init__(
        self,
        data_dir,
        ledger_path=None,
        workers: int = 2,
        quota: Optional[QuotaPolicy] = None,
        dispatch_port: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.ledger = JobLedger(
            os.path.join(self.data_dir, "jobs.jsonl")
            if ledger_path is None
            else ledger_path
        )
        self.workers = workers
        self.quota = quota or QuotaPolicy()
        self.coordinator = DispatchCoordinator(port=dispatch_port)
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._jobs: Dict[str, JobRecord] = {}
        self._queue: Deque[str] = collections.deque()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._running: Dict[str, _JobRun] = {}
        self._started = False

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Recover the ledger, start the coordinator and the worker slots."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self.coordinator.start()
        # Shard files a killed daemon's local workers left behind.
        shutil.rmtree(
            os.path.join(self.data_dir, ".dispatch"), ignore_errors=True
        )
        recovered = self.ledger.recover()
        with self._lock:
            self._jobs = recovered
            for job_id, record in recovered.items():
                if record.state == "queued":
                    self._queue.append(job_id)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._slot_loop,
                name=f"repro-service-slot-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        """Graceful shutdown: checkpoint running jobs, stop the slots.

        Stopping the coordinator drops its client connections, so every
        running job's result stream raises and the job is requeued
        durably (``checkpointed on shutdown``); the next daemon resumes
        it from the store.  Each slot reaps its job's local workers
        before it exits.
        """
        with self._wakeup:
            self._stop.set()
            self._wakeup.notify_all()
        self.coordinator.stop()
        for thread in self._threads:
            thread.join()

    # -- submission / queries ------------------------------------------
    def submit(self, tenant: str, request: GridRequest) -> JobRecord:
        """Validate, quota-check, persist and enqueue one job.

        Raises ``ValueError`` (bad request / tenant) or
        :class:`repro.service.quota.QuotaExceeded`; nothing is persisted
        on rejection, so a failing submission cannot occupy quota.
        """
        request.validate()
        total = request.total_cells()
        with self._wakeup:
            self.quota.check_submit(tenant, self._jobs.values())
            job_id = self.ledger.next_job_id(self._jobs)
            record = JobRecord(
                job_id=job_id,
                tenant=tenant,
                request=request,
                store_name=f"{job_id}.jsonl",
                total=total,
                created=time.time(),
            )
            record.updated = record.created
            # Validates the tenant name (and creates the shard directory)
            # before the job is persisted.
            record.store(self.data_dir)
            self.ledger.append_job(record)
            self._jobs[job_id] = record
            self._queue.append(job_id)
            self._wakeup.notify()
        return record

    def job(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise JobError(f"unknown job {job_id!r}")
        return record

    def jobs(self, tenant: Optional[str] = None) -> List[JobRecord]:
        with self._lock:
            records = list(self._jobs.values())
        if tenant is not None:
            records = [record for record in records if record.tenant == tenant]
        return sorted(records, key=lambda record: record.job_id)

    def capacity(self) -> Dict[str, Any]:
        with self._lock:
            return capacity_report(
                self.workers, self.quota, self._jobs.values()
            )

    # -- cancellation --------------------------------------------------
    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation; immediate for queued jobs.

        A queued job transitions to ``cancelled`` on the spot.  A running
        job has its cancel flag set and its grid's connection closed; the
        final state (with its partial, durable progress) lands once its
        slot has reaped the job's local workers.  Cancelling a terminal
        job raises :class:`JobError`.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is None:
                raise JobError(f"unknown job {job_id!r}")
            if record.state == "queued":
                record.state = "cancelled"
                record.cancel_requested = True
                record.detail = "cancelled before execution"
                record.updated = time.time()
                try:
                    self._queue.remove(job_id)
                except ValueError:
                    pass
                self.ledger.append_state(
                    job_id, "cancelled", done=record.done,
                    detail=record.detail, cancel_requested=True,
                )
                return record
            if record.state == "running":
                record.cancel_requested = True
                record.updated = time.time()
                # Durable, so a restart does not run the job again.
                self.ledger.append_state(
                    job_id, "running", done=record.done, cancel_requested=True
                )
                self._running[job_id].dispatch.close()
                return record
            raise JobError(
                f"job {job_id!r} is already {record.state}; "
                "only queued or running jobs can be cancelled"
            )

    # -- results -------------------------------------------------------
    def results_text(self, job_id: str, format: str = "jsonl") -> str:
        """Rendered records of a job's store shard (partial while running).

        ``jsonl`` is the canonical export -- byte-identical to
        ``repro export --format jsonl`` on a local run of the same grid.
        """
        record = self.job(job_id)
        store = record.store(self.data_dir)
        return render_records(store.load_records(), format)

    # -- worker slots --------------------------------------------------
    def _slot_loop(self) -> None:
        while True:
            with self._wakeup:
                self._wakeup.wait_for(
                    lambda: self._stop.is_set() or bool(self._queue)
                )
                if self._stop.is_set():
                    return
                job_id = self._queue.popleft()
                record = self._jobs.get(job_id)
                if record is None or record.state != "queued":
                    continue  # cancelled (or foreign) while queued
                if record.cancel_requested:
                    # Cancelled while running, then checkpointed or
                    # requeued by a restart: nothing left to run.
                    self._finish_locked(
                        record, "cancelled", "cancelled before execution"
                    )
                    continue
                record.state = "running"
                record.updated = time.time()
                self.ledger.append_state(job_id, "running", done=record.done)
                run = self._running[job_id] = _JobRun(
                    RemoteDispatch(
                        coordinator=self.coordinator,
                        workers=resolve_jobs(record.request.jobs),
                    ),
                    os.path.join(self.data_dir, ".dispatch", job_id),
                )
            self._execute(record, run)

    def _execute(self, record: JobRecord, run: _JobRun) -> None:
        def progress(done: int, total: int) -> None:
            with self._lock:
                record.done = done
                record.updated = time.time()

        try:
            run.spawn(self.coordinator.address)
            execute_grid_request(
                record.request,
                store=record.store(self.data_dir),
                resume=True,
                runner=run.dispatch,
                progress=progress,
                should_stop=lambda: (
                    record.cancel_requested or self._stop.is_set()
                ),
            )
        except Exception as error:
            interrupted = isinstance(error, (SweepCancelled, DispatchError))
            if interrupted and record.cancel_requested:
                state = "cancelled"
                detail = f"cancelled after {record.done}/{record.total} cells"
            elif interrupted and self._stop.is_set():
                # Back to the queue, durably: the next daemon resumes the
                # job from its store.
                state, detail = "queued", "checkpointed on shutdown"
            else:
                state = "failed"
                detail = run.lost or f"{type(error).__name__}: {error}"
        else:
            state, detail = "done", None
        finally:
            run.close()
        with self._lock:
            del self._running[record.job_id]
            self._finish_locked(record, state, detail)

    def _finish_locked(
        self, record: JobRecord, state: str, detail: Optional[str] = None
    ) -> None:
        record.state = state
        record.updated = time.time()
        if detail is not None:
            record.detail = detail
        self.ledger.append_state(
            record.job_id, state, done=record.done, detail=detail,
            cancel_requested=record.cancel_requested or None,
        )


class _JobRun:
    """A running job's grid connection and the local workers it brings.

    Closing ``dispatch`` cancels the grid.  :meth:`spawn` starts
    ``dispatch.jobs`` ``python -m repro.dispatch.worker HOST:PORT --once``
    children that join the daemon's coordinator and write their shard
    files under ``shard_dir``.  A child that exits before :meth:`close`
    sets ``lost`` and closes ``dispatch``: the job fails instead of
    waiting for cells nobody computes.
    """

    def __init__(self, dispatch: RemoteDispatch, shard_dir: str) -> None:
        self.dispatch = dispatch
        self.shard_dir = shard_dir
        self.lost: Optional[str] = None
        self.processes: List[subprocess.Popen] = []
        self._watchers: List[threading.Thread] = []
        self._closed = threading.Event()

    def spawn(self, address) -> None:
        host, port = address
        for index in range(self.dispatch.jobs):
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.dispatch.worker",
                    f"{host}:{port}",
                    "--shard-dir", self.shard_dir,
                    "--name", f"local-{index}",
                    "--once",
                ],
                stdout=subprocess.DEVNULL,
            )
            self.processes.append(proc)
            watcher = threading.Thread(
                target=self._watch,
                args=(proc,),
                name=f"repro-service-watch-{proc.pid}",
                daemon=True,
            )
            self._watchers.append(watcher)
            watcher.start()

    def _watch(self, proc: subprocess.Popen) -> None:
        code = proc.wait()
        if not self._closed.is_set():
            self.lost = f"a local dispatch worker exited with code {code}"
            self.dispatch.close()

    def close(self) -> None:
        """Kill and reap the children, then delete their shard files:
        the job store holds every cell they streamed back."""
        self._closed.set()
        for proc in self.processes:
            proc.kill()
        for watcher in self._watchers:
            watcher.join()
        shutil.rmtree(self.shard_dir, ignore_errors=True)
