"""The experiment service daemon: a multi-tenant job queue over the store.

:class:`ExperimentService` owns three things:

* the **job ledger** (:class:`repro.service.jobs.JobLedger`) -- the
  durable queue.  Every submission and transition is appended before it
  is acknowledged, so a SIGKILLed daemon recovers its exact queue on
  restart (stale ``running`` leases are requeued and resume from their
  store checkpoints);
* the **worker pool** -- ``workers`` threads, each leasing one queued
  job at a time and executing it in a subprocess
  (:mod:`repro.service.worker`).  Process isolation is what lets each
  job stamp its own tenant/job run context on its store headers.  While
  the subprocess runs, the thread
  polls the job store's completed-key scan for durable task-level
  progress;
* the **capacity accounting** (:mod:`repro.service.quota`) -- worker
  slots and per-tenant active-job quotas, all mutated and read under
  one state lock so concurrent submissions always see consistent
  total/used/available counts.

The HTTP face lives in :mod:`repro.service.api`; this module is fully
usable in-process (tests drive it directly).
"""

from __future__ import annotations

import collections
import os
import subprocess
import sys
import threading
import time
from typing import Any, Deque, Dict, List, Optional

from repro.dispatch import DispatchCoordinator
from repro.service import worker as worker_mod
from repro.service.gridspec import GridRequest
from repro.service.jobs import JobError, JobLedger, JobRecord
from repro.service.quota import QuotaPolicy, capacity_report
from repro.store import ExperimentStore, render_records

#: How often a worker thread refreshes a running job's progress from the
#: store's completed-key scan (and checks for shutdown).
_POLL_INTERVAL = 0.15


class ExperimentService:
    """The job daemon: submit/lease/execute/cancel over a durable ledger."""

    def __init__(
        self,
        data_dir,
        ledger_path=None,
        workers: int = 2,
        quota: Optional[QuotaPolicy] = None,
        poll_interval: float = _POLL_INTERVAL,
        dispatch: Optional[str] = None,
        dispatch_port: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if dispatch not in (None, "remote"):
            raise ValueError(
                f"service dispatch must be None or 'remote', got {dispatch!r}"
            )
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.ledger = JobLedger(
            os.path.join(self.data_dir, "jobs.jsonl")
            if ledger_path is None
            else ledger_path
        )
        self.workers = workers
        self.quota = quota or QuotaPolicy()
        self.poll_interval = poll_interval
        self._lock = threading.Lock()
        self._jobs: Dict[str, JobRecord] = {}
        self._queue: Deque[str] = collections.deque()
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._threads: List[threading.Thread] = []
        self._procs: Dict[str, subprocess.Popen] = {}
        self._started = False
        # With dispatch="remote" the daemon owns one persistent
        # coordinator shared by every job that requests remote dispatch;
        # 'repro worker join' workers register against it once and serve
        # shards across jobs.
        self.dispatch = dispatch
        self.coordinator: Optional[DispatchCoordinator] = (
            DispatchCoordinator(port=dispatch_port)
            if dispatch == "remote" else None
        )

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Recover the ledger and start the worker pool."""
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        if self.coordinator is not None:
            self.coordinator.start()
        recovered = self.ledger.recover()
        with self._lock:
            self._jobs = recovered
            for job_id, record in recovered.items():
                if record.state == "queued":
                    self._queue.append(job_id)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: checkpoint running jobs, stop the pool.

        Running worker subprocesses receive SIGTERM; their cooperative
        hook stops them between task completions and they exit with the
        *checkpointed* code, which requeues the job (durably) so the
        next daemon continues it from the store.
        """
        self._stop.set()
        self._wake.set()
        with self._lock:
            procs = list(self._procs.values())
        for proc in procs:
            try:
                proc.terminate()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=timeout)
        if self.coordinator is not None:
            self.coordinator.stop()

    # -- submission / queries ------------------------------------------
    def submit(self, tenant: str, request: GridRequest) -> JobRecord:
        """Validate, quota-check, persist and enqueue one job.

        Raises ``ValueError`` (bad request / tenant) or
        :class:`repro.service.quota.QuotaExceeded`; nothing is persisted
        on rejection, so a failing submission cannot occupy quota.
        """
        request.validate()
        if request.dispatch == "remote" and self.coordinator is None:
            raise ValueError(
                "this service has no dispatch coordinator; start the "
                "daemon with --dispatch remote to accept remote-dispatch "
                "jobs"
            )
        total = request.total_cells()
        with self._lock:
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
        self._wake.set()
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
        job gets a cancel sentinel next to its store; the worker
        subprocess notices between task completions and the final state
        (with its partial, durable progress) lands when it exits.
        Cancelling a terminal job raises :class:`JobError`.
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
                store_path = record.store(self.data_dir).path
                sentinel = worker_mod.cancel_sentinel_path(store_path)
                with open(sentinel, "w", encoding="utf-8") as handle:
                    handle.write(job_id + "\n")
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

    # -- worker pool ---------------------------------------------------
    def _lease(self) -> Optional[JobRecord]:
        with self._lock:
            while self._queue:
                job_id = self._queue.popleft()
                record = self._jobs.get(job_id)
                if record is None or record.state != "queued":
                    continue  # cancelled (or foreign) while queued
                record.state = "running"
                record.updated = time.time()
                self.ledger.append_state(job_id, "running", done=record.done)
                return record
        return None

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            record = self._lease()
            if record is None:
                self._wake.wait(timeout=self.poll_interval)
                self._wake.clear()
                continue
            try:
                self._execute(record)
            except Exception as error:  # pragma: no cover - defensive
                self._finish(record, "failed", detail=f"worker error: {error}")

    def _execute(self, record: JobRecord) -> None:
        store = record.store(self.data_dir)
        sentinel = worker_mod.cancel_sentinel_path(store.path)
        if os.path.exists(sentinel):
            # A cancel left over for this shard (e.g. requested just as
            # the previous daemon died): honour it, don't run the job.
            os.unlink(sentinel)
            if record.cancel_requested:
                self._finish(record, "cancelled",
                             detail="cancelled before execution")
                return
        log_path = store.path + ".log"
        argv = [
            sys.executable, "-m", "repro.service.worker",
            "--ledger", self.ledger.path,
            "--data-dir", self.data_dir,
            "--job-id", record.job_id,
        ]
        if record.request.dispatch == "remote" and self.coordinator is not None:
            host, port = self.coordinator.address
            argv.extend(["--coordinator", f"{host}:{port}"])
        with open(log_path, "ab") as log:
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT
            )
        with self._lock:
            record.worker_pid = proc.pid
            self._procs[record.job_id] = proc
        try:
            while True:
                try:
                    proc.wait(timeout=self.poll_interval)
                    break
                except subprocess.TimeoutExpired:
                    self._refresh_progress(record, store)
                    if self._stop.is_set():
                        proc.terminate()
        finally:
            with self._lock:
                self._procs.pop(record.job_id, None)
        self._refresh_progress(record, store)
        self._conclude(record, proc.returncode, log_path, sentinel)

    def _refresh_progress(self, record: JobRecord, store: ExperimentStore) -> None:
        """Task-level progress: the store's durable completed-key count."""
        try:
            done = len(store.completed_keys())
        except OSError:  # pragma: no cover - transient fs error
            return
        with self._lock:
            if done != record.done:
                record.done = done
                record.updated = time.time()

    def _conclude(
        self, record: JobRecord, returncode: Optional[int],
        log_path: str, sentinel: str,
    ) -> None:
        if returncode == worker_mod.EXIT_DONE:
            self._finish(record, "done")
        elif returncode == worker_mod.EXIT_CANCELLED:
            if os.path.exists(sentinel):
                os.unlink(sentinel)
            self._finish(
                record, "cancelled",
                detail=f"cancelled after {record.done}/{record.total} cells",
            )
        elif returncode == worker_mod.EXIT_CHECKPOINTED:
            # Graceful shutdown checkpoint: back to the queue, durably;
            # the next lease resumes from the store.
            self._finish(record, "queued", detail="checkpointed on shutdown")
            if not self._stop.is_set():
                with self._lock:
                    self._queue.append(record.job_id)
                self._wake.set()
        else:
            detail = self._failure_detail(log_path, returncode)
            self._finish(record, "failed", detail=detail)

    @staticmethod
    def _failure_detail(log_path: str, returncode: Optional[int]) -> str:
        tail = ""
        try:
            with open(log_path, "r", encoding="utf-8", errors="replace") as handle:
                lines = handle.read().strip().splitlines()
            tail = " | ".join(lines[-3:])
        except OSError:
            pass
        detail = f"worker exited with code {returncode}"
        return f"{detail}: {tail}" if tail else detail

    def _finish(
        self, record: JobRecord, state: str, detail: Optional[str] = None
    ) -> None:
        with self._lock:
            record.state = state
            record.updated = time.time()
            if detail is not None:
                record.detail = detail
            self.ledger.append_state(
                record.job_id, state, done=record.done, detail=detail,
                cancel_requested=record.cancel_requested or None,
            )
