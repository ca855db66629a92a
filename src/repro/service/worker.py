"""The job worker: a subprocess that executes one leased job.

Each daemon worker slot runs its job in a **separate process**
(``python -m repro.service.worker --ledger ... --job-id ...``) rather
than a thread, because the service run context a job stamps on its
store headers (tenant, job id; :func:`repro.store.set_run_context`) is
process-wide -- two concurrent jobs must not share a process.  The
subprocess also gives the daemon a clean kill
boundary: cancellation and shutdown never have to unwind a half-run
grid in the daemon's own interpreter.

Cooperation protocol (all file-based, so it survives daemon restarts):

* the job's grid runs through
  :func:`repro.service.gridspec.execute_grid_request` with
  ``store=<per-tenant shard>, resume=True`` -- records flush as they
  complete, so any death loses at most the cells in flight;
* the ``should_stop`` hook checks a ``<store>.cancel`` sentinel written
  by the daemon's cancel endpoint, and a SIGTERM flag set by the
  daemon's graceful shutdown; both stop *between* task completions via
  :class:`repro.analysis.sweep.SweepCancelled`;
* the exit code tells the daemon what happened:
  0 done, 3 cancelled, 4 checkpointed (SIGTERM: requeue me),
  1 failed (traceback on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time
import traceback
from typing import Optional, Sequence

from repro.analysis.sweep import SweepCancelled
from repro.dispatch import RemoteDispatch, parse_address
from repro.service.jobs import JobLedger
from repro.service.gridspec import execute_grid_request
from repro.store import StoreLockError, set_run_context

#: Worker exit codes, read back by the daemon's worker thread.
EXIT_DONE = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_CANCELLED = 3
EXIT_CHECKPOINTED = 4

#: How long a worker waits for a contended store shard before failing.
_LOCK_WAIT_SECONDS = 15.0


def cancel_sentinel_path(store_path: str) -> str:
    """The cancel-request sentinel file for a job store shard."""
    return os.fspath(store_path) + ".cancel"


def run_job(
    ledger_path: str,
    data_dir: str,
    job_id: str,
    coordinator: Optional[str] = None,
) -> int:
    """Execute one job from the ledger; returns the worker exit code."""
    ledger = JobLedger(ledger_path)
    records = ledger.replay()
    record = records.get(job_id)
    if record is None:
        print(f"unknown job id {job_id!r} in ledger {ledger_path!r}",
              file=sys.stderr)
        return EXIT_USAGE

    # A remote-dispatch job fans its cells out to the daemon's registered
    # 'repro worker join' workers instead of computing locally; the
    # daemon passes its coordinator address because the bare name
    # "remote" in the request carries none.
    dispatch = None
    if record.request.dispatch == "remote":
        if coordinator is None:
            print(
                f"job {job_id!r} requests remote dispatch but no "
                "--coordinator address was provided (daemon started "
                "without --dispatch remote?)",
                file=sys.stderr,
            )
            return EXIT_USAGE
        dispatch = RemoteDispatch(
            address=parse_address(coordinator),
            kind=record.request.kind,
            workers=max(1, record.request.jobs),
        )

    store = record.store(data_dir)
    sentinel = cancel_sentinel_path(store.path)
    sigterm = {"received": False}

    def _on_sigterm(signum, frame):
        sigterm["received"] = True

    signal.signal(signal.SIGTERM, _on_sigterm)

    def should_stop() -> bool:
        return sigterm["received"] or os.path.exists(sentinel)

    # Stamp the submitting tenant and job id into every run-provenance
    # header this job writes; the records themselves stay byte-identical
    # to a local run of the same request.
    set_run_context(tenant=record.tenant, job_id=record.job_id)
    deadline = time.monotonic() + _LOCK_WAIT_SECONDS
    while True:
        try:
            execute_grid_request(
                record.request,
                store=store,
                resume=True,
                should_stop=should_stop,
                dispatch=dispatch,
            )
        except SweepCancelled:
            return EXIT_CHECKPOINTED if sigterm["received"] else EXIT_CANCELLED
        except StoreLockError as error:
            # Another writer holds the shard -- typically an orphaned
            # worker from a killed daemon that has not yet died (a dead
            # holder's lock is broken automatically).  Wait briefly for
            # it to drain; past the deadline, failing loudly beats
            # interleaving appends.
            if time.monotonic() < deadline and not should_stop():
                time.sleep(0.5)
                continue
            print(str(error), file=sys.stderr)
            return EXIT_FAILED
        except Exception:
            traceback.print_exc()
            return EXIT_FAILED
        return EXIT_DONE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service-worker",
        description="Execute one experiment-service job (internal; "
        "spawned by the daemon's worker pool).",
    )
    parser.add_argument("--ledger", required=True, help="job ledger path")
    parser.add_argument("--data-dir", required=True,
                        help="root of the per-tenant store shards")
    parser.add_argument("--job-id", required=True, help="job to execute")
    parser.add_argument(
        "--coordinator", default=None, metavar="HOST:PORT",
        help="dispatch coordinator for remote-dispatch jobs "
        "(passed by the daemon when started with --dispatch remote)",
    )
    args = parser.parse_args(argv)
    return run_job(args.ledger, args.data_dir, args.job_id,
                   coordinator=args.coordinator)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
