"""Experiment service: a multi-tenant job daemon over the store/runner stack.

The service turns the local sweep workflow -- ``repro sweep --out
run.jsonl --resume`` -- into a long-running daemon that multiple tenants
share:

* :mod:`repro.service.gridspec` -- :class:`GridRequest`, the one
  serializable description of a sweep/quantum grid, executed identically
  by the CLI and by daemon workers (that shared path is what makes a
  daemon-run job's canonical export byte-identical to a local run);
* :mod:`repro.service.jobs` -- job model + durable JSONL ledger (replay
  reconstructs the queue after a crash);
* :mod:`repro.service.queue` -- :class:`ExperimentService`, the worker
  slots running every job as a dispatched grid on the daemon's own
  :class:`repro.dispatch.DispatchCoordinator`, with cooperative
  cancellation and SIGTERM checkpointing;
* :mod:`repro.service.quota` -- capacity accounting and per-tenant
  active-job quotas;
* :mod:`repro.service.metrics` -- Prometheus text exposition of job
  states, tenant activity, and worker capacity (``GET /metrics``);
* :mod:`repro.service.api` / :mod:`repro.service.client` -- the stdlib
  HTTP JSON face and its client, surfaced as ``repro serve`` and
  ``repro jobs ...``.

The daemon's coordinator leases cells to the local worker processes
each running job brings and to any ``repro worker join`` workers
registered with it.

The daemon, its HTTP face and the client load on first use of
:class:`ExperimentService`, :func:`serve_api` or :class:`ServiceClient`,
so a local grid command that only needs :class:`GridRequest` does not
import ``http.server``, ``urllib`` or the dispatch coordinator.
"""

from repro._lazy import lazy_exports
from repro.service.gridspec import (
    GRID_KINDS,
    GridRequest,
    execute_grid_request,
    fault_model_from_flags,
)
from repro.service.jobs import (
    ACTIVE_STATES,
    JOB_STATES,
    TERMINAL_STATES,
    JobError,
    JobLedger,
    JobRecord,
)
from repro.service.metrics import METRICS_CONTENT_TYPE, render_metrics
from repro.service.quota import QuotaExceeded, QuotaPolicy, capacity_report

__getattr__, __dir__ = lazy_exports(__name__, {
    "ExperimentService": "repro.service.queue",
    "serve_api": "repro.service.api",
    "ServiceClient": "repro.service.client",
    "ServiceClientError": "repro.service.client",
})

__all__ = [
    "GRID_KINDS",
    "GridRequest",
    "execute_grid_request",
    "fault_model_from_flags",
    "JOB_STATES",
    "ACTIVE_STATES",
    "TERMINAL_STATES",
    "JobError",
    "JobLedger",
    "JobRecord",
    "ExperimentService",
    "METRICS_CONTENT_TYPE",
    "render_metrics",
    "QuotaPolicy",
    "QuotaExceeded",
    "capacity_report",
    "serve_api",
    "ServiceClient",
    "ServiceClientError",
]
