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

Every name loads its module on first use, so a local grid command that
only needs :class:`GridRequest` imports neither the job ledger, the
quotas and the metrics page nor the daemon, its HTTP face and the client
(``http.server``, ``urllib``, the dispatch coordinator).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "GRID_KINDS": "repro.service.gridspec",
    "GridRequest": "repro.service.gridspec",
    "execute_grid_request": "repro.service.gridspec",
    "fault_model_from_flags": "repro.service.gridspec",
    "ACTIVE_STATES": "repro.service.jobs",
    "JOB_STATES": "repro.service.jobs",
    "TERMINAL_STATES": "repro.service.jobs",
    "JobError": "repro.service.jobs",
    "JobLedger": "repro.service.jobs",
    "JobRecord": "repro.service.jobs",
    "METRICS_CONTENT_TYPE": "repro.service.metrics",
    "render_metrics": "repro.service.metrics",
    "QuotaExceeded": "repro.service.quota",
    "QuotaPolicy": "repro.service.quota",
    "capacity_report": "repro.service.quota",
    "ExperimentService": "repro.service.queue",
    "serve_api": "repro.service.api",
    "ServiceClient": "repro.service.client",
    "ServiceClientError": "repro.service.client",
})
