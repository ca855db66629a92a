"""Prometheus text exposition for the experiment service (``/metrics``).

A minimal, dependency-free renderer of the daemon's operational state in
the Prometheus `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_
(version 0.0.4): job counts by ledger state, per-tenant active jobs,
worker-slot capacity and the daemon's dispatch coordinator fleet.
Everything is derived on scrape from the same snapshots the JSON API
serves (``service.jobs()`` / ``service.capacity()``), so the two faces
can never disagree.

Label values are escaped per the format spec (backslash, double quote,
newline); tenant names are already restricted to a safe pattern by the
store layer, but the escaping keeps the renderer correct for any input.
"""

from __future__ import annotations

from typing import Dict, List

from repro.service.jobs import JOB_STATES

#: Content type Prometheus scrapers expect for the text format.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")
    )


def _sample(name: str, labels: Dict[str, str], value) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label_value(labels[key])}"'
            for key in sorted(labels)
        )
        return f"{name}{{{rendered}}} {value}"
    return f"{name} {value}"


def render_metrics(service) -> str:
    """The ``GET /metrics`` body for an :class:`ExperimentService`.

    Families (all gauges -- every value is a scrape-time snapshot of
    replayable ledger state, not a process-lifetime counter):

    * ``repro_service_jobs{state=...}`` -- job counts for every ledger
      state, zero-filled so absent states are visible to rate queries;
    * ``repro_service_tenant_active_jobs{tenant=...}`` -- queued+running
      jobs per tenant (the quota denominator);
    * ``repro_service_worker_slots{state=total|used|available}`` --
      the capacity report's worker-slot split;
    * ``repro_service_queued_jobs`` -- depth of the run queue;
    * ``repro_service_dispatch_workers`` / ``..._dispatch_idle_workers``
      -- registered and currently-idle dispatch workers;
    * ``repro_service_dispatch_steals`` /
      ``..._dispatch_speculative_leases`` -- the adaptive scheduler's
      work-stealing and speculative re-execution counts since
      coordinator start (monotone within one coordinator lifetime;
      still exported as gauges like every other family here).
    """
    jobs = service.jobs()
    capacity = service.capacity()

    states = {state: 0 for state in JOB_STATES}
    for record in jobs:
        states[record.state] = states.get(record.state, 0) + 1

    lines: List[str] = [
        "# HELP repro_service_jobs Jobs in the ledger by state.",
        "# TYPE repro_service_jobs gauge",
    ]
    for state in JOB_STATES:
        lines.append(
            _sample("repro_service_jobs", {"state": state}, states[state])
        )

    lines += [
        "# HELP repro_service_tenant_active_jobs "
        "Active (queued or running) jobs per tenant.",
        "# TYPE repro_service_tenant_active_jobs gauge",
    ]
    for tenant in sorted(capacity["tenants"]):
        lines.append(
            _sample(
                "repro_service_tenant_active_jobs",
                {"tenant": tenant},
                capacity["tenants"][tenant]["used"],
            )
        )

    lines += [
        "# HELP repro_service_worker_slots "
        "Worker-pool slots by occupancy state.",
        "# TYPE repro_service_worker_slots gauge",
        _sample("repro_service_worker_slots", {"state": "total"},
                capacity["total"]["workers"]),
        _sample("repro_service_worker_slots", {"state": "used"},
                capacity["used"]["workers"]),
        _sample("repro_service_worker_slots", {"state": "available"},
                capacity["available"]["workers"]),
        "# HELP repro_service_queued_jobs Jobs waiting for a worker slot.",
        "# TYPE repro_service_queued_jobs gauge",
        _sample("repro_service_queued_jobs", {}, capacity["queued"]),
    ]

    dispatch = service.coordinator.stats()
    lines += [
        "# HELP repro_service_dispatch_workers "
        "Workers registered with the dispatch coordinator.",
        "# TYPE repro_service_dispatch_workers gauge",
        _sample("repro_service_dispatch_workers", {},
                dispatch["registered_workers"]),
        "# HELP repro_service_dispatch_idle_workers "
        "Registered dispatch workers currently without a lease.",
        "# TYPE repro_service_dispatch_idle_workers gauge",
        _sample("repro_service_dispatch_idle_workers", {},
                dispatch["idle_workers"]),
        "# HELP repro_service_dispatch_steals "
        "Shards split by work stealing since coordinator start.",
        "# TYPE repro_service_dispatch_steals gauge",
        _sample("repro_service_dispatch_steals", {},
                dispatch["steals"]),
        "# HELP repro_service_dispatch_speculative_leases "
        "Speculative straggler re-leases since coordinator start.",
        "# TYPE repro_service_dispatch_speculative_leases gauge",
        _sample("repro_service_dispatch_speculative_leases", {},
                dispatch["speculative_leases"]),
    ]

    return "\n".join(lines) + "\n"
