"""Run provenance for persisted experiments.

Every sweep written to an :class:`repro.store.ExperimentStore` starts
with a header line recording *how* the records were produced: the grid
(specs, algorithms, base seed), the execution configuration (engine,
worker count) and the environment (git describe, Python version).  A
record set without provenance is unreproducible; a record set with it
can be re-run, extended or audited months later.
"""

from __future__ import annotations

import platform
import subprocess
from typing import Any, Dict, Optional

#: Keys the experiment service may stamp onto run headers; anything else
#: passed to :func:`set_run_context` is rejected so the header schema
#: stays enumerable.
RUN_CONTEXT_KEYS = ("tenant", "job_id")

_RUN_CONTEXT: Dict[str, Any] = {}


def set_run_context(**context: Any) -> Dict[str, Any]:
    """Install service context (tenant, job id) stamped on run headers.

    The experiment service sets this in each job's worker process before
    executing the grid, so every run-attempt header records *who*
    submitted the work and *which* job produced it -- records themselves
    stay byte-identical to a local run (the context only reaches
    headers, never records).  Returns the previous context so callers
    can restore it; passing a key as ``None`` clears it.
    """
    unknown = set(context) - set(RUN_CONTEXT_KEYS)
    if unknown:
        raise ValueError(
            f"unknown run-context keys {sorted(unknown)} "
            f"(allowed: {list(RUN_CONTEXT_KEYS)})"
        )
    previous = dict(_RUN_CONTEXT)
    for key, value in context.items():
        if value is None:
            _RUN_CONTEXT.pop(key, None)
        else:
            _RUN_CONTEXT[key] = value
    return previous


def get_run_context() -> Dict[str, Any]:
    """The currently installed service run context (may be empty)."""
    return dict(_RUN_CONTEXT)


def clear_run_context() -> None:
    """Drop any installed service run context (used by tests)."""
    _RUN_CONTEXT.clear()


def git_describe(cwd: Optional[str] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the working tree, or ``None``.

    Failure (no git binary, not a repository, timeout) is expected in
    deployed environments and never raises -- provenance should describe
    the run, not break it.
    """
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def collect_provenance(config=None) -> Dict[str, Any]:
    """Environment facts stamped on every run header.

    Records the *full* :class:`repro.config.ExecutionConfig` of the run
    (``None``: :data:`repro.config.DEFAULT_CONFIG`) -- engine, quantum
    schedule backend, compute tier and fault model -- not just the
    engine: a sweep run under ``--backend batched``, ``--tier numpy`` or
    ``--loss 0.05`` is not reproducible from a header that omits those
    selections.  The fault model is stamped as its canonical description
    string (``"none"`` for the null model), which is exactly the token
    that distinguishes faulty task keys.
    """
    # Imported on use: the configuration pulls in the fault layer, which
    # store readers such as ``repro export`` never need.
    from repro.config import resolve_config

    config = resolve_config(config)
    provenance = {
        "engine": config.engine,
        "schedule_backend": config.backend,
        "tier": config.tier,
        "fault_model": config.fault.describe(),
        "git": git_describe(),
        "python": platform.python_version(),
    }
    # Service context (submitting tenant, job id) when a daemon worker
    # installed one; absent for local runs so existing headers are
    # unchanged byte-for-byte.
    provenance.update(_RUN_CONTEXT)
    return provenance
