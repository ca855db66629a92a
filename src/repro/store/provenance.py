"""Run provenance for persisted experiments.

Every sweep written to an :class:`repro.store.ExperimentStore` starts
with a header line recording *how* the records were produced: the grid
(specs, algorithms, base seed), how it ran (fault model, worker count)
and the environment (git describe, Python version).  A
record set without provenance is unreproducible; a record set with it
can be re-run, extended or audited months later.

:mod:`subprocess` is imported only when a header is stamped, so reading a
store does not load it; the Python version comes from :data:`sys.version`
(the string :func:`platform.python_version` returns), so no command loads
:mod:`platform`.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, Optional

#: Keys the experiment service may stamp onto run headers (an
#: :class:`repro.store.ExperimentStore` ``run_context``); anything else is
#: rejected so the header schema stays enumerable.
RUN_CONTEXT_KEYS = ("tenant", "job_id")


#: The directory of the ``repro`` package: the tree whose code ran.
PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_describe(cwd: Optional[str] = None) -> Optional[str]:
    """``git describe --always --dirty`` of the tree holding the code that
    ran (``cwd``, by default the ``repro`` package's directory), or
    ``None``.

    The caller's working directory plays no part: a sweep started inside
    another repository must not stamp that repository's commit.  Failure
    (no git binary, code not in a repository, timeout) is expected in
    deployed environments and never raises -- provenance should describe
    the run, not break it.
    """
    import subprocess

    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=PACKAGE_DIR if cwd is None else cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if result.returncode != 0:
        return None
    return result.stdout.strip() or None


def collect_provenance(fault=None) -> Dict[str, Any]:
    """Environment facts stamped on every run header.

    Records the run's :class:`repro.faults.FaultModel` (``None``: the
    null model): a sweep run under ``--loss 0.05`` is not reproducible
    from a header that omits it.  The fault model is stamped as its
    canonical description string (``"none"`` for the null model), which
    is exactly the token that distinguishes faulty task keys.
    """
    return {
        "fault_model": "none" if fault is None else fault.describe(),
        "git": git_describe(),
        "python": sys.version.split()[0],
    }
