"""Guarded numpy import shared by every numpy-dependent subsystem.

numpy is a *declared but optional* dependency (the ``repro[numpy]``
extra in ``pyproject.toml``): the CONGEST simulator and the quantum
schedule backends never touch it.  The graph oracles use it when it is
installed and the graph is in the band where the vectorized kernels of
:mod:`repro.graphs.vector` win (:func:`numpy_or_none`), and run their
stdlib kernels otherwise.  The state-vector simulator and the
curve-fitting helpers (:mod:`repro.analysis.fitting`) require it; they
import numpy through :func:`require_numpy` so a missing install fails
with one actionable message naming the extra instead of a bare
``ModuleNotFoundError`` deep inside a kernel.
"""

from __future__ import annotations

#: Name of the optional-dependency extra declared in ``pyproject.toml``.
NUMPY_EXTRA = "numpy"

#: Version floor mirrored from ``pyproject.toml`` (kept here so the
#: error message stays accurate without parsing packaging metadata).
NUMPY_REQUIREMENT = "numpy>=1.22"


def missing_numpy_message(feature: str) -> str:
    """The actionable error text for a numpy-dependent ``feature``."""
    return (
        f"{feature} requires numpy, which is not installed; "
        f"install the {NUMPY_EXTRA!r} extra "
        f"(pip install 'repro[{NUMPY_EXTRA}]') or {NUMPY_REQUIREMENT} "
        "directly"
    )


def numpy_or_none():
    """The :mod:`numpy` module, or ``None`` when it is not installed."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def require_numpy(feature: str = "this feature"):
    """Import and return :mod:`numpy`, raising an actionable error if absent.

    The raised :class:`ImportError` names the feature that needed numpy
    and the ``repro[numpy]`` extra that provides it, so CLI users see a
    remedy instead of a traceback ending in ``No module named 'numpy'``.
    """
    try:
        import numpy
    except ImportError as exc:
        raise ImportError(missing_numpy_message(feature)) from exc
    return numpy

