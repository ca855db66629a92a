"""Process-wide compute-tier selection: ``stdlib`` (reference) vs ``numpy``.

The repository keeps two implementations of its hot numerical paths:

* ``"stdlib"`` -- the reference tier.  Pure-stdlib kernels (big-int
  bitsets, Takes-Kosters pruning); always available, and the behaviour
  every other tier is proven byte-identical against.
* ``"numpy"`` -- the vectorized tier.  uint64-word bitset multi-source
  BFS and batched-pruning all-eccentricities kernels over the CSR arrays
  (:mod:`repro.graphs.vector`).  Requires the optional ``repro[numpy]``
  extra; selecting it without numpy installed raises the actionable
  :class:`ImportError` of :func:`repro._numpy.require_numpy`.

The CONGEST round loop (:mod:`repro.engine`) is the same on both tiers.

Tier selection follows the execution-engine / schedule-backend idiom
(:func:`repro.engine.set_default_engine`,
:func:`repro.quantum.backend.set_default_schedule_backend`): a
process-wide default, toggled by the CLI ``--tier`` flag and the
benchmark conftest, re-applied in :class:`repro.runner.batch.BatchRunner`
pool workers, and consulted at each dispatch point via
:func:`get_default_tier` / :func:`active_numpy`.  Dispatch points treat
the tier as a *performance* choice only: every tier returns byte-identical
values, dict orders and exceptions, so flipping the default can never
change a result -- the differential suite in ``tests/test_vector_tier.py``
holds the tiers to that contract.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro._numpy import numpy_or_none, require_numpy

#: The reference tier (always available; the seed behaviour).
TIER_STDLIB = "stdlib"

#: The vectorized tier (requires the ``repro[numpy]`` extra).
TIER_NUMPY = "numpy"

#: Stable name tuple for argparse ``choices``.
TIER_NAMES: Tuple[str, ...] = (TIER_NUMPY, TIER_STDLIB)

#: Process-wide default, toggled by :func:`set_default_tier`.
_DEFAULT_TIER = TIER_STDLIB


def validate_tier_name(name: str) -> str:
    """Return ``name`` if it is a known tier, else raise ``ValueError``."""
    if name not in TIER_NAMES:
        known = ", ".join(TIER_NAMES)
        raise ValueError(f"unknown compute tier {name!r} (available: {known})")
    return name


def set_default_tier(name: str) -> str:
    """Set the process-wide default compute tier; returns the previous one.

    Selecting the ``numpy`` tier eagerly verifies that numpy is
    importable, so a missing install fails here -- at the CLI flag or
    conftest option that asked for the tier -- with the actionable
    message of :func:`repro._numpy.require_numpy`, not later inside a
    kernel.
    """
    global _DEFAULT_TIER
    validate_tier_name(name)
    if name == TIER_NUMPY:
        require_numpy("the 'numpy' compute tier")
    previous = _DEFAULT_TIER
    _DEFAULT_TIER = name
    return previous


def get_default_tier() -> str:
    """The current process-wide default compute-tier name."""
    return _DEFAULT_TIER


def resolve_tier(tier: Optional[str] = None) -> str:
    """Map an explicit tier name or ``None`` (process default) to a name."""
    if tier is None:
        return _DEFAULT_TIER
    return validate_tier_name(tier)


def active_numpy(tier: Optional[str] = None):
    """The numpy module when the (resolved) tier is ``numpy``, else ``None``.

    This is the one-line guard the dispatch points use::

        np = active_numpy()
        if np is not None:
            ...vectorized kernel...

    It returns ``None`` both when the stdlib tier is selected and when
    numpy is unimportable (the latter can only happen if the default was
    set by mutating :data:`_DEFAULT_TIER` directly -- the setter above
    verifies importability -- but kernels should degrade, not crash, if
    an exotic environment unloads numpy mid-process).
    """
    if resolve_tier(tier) != TIER_NUMPY:
        return None
    return numpy_or_none()
