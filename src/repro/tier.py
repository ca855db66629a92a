"""Compute tiers: ``stdlib`` (reference) vs ``numpy``.

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

The tier is one of the two fields of
:class:`repro.config.ExecutionConfig` (the other is the fault model) and
the only implementation choice left there: the CLI ``--tier`` flag
selects it, networks carry it (``network.config.tier``) and the dispatch
points receive it explicitly, falling back to
:data:`repro.config.DEFAULT_CONFIG` where a caller passes none.  Dispatch
points treat the tier as a *performance* choice only: every tier returns
byte-identical values, dict orders and exceptions, so switching it can
never change a result -- the differential suite in
``tests/test_vector_tier.py`` holds the tiers to that contract.
"""

from __future__ import annotations

import sys
from typing import Optional, Tuple

from repro._numpy import numpy_or_none

#: The reference tier (always available; the seed behaviour).
TIER_STDLIB = "stdlib"

#: The vectorized tier (requires the ``repro[numpy]`` extra).
TIER_NUMPY = "numpy"

#: Stable name tuple for argparse ``choices``.
TIER_NAMES: Tuple[str, ...] = (TIER_NUMPY, TIER_STDLIB)


def validate_tier_name(name: str) -> str:
    """Return ``name`` if it is a known tier, else raise ``ValueError``."""
    if name not in TIER_NAMES:
        known = ", ".join(TIER_NAMES)
        raise ValueError(f"unknown compute tier {name!r} (available: {known})")
    return name


def active_numpy(tier: Optional[str] = None):
    """The numpy module when ``tier`` is ``numpy``, else ``None``.

    ``None`` stands for the tier of :data:`repro.config.DEFAULT_CONFIG`.
    This is the one-line guard the dispatch points use::

        np = active_numpy(tier)
        if np is not None:
            ...vectorized kernel...

    It returns ``None`` both when the stdlib tier is selected and when
    numpy is unimportable (configurations verify importability when they
    select the tier, but kernels should degrade, not crash, if an exotic
    environment unloads numpy mid-process).
    """
    if tier is None:
        # Only the configuration module holds a default that may differ
        # from the reference (stdlib) tier; until something has imported
        # it, the graph oracles need not pay for loading it.
        config = sys.modules.get("repro.config")
        if config is None:
            return None
        tier = config.resolve_config().tier
    if validate_tier_name(tier) != TIER_NUMPY:
        return None
    return numpy_or_none()
