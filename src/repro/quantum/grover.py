"""Grover search over an explicit item collection.

A thin convenience layer over
:func:`repro.quantum.amplitude_amplification.amplitude_amplification_search`
for the common case of a uniform superposition over a finite collection
and a boolean oracle.  It exists mostly for the unit tests and the
quickstart example; the distributed algorithms use the maximum-finding
routine of :mod:`repro.quantum.maximum_finding` directly.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, Optional, Sequence

from repro.quantum.amplitude_amplification import (
    AmplificationOutcome,
    amplitude_amplification_search,
)
from repro.quantum.maximum_finding import uniform_amplitudes

Item = Hashable

#: The historical result type of :func:`grover_search`.  A Grover search
#: *is* one amplitude-amplification search, so the result type is the
#: same record (``found`` / ``setup_calls`` / ``oracle_calls`` /
#: ``measurements`` / ``succeeded``); the alias keeps the public name.
GroverSearchResult = AmplificationOutcome


def grover_search(
    items: Sequence[Item],
    oracle: Callable[[Item], bool],
    rng: Optional[random.Random] = None,
    delta: float = 0.05,
) -> GroverSearchResult:
    """Search ``items`` for an element satisfying ``oracle``.

    Uses a uniform initial superposition, so the promise parameter of
    Theorem 6 is ``eps = 1 / len(items)`` (a single marked item).  With
    ``m`` marked items the expected number of oracle calls is
    ``O(sqrt(len(items) / m))``.
    """
    if not items:
        raise ValueError("the item collection must be non-empty")
    rng = rng if rng is not None else random.Random(0)
    return amplitude_amplification_search(
        uniform_amplitudes(items),
        is_marked=oracle,
        rng=rng,
        eps=1.0 / len(items),
        delta=delta,
    )
