"""Pluggable execution engines for the CONGEST simulator.

The simulation core is one round loop,
:class:`repro.engine.engine.ExecutionEngine`, built from two components:

* **Scheduler** (:mod:`repro.engine.scheduler`) -- which nodes run in each
  round.  ``DenseScheduler`` reproduces the seed behaviour bit-for-bit;
  ``SparseScheduler`` is event-driven and skips idle nodes entirely, which
  turns Theta(n * rounds) scheduling work into Theta(activations) for the
  BFS-wave algorithms at the heart of the paper.
* **Transport** (:mod:`repro.engine.transport`) -- message validation,
  memoised size measurement, the bandwidth policy, the run's message
  accounting and, under a fault model, each message's fate.

Core accounting happens inline in the loop.  **Observers**
(:mod:`repro.engine.observers`) are opt-in: traffic logs and run logs
attach to a network and see run boundaries, and per-message events only
if they override ``on_message``.

``repro.congest.network.Network`` remains the public facade: it builds an
engine at construction (``Network(graph, engine="sparse")``) and delegates
``run`` to it.  The engine is one field of the network's
:class:`repro.config.ExecutionConfig` (the CLI and benchmark ``--engine``
flags select it).
"""

from repro.engine.engine import ExecutionEngine, build_engine
from repro.engine.observers import (
    MetricsObserver,
    RunLogObserver,
    StitchedTrafficObserver,
    TrafficLogObserver,
)
from repro.engine.scheduler import (
    SCHEDULERS,
    DenseScheduler,
    Scheduler,
    SparseScheduler,
    make_scheduler,
)
from repro.engine.transport import Transport

ENGINE_NAMES = tuple(sorted(SCHEDULERS))

__all__ = [
    "ExecutionEngine",
    "build_engine",
    "ENGINE_NAMES",
    "Scheduler",
    "DenseScheduler",
    "SparseScheduler",
    "SCHEDULERS",
    "make_scheduler",
    "Transport",
    "MetricsObserver",
    "TrafficLogObserver",
    "StitchedTrafficObserver",
    "RunLogObserver",
]
