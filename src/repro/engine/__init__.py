"""The components of the CONGEST round loop.

The round loop itself is :meth:`repro.congest.network.Network.run`; a
network holds one of each component below:

* **Scheduler** (:mod:`repro.engine.scheduler`) -- which nodes run in each
  round.  Every network runs the event-driven ``SparseScheduler``, which
  skips idle nodes entirely and so turns Theta(n * rounds) scheduling work
  into Theta(activations) for the BFS-wave algorithms at the heart of the
  paper.  ``DenseScheduler`` runs every node every round -- the
  synchronous CONGEST definition -- and survives only as the reference of
  the differential tests and benchmarks.
* **Transport** (:mod:`repro.engine.transport`) -- message validation,
  memoised size measurement, the bandwidth policy, the run's message
  accounting and, under a fault model, each message's fate.

Core accounting happens inline in the loop.  **Observers**
(:mod:`repro.engine.observers`) are opt-in: traffic logs and run logs
attach to a network and see run boundaries, and per-message events only
if they override ``on_message``.

Tests select the reference with
``Network(graph, scheduler=DenseScheduler())``.

Every name loads its module on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "MetricsObserver": "repro.engine.observers",
    "RunLogObserver": "repro.engine.observers",
    "StitchedTrafficObserver": "repro.engine.observers",
    "TrafficLogObserver": "repro.engine.observers",
    "DenseScheduler": "repro.engine.scheduler",
    "Scheduler": "repro.engine.scheduler",
    "SparseScheduler": "repro.engine.scheduler",
    "Transport": "repro.engine.transport",
})
