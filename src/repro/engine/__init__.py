"""The execution engine of the CONGEST simulator.

The simulation core is one round loop,
:class:`repro.engine.engine.ExecutionEngine`, built from two components:

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

``repro.congest.network.Network`` remains the public facade: it builds an
engine at construction and delegates ``run`` to it.  Tests select the
reference with ``Network(graph, scheduler=DenseScheduler())``.

Every name loads its module on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "ExecutionEngine": "repro.engine.engine",
    "MetricsObserver": "repro.engine.observers",
    "RunLogObserver": "repro.engine.observers",
    "StitchedTrafficObserver": "repro.engine.observers",
    "TrafficLogObserver": "repro.engine.observers",
    "DenseScheduler": "repro.engine.scheduler",
    "Scheduler": "repro.engine.scheduler",
    "SparseScheduler": "repro.engine.scheduler",
    "Transport": "repro.engine.transport",
})

__all__ = [
    "ExecutionEngine",
    "Scheduler",
    "DenseScheduler",
    "SparseScheduler",
    "Transport",
    "MetricsObserver",
    "TrafficLogObserver",
    "StitchedTrafficObserver",
    "RunLogObserver",
]
