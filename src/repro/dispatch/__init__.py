"""Remote dispatch for sweep grids: shard the cells over worker hosts.

:func:`repro.analysis.sweep.run_sweep_grid` runs its cells on whatever
runner object the caller hands in, behind the one mapping surface
(:class:`repro.runner.batch.BatchRunner`'s ``jobs``/``map``/``imap``).
A ``BatchRunner`` keeps them local; :class:`RemoteDispatch` ships them
to a stdlib-socket coordinator/worker pair (:class:`DispatchCoordinator`,
:mod:`repro.dispatch.worker`) speaking length-prefixed JSON frames
(:mod:`repro.dispatch.protocol`): workers register (advertising cpu
count, numpy availability and a micro-benchmark score), lease contiguous
shards of a grid's task indices, append completed cells to their own
JSONL store shard under the advisory writer lock, and stream results
back; dead workers (missed heartbeats, dropped connections) have their
unfinished shards requeued, mirroring the job ledger's stale-lease
recovery.

Leases are cut when a worker asks for one (see
:mod:`repro.dispatch.cost`), factoring-style from a per-cell cost model
-- guarantee-based power-law priors calibrated online from the wall
times completed cells' frames carry -- and weighted by each worker's capability
score, so shards shrink toward the tail and faster machines get bigger
slices.  When the pending cells run out, idle workers *steal* the
costliest in-flight remainder (``trim`` frames tell the victim what to
skip), and shards that outlive the straggler deadline are speculatively
re-leased, first copy to finish wins.

Because every cell's record is a pure function of its task key (spec,
algorithm, derived seed, fault model), remote execution preserves the
byte-identical-to-serial guarantee *even when stealing, speculation or
requeues execute a cell more than once*: duplicates are dropped
first-complete-wins, the client reorders streamed results into task
order, and the offline shard merge
(:func:`repro.store.merge.merge_shards`, ``repro merge``) reproduces the
exact serial record list from the workers' shard files alone.

CLI surface: ``repro sweep --dispatch-workers N`` (embed a coordinator;
with ``--straggler-deadline S --dispatch-stats FILE``) or
``--coordinator HOST:PORT`` (join one), ``repro worker join HOST:PORT
[--supervise]``, ``repro merge [--stats]``; every ``repro serve``
daemon runs its jobs on its own coordinator, which ``repro worker
join`` workers may join.
"""

from repro._lazy import lazy_exports

# Every name loads its module on first use: the coordinator (sockets,
# threads) is not imported by a client that only joins a remote one, and
# the sockets of the protocol are not imported by a run that only plans
# chunks with the cost model.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "RemoteDispatch": "repro.dispatch.backend",
    "CostModel": "repro.dispatch.cost",
    "plan_chunks": "repro.dispatch.cost",
    "static_cell_cost": "repro.dispatch.cost",
    "MAX_FRAME_BYTES": "repro.dispatch.protocol",
    "DispatchError": "repro.dispatch.protocol",
    "FramedSocket": "repro.dispatch.protocol",
    "FrameError": "repro.dispatch.protocol",
    "parse_address": "repro.dispatch.protocol",
    "DispatchCoordinator": "repro.dispatch.coordinator",
})

# NOTE: repro.dispatch.worker is deliberately NOT imported here -- it is
# a ``python -m repro.dispatch.worker`` entry point, and importing it
# from the package __init__ would shadow the runpy execution (the
# "found in sys.modules" RuntimeWarning).  Import run_worker & friends
# from repro.dispatch.worker directly.
