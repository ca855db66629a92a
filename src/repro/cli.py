"""Command-line interface: run the paper's algorithms from a shell.

Examples
--------
Compute the diameter of a generated graph with every algorithm::

    python -m repro diameter --family clique_chain --nodes 24 --seed 1

Run only the quantum 3/2-approximation::

    python -m repro approx --family random_sparse --nodes 60 --quantum

Print Table 1 evaluated at a given size::

    python -m repro table1 --nodes 100000 --diameter 50

Sweep a grid of graph families and sizes over the standard algorithms,
fanned out over 4 worker processes (records are byte-identical to a
serial run)::

    python -m repro sweep --families cycle,clique_chain --sizes 24,48,96 \
        --algorithms classical_exact,two_approx --jobs 4

Persist the records (plus run provenance) to an append-only JSONL store,
resume it after an interruption, and export the result::

    python -m repro sweep --families cycle --sizes 48,96 --out run.jsonl
    python -m repro sweep --families cycle --sizes 48,96 --out run.jsonl --resume
    python -m repro export --store run.jsonl --format csv --out run.csv

Run every registered Theorem-7 quantum problem (exact diameter, the
3/2-approximation, exact radius, single-source eccentricity), persisting
records like a sweep (the stores of ``quantum`` and ``sweep`` are
interoperable -- same task keys, same seed streams)::

    python -m repro quantum --list
    python -m repro quantum --families clique_chain --sizes 24,48 \
        --out quantum.jsonl

Start-up: :func:`main` builds only the sub-parser of the command it
runs, from the plain name tuples of :mod:`repro.names`, and each command
handler imports the layers it runs and the stdlib modules only it needs
(``threading`` and ``signal`` for ``serve`` and ``worker join``,
``time`` and ``importlib.util`` for ``bench``).  Beyond
a bare interpreter, ``repro export`` loads from the standard library
only ``argparse`` (with ``gettext`` and ``locale``), ``csv`` and
``__future__``, and ``repro quantum --list`` the same without ``csv``:
no simulator, no ``dataclasses``, ``inspect``, ``platform`` or
``subprocess`` (``tests/test_import_budget.py``).  On a 2-core host with
CPython 3.11.7 an export of a small store takes ~84 ms against ~67 ms
for ``python -c pass``.  A sweep never loads numpy unless a graph oracle
runs in the vector band.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.names import (
    EXPORT_FORMATS,
    QUANTUM_PROBLEM_NAMES,
    SWEEP_ALGORITHM_NAMES,
    SWEEP_FAMILIES,
)

if TYPE_CHECKING:
    from repro.service.client import ServiceClient
    from repro.service.gridspec import GridRequest


def _build_graph(args: argparse.Namespace):
    from repro.graphs import generators

    if args.diameter is not None and args.family == "controlled":
        return generators.diameter_controlled_graph(
            args.nodes, args.diameter, seed=args.seed
        )
    return generators.family_for_sweep(args.family, args.nodes, seed=args.seed)


def _cmd_diameter(args: argparse.Namespace) -> int:
    from repro.algorithms import run_classical_exact_diameter
    from repro.analysis.tables import render_table
    from repro.congest import Network
    from repro.core import quantum_exact_diameter
    from repro.runner.algorithms import quantum_seeds

    graph = _build_graph(args)
    truth = graph.compile().diameter()
    rows = []

    classical = run_classical_exact_diameter(
        Network(graph, seed=args.seed)
    )
    rows.append(
        ["classical exact [PRT12/HW12]", classical.diameter, classical.rounds]
    )

    network_seed, schedule_seed = quantum_seeds(args.seed)
    quantum = quantum_exact_diameter(
        Network(graph, seed=network_seed),
        oracle_mode=args.oracle_mode, seed=schedule_seed,
    )
    rows.append(["quantum exact (Theorem 1)", quantum.diameter, quantum.rounds])

    print(f"graph: n={graph.num_nodes}, m={graph.num_edges}, true diameter={truth}")
    print(render_table(rows, header=["algorithm", "answer", "rounds"]))
    return 0 if classical.diameter == truth == quantum.diameter else 1


def _cmd_approx(args: argparse.Namespace) -> int:
    from repro.algorithms import (
        run_classical_two_approximation,
        run_hprw_three_halves_approximation,
    )
    from repro.analysis.tables import render_table
    from repro.congest import Network
    from repro.core import quantum_three_halves_diameter
    from repro.runner.algorithms import quantum_seeds

    graph = _build_graph(args)
    truth = graph.compile().diameter()
    rows = []

    two = run_classical_two_approximation(
        Network(graph, seed=args.seed)
    )
    rows.append(["2-approximation", two.estimate, two.rounds])
    classical = run_hprw_three_halves_approximation(
        Network(graph, seed=args.seed), seed=args.seed
    )
    rows.append(
        ["classical 3/2-approx [HPRW14]", classical.estimate, classical.rounds]
    )
    if args.quantum:
        network_seed, schedule_seed = quantum_seeds(args.seed)
        quantum = quantum_three_halves_diameter(
            Network(graph, seed=network_seed),
            oracle_mode=args.oracle_mode, seed=schedule_seed,
        )
        rows.append(
            ["quantum 3/2-approx (Theorem 4)", quantum.estimate, quantum.rounds]
        )

    print(f"graph: n={graph.num_nodes}, true diameter={truth}")
    print(render_table(rows, header=["algorithm", "estimate", "rounds"]))
    valid = all(row[1] <= truth for row in rows)
    return 0 if valid else 1


def _parse_csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _grid_request_from_args(args: argparse.Namespace, kind: str) -> GridRequest:
    """Build the :class:`GridRequest` described by parsed grid flags.

    The one construction point shared by ``sweep``, ``quantum`` and
    ``jobs submit`` -- identical flags always yield identical requests,
    which is what makes a daemon-run job's canonical export
    byte-identical to a local run.  Raises ``ValueError`` with
    CLI-grade messages (reported as usage errors, exit 2).
    """
    from repro.service.gridspec import GridRequest, fault_model_from_flags

    if kind == "quantum":
        from repro.core.problems import quantum_problem_names

        algorithms = (
            list(quantum_problem_names())
            if args.problems == "all"
            else _parse_csv(args.problems)
        )
    else:
        algorithms = _parse_csv(args.algorithms)
    return GridRequest(
        families=_parse_csv(args.families),
        sizes=[int(item) for item in _parse_csv(args.sizes)],
        algorithms=algorithms,
        kind=kind,
        diameter=args.diameter,
        seed=args.seed,
        jobs=args.jobs,
        fault=fault_model_from_flags(
            loss=args.loss,
            delay=args.delay,
            max_delay=args.max_delay,
            crash=args.crash,
            crash_window=args.crash_window,
            down_rounds=args.down_rounds,
            churn=args.churn,
            timeout=args.fault_timeout,
            seed=args.fault_seed,
        ),
    )


#: The flags that configure an embedded dispatch coordinator, by argparse
#: destination; each defaults to ``None`` so a given one is detectable.
_EMBEDDED_COORDINATOR_FLAGS = (
    "dispatch_port", "dispatch_wait", "straggler_deadline", "dispatch_stats",
)


def _runs_remotely(args: argparse.Namespace) -> bool:
    """Whether a grid command runs its cells through remote dispatch."""
    return args.coordinator is not None or args.dispatch_workers is not None


@contextlib.contextmanager
def _remote_runner(args: argparse.Namespace):
    """The :class:`repro.dispatch.RemoteDispatch` of a grid command, or
    ``None`` for a local run.

    A grid runs remotely exactly when ``--coordinator`` or
    ``--dispatch-workers`` is given.  ``--coordinator HOST:PORT`` joins an
    existing coordinator (e.g. a ``repro serve`` daemon's); otherwise an
    embedded coordinator is started for the duration of the run -- its
    address is printed so workers can ``repro worker join`` it -- and the
    run waits for ``--dispatch-workers`` registrations before
    dispatching.
    """
    if not _runs_remotely(args):
        yield None
        return
    from repro.dispatch import RemoteDispatch, parse_address
    from repro.dispatch.coordinator import DispatchCoordinator

    workers = 1 if args.dispatch_workers is None else args.dispatch_workers
    if args.coordinator is not None:
        host, port = parse_address(args.coordinator)
        yield RemoteDispatch(address=(host, port), workers=workers)
        return
    settings = {
        "port": args.dispatch_port,
        "straggler_deadline": args.straggler_deadline,
    }
    coordinator = DispatchCoordinator(
        **{key: value for key, value in settings.items() if value is not None}
    ).start()
    host, port = coordinator.address
    try:
        print(
            f"dispatch coordinator on {host}:{port}; waiting for "
            f"{workers} worker(s) "
            f"(repro worker join {host}:{port} --shard-dir DIR)",
            file=sys.stderr,
            flush=True,
        )
        coordinator.wait_for_workers(
            workers,
            timeout=60.0 if args.dispatch_wait is None else args.dispatch_wait,
        )
        yield RemoteDispatch(coordinator=coordinator, workers=workers)
        if args.dispatch_stats is not None:
            with open(args.dispatch_stats, "w", encoding="utf-8") as handle:
                json.dump(coordinator.stats(), handle, indent=2, sort_keys=True)
                handle.write("\n")
    finally:
        coordinator.stop()


def _run_grid_command(args: argparse.Namespace, kind: str) -> int:
    """The shared execution path of the ``sweep`` and ``quantum`` commands.

    Both commands run a ``(families x sizes) x algorithms`` grid with
    identical validation, seed streams, store semantics and exit codes --
    sharing the body is what keeps their task keys interoperable (a store
    written by one can be resumed by the other).  Execution itself goes
    through :func:`repro.service.execute_grid_request`, the same path the
    experiment service's job workers use.
    """
    if args.resume and args.out is None:
        print("--resume requires --out (the store file to continue)", file=sys.stderr)
        return 2
    from repro.service.gridspec import execute_grid_request
    from repro.store import ExperimentStore, ExperimentStoreError, sweep_table

    reported = (ExperimentStoreError, ValueError)
    if _runs_remotely(args):
        # Only remote dispatch raises it; a local run never imports the
        # protocol (and with it ``socket``).
        from repro.dispatch.protocol import DispatchError

        reported += (DispatchError,)

    # Without an embedded coordinator these flags would configure nothing.
    embedded = args.dispatch_workers is not None and args.coordinator is None
    for dest in () if embedded else _EMBEDDED_COORDINATOR_FLAGS:
        if getattr(args, dest) is not None:
            print(
                f"--{dest.replace('_', '-')} configures an embedded dispatch "
                "coordinator: it needs --dispatch-workers N and no --coordinator",
                file=sys.stderr,
            )
            return 2
    try:
        request = _grid_request_from_args(args, kind)
        request.validate()
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    store = ExperimentStore(args.out) if args.out is not None else None
    try:
        with _remote_runner(args) as runner:
            records = execute_grid_request(
                request, store=store, resume=args.resume, runner=runner
            )
    except reported as error:
        print(str(error), file=sys.stderr)
        return 2
    print(sweep_table(records))
    if store is not None:
        print(f"\n{len(records)} record(s) persisted to {args.out}", file=sys.stderr)
    unconverged = [r for r in records if not r.success]
    if unconverged:
        print(
            f"\n{len(unconverged)} run(s) did not converge under the fault "
            "model (success=False)",
            file=sys.stderr,
        )
    failed = [r for r in records if r.correct is False]
    if failed:
        print(f"\n{len(failed)} correctness check(s) FAILED", file=sys.stderr)
        # Under an active fault model a wrong value is an expected,
        # *reported* outcome (success/correct land in the records), not a
        # bug in the algorithms -- only fault-free sweeps gate on it.
        if request.fault is None:
            return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _run_grid_command(args, "sweep")


def _cmd_quantum(args: argparse.Namespace) -> int:
    if args.list:
        from repro.analysis.tables import render_table
        from repro.core.problems import QUANTUM_PROBLEMS

        rows = [
            [name, info.theorem, info.guarantee, info.description]
            for name, info in sorted(QUANTUM_PROBLEMS.items())
        ]
        print(render_table(rows, header=["problem", "paper", "guarantee", "description"]))
        return 0
    return _run_grid_command(args, "quantum")


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.store import ExperimentStore, export_records, render_records, sweep_table

    store = ExperimentStore(args.store)
    if not store.exists():
        print(f"store {args.store!r} does not exist", file=sys.stderr)
        return 2
    records = store.load_records()
    if not records:
        print(f"store {args.store!r} holds no records", file=sys.stderr)
        return 2
    if args.out is None:
        if args.format == "table":
            print(sweep_table(records))
        else:
            sys.stdout.write(render_records(records, args.format))
        return 0
    if args.format == "table":
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(sweep_table(records) + "\n")
    else:
        export_records(records, args.out, args.format)
    print(
        f"{len(records)} record(s) exported to {args.out} ({args.format})",
        file=sys.stderr,
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    """Merge distributed store shards into one canonical store."""
    from repro.analysis.tables import render_table
    from repro.store import ExperimentStoreError, merge_shards, shard_stats, sweep_table

    try:
        records = merge_shards(
            args.shards,
            out_path=args.out,
            require_complete=not args.allow_partial,
        )
    except ExperimentStoreError as error:
        print(str(error), file=sys.stderr)
        return 2
    destination = f" into {args.out}" if args.out is not None else ""
    print(
        f"{len(records)} record(s) merged from {len(args.shards)} "
        f"shard(s){destination}",
        file=sys.stderr,
    )
    if args.stats:
        stats = shard_stats(args.shards)
        rows = [
            [
                worker,
                entry["cells"],
                entry["fresh"],
                entry["replayed"],
                entry["leases"],
                f"{entry['wall_seconds']:.3f}",
                f"{entry['cells_per_second']:.2f}",
            ]
            for worker, entry in stats["workers"].items()
        ]
        print(render_table(rows, header=[
            "worker", "cells", "fresh", "replayed",
            "leases", "wall s", "cells/s",
        ]))
        print(
            f"{stats['unique_cells']} unique cell(s), "
            f"{stats['duplicate_cells']} duplicate(s) dropped "
            "(stolen/speculative/requeued re-executions)",
            file=sys.stderr,
        )
    if args.out is None and not args.stats:
        print(sweep_table(records))
    return 0


def _cmd_worker_join(args: argparse.Namespace) -> int:
    """Join a dispatch coordinator and execute sweep shards until it stops."""
    import signal
    import threading

    from repro.dispatch.protocol import DispatchError, parse_address
    from repro.dispatch.worker import run_worker

    try:
        host, port = parse_address(args.address)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(
        f"worker joining dispatch coordinator {host}:{port} "
        f"(shards under {args.shard_dir})",
        file=sys.stderr,
        flush=True,
    )
    stop_event = threading.Event()
    if args.supervise:
        # A supervised worker only stops on operator signal; translate
        # SIGINT/SIGTERM into the worker's cooperative stop event so the
        # current shard finishes its in-flight cell appends cleanly.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, lambda *_: stop_event.set())
            except ValueError:
                pass  # non-main thread (in-process tests drive run_worker)
    try:
        stats = run_worker(
            host,
            port,
            shard_dir=args.shard_dir,
            worker_id=args.name,
            once=args.once,
            connect_wait=args.connect_wait,
            heartbeat_interval=args.heartbeat,
            supervise=args.supervise,
            stop_event=stop_event,
        )
    except (ValueError, DispatchError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(
        f"worker done: {stats['cells']} cell(s) over "
        f"{stats['shards']} shard(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the experiment service daemon until SIGTERM/SIGINT.

    Shutdown is graceful: running jobs checkpoint (their grids stop and
    the jobs requeue durably), so a restarted daemon resumes exactly
    where this one stopped.
    """
    import signal
    import threading

    from repro.service.api import serve_api
    from repro.service.queue import ExperimentService
    from repro.service.quota import QuotaPolicy

    try:
        service = ExperimentService(
            args.data_dir,
            ledger_path=args.ledger,
            workers=args.workers,
            quota=QuotaPolicy(tenant_jobs=args.tenant_quota),
            dispatch_port=args.dispatch_port,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    service.start()
    server = serve_api(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", flush=True)
    dhost, dport = service.coordinator.address
    print(
        f"data dir {service.data_dir} | ledger {service.ledger.path} | "
        f"{service.workers} worker(s) | quota {service.quota.tenant_jobs} "
        f"active job(s)/tenant | dispatch coordinator on {dhost}:{dport} "
        f"(repro worker join {dhost}:{dport} --shard-dir DIR)",
        file=sys.stderr,
        flush=True,
    )
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    previous_term = signal.signal(signal.SIGTERM, _on_signal)
    previous_int = signal.signal(signal.SIGINT, _on_signal)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        while not stop.is_set():
            stop.wait(timeout=0.2)
    finally:
        server.shutdown()
        server.server_close()
        service.stop()
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
    print("service stopped (running jobs checkpointed)", file=sys.stderr)
    return 0


#: ``jobs watch`` exit codes mirror the job outcome so scripts (and the
#: CI smoke job) can branch on how a job ended.
_WATCH_EXIT_CODES = {"done": 0, "failed": 1, "cancelled": 3}


def _client(url: str) -> ServiceClient:
    """A client of the experiment service at ``url``."""
    from repro.service.client import ServiceClient

    return ServiceClient(url)


def _watch_job(client: ServiceClient, job_id: str, poll: float = 0.5) -> int:
    """Poll a job to a terminal state, echoing progress changes to stderr."""
    last: dict = {}

    def on_progress(status):
        snapshot = (status["state"], status["progress"]["done"])
        if snapshot != last.get("snapshot"):
            last["snapshot"] = snapshot
            progress = status["progress"]
            print(
                f"{job_id}: {status['state']} "
                f"{progress['done']}/{progress['total']}",
                file=sys.stderr,
            )

    status = client.watch(job_id, poll=poll, on_progress=on_progress)
    detail = status.get("detail")
    print(
        f"{job_id}: {status['state']}" + (f" ({detail})" if detail else ""),
        file=sys.stderr,
    )
    return _WATCH_EXIT_CODES.get(status["state"], 1)


def _jobs_client_errors(handler):
    """Decorate a ``jobs`` handler with uniform API-error reporting.

    Usage errors the service rejected (bad request, unknown job,
    unreachable daemon) exit 2 like local usage errors; everything else
    (quota, server-side failures) exits 1.
    """

    def wrapped(args: argparse.Namespace) -> int:
        from repro.service.client import ServiceClientError

        try:
            return handler(args)
        except ServiceClientError as error:
            print(str(error), file=sys.stderr)
            return 2 if error.status in (0, 400, 404) else 1

    return wrapped


@_jobs_client_errors
def _cmd_jobs_submit(args: argparse.Namespace) -> int:
    try:
        request = _grid_request_from_args(args, "sweep")
        request.validate()
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    client = _client(args.url)
    status = client.submit(args.tenant, request)
    job_id = status["job_id"]
    # The bare id on stdout keeps submission scriptable:
    #   JOB=$(repro jobs submit ...); repro jobs watch "$JOB"
    print(job_id)
    print(
        f"submitted {job_id} (tenant {args.tenant}, "
        f"{status['progress']['total']} cell(s))",
        file=sys.stderr,
    )
    if args.watch:
        return _watch_job(client, job_id)
    return 0


@_jobs_client_errors
def _cmd_jobs_status(args: argparse.Namespace) -> int:
    status = _client(args.url).status(args.job_id)
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


@_jobs_client_errors
def _cmd_jobs_list(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table

    jobs = _client(args.url).list_jobs(tenant=args.tenant)
    rows = [
        [
            job["job_id"],
            job["tenant"],
            job["state"],
            f"{job['progress']['done']}/{job['progress']['total']}",
            job.get("detail") or "",
        ]
        for job in jobs
    ]
    print(render_table(rows, header=["job", "tenant", "state", "progress", "detail"]))
    return 0


@_jobs_client_errors
def _cmd_jobs_cancel(args: argparse.Namespace) -> int:
    status = _client(args.url).cancel(args.job_id)
    print(f"{args.job_id}: cancel requested (state {status['state']})",
          file=sys.stderr)
    return 0


@_jobs_client_errors
def _cmd_jobs_results(args: argparse.Namespace) -> int:
    text = _client(args.url).results(args.job_id, format=args.format)
    if args.out is None:
        sys.stdout.write(text)
        return 0
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"results of {args.job_id} written to {args.out} ({args.format})",
          file=sys.stderr)
    return 0


@_jobs_client_errors
def _cmd_jobs_watch(args: argparse.Namespace) -> int:
    return _watch_job(_client(args.url), args.job_id, poll=args.poll)


@_jobs_client_errors
def _cmd_jobs_capacity(args: argparse.Namespace) -> int:
    print(json.dumps(_client(args.url).capacity(), indent=2, sort_keys=True))
    return 0


#: The benchmark harnesses ``repro bench`` runs, in order:
#: ``(name, harness file, baseline key)``.  Every harness exposes
#: ``run_benchmark(smoke=...) -> dict`` with a ``headline_speedup`` entry.
BENCH_HARNESSES = (
    ("dispatch", "bench_dispatch.py"),
    ("engine", "bench_engine_overhead.py"),
    ("faults", "bench_faults.py"),
    ("graphcore", "bench_graphcore.py"),
    ("quantum", "bench_quantum.py"),
    ("runner", "bench_runner_scaling.py"),
    ("vector", "bench_vector.py"),
)

#: A harness has regressed when its headline speedup drops more than this
#: fraction below the committed baseline.
BENCH_REGRESSION_TOLERANCE = 0.25


def _load_harness(path: str):
    """Import a benchmark harness from its file path.

    ``benchmarks/`` is intentionally not a package (the harnesses run
    standalone and under pytest), so the modules are loaded by location.
    """
    import importlib.util

    name = "repro_bench_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load benchmark harness {path!r}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.tables import render_table
    from repro.store import append_jsonl_line, git_describe

    bench_dir = args.dir
    if not os.path.isdir(bench_dir):
        print(
            f"benchmark directory {bench_dir!r} not found "
            "(run from the repository root or pass --dir)",
            file=sys.stderr,
        )
        return 2
    mode = "smoke" if args.smoke else "full"
    baselines = {}
    if os.path.exists(args.baselines):
        with open(args.baselines, "r", encoding="utf-8") as handle:
            baselines = json.load(handle)
    known = baselines.get(mode, {})

    rows = []
    measured = {}
    regressions = []
    for name, filename in BENCH_HARNESSES:
        path = os.path.join(bench_dir, filename)
        if not os.path.exists(path):
            print(f"skipping {name}: {path} not found", file=sys.stderr)
            continue
        harness = _load_harness(path)
        started = time.perf_counter()
        report = harness.run_benchmark(smoke=args.smoke)
        wall = time.perf_counter() - started
        speedup = report["headline_speedup"]
        measured[name] = speedup
        if args.history is not None:
            # An append-only measurement history (one JSONL row per
            # harness per run) -- enough to plot speedup drift over
            # commits without re-running old trees.
            append_jsonl_line(
                args.history,
                {
                    "kind": "bench",
                    "commit": git_describe(),
                    "harness": name,
                    "mode": mode,
                    "speedup": speedup,
                    "wall_seconds": round(wall, 6),
                    "at": time.time(),
                },
            )
        baseline = known.get(name)
        if baseline is None:
            status = "no baseline"
        else:
            floor = baseline * (1.0 - BENCH_REGRESSION_TOLERANCE)
            if speedup < floor:
                status = f"REGRESSED (floor {floor:.2f}x)"
                regressions.append(name)
            else:
                status = "ok"
        rows.append(
            [
                name,
                f"{speedup}x",
                f"{baseline}x" if baseline is not None else "-",
                status,
            ]
        )

    print(render_table(rows, header=["harness", "headline", "baseline", "status"]))
    if args.history is not None and measured:
        print(f"{len(measured)} history row(s) appended to {args.history}",
              file=sys.stderr)
    if args.update:
        baselines[mode] = measured
        with open(args.baselines, "w", encoding="utf-8") as handle:
            json.dump(baselines, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"baselines ({mode}) written to {args.baselines}", file=sys.stderr)
        return 0
    if regressions:
        print(
            f"{len(regressions)} harness(es) regressed more than "
            f"{int(BENCH_REGRESSION_TOLERANCE * 100)}%: "
            + ", ".join(regressions),
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table1

    diameter = args.diameter if args.diameter is not None else max(1, args.nodes // 100)
    print(render_table1(n=args.nodes, diameter=diameter, memory_qubits=args.memory))
    return 0


def add_grid_options(sub: argparse.ArgumentParser, sizes_default: str) -> None:
    """The grid flags shared by ``sweep``, ``quantum`` and ``jobs submit``.

    One builder -- not three hand-maintained copies -- so the flag
    inventories of the three grid commands cannot drift apart (they feed
    the same :func:`_grid_request_from_args`, and a flag present on one
    but missing on another would silently change daemon-run semantics).
    A regression test asserts the inventories stay identical.
    """
    sub.add_argument(
        "--families", default="clique_chain",
        help="comma-separated graph families (default: clique_chain)",
    )
    sub.add_argument(
        "--sizes", default=sizes_default,
        help=f"comma-separated node counts (default: {sizes_default})",
    )
    sub.add_argument(
        "--diameter", type=int, default=None,
        help="target diameter (only for --families controlled)",
    )
    sub.add_argument("--seed", type=int, default=0, help="base random seed")
    sub.add_argument(
        "--jobs", type=int, default=1,
        help=(
            "worker processes for the batch runner, or a daemon job's "
            "local dispatch workers (1 = serial, 0 = one per CPU); "
            "parallel output is byte-identical to serial"
        ),
    )


def add_dispatch_options(sub: argparse.ArgumentParser) -> None:
    """Remote-dispatch *operational* flags of the local grid commands.

    ``--coordinator`` or ``--dispatch-workers`` makes the grid remote; the
    other flags configure the embedded coordinator
    (:data:`_EMBEDDED_COORDINATOR_FLAGS`).  Kept out of
    :func:`add_grid_options` because they configure *this process's*
    coordinator rather than the grid itself (``jobs submit`` requests
    inherit the daemon's coordinator instead).
    """
    sub.add_argument(
        "--coordinator", default=None, metavar="HOST:PORT",
        help=(
            "join an existing dispatch coordinator instead of embedding "
            "one (e.g. a 'repro serve' daemon's)"
        ),
    )
    sub.add_argument(
        "--dispatch-port", type=int, default=None, metavar="PORT",
        help=(
            "port of the embedded dispatch coordinator "
            "(default: 0, pick a free port; the address is printed)"
        ),
    )
    sub.add_argument(
        "--dispatch-workers", type=int, default=None, metavar="N",
        help=(
            "run the grid remotely on an embedded dispatch coordinator "
            "(or the --coordinator one), waiting for this many "
            "registered workers before dispatching (default with "
            "--coordinator: 1)"
        ),
    )
    sub.add_argument(
        "--dispatch-wait", type=float, default=None, metavar="SECONDS",
        help="how long to wait for workers to register (default: 60)",
    )
    sub.add_argument(
        "--straggler-deadline", type=float, default=None, metavar="SECONDS",
        help=(
            "how long an in-flight shard may run before idle workers "
            "speculatively re-execute its remainder (default: 10)"
        ),
    )
    sub.add_argument(
        "--dispatch-stats", default=None, metavar="PATH",
        help=(
            "write the embedded coordinator's scheduling statistics "
            "(steals, speculative leases, per-worker capabilities/cells) "
            "as JSON to PATH when the run finishes"
        ),
    )


def add_store_options(sub: argparse.ArgumentParser) -> None:
    """The ``--out``/``--resume`` store flags of the local grid commands."""
    sub.add_argument(
        "--out", default=None, metavar="PATH",
        help=(
            "persist records (plus run provenance) to this append-only "
            "JSONL experiment store; records are flushed as they complete"
        ),
    )
    sub.add_argument(
        "--resume", action="store_true",
        help=(
            "continue an interrupted run: cells already present in the "
            "--out store are loaded instead of recomputed (the merged "
            "record set is identical to an uninterrupted run)"
        ),
    )


def add_fault_options(sub: argparse.ArgumentParser) -> None:
    """Deterministic fault-injection flags (see :mod:`repro.faults`).

    All probabilities default to 0; with every flag at its default the
    null model applies and execution is byte-identical to a fault-free
    run.
    """
    sub.add_argument(
        "--loss", type=float, default=0.0, metavar="P",
        help="per-message loss probability (default: 0)",
    )
    sub.add_argument(
        "--delay", type=float, default=0.0, metavar="P",
        help="per-message extra-latency probability (default: 0)",
    )
    sub.add_argument(
        "--max-delay", type=int, default=1, metavar="R",
        help="max extra rounds a delayed message waits (default: 1)",
    )
    sub.add_argument(
        "--crash", type=float, default=0.0, metavar="P",
        help="per-node crash probability (fail-pause; default: 0)",
    )
    sub.add_argument(
        "--crash-window", type=int, default=32, metavar="R",
        help="crashes happen within the first R rounds (default: 32)",
    )
    sub.add_argument(
        "--down-rounds", type=int, default=0, metavar="R",
        help=(
            "rounds a crashed node stays down before restarting "
            "with its state intact (0 = never restarts; default: 0)"
        ),
    )
    sub.add_argument(
        "--churn", type=float, default=0.0, metavar="P",
        help="per-edge per-round outage probability (default: 0)",
    )
    sub.add_argument(
        "--fault-timeout", type=int, default=None, metavar="ROUNDS",
        help=(
            "abort any single run after this many rounds (recorded "
            "as a failed cell instead of hanging until the generic "
            "round cap)"
        ),
    )
    sub.add_argument(
        "--fault-seed", type=int, default=0,
        help=(
            "seed of the fault randomness stream, independent of the "
            "graph and algorithm seeds (default: 0)"
        ),
    )


def _add_graph_options(sub: argparse.ArgumentParser) -> None:
    """The graph flags of ``diameter`` and ``approx``."""
    sub.add_argument(
        "--family",
        default="clique_chain",
        choices=sorted(set(SWEEP_FAMILIES) | {"controlled"}),
        help="graph family to generate (default: clique_chain)",
    )
    sub.add_argument("--nodes", type=int, default=24, help="number of nodes")
    sub.add_argument(
        "--diameter", type=int, default=None,
        help="target diameter (only for --family controlled)",
    )
    sub.add_argument("--seed", type=int, default=0, help="random seed")
    sub.add_argument(
        "--oracle-mode", default="reference", choices=("reference", "congest"),
        help="how quantum branch values are evaluated (default: reference)",
    )


def _add_url_option(sub: argparse.ArgumentParser) -> None:
    """The ``--url`` flag of every ``jobs`` sub-command."""
    sub.add_argument(
        "--url", default="http://127.0.0.1:8155",
        help="service base URL (default: http://127.0.0.1:8155)",
    )


def _add_diameter_parser(subparsers: argparse._SubParsersAction) -> None:
    diameter_parser = subparsers.add_parser(
        "diameter", help="exact diameter: classical baseline vs Theorem 1"
    )
    _add_graph_options(diameter_parser)
    diameter_parser.set_defaults(handler=_cmd_diameter)


def _add_approx_parser(subparsers: argparse._SubParsersAction) -> None:
    approx_parser = subparsers.add_parser(
        "approx", help="diameter approximations (2-approx, 3/2-approx, Theorem 4)"
    )
    _add_graph_options(approx_parser)
    approx_parser.add_argument(
        "--quantum", action="store_true", help="also run the quantum 3/2-approximation"
    )
    approx_parser.set_defaults(handler=_cmd_approx)


def _add_sweep_parser(subparsers: argparse._SubParsersAction) -> None:
    sweep_parser = subparsers.add_parser(
        "sweep",
        help="batch-run algorithms over a (family x size) grid, "
        "optionally over a process pool (--jobs)",
    )
    add_grid_options(sweep_parser, sizes_default="24,48")
    sweep_parser.add_argument(
        "--algorithms", default="classical_exact,two_approx",
        help=(
            "comma-separated algorithm names; available: "
            + ", ".join(SWEEP_ALGORITHM_NAMES)
        ),
    )
    add_store_options(sweep_parser)
    add_fault_options(sweep_parser)
    add_dispatch_options(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep)


def _add_quantum_parser(subparsers: argparse._SubParsersAction) -> None:
    quantum_parser = subparsers.add_parser(
        "quantum",
        help="run registered Theorem-7 quantum problems over a "
        "(family x size) grid with full sweep/store semantics",
        description=(
            "Run registered distributed quantum optimization problems "
            "(see --list) over a graph grid.  Records, provenance, "
            "checkpoint/resume and export behave exactly like 'sweep' -- "
            "the two commands share task keys and seed streams, so their "
            "stores are interoperable."
        ),
    )
    add_grid_options(quantum_parser, sizes_default="24")
    quantum_parser.add_argument(
        "--problems", default="all",
        help=(
            "comma-separated problem names, or 'all'; available: "
            + ", ".join(QUANTUM_PROBLEM_NAMES)
        ),
    )
    quantum_parser.add_argument(
        "--list", action="store_true",
        help="list the registered quantum problems and exit",
    )
    add_store_options(quantum_parser)
    add_fault_options(quantum_parser)
    add_dispatch_options(quantum_parser)
    quantum_parser.set_defaults(handler=_cmd_quantum)


def _add_export_parser(subparsers: argparse._SubParsersAction) -> None:
    export_parser = subparsers.add_parser(
        "export",
        help="export a persisted experiment store (see sweep --out) "
        "to csv/json/jsonl or an aligned table",
    )
    export_parser.add_argument(
        "--store", required=True, metavar="PATH",
        help="the JSONL experiment store written by sweep --out",
    )
    export_parser.add_argument(
        "--format", default="table", choices=("table",) + EXPORT_FORMATS,
        help="output format (default: table)",
    )
    export_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="destination file (default: stdout)",
    )
    export_parser.set_defaults(handler=_cmd_export)


def _add_merge_parser(subparsers: argparse._SubParsersAction) -> None:
    merge_parser = subparsers.add_parser(
        "merge",
        help="merge distributed store shards (see 'worker join') into "
        "one canonical store, byte-identical to a serial run",
        description=(
            "Merge the per-worker JSONL store shards of a distributed "
            "sweep into one canonical store.  Shard headers must agree "
            "on the grid signature and seed stream; task keys are "
            "deduplicated (first-complete wins) and records are ordered "
            "by grid index, so the merged store's canonical export is "
            "byte-identical to a serial single-process run."
        ),
    )
    merge_parser.add_argument(
        "shards", nargs="+", metavar="SHARD",
        help="worker shard store files (DIR/shard-<signature>-<worker>.jsonl)",
    )
    merge_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the merged canonical store here (default: print a table)",
    )
    merge_parser.add_argument(
        "--allow-partial", action="store_true",
        help=(
            "merge even when the shards do not cover the full grid "
            "(default: missing cells are a hard error)"
        ),
    )
    merge_parser.add_argument(
        "--stats", action="store_true",
        help=(
            "print a per-worker execution table (cells, fresh/replayed, "
            "leases, wall seconds, cells/sec) aggregated from the shard "
            "lease footers, plus the duplicate-cell dedup count"
        ),
    )
    merge_parser.set_defaults(handler=_cmd_merge)


def _add_worker_parser(subparsers: argparse._SubParsersAction) -> None:
    worker_parser = subparsers.add_parser(
        "worker",
        help="distributed dispatch worker (join a coordinator and "
        "execute sweep shards)",
    )
    worker_subparsers = worker_parser.add_subparsers(
        dest="worker_command", required=True
    )
    join_parser = worker_subparsers.add_parser(
        "join",
        help="register with a dispatch coordinator and execute shards "
        "until it shuts down",
        description=(
            "Join a dispatch coordinator (an embedded 'repro sweep "
            "--dispatch-workers N' one, or a 'repro serve' daemon's).  "
            "Leased shards run the exact per-cell code of a local sweep; "
            "every completed cell is appended to this worker's own JSONL "
            "store shard under the advisory writer lock and streamed "
            "back to the coordinator."
        ),
    )
    join_parser.add_argument("address", metavar="HOST:PORT",
                             help="coordinator address")
    join_parser.add_argument(
        "--shard-dir", default="shards", metavar="DIR",
        help="directory for this worker's store shards (default: shards)",
    )
    join_parser.add_argument(
        "--name", default=None, metavar="ID",
        help="worker id, used in shard filenames (default: host-pid)",
    )
    join_parser.add_argument(
        "--once", action="store_true",
        help="exit when the coordinator connection ends (no reconnect)",
    )
    join_parser.add_argument(
        "--supervise", action="store_true",
        help=(
            "never give up: reconnect with capped exponential backoff "
            "across coordinator restarts and shutdowns, replaying this "
            "worker's shard store on rejoin (stop with Ctrl-C/SIGTERM; "
            "mutually exclusive with --once)"
        ),
    )
    join_parser.add_argument(
        "--connect-wait", type=float, default=30.0, metavar="SECONDS",
        help="keep retrying the connect this long (default: 30)",
    )
    join_parser.add_argument(
        "--heartbeat", type=float, default=2.0, metavar="SECONDS",
        help="interval between heartbeat frames (default: 2)",
    )
    join_parser.set_defaults(handler=_cmd_worker_join)


def _add_bench_parser(subparsers: argparse._SubParsersAction) -> None:
    bench_parser = subparsers.add_parser(
        "bench",
        help="run the benchmark harnesses and diff their headline "
        "speedups against committed baselines",
        description=(
            "Run every benchmark harness (see benchmarks/) and compare "
            "each headline speedup against the committed baselines file.  "
            "A harness that drops more than 25%% below its baseline fails "
            "the command (exit 1).  Use --update after an intentional "
            "perf change to rewrite the baselines."
        ),
    )
    bench_parser.add_argument(
        "--smoke", action="store_true",
        help="small workload sizes (the CI configuration)",
    )
    bench_parser.add_argument(
        "--dir", default="benchmarks", metavar="PATH",
        help="directory holding the harness files (default: benchmarks)",
    )
    bench_parser.add_argument(
        "--baselines", default="BENCH_baselines.json", metavar="PATH",
        help="baseline speedups file (default: BENCH_baselines.json)",
    )
    bench_parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baselines from this run instead of comparing",
    )
    bench_parser.add_argument(
        "--history", default=None, metavar="PATH",
        help=(
            "append one JSONL row per harness (commit, harness, speedup, "
            "wall time, mode) to this measurement-history file"
        ),
    )
    bench_parser.set_defaults(handler=_cmd_bench)


def _add_serve_parser(subparsers: argparse._SubParsersAction) -> None:
    serve_parser = subparsers.add_parser(
        "serve",
        help="run the multi-tenant experiment service daemon "
        "(HTTP JSON API over a durable job queue)",
        description=(
            "Run the experiment service: a job daemon whose worker slots "
            "run submitted sweep grids on its own dispatch coordinator, "
            "through the same store/runner stack as 'repro sweep' "
            "(exports are byte-identical to local runs).  The queue is "
            "durably persisted to a JSONL ledger; a killed daemon resumes "
            "it on restart.  Stop with SIGTERM or Ctrl-C; running jobs "
            "checkpoint and requeue."
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8155,
        help="bind port, 0 picks a free one (default: 8155)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2,
        help=(
            "concurrent job slots; a running job adds its --jobs local "
            "dispatch worker processes (default: 2)"
        ),
    )
    serve_parser.add_argument(
        "--data-dir", default="service-data", metavar="PATH",
        help=(
            "root of the per-tenant experiment store shards and the job "
            "ledger (default: service-data)"
        ),
    )
    serve_parser.add_argument(
        "--ledger", default=None, metavar="PATH",
        help="job ledger file (default: <data-dir>/jobs.jsonl)",
    )
    serve_parser.add_argument(
        "--tenant-quota", type=int, default=8, metavar="N",
        help="max active (queued+running) jobs per tenant (default: 8)",
    )
    serve_parser.add_argument(
        "--dispatch-port", type=int, default=0, metavar="PORT",
        help=(
            "port of the daemon's dispatch coordinator, which 'repro "
            "worker join' workers may also join (default: 0, pick a "
            "free port; the address is printed at startup)"
        ),
    )
    serve_parser.set_defaults(handler=_cmd_serve)


def _add_jobs_parser(subparsers: argparse._SubParsersAction) -> None:
    jobs_parser = subparsers.add_parser(
        "jobs",
        help="client for a running experiment service "
        "(submit/status/cancel/results/watch/list/capacity)",
    )
    jobs_subparsers = jobs_parser.add_subparsers(
        dest="jobs_command", required=True
    )

    submit_parser = jobs_subparsers.add_parser(
        "submit",
        help="submit a sweep grid to the service (same grid/fault flags "
        "as 'repro sweep'; prints the job id on stdout)",
    )
    add_grid_options(submit_parser, sizes_default="24,48")
    submit_parser.add_argument(
        "--algorithms", default="classical_exact,two_approx",
        help=(
            "comma-separated algorithm names; available: "
            + ", ".join(SWEEP_ALGORITHM_NAMES)
        ),
    )
    add_fault_options(submit_parser)
    _add_url_option(submit_parser)
    submit_parser.add_argument(
        "--tenant", default="default",
        help="tenant the job is accounted to (default: default)",
    )
    submit_parser.add_argument(
        "--watch", action="store_true",
        help="poll the job to completion after submitting",
    )
    submit_parser.set_defaults(handler=_cmd_jobs_submit)

    status_parser = jobs_subparsers.add_parser(
        "status", help="print one job's status as JSON"
    )
    status_parser.add_argument("job_id", help="job id (from submit)")
    _add_url_option(status_parser)
    status_parser.set_defaults(handler=_cmd_jobs_status)

    list_parser = jobs_subparsers.add_parser(
        "list", help="list the service's jobs as a table"
    )
    list_parser.add_argument(
        "--tenant", default=None, help="only this tenant's jobs",
    )
    _add_url_option(list_parser)
    list_parser.set_defaults(handler=_cmd_jobs_list)

    cancel_parser = jobs_subparsers.add_parser(
        "cancel",
        help="cancel a job (immediate when queued; running jobs stop "
        "between task completions, keeping durable partial progress)",
    )
    cancel_parser.add_argument("job_id", help="job id (from submit)")
    _add_url_option(cancel_parser)
    cancel_parser.set_defaults(handler=_cmd_jobs_cancel)

    results_parser = jobs_subparsers.add_parser(
        "results",
        help="fetch a job's records (jsonl is the canonical export, "
        "byte-identical to a local 'repro sweep' of the same flags)",
    )
    results_parser.add_argument("job_id", help="job id (from submit)")
    results_parser.add_argument(
        "--format", default="jsonl", choices=EXPORT_FORMATS,
        help="output format (default: jsonl)",
    )
    results_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="destination file (default: stdout)",
    )
    _add_url_option(results_parser)
    results_parser.set_defaults(handler=_cmd_jobs_results)

    watch_parser = jobs_subparsers.add_parser(
        "watch",
        help="poll a job until it finishes "
        "(exit 0 done, 1 failed, 3 cancelled)",
    )
    watch_parser.add_argument("job_id", help="job id (from submit)")
    watch_parser.add_argument(
        "--poll", type=float, default=0.5, metavar="SECONDS",
        help="poll interval (default: 0.5)",
    )
    _add_url_option(watch_parser)
    watch_parser.set_defaults(handler=_cmd_jobs_watch)

    capacity_parser = jobs_subparsers.add_parser(
        "capacity",
        help="print worker-slot and per-tenant quota capacity as JSON",
    )
    _add_url_option(capacity_parser)
    capacity_parser.set_defaults(handler=_cmd_jobs_capacity)


def _add_table1_parser(subparsers: argparse._SubParsersAction) -> None:
    table_parser = subparsers.add_parser(
        "table1", help="print Table 1 evaluated at a given (n, D)"
    )
    table_parser.add_argument("--nodes", type=int, required=True)
    table_parser.add_argument("--diameter", type=int, default=None)
    table_parser.add_argument(
        "--memory", type=int, default=None,
        help="per-node memory (qubits) for the Theorem-3 row",
    )
    table_parser.set_defaults(handler=_cmd_table1)


#: Every command, in ``repro --help`` order, and the function that adds
#: its sub-parser.
_COMMANDS = {
    "diameter": _add_diameter_parser,
    "approx": _add_approx_parser,
    "sweep": _add_sweep_parser,
    "quantum": _add_quantum_parser,
    "export": _add_export_parser,
    "merge": _add_merge_parser,
    "worker": _add_worker_parser,
    "bench": _add_bench_parser,
    "serve": _add_serve_parser,
    "jobs": _add_jobs_parser,
    "table1": _add_table1_parser,
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """Construct the top-level argument parser.

    With ``command`` (the name of one command), only that command's
    sub-parser is built: :func:`main` parses ``repro export ...`` without
    building the other commands' flags.  The usage line still lists
    every command, so each message and help text prints the same bytes
    as from the full parser.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Sublinear-Time Quantum Computation of the "
            "Diameter in CONGEST Networks' (Le Gall & Magniez, PODC 2018)."
        ),
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True,
        # Left unset, argparse would list only the commands built.
        metavar=None if command is None else "{" + ",".join(_COMMANDS) + "}",
    )
    for name, add_parser in _COMMANDS.items():
        if command is None or name == command:
            add_parser(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
