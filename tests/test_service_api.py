"""End-to-end tests for the experiment service (daemon + HTTP API + client).

The load-bearing acceptance property: a job submitted over HTTP and
executed by the daemon's worker pool produces a canonical JSONL export
**byte-identical** to running the same grid request locally.  Around it:
capacity accounting stays consistent, per-tenant quota rejections are
structured and isolated, cancellation preserves durable partial
progress, and a SIGKILLed daemon resumes its queue to the same bytes.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.faults import FaultModel
from repro.service import (
    ExperimentService,
    GridRequest,
    QuotaPolicy,
    ServiceClient,
    ServiceClientError,
    execute_grid_request,
    serve_api,
)
from repro.store import ExperimentStore, render_records

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: A small, fast grid for happy-path jobs (~0.1s of compute).
_FAST = dict(families=("cycle", "path"), sizes=(10, 12),
             algorithms=("classical_exact", "two_approx"), seed=3)

#: A grid slow enough (~2s across 8 cells) to observe/interrupt mid-run.
_SLOW = dict(families=("cycle",),
             sizes=(104, 112, 120, 128, 136, 144, 152, 160),
             algorithms=("classical_exact",), seed=5)


def _request(**overrides) -> GridRequest:
    base = dict(_FAST)
    base.update(overrides)
    return GridRequest(**base)


def _wait_until(predicate, timeout: float = 60.0) -> None:
    """Poll daemon state until ``predicate()`` holds (fails past ``timeout``)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "daemon state never reached"
        time.sleep(0.02)


def _local_export(request: GridRequest) -> str:
    """The canonical export of running ``request`` locally, serially.

    Uses :func:`execute_grid_request` -- the exact path ``repro sweep``
    takes -- so the comparison is daemon-vs-local, not daemon-vs-itself
    (a separate test pins ``execute_grid_request`` against a direct
    :func:`run_sweep_grid` call).
    """
    return render_records(execute_grid_request(request), "jsonl")


@pytest.fixture
def live(tmp_path):
    """A started daemon + HTTP server + client."""
    service = ExperimentService(tmp_path / "data", workers=2)
    service.start()
    server = serve_api(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
    yield client, service
    server.shutdown()
    server.server_close()
    service.stop()


@pytest.fixture
def idle(tmp_path):
    """An HTTP server over a *non-started* daemon: submissions stay
    queued forever, which makes quota and queued-cancel tests
    deterministic (no worker races)."""
    service = ExperimentService(
        tmp_path / "data", workers=2, quota=QuotaPolicy(tenant_jobs=2)
    )
    server = serve_api(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=10.0)
    yield client, service
    server.shutdown()
    server.server_close()


class TestAPIBasics:
    def test_health(self, idle):
        client, _ = idle
        assert client.health()["status"] == "ok"

    def test_capacity_empty(self, idle):
        client, _ = idle
        report = client.capacity()
        assert report["total"] == {"workers": 2}
        assert report["used"] == {"workers": 0}
        assert report["available"] == {"workers": 2}
        assert report["tenants"] == {}

    def test_unknown_route_is_structured_404(self, idle):
        client, _ = idle
        with pytest.raises(ServiceClientError) as info:
            client._json("GET", "/frobnicate")
        assert info.value.status == 404
        assert info.value.code == "unknown_route"

    def test_unknown_job_404(self, idle):
        client, _ = idle
        for call in (lambda: client.status("job-999999"),
                     lambda: client.cancel("job-999999"),
                     lambda: client.results("job-999999")):
            with pytest.raises(ServiceClientError) as info:
                call()
            assert info.value.status == 404
            assert info.value.code == "unknown_job"

    def test_submit_missing_fields_400(self, idle):
        client, _ = idle
        with pytest.raises(ServiceClientError) as info:
            client._json("POST", "/jobs", {"request": _request().to_dict()})
        assert (info.value.status, info.value.code) == (400, "missing_tenant")
        with pytest.raises(ServiceClientError) as info:
            client._json("POST", "/jobs", {"tenant": "alice"})
        assert (info.value.status, info.value.code) == (400, "missing_request")

    def test_submit_invalid_request_400(self, idle):
        client, _ = idle
        with pytest.raises(ServiceClientError) as info:
            client.submit("alice", _request(families=("bogus",)))
        assert info.value.status == 400
        assert "unknown family" in info.value.message

    def test_submit_size_above_the_node_ceiling_400(self, idle):
        client, _ = idle
        payload = dict(_request().to_dict(), sizes=[10**200])
        with pytest.raises(ServiceClientError) as info:
            client._json("POST", "/jobs", {"tenant": "alice", "request": payload})
        assert (info.value.status, info.value.code) == (400, "invalid_request")
        assert "sizes must be <= " in info.value.message

    def test_submit_jobs_above_the_process_ceiling_400(self, idle):
        # ``idle`` never starts a job slot, so nothing is spawned even if
        # the request were admitted.
        client, service = idle
        payload = dict(_request().to_dict(), jobs=10**6)
        with pytest.raises(ServiceClientError) as info:
            client._json("POST", "/jobs", {"tenant": "alice", "request": payload})
        assert (info.value.status, info.value.code) == (400, "invalid_request")
        assert "jobs must be <= " in info.value.message
        assert service.jobs() == []

    @pytest.mark.parametrize("fault", [{"bogus": 1}, {"loss": "abc"}])
    def test_submit_malformed_fault_400(self, idle, fault):
        client, _ = idle
        payload = dict(_request().to_dict(), fault=fault)
        with pytest.raises(ServiceClientError) as info:
            client._json("POST", "/jobs", {"tenant": "alice", "request": payload})
        assert (info.value.status, info.value.code) == (400, "invalid_request")
        assert "fault field" in info.value.message

    @pytest.mark.parametrize("retired", [
        {"engine": None, "backend": None},
        {"engine": "dense"},
        {"backend": "sampling"},
        {"tier": None},
        {"tier": "stdlib"},
        {"tier": "numpy"},
        {"dispatch": None},
        {"dispatch": "inprocess"},
        {"dispatch": "remote"},
    ])
    def test_submit_with_retired_selection_keys_201(self, idle, retired):
        # Clients written while requests carried ``engine``/``backend``/
        # ``tier``/``dispatch`` keep submitting: the keys are dropped, not
        # rejected.
        client, _ = idle
        payload = dict(_request().to_dict(), **retired)
        body = json.dumps({"tenant": "alice", "request": payload}).encode("utf-8")
        assert _raw_post(client.base_url, body, str(len(body))) == 201

    def test_submit_bad_tenant_400(self, idle):
        client, _ = idle
        with pytest.raises(ServiceClientError) as info:
            client.submit("../evil", _request())
        assert info.value.status == 400

    def test_results_unknown_format_400(self, idle):
        client, _ = idle
        job_id = client.submit("alice", _request())["job_id"]
        with pytest.raises(ServiceClientError) as info:
            client.results(job_id, format="xml")
        assert (info.value.status, info.value.code) == (400, "unknown_format")


class TestQuota:
    def test_quota_rejection_is_structured_and_isolated(self, idle):
        client, _ = idle  # tenant_jobs=2, workers never drain the queue
        client.submit("alice", _request())
        client.submit("alice", _request())
        with pytest.raises(ServiceClientError) as info:
            client.submit("alice", _request())
        assert info.value.status == 429
        assert info.value.code == "quota_exceeded"
        assert "'alice'" in info.value.message
        # ... with no effect on other tenants
        assert client.submit("bob", _request())["state"] == "queued"
        assert len(client.list_jobs(tenant="alice")) == 2
        assert len(client.list_jobs(tenant="bob")) == 1

    def test_capacity_tracks_tenant_usage(self, idle):
        client, _ = idle
        client.submit("alice", _request())
        report = client.capacity()
        assert report["tenants"]["alice"] == {
            "total": 2, "used": 1, "available": 1,
        }
        assert report["queued"] == 1

    def test_capacity_consistent_under_concurrent_submissions(self, idle):
        client, _ = idle
        errors = []

        def spam(tenant):
            try:
                for _ in range(4):
                    try:
                        client.submit(tenant, _request())
                    except ServiceClientError as error:
                        if error.status != 429:
                            raise
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        threads = [threading.Thread(target=spam, args=(t,))
                   for t in ("alice", "bob", "carol")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        report = client.capacity()
        # the quota (2/tenant) must have held exactly under concurrency
        for tenant in ("alice", "bob", "carol"):
            assert report["tenants"][tenant]["used"] == 2
            assert report["tenants"][tenant]["available"] == 0
        assert report["queued"] == 6


class TestCancelQueued:
    def test_queued_job_cancels_immediately(self, idle):
        client, _ = idle
        job_id = client.submit("alice", _request())["job_id"]
        status = client.cancel(job_id)
        assert status["state"] == "cancelled"
        assert status["detail"] == "cancelled before execution"
        # cancelling a terminal job is a structured conflict
        with pytest.raises(ServiceClientError) as info:
            client.cancel(job_id)
        assert info.value.status == 409
        assert info.value.code == "invalid_transition"
        # ... and frees the tenant's quota slot
        assert client.capacity()["tenants"]["alice"]["used"] == 0


class TestExecution:
    def test_daemon_export_byte_identical_to_local_run(self, live):
        client, _ = live
        request = _request()
        job_id = client.submit("alice", request)["job_id"]
        status = client.watch(job_id, poll=0.05, timeout=60)
        assert status["state"] == "done"
        assert status["progress"] == {"done": 8, "total": 8}
        assert client.results(job_id, format="jsonl") == _local_export(request)

    def test_quantum_job_byte_identical_to_local_run(self, live):
        """A ``"kind": "quantum"`` job runs its problems' sweep kernels on
        the daemon's dispatch workers, exactly as ``repro quantum`` runs
        them locally."""
        client, _ = live
        request = GridRequest.from_dict({
            "kind": "quantum", "families": ["cycle", "clique_chain"],
            "sizes": [8, 12], "algorithms": ["exact_diameter", "radius"],
            "seed": 3,
        })
        job_id = client.submit("alice", request)["job_id"]
        status = client.watch(job_id, poll=0.05, timeout=60)
        assert status["state"] == "done", status
        assert status["progress"] == {"done": 8, "total": 8}
        assert client.results(job_id, format="jsonl") == _local_export(request)

    def test_jobs_with_different_selections_isolated(self, live):
        # two concurrent jobs with *different* fault selections:
        # each grid carries its own selections, which must stay apart,
        # and both exports must still match plain local runs.
        client, _ = live
        lossy = _request(fault=FaultModel(loss=0.05, seed=3))
        plain = _request()
        a = client.submit("alice", lossy)["job_id"]
        b = client.submit("bob", plain)["job_id"]
        assert client.watch(a, poll=0.05, timeout=60)["state"] == "done"
        assert client.watch(b, poll=0.05, timeout=60)["state"] == "done"
        assert client.results(a) == _local_export(lossy)
        assert client.results(b) == _local_export(plain)
        assert client.results(a) != client.results(b)

    def test_fault_injected_job_completes(self, live):
        client, _ = live
        request = GridRequest.from_dict({
            **_request().to_dict(),
            "fault": {"loss": 0.05, "seed": 3},
        })
        job_id = client.submit("alice", request)["job_id"]
        status = client.watch(job_id, poll=0.05, timeout=60)
        assert status["state"] == "done"
        assert client.results(job_id) == _local_export(request)

    def test_capacity_during_and_after(self, live):
        client, _ = live
        job_id = client.submit("alice", GridRequest(**_SLOW))["job_id"]
        deadline = time.monotonic() + 30
        saw_running = False
        while time.monotonic() < deadline:
            if client.status(job_id)["state"] == "running":
                saw_running = True
                report = client.capacity()
                assert report["used"]["workers"] >= 1
                assert (report["used"]["workers"]
                        + report["available"]["workers"] == 2)
                break
            time.sleep(0.05)
        assert saw_running, "job never entered running state"
        client.watch(job_id, poll=0.05, timeout=60)
        report = client.capacity()
        assert report["used"] == {"workers": 0}
        assert report["tenants"]["alice"]["used"] == 0

    def test_cancel_running_preserves_partial_progress(self, live):
        client, _ = live
        request = GridRequest(**_SLOW)
        job_id = client.submit("alice", request)["job_id"]
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status = client.status(job_id)
            if status["state"] == "running" and status["progress"]["done"] >= 1:
                break
            time.sleep(0.02)
        else:  # pragma: no cover - diagnostics
            pytest.fail("job never made observable progress")
        client.cancel(job_id)
        status = client.watch(job_id, poll=0.05, timeout=60)
        assert status["state"] == "cancelled"
        assert status["cancel_requested"] is True
        done = status["progress"]["done"]
        assert 1 <= done < status["progress"]["total"]
        assert "cancelled after" in status["detail"]
        # the partial records are durable and served
        lines = client.results(job_id).splitlines()
        assert len(lines) == done
        # ... and a cancelled job frees its quota slot
        assert client.capacity()["tenants"]["alice"]["used"] == 0


def _start_daemon(data_dir: str) -> "tuple[subprocess.Popen, str]":
    """Launch ``repro serve`` in its own session; returns (proc, url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--data-dir", data_dir, "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env, start_new_session=True,
    )
    line = proc.stdout.readline().strip()
    assert line.startswith("serving on "), line
    return proc, line[len("serving on "):]


@pytest.mark.slow
class TestDaemonDurability:
    def test_sigkill_restart_resumes_to_identical_bytes(self, tmp_path):
        """SIGKILL the whole daemon session mid-job; a restarted daemon
        must requeue the stale lease, resume from the store checkpoint,
        and finish with a byte-identical canonical export."""
        data_dir = str(tmp_path / "data")
        request = GridRequest(**_SLOW)
        proc, url = _start_daemon(data_dir)
        try:
            client = ServiceClient(url, timeout=10.0)
            job_id = client.submit("alice", request)["job_id"]
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status = client.status(job_id)
                if status["progress"]["done"] >= 1:
                    break
                time.sleep(0.02)
            else:  # pragma: no cover - diagnostics
                pytest.fail("job never made observable progress")
            assert status["state"] == "running"
        finally:
            # kill the daemon AND its worker subprocess, no goodbyes
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait()

        proc, url = _start_daemon(data_dir)
        try:
            client = ServiceClient(url, timeout=10.0)
            # the stale lease was requeued durably and re-leased
            status = client.watch(job_id, poll=0.05, timeout=120)
            assert status["state"] == "done"
            assert status["progress"] == {
                "done": request.total_cells(), "total": request.total_cells(),
            }
            assert client.results(job_id) == _local_export(request)
        finally:
            os.killpg(os.getpgid(proc.pid), signal.SIGTERM)
            proc.wait(timeout=30)


def _fetch_metrics(client: ServiceClient) -> "tuple[str, str]":
    """GET /metrics raw; returns (body, content_type)."""
    import urllib.request

    with urllib.request.urlopen(client.base_url + "/metrics", timeout=10) as r:
        return r.read().decode("utf-8"), r.headers.get("Content-Type")


class TestMetrics:
    def test_empty_service_zero_filled(self, idle):
        client, _ = idle
        body, content_type = _fetch_metrics(client)
        assert content_type.startswith("text/plain")
        for state in ("queued", "running", "done", "failed", "cancelled"):
            assert f'repro_service_jobs{{state="{state}"}} 0' in body
        assert 'repro_service_worker_slots{state="total"} 2' in body
        assert 'repro_service_worker_slots{state="available"} 2' in body
        assert "repro_service_queued_jobs 0" in body
        # the daemon always owns a coordinator; nothing has registered
        assert "repro_service_dispatch_workers 0" in body

    def test_counts_follow_the_ledger(self, idle):
        client, _ = idle  # daemon not started: jobs stay queued
        client.submit("alice", _request())
        client.submit("bob", _request())
        body, _ = _fetch_metrics(client)
        assert 'repro_service_jobs{state="queued"} 2' in body
        assert 'repro_service_tenant_active_jobs{tenant="alice"} 1' in body
        assert 'repro_service_tenant_active_jobs{tenant="bob"} 1' in body
        assert "repro_service_queued_jobs 2" in body

    def test_matches_json_api(self, idle):
        # the two faces render the same snapshots; they cannot disagree
        client, _ = idle
        client.submit("alice", _request())
        body, _ = _fetch_metrics(client)
        capacity = client.capacity()
        used = capacity["tenants"]["alice"]["used"]
        assert f'repro_service_tenant_active_jobs{{tenant="alice"}} {used}' \
            in body


class TestRemoteDispatchJobs:
    def test_remote_job_byte_identical_via_daemon_coordinator(self, tmp_path):
        """A daemon owning a coordinator fans a remote-dispatch job out to
        a joined worker; the export must match a plain local run."""
        service = ExperimentService(tmp_path / "data", workers=1)
        service.start()
        server = serve_api(service, "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}", timeout=10.0)

        chost, cport = service.coordinator.address
        env = dict(os.environ)
        env["PYTHONPATH"] = _REPO_SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        worker = subprocess.Popen(
            [sys.executable, "-m", "repro.dispatch.worker",
             f"{chost}:{cport}", "--shard-dir", str(tmp_path / "shards"),
             "--name", "tw1", "--once", "--heartbeat", "0.5"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
        )
        try:
            service.coordinator.wait_for_workers(1, timeout=30.0)
            body, _ = _fetch_metrics(client)
            assert "repro_service_dispatch_workers 1" in body

            request = _request()
            job_id = client.submit("alice", request)["job_id"]
            status = client.watch(job_id, poll=0.05, timeout=120)
            assert status["state"] == "done"
            # the export matches a local *serial* run of the same grid
            # (the runner changes where cells run, never the bytes)
            assert client.results(job_id, format="jsonl") == \
                _local_export(request)
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()


class TestRunContext:
    def test_concurrent_jobs_stamp_their_own_context(self, live):
        # Two jobs running at once in one daemon process: each store
        # header must carry its own tenant and job id.
        client, service = live
        jobs = {
            tenant: service.submit(tenant, GridRequest(**_SLOW)).job_id
            for tenant in ("alice", "bob")
        }
        stores = {
            job_id: service.job(job_id).store(service.data_dir)
            for job_id in jobs.values()
        }
        _wait_until(lambda: all(
            service.job(job_id).state == "running"
            and store.latest_header() is not None
            for job_id, store in stores.items()
        ))
        for tenant, job_id in jobs.items():
            header = stores[job_id].latest_header()
            assert (header["tenant"], header["job_id"]) == (tenant, job_id)
            client.cancel(job_id)
        for job_id in jobs.values():
            assert client.watch(job_id, poll=0.05, timeout=60)["state"] == \
                "cancelled"

    def test_local_sweep_header_has_no_service_context(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        assert main(["sweep", "--families", "cycle", "--sizes", "10",
                     "--algorithms", "two_approx", "--out", path]) == 0
        header = ExperimentStore(path).latest_header()
        assert "tenant" not in header and "job_id" not in header

    def test_unknown_context_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="run-context"):
            ExperimentStore(tmp_path / "run.jsonl", run_context={"user": "x"})


class TestShutdown:
    def test_stop_is_bounded_clean_and_resumable(self, tmp_path):
        before = set(threading.enumerate())
        data_dir = tmp_path / "data"
        request = GridRequest(**_SLOW)
        service = ExperimentService(data_dir, workers=1)
        service.start()
        job_id = service.submit("alice", request).job_id
        _wait_until(lambda: service.job(job_id).done >= 1)
        local_workers = list(service._running[job_id].processes)
        started = time.monotonic()
        service.stop()
        assert time.monotonic() - started < 15.0
        leaked = [
            thread.name for thread in threading.enumerate()
            if thread not in before
            and thread.name.startswith(("repro-service-", "dispatch-"))
        ]
        assert leaked == []
        assert local_workers
        assert all(proc.returncode is not None for proc in local_workers)
        record = service.job(job_id)
        assert (record.state, record.detail) == (
            "queued", "checkpointed on shutdown"
        )
        assert os.listdir(data_dir / ".dispatch") == []

        restarted = ExperimentService(data_dir, workers=1)
        restarted.start()
        try:
            _wait_until(lambda: restarted.job(job_id).state == "done")
            assert restarted.results_text(job_id) == _local_export(request)
        finally:
            restarted.stop()


def _running_processes(service, job_id, count=1):
    """The local worker processes of a running job, once ``count`` are up."""
    _wait_until(lambda: len(getattr(
        service._running.get(job_id), "processes", ())) >= count)
    return list(service._running[job_id].processes)


class TestLocalWorkers:
    def test_job_brings_its_jobs_count_and_cleans_up(self, live):
        client, service = live
        request = GridRequest(**dict(_SLOW, jobs=2))
        job_id = client.submit("alice", request)["job_id"]
        processes = _running_processes(service, job_id, count=2)
        assert len(processes) == 2
        status = client.watch(job_id, poll=0.05, timeout=120)
        assert status["state"] == "done"
        assert client.results(job_id) == _local_export(request)
        # Once the daemon is idle: children reaped, no shard files left.
        assert all(proc.returncode is not None for proc in processes)
        assert os.listdir(os.path.join(service.data_dir, ".dispatch")) == []

    def test_dead_local_worker_fails_the_job(self, live):
        client, service = live
        job_id = client.submit("alice", GridRequest(**_SLOW))["job_id"]
        _wait_until(lambda: service.job(job_id).done >= 1)
        (worker,) = _running_processes(service, job_id)
        os.kill(worker.pid, signal.SIGKILL)
        status = client.watch(job_id, poll=0.05, timeout=60)
        assert status["state"] == "failed"
        assert status["detail"] == (
            "a local dispatch worker exited with code -9"
        )
        assert client.capacity()["used"] == {"workers": 0}
        # The slot is free again: the next job runs to completion.
        follow_up = client.submit("alice", _request())["job_id"]
        assert client.watch(follow_up, poll=0.05, timeout=60)["state"] == "done"

    def test_cancel_takes_effect_while_cells_stall(self, live):
        client, service = live
        job_id = client.submit("alice", GridRequest(**_SLOW))["job_id"]
        _wait_until(lambda: service.job(job_id).done >= 1)
        (worker,) = _running_processes(service, job_id)
        os.kill(worker.pid, signal.SIGSTOP)  # alive, but no cell arrives
        client.cancel(job_id)
        # The request is durable before the job ends ...
        assert service.ledger.replay()[job_id].cancel_requested is True
        status = client.watch(job_id, poll=0.05, timeout=30)
        # ... and takes effect without another cell completing.
        assert status["state"] == "cancelled"
        assert worker.returncode == -signal.SIGKILL

    @pytest.mark.parametrize("state,detail", [
        ("running", None),
        ("queued", "checkpointed on shutdown"),
    ])
    def test_cancel_requested_job_not_rerun_after_restart(
        self, tmp_path, state, detail
    ):
        # A cancel requested while the job ran, then a crash (stale
        # running lease) or a shutdown checkpoint: the next daemon must
        # not compute a single cell of it.
        data_dir = tmp_path / "data"
        service = ExperimentService(data_dir, workers=1)
        job_id = service.submit("alice", _request()).job_id
        service.ledger.append_state(
            job_id, state, done=0, detail=detail, cancel_requested=True
        )
        restarted = ExperimentService(data_dir, workers=1)
        restarted.start()
        try:
            _wait_until(lambda: restarted.job(job_id).state == "cancelled")
            assert restarted.job(job_id).detail == "cancelled before execution"
            assert restarted.results_text(job_id) == ""
        finally:
            restarted.stop()


def _raw_post(url: str, body: bytes, length: str) -> int:
    """POST /jobs with a raw body and Content-Length; returns the status."""
    import http.client
    from urllib.parse import urlparse

    parsed = urlparse(url)
    connection = http.client.HTTPConnection(
        parsed.hostname, parsed.port, timeout=10
    )
    try:
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", length)
        connection.endheaders(body)
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
#: Request objects that mutate one valid field at a time, so hypothesis
#: reaches deep into validation as well as the type checks.
_REQUESTS = st.builds(
    lambda base, key, value: dict(base, **{key: value}),
    st.just(_request().to_dict()),
    st.sampled_from(sorted(_request().to_dict()) + ["bogus"]),
    _JSON,
) | _JSON
_BODIES = st.fixed_dictionaries({}, optional={
    "tenant": st.sampled_from(["alice", "../evil", ""]) | _JSON,
    "request": _REQUESTS,
}) | _JSON


class TestMalformedBodies:
    @pytest.mark.parametrize(
        "payload",
        [{"sizes": 5}, {"families": 5}, {"seed": [1]}, {"jobs": "2"},
         {"diameter": "x"}, {"algorithms": [["two_approx"]]}],
    )
    def test_wrong_typed_fields_400(self, idle, payload):
        client, _ = idle
        request = dict(_request().to_dict(), **payload)
        with pytest.raises(ServiceClientError) as info:
            client._json("POST", "/jobs", {"tenant": "alice", "request": request})
        assert (info.value.status, info.value.code) == (400, "invalid_request")

    @pytest.mark.parametrize("length", ["abc", "-5", str(1 << 21)])
    def test_bad_content_length_400(self, idle, length):
        client, _ = idle
        assert _raw_post(client.base_url, b"{}", length) == 400

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=_BODIES)
    def test_every_body_gets_a_response(self, idle, body):
        client, _ = idle
        encoded = json.dumps(body).encode("utf-8")
        status = _raw_post(client.base_url, encoded, str(len(encoded)))
        assert status in (201, 400, 429)
