"""Tests for the service job model, ledger, and capacity accounting.

The ledger is the daemon's durable queue; these tests pin the replay
semantics (first job entry wins, last state entry wins, truncated tails
and foreign lines are tolerated), the stale-lease recovery edge, and the
MAAS-style total/used/available capacity arithmetic.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    GridRequest,
    JobLedger,
    JobRecord,
    QuotaExceeded,
    QuotaPolicy,
    capacity_report,
)
from repro.store import ExperimentStore


def _request(**overrides) -> GridRequest:
    base = dict(
        families=("cycle",), sizes=(10,), algorithms=("classical_exact",)
    )
    base.update(overrides)
    return GridRequest(**base)


def _record(job_id="job-000001", tenant="alice", state="queued", **overrides):
    record = JobRecord(
        job_id=job_id,
        tenant=tenant,
        request=_request(),
        store_name=f"{job_id}.jsonl",
        total=1,
        state=state,
    )
    for key, value in overrides.items():
        setattr(record, key, value)
    return record


class TestJobRecord:
    def test_active_states(self):
        assert _record(state="queued").active
        assert _record(state="running").active
        for state in ("done", "failed", "cancelled"):
            assert not _record(state=state).active

    def test_to_api_shape(self):
        record = _record(done=3, detail="x")
        record.total = 4
        payload = record.to_api()
        assert payload["job_id"] == "job-000001"
        assert payload["progress"] == {"done": 3, "total": 4}
        assert payload["store"] == "alice/job-000001.jsonl"
        assert payload["request"] == _request().to_dict()
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_store_is_tenant_namespaced(self, tmp_path):
        store = _record().store(str(tmp_path))
        assert store.path.endswith("alice/job-000001.jsonl")
        assert (tmp_path / "alice").is_dir()

    def test_bad_tenant_rejected(self, tmp_path):
        for tenant in ("", "../evil", "a/b", ".hidden", "x" * 65):
            with pytest.raises(ValueError, match="tenant"):
                _record(tenant=tenant).store(str(tmp_path))


class TestLedgerReplay:
    def test_round_trip(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        record = _record()
        record.created = 1000.0
        ledger.append_job(record)
        ledger.append_state("job-000001", "running", done=0)
        ledger.append_state("job-000001", "done", done=1)

        replayed = ledger.replay()
        assert set(replayed) == {"job-000001"}
        clone = replayed["job-000001"]
        assert clone.state == "done"
        assert clone.done == 1
        assert clone.request == record.request
        assert clone.created == 1000.0

    def test_first_job_entry_wins(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        first = _record(tenant="alice")
        ledger.append_job(first)
        ledger.append_job(_record(tenant="mallory"))
        assert ledger.replay()["job-000001"].tenant == "alice"

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        ledger.append_job(_record())
        ledger.append_state("job-000001", "running")
        # simulate a crash mid-append: a partial, newline-less JSON line
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "state", "job_id": "job-0')
        replayed = ledger.replay()
        assert replayed["job-000001"].state == "running"
        # ... and the next append must not splice into the partial line
        ledger.append_state("job-000001", "done", done=1)
        assert ledger.replay()["job-000001"].state == "done"

    def test_foreign_and_malformed_entries_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        ledger.append_job(_record())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "state", "job_id": "job-999999", "state": "done", "done": 0, "at": 0}\n')
            handle.write('{"kind": "state", "job_id": "job-000001", "state": "exploded", "done": 0, "at": 0}\n')
            handle.write('{"kind": "job", "job_id": "job-000002"}\n')
            handle.write('{"unrelated": true}\n')
        replayed = ledger.replay()
        assert set(replayed) == {"job-000001"}
        assert replayed["job-000001"].state == "queued"

    def test_wrong_typed_state_fields_skipped(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        ledger.append_job(_record())
        with open(path, "a", encoding="utf-8") as handle:
            for extra in ({"done": "x"}, {"at": None}, {"detail": 5},
                          {"cancel_requested": "yes"}, {"done": True}):
                entry = {"kind": "state", "job_id": "job-000001",
                         "state": "done", "done": 1, "at": 0, **extra}
                handle.write(json.dumps(entry) + "\n")
        assert ledger.replay()["job-000001"].state == "queued"

    @pytest.mark.parametrize("retired", [
        {"engine": None, "backend": None},
        {"engine": "dense", "backend": None},
        {"tier": None},
        {"tier": "stdlib"},
        {"tier": "numpy"},
        {"dispatch": None},
        {"dispatch": "multiprocessing"},
        {"dispatch": "remote"},
    ])
    def test_rows_with_retired_selections_replay(self, tmp_path, retired):
        """Job rows written while requests carried ``engine``, ``backend``,
        ``tier`` or ``dispatch`` replay as the same job instead of being
        skipped."""
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        ledger.append_job(_record())
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["request"] = dict(entry["request"], **retired)
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        ledger.append_state("job-000001", "running", done=0)
        replayed = ledger.replay()
        assert set(replayed) == {"job-000001"}
        assert replayed["job-000001"].request == _request()
        assert replayed["job-000001"].state == "running"

    def test_undecodable_line_skipped(self, tmp_path):
        # A torn multi-byte character used to stop the whole replay (and
        # with it the daemon's start) with a UnicodeDecodeError.
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        ledger.append_job(_record())
        with open(path, "ab") as handle:
            handle.write(b"\xff\xfe garbage \x80\n")
        ledger.append_state("job-000001", "running", done=0)
        assert ledger.replay()["job-000001"].state == "running"

    def test_old_worker_pid_key_ignored(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        ledger = JobLedger(path)
        ledger.append_job(_record())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "state", "job_id": "job-000001", "state": "running", "done": 0, "at": 1.0, "worker_pid": 4242}\n')
        assert ledger.replay()["job-000001"].state == "running"

    def test_unknown_state_rejected_on_write(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        with pytest.raises(ValueError, match="unknown job state"):
            ledger.append_state("job-000001", "exploded")


class TestRecovery:
    def test_stale_running_lease_requeued(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        ledger.append_job(_record())
        ledger.append_state("job-000001", "running", done=2)

        recovered = ledger.recover()
        assert recovered["job-000001"].state == "queued"
        assert recovered["job-000001"].done == 2  # progress survives
        assert "requeued" in recovered["job-000001"].detail
        # the requeue is durable, not just in-memory
        assert ledger.replay()["job-000001"].state == "queued"

    def test_terminal_jobs_untouched(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        ledger.append_job(_record())
        ledger.append_state("job-000001", "done", done=1)
        assert ledger.recover()["job-000001"].state == "done"

    def test_next_job_id_sequential(self, tmp_path):
        ledger = JobLedger(tmp_path / "jobs.jsonl")
        assert ledger.next_job_id() == "job-000001"
        ledger.append_job(_record(job_id="job-000007"))
        assert ledger.next_job_id() == "job-000008"


class TestQuota:
    def test_under_quota_passes(self):
        QuotaPolicy(tenant_jobs=2).check_submit("alice", [_record()])

    def test_at_quota_rejected(self):
        jobs = [_record(job_id="job-000001"),
                _record(job_id="job-000002", state="running")]
        with pytest.raises(QuotaExceeded, match="'alice'"):
            QuotaPolicy(tenant_jobs=2).check_submit("alice", jobs)

    def test_terminal_jobs_do_not_count(self):
        jobs = [_record(job_id=f"job-00000{i}", state=state)
                for i, state in enumerate(("done", "failed", "cancelled"), 1)]
        QuotaPolicy(tenant_jobs=1).check_submit("alice", jobs)

    def test_other_tenants_unaffected(self):
        jobs = [_record(job_id="job-000001", tenant="alice"),
                _record(job_id="job-000002", tenant="alice")]
        policy = QuotaPolicy(tenant_jobs=2)
        with pytest.raises(QuotaExceeded):
            policy.check_submit("alice", jobs)
        policy.check_submit("bob", jobs)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            QuotaPolicy(tenant_jobs=0)


class TestCapacityReport:
    def test_available_is_total_minus_used(self):
        jobs = [
            _record(job_id="job-000001", tenant="alice", state="running"),
            _record(job_id="job-000002", tenant="alice", state="queued"),
            _record(job_id="job-000003", tenant="bob", state="done"),
        ]
        report = capacity_report(4, QuotaPolicy(tenant_jobs=8), jobs)
        assert report["total"] == {"workers": 4}
        assert report["used"] == {"workers": 1}
        assert report["available"] == {"workers": 3}
        assert report["queued"] == 1
        assert report["tenants"]["alice"] == {
            "total": 8, "used": 2, "available": 6,
        }
        assert report["tenants"]["bob"] == {
            "total": 8, "used": 0, "available": 8,
        }

    def test_available_never_negative(self):
        jobs = [_record(job_id=f"job-00000{i}", state="running")
                for i in range(1, 4)]
        report = capacity_report(2, QuotaPolicy(tenant_jobs=2), jobs)
        assert report["available"] == {"workers": 0}
        assert report["tenants"]["alice"]["available"] == 0

    def test_empty_service(self):
        report = capacity_report(2, QuotaPolicy(), [])
        assert report["used"] == {"workers": 0}
        assert report["tenants"] == {}


class TestNamespacedStore:
    def test_namespaced_creates_tenant_directory(self, tmp_path):
        store = ExperimentStore.namespaced(str(tmp_path), "alice", "run.jsonl")
        assert store.path == str(tmp_path / "alice" / "run.jsonl")
        assert (tmp_path / "alice").is_dir()

    def test_namespaced_appends_extension(self, tmp_path):
        store = ExperimentStore.namespaced(str(tmp_path), "alice", "run")
        assert store.path.endswith("run.jsonl")


#: A value of each JSON type, for replacing a field with the wrong one.
_JSON_VALUES = {
    "str": st.text(max_size=5),
    "int": st.integers(-3, 3),
    "float": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "null": st.none(),
    "list": st.lists(st.integers(), max_size=2),
    "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
#: The JSON types each ledger field may *not* have.
_WRONG_TYPES = {
    "job_id": ("int", "null", "list", "dict", "bool"),
    "tenant": ("int", "null", "list", "dict", "bool"),
    "store_name": ("int", "null", "list", "dict", "bool"),
    "request": ("str", "int", "null", "list", "bool"),
    "total": ("str", "float", "null", "list", "dict", "bool"),
    "created": ("str", "null", "list", "dict", "bool"),
    "state": ("int", "null", "list", "dict", "bool"),
    "done": ("str", "float", "null", "list", "dict", "bool"),
    "at": ("str", "null", "list", "dict", "bool"),
    "detail": ("int", "float", "list", "dict", "bool"),
    "cancel_requested": ("str", "int", "null", "list", "dict"),
}
_JOB_FIELDS = ("job_id", "tenant", "store_name", "request", "total", "created")
_STATE_FIELDS = ("job_id", "state", "done", "at", "detail", "cancel_requested")


def _wrong_value(field):
    return st.sampled_from(_WRONG_TYPES[field]).flatmap(_JSON_VALUES.get)


def _mistyped(entry, fields):
    return st.sampled_from(fields).flatmap(
        lambda field: _wrong_value(field).map(
            lambda value: json.dumps(dict(entry, **{field: value}))
        )
    )


#: Lines that must never change a replay: garbage text, non-object JSON,
#: unknown kinds, and job/state entries with one wrong-typed field.
_MALFORMED = st.one_of(
    st.text(max_size=20).filter(lambda text: "\n" not in text and "\r" not in text),
    st.sampled_from(["[1, 2]", "7", '"job"', "null", "{", "{}"]),
    st.builds(lambda kind: json.dumps({"kind": kind, "job_id": "job-000001",
                                       "state": "done", "done": 1}),
              st.text(max_size=5).filter(lambda kind: kind not in ("job", "state"))),
    _mistyped({"kind": "job", "schema": 1, "job_id": "job-000009",
               "tenant": "alice", "request": _request().to_dict(),
               "store_name": "job-000009.jsonl", "total": 1, "created": 1.0},
              _JOB_FIELDS),
    _mistyped({"kind": "state", "job_id": "job-000001", "state": "failed",
               "done": 1, "at": 5.0, "detail": "x", "cancel_requested": True},
              _STATE_FIELDS),
)


class TestLedgerGarbageProperty:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), _MALFORMED), max_size=6))
    def test_malformed_lines_never_change_replay(self, tmp_path_factory, junk):
        directory = tmp_path_factory.mktemp("ledger")
        clean = JobLedger(directory / "clean.jsonl")
        dirty = JobLedger(directory / "dirty.jsonl")
        for ledger in (clean, dirty):
            ledger.append_job(_record())
            ledger.append_job(_record(job_id="job-000002", tenant="bob"))
            ledger.append_state("job-000001", "running", done=0)
            ledger.append_state("job-000002", "cancelled", done=0,
                                detail="stop", cancel_requested=True)
        lines = open(dirty.path, encoding="utf-8").read().splitlines()
        for position, line in sorted(junk, key=lambda item: -item[0]):
            lines.insert(position, line)
        with open(dirty.path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        replayed = dirty.replay()
        expected = clean.replay()
        assert {job_id: (r.state, r.done, r.detail, r.cancel_requested,
                         r.tenant, r.request)
                for job_id, r in replayed.items()} == \
            {job_id: (r.state, r.done, r.detail, r.cancel_requested,
                      r.tenant, r.request)
             for job_id, r in expected.items()}
