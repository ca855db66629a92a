"""Tests for the persistent experiment store (``repro.store``).

The load-bearing property mirrors the batch runner's: persistence must
never change what is computed.  A sweep that is interrupted (by an
exception or a SIGKILL) and resumed must produce a record set
byte-identical to an uninterrupted serial run, completed cells must not
be recomputed, and the JSONL round-trip must preserve every record field
(including ``extra`` dicts and ``None`` diameters).
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import SweepRecord, run_sweep_grid
from repro.runner import BatchRunner, GraphSpec, grid, resolve_algorithms
from repro.store import (
    ExperimentStore,
    ExperimentStoreError,
    StoreWriterLock,
    canonical_json,
    record_from_dict,
    record_to_dict,
    render_csv,
    render_json,
    render_jsonl,
    render_records,
    spec_from_dict,
    spec_to_dict,
)

#: Environment knobs of the traced/exploding kernel below; env vars reach
#: fork-started pool workers, so the same switch works at any job count.
_TRACE_ENV = "REPRO_TEST_STORE_TRACE"
_EXPLODE_ENV = "REPRO_TEST_STORE_EXPLODE"


def _traced_estimate(graph, seed, fault):
    """A cheap sweep kernel that logs invocations and can be detonated.

    Module-level (hence picklable), deterministic in ``(graph, seed)``:
    the trace and the explosion are test-only side channels that never
    influence the returned measurement.
    """
    trace = os.environ.get(_TRACE_ENV)
    if trace:
        with open(trace, "a", encoding="utf-8") as handle:
            handle.write(f"{graph.num_nodes}\n")
    explode_at = os.environ.get(_EXPLODE_ENV)
    if explode_at and graph.num_nodes == int(explode_at):
        raise RuntimeError(f"injected failure at n={graph.num_nodes}")
    return graph.num_nodes, float(graph.num_nodes % 7)


def _records_for_roundtrip():
    return [
        SweepRecord("cycle[10]", "classical_exact", 10, 5, 79, 5.0, True, {}),
        SweepRecord(
            "ring_of_cliques[20]",
            "hprw_three_halves",
            20,
            None,
            33,
            4.0,
            None,
            {},
        ),
        SweepRecord(
            "path[6]",
            "broken",
            6,
            5,
            12,
            3.5,
            False,
            {"nonintegral_value": 3.5, "oracle_diameter": 5.0},
        ),
    ]


class TestRecordRoundTrip:
    def test_roundtrip_preserves_every_field(self):
        for record in _records_for_roundtrip():
            assert record_from_dict(record_to_dict(record)) == record

    def test_roundtrip_through_json_text(self):
        # Through an actual serialize/parse cycle, not just dict copies:
        # None diameters and extra dicts must survive the JSON layer.
        for record in _records_for_roundtrip():
            data = json.loads(canonical_json(record_to_dict(record)))
            assert record_from_dict(data) == record

    def test_malformed_objects_rejected(self):
        data = record_to_dict(_records_for_roundtrip()[0])
        missing = dict(data)
        del missing["rounds"]
        with pytest.raises(ValueError, match="malformed record"):
            record_from_dict(missing)
        unknown = dict(data, surprise=1)
        with pytest.raises(ValueError, match="malformed record"):
            record_from_dict(unknown)

    def test_spec_roundtrip(self):
        for spec in (
            GraphSpec("cycle", 24),
            GraphSpec("controlled", 16, diameter=4, seed=9),
        ):
            assert spec_from_dict(spec_to_dict(spec)) == spec


def _echo(record):
    """Return the record (pickled into a pool worker and back)."""
    return record


class TestSweepRecordBehaviour:
    """The slotted record keeps the constructor, equality, ``repr`` and
    pickling it had as a dataclass."""

    def test_equality_is_by_value_and_records_are_unhashable(self):
        first, second, third = _records_for_roundtrip()
        assert first == SweepRecord(*record_to_dict(first).values())
        assert first != second and second != third
        assert first != tuple(record_to_dict(first).values())
        with pytest.raises(TypeError):
            hash(first)

    def test_repr_names_every_field_in_order(self):
        assert repr(_records_for_roundtrip()[2]) == (
            "SweepRecord(family='path[6]', algorithm='broken', num_nodes=6, "
            "diameter=5, rounds=12, value=3.5, correct=False, "
            "extra={'nonintegral_value': 3.5, 'oracle_diameter': 5.0}, "
            "success=True, failure_reason=None)"
        )

    def test_defaults_and_a_fresh_extra_per_record(self):
        one = SweepRecord("cycle", "two_approx", 8, None, 4, 4.0)
        other = SweepRecord(family="cycle", algorithm="two_approx",
                            num_nodes=8, diameter=None, rounds=4, value=4.0)
        assert one == other
        assert (one.correct, one.extra, one.success, one.failure_reason) == (
            None, {}, True, None
        )
        one.extra["seen"] = 1.0
        assert other.extra == {}

    def test_pickles_through_a_process_pool(self):
        records = _records_for_roundtrip()
        assert [pickle.loads(pickle.dumps(r)) for r in records] == records
        assert BatchRunner(jobs=2).map(_echo, records) == records


class TestExportFormats:
    def test_csv_header_and_null_cells(self):
        lines = render_csv(_records_for_roundtrip()).splitlines()
        assert lines[0] == (
            "family,algorithm,num_nodes,diameter,rounds,value,correct,extra,"
            "success,failure_reason"
        )
        assert len(lines) == 4
        # None diameter/correct render as empty cells, extra as JSON.
        assert ",,33,4.0,," in lines[2]
        assert '""nonintegral_value"":3.5' in lines[3]

    def test_json_parses_back(self):
        payload = json.loads(render_json(_records_for_roundtrip()))
        assert [record_from_dict(item) for item in payload] == _records_for_roundtrip()

    def test_jsonl_is_canonical_and_parses_back(self):
        text = render_jsonl(_records_for_roundtrip())
        lines = text.splitlines()
        assert len(lines) == 3
        assert [record_from_dict(json.loads(line)) for line in lines] == (
            _records_for_roundtrip()
        )
        # Canonical: re-rendering parsed records is byte-identical.
        reparsed = [record_from_dict(json.loads(line)) for line in lines]
        assert render_jsonl(reparsed) == text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown export format"):
            render_records([], "xml")


class TestExperimentStore:
    def test_missing_file_reads_as_empty(self, tmp_path):
        store = ExperimentStore(tmp_path / "none.jsonl")
        assert not store.exists()
        assert store.load_records() == []
        assert store.completed() == {}
        assert store.latest_header() is None

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        store = ExperimentStore(path)
        records = _records_for_roundtrip()
        store.append_record("a", 0, records[0])
        store.append_record("b", 1, records[1])
        # Simulate a writer killed mid-line: append half a JSON object.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"record","key":"c","ind')
        assert store.load_records() == records[:2]
        assert set(store.completed()) == {"a", "b"}

    def test_append_after_truncated_tail_starts_a_fresh_line(self, tmp_path):
        # Regression: appending onto a truncated tail used to merge the new
        # entry into the partial line, losing both -- a resume header
        # written after a SIGKILL would vanish, and with it the
        # grid-signature protection.
        path = tmp_path / "run.jsonl"
        store = ExperimentStore(path)
        records = _records_for_roundtrip()
        store.append_record("a", 0, records[0])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind":"record","key":"b","ind')
        store.begin_sweep(
            specs=[GraphSpec("cycle", 10)],
            algorithms=["x"],
            base_seed=0,
            signature="sig",
            jobs=1,
            resume=True,
        )
        assert store.latest_header() is not None
        assert store.latest_header()["signature"] == "sig"
        assert store.load_records() == records[:1]
        # The signature check is live again on the next attempt.
        with pytest.raises(ExperimentStoreError, match="different grid"):
            store.begin_sweep(
                specs=[GraphSpec("path", 10)],
                algorithms=["x"],
                base_seed=0,
                signature="other-sig",
                jobs=1,
                resume=True,
            )

    @pytest.mark.parametrize("garbage", [
        b"\xff\xfe garbage \x80",
        b'{"kind": "record", "record": {"family": 5}}',
        b'{"kind": "record", "key": "z", "index": "x", "record": RECORD}',
        b'{"kind": "record", "key": 7, "index": 0, "record": RECORD}',
        b'{"kind": "record", "key": "z", "index": true, "record": RECORD}',
        b"[" * 100_000,
    ], ids=["non-utf8", "no-key", "string-index", "int-key", "bool-index",
            "deep-nesting"])
    def test_garbage_lines_mid_file_are_dropped(self, tmp_path, garbage):
        """Unparseable lines anywhere are dropped (a resume recomputes
        what they held); they used to crash the reader mid-file."""
        records = _records_for_roundtrip()
        record = canonical_json(record_to_dict(records[2])).encode()
        path = tmp_path / "run.jsonl"
        store = ExperimentStore(path)
        store.append_record("a", 0, records[0])
        with open(path, "ab") as handle:
            handle.write(garbage.replace(b"RECORD", record) + b"\n")
        store.append_record("b", 1, records[1])
        assert store.load_records() == records[:2]
        assert set(store.completed()) == {"a", "b"}

    def test_records_load_in_grid_order_not_append_order(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        records = _records_for_roundtrip()
        store.append_record("late", 2, records[2])
        store.append_record("early", 0, records[0])
        store.append_record("mid", 1, records[1])
        assert store.load_records() == records

    def test_rows_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path / "bench.jsonl")
        store.append_row("table1|cycle[10]", {"n": 10, "rounds": 79})
        store.append_row("table1|cycle[12]", {"n": 12, "rounds": 94})
        assert store.load_rows() == [
            {"n": 10, "rounds": 79},
            {"n": 12, "rounds": 94},
        ]

    def test_begin_sweep_refuses_nonempty_without_resume(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        store.begin_sweep(
            specs=[GraphSpec("cycle", 10)],
            algorithms=["a"],
            base_seed=0,
            signature="sig",
            jobs=1,
        )
        with pytest.raises(ExperimentStoreError, match="already holds"):
            store.begin_sweep(
                specs=[GraphSpec("cycle", 10)],
                algorithms=["a"],
                base_seed=0,
                signature="sig",
                jobs=1,
            )

    def test_begin_sweep_refuses_mixed_grids(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        store.begin_sweep(
            specs=[GraphSpec("cycle", 10)],
            algorithms=["a"],
            base_seed=0,
            signature="sig-one",
            jobs=1,
        )
        with pytest.raises(ExperimentStoreError, match="different grid"):
            store.begin_sweep(
                specs=[GraphSpec("path", 10)],
                algorithms=["a"],
                base_seed=0,
                signature="sig-two",
                jobs=1,
                resume=True,
            )

    def test_header_carries_provenance(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        store.begin_sweep(
            specs=[GraphSpec("cycle", 10, seed=3)],
            algorithms=["two_approx"],
            base_seed=7,
            signature="sig",
            jobs=2,
        )
        header = store.latest_header()
        assert header["algorithms"] == ["two_approx"]
        assert header["base_seed"] == 7
        assert header["jobs"] == 2
        assert header["fault_model"] == "none"
        for retired in ("engine", "schedule_backend", "tier"):
            assert retired not in header
        assert header["specs"] == [
            {"family": "cycle", "num_nodes": 10, "diameter": None, "seed": 3}
        ]
        # git/python are environment-dependent but the keys must exist.
        assert "git" in header and "python" in header


#: Lines inserted into a real store: raw bytes, and JSON objects shaped
#: like store entries with arbitrary field values.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
_GARBAGE_LINES = st.one_of(
    st.binary(max_size=80),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["record", "row", "finish"]) | _JSON},
        optional={"key": _JSON, "index": _JSON, "record": _JSON, "row": _JSON},
    ).map(lambda entry: json.dumps(entry).encode()),
).map(lambda line: line.replace(b"\n", b""))


class TestStampedProvenance:
    """Run headers and writer locks keep their bytes."""

    def test_run_header_bytes(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        store.begin_sweep([GraphSpec("cycle", 8)], ["two_approx"], 3, "sig", 1)
        with open(store.path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
        del header["git"]  # the working tree's describe, whatever it is
        assert canonical_json(header) == (
            '{"algorithms":["two_approx"],"base_seed":3,"fault_model":"none",'
            '"jobs":1,"kind":"run","python":"' + platform.python_version()
            + '","resume":false,"schema":1,"signature":"sig","specs":'
            '[{"diameter":null,"family":"cycle","num_nodes":8,"seed":0}]}'
        )

    def test_writer_lock_bytes(self, tmp_path):
        lock = StoreWriterLock(str(tmp_path / "run.jsonl")).acquire()
        try:
            with open(lock.lock_path, encoding="utf-8") as handle:
                content = handle.read()
        finally:
            lock.release()
        assert content == canonical_json(
            {"pid": os.getpid(), "host": platform.node()}
        )


class TestStoreGarbageProperty:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), _GARBAGE_LINES), max_size=6))
    def test_inserted_lines_never_change_the_records(self, tmp_path_factory, junk):
        path = tmp_path_factory.mktemp("store") / "run.jsonl"
        store = ExperimentStore(path)
        store.begin_sweep(
            specs=[GraphSpec("cycle", 10, seed=3)], algorithms=["x"],
            base_seed=7, signature="sig", jobs=1,
        )
        records = _records_for_roundtrip()
        for index, record in enumerate(records):
            store.append_record(f"key-{index}", index, record)
        lines = path.read_bytes().splitlines()
        for position, line in sorted(junk, key=lambda item: -item[0]):
            lines.insert(position, line)
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert store.load_records() == records


class TestSweepGridPersistence:
    def _grid(self):
        return grid(["cycle", "path"], [10, 12], seed=2)

    def _algorithms(self):
        return resolve_algorithms(["classical_exact", "two_approx"])

    def test_fresh_run_persists_and_roundtrips(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        records = run_sweep_grid(
            self._grid(), self._algorithms(), base_seed=5, store=store
        )
        assert store.load_records() == records
        headers = store.run_headers()
        assert len(headers) == 1
        finish = [e for e in store.iter_entries() if e.get("kind") == "finish"]
        assert len(finish) == 1
        assert finish[0]["total_records"] == len(records) == 8
        assert finish[0]["resumed_records"] == 0
        assert finish[0]["wall_seconds"] >= 0

    def test_store_does_not_change_records(self, tmp_path):
        plain = run_sweep_grid(self._grid(), self._algorithms(), base_seed=5)
        stored = run_sweep_grid(
            self._grid(),
            self._algorithms(),
            base_seed=5,
            store=ExperimentStore(tmp_path / "run.jsonl"),
        )
        assert plain == stored

    def test_interrupted_run_keeps_completed_prefix_and_resumes(
        self, tmp_path, monkeypatch
    ):
        trace = tmp_path / "trace.log"
        monkeypatch.setenv(_TRACE_ENV, str(trace))
        specs = grid(["cycle"], [10, 12, 14, 16], seed=2)
        algorithms = {"traced": _traced_estimate}
        store = ExperimentStore(tmp_path / "run.jsonl")

        # Detonate on the third cell: the first two records must already
        # be on disk when the sweep dies.
        monkeypatch.setenv(_EXPLODE_ENV, "14")
        with pytest.raises(RuntimeError, match="injected failure at n=14"):
            run_sweep_grid(specs, algorithms, base_seed=3, store=store)
        assert len(store.load_records()) == 2

        # Resume with the fault cleared: only the missing cells run.
        monkeypatch.delenv(_EXPLODE_ENV)
        resumed = run_sweep_grid(
            specs, algorithms, base_seed=3, store=store, resume=True
        )
        invocations = [int(line) for line in trace.read_text().splitlines()]
        assert invocations == [10, 12, 14, 10, 12, 14, 16][:3] + [14, 16]

        # The merged record set is byte-identical to a fresh, uninterrupted
        # serial run.
        fresh = run_sweep_grid(
            specs,
            algorithms,
            base_seed=3,
            store=ExperimentStore(tmp_path / "fresh.jsonl"),
        )
        assert resumed == fresh
        assert render_jsonl(resumed) == render_jsonl(fresh)
        finish = [e for e in store.iter_entries() if e.get("kind") == "finish"]
        assert finish[-1]["resumed_records"] == 2

    def test_resume_of_complete_store_recomputes_nothing(
        self, tmp_path, monkeypatch
    ):
        trace = tmp_path / "trace.log"
        specs = grid(["cycle"], [10, 12], seed=2)
        algorithms = {"traced": _traced_estimate}
        store = ExperimentStore(tmp_path / "run.jsonl")
        first = run_sweep_grid(specs, algorithms, base_seed=3, store=store)
        monkeypatch.setenv(_TRACE_ENV, str(trace))
        again = run_sweep_grid(
            specs, algorithms, base_seed=3, store=store, resume=True
        )
        assert again == first
        assert not trace.exists()  # zero kernel invocations on resume

    def test_store_with_a_tier_header_resumes_without_recompute(
        self, tmp_path, monkeypatch
    ):
        """Headers written while the oracle kernel was a user selection
        stamp a ``tier``; such stores resume like any other."""
        trace = tmp_path / "trace.log"
        specs = grid(["cycle"], [10, 12], seed=2)
        algorithms = {"traced": _traced_estimate}
        path = tmp_path / "run.jsonl"
        first = run_sweep_grid(
            specs, algorithms, base_seed=3, store=ExperimentStore(path)
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "run" and "tier" not in header
        lines[0] = canonical_json({**header, "tier": "numpy"})
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        monkeypatch.setenv(_TRACE_ENV, str(trace))
        again = run_sweep_grid(
            specs, algorithms, base_seed=3, store=ExperimentStore(path),
            resume=True,
        )
        assert again == first
        assert not trace.exists()  # zero kernel invocations on resume

    def test_parallel_resume_matches_serial_fresh(self, tmp_path, monkeypatch):
        specs = grid(["cycle"], [10, 12, 14, 16], seed=2)
        algorithms = {"traced": _traced_estimate}
        store = ExperimentStore(tmp_path / "run.jsonl")
        monkeypatch.setenv(_EXPLODE_ENV, "14")
        with pytest.raises(RuntimeError):
            run_sweep_grid(specs, algorithms, base_seed=3, store=store)
        monkeypatch.delenv(_EXPLODE_ENV)
        resumed = run_sweep_grid(
            specs, algorithms, base_seed=3, store=store, resume=True,
            runner=BatchRunner(jobs=2),
        )
        fresh = run_sweep_grid(specs, algorithms, base_seed=3)
        assert resumed == fresh
        assert render_jsonl(store.load_records()) == render_jsonl(fresh)


@pytest.mark.slow
class TestKilledProcessResume:
    """The acceptance scenario: SIGKILL a parallel sweep, resume, compare.

    Parametrised over a clean grid and a faulty one (``--loss`` plus a
    tight ``--fault-timeout``): failure records written before the kill
    must resume exactly like successes, and the fault stream -- being a
    stateless hash of the cell's inputs -- must survive the interruption
    byte-for-byte.
    """

    FAMILIES = "cycle,clique_chain"
    SIZES = "32,48,64"
    ALGORITHMS = "classical_exact,two_approx"
    SEED = "5"

    def _sweep_argv(self, out, fault_flags=(), extra=()):
        return [
            sys.executable, "-m", "repro", "sweep",
            "--families", self.FAMILIES,
            "--sizes", self.SIZES,
            "--algorithms", self.ALGORITHMS,
            "--seed", self.SEED,
            "--out", str(out),
            *fault_flags,
            *extra,
        ]

    @pytest.mark.parametrize(
        "fault_flags",
        [(), ("--loss", "0.05", "--fault-timeout", "256")],
        ids=["clean", "lossy"],
    )
    def test_sigkilled_parallel_sweep_resumes_byte_identical(
        self, tmp_path, fault_flags
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            "src" + os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else "src"
        )
        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = tmp_path / "killed.jsonl"
        process = subprocess.Popen(
            self._sweep_argv(out, fault_flags, extra=("--jobs", "2")),
            cwd=repo_root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            # Kill as soon as at least one record is on disk; on a machine
            # fast enough to finish the whole grid first, the kill is a
            # no-op and resume degenerates to the (still asserted)
            # complete-store case.
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline and process.poll() is None:
                if out.exists() and b'"kind":"record"' in out.read_bytes():
                    break
                time.sleep(0.01)
            process.send_signal(signal.SIGKILL)
        finally:
            process.wait(timeout=60)

        persisted_before_resume = len(ExperimentStore(out).load_records())
        resume = subprocess.run(
            self._sweep_argv(out, fault_flags, extra=("--jobs", "2", "--resume")),
            cwd=repo_root,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert resume.returncode == 0, resume.stderr

        fresh_out = tmp_path / "fresh.jsonl"
        fresh = subprocess.run(
            self._sweep_argv(fresh_out, fault_flags),
            cwd=repo_root,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert fresh.returncode == 0, fresh.stderr

        resumed_records = ExperimentStore(out).load_records()
        fresh_records = ExperimentStore(fresh_out).load_records()
        assert len(resumed_records) == 12
        assert persisted_before_resume <= len(resumed_records)
        assert resumed_records == fresh_records
        assert render_jsonl(resumed_records) == render_jsonl(fresh_records)
        # And the CLI tables agree too (resume printed the merged table).
        assert resume.stdout == fresh.stdout
