"""Concurrent-access tests for the experiment store and its writer lock.

The experiment service turned the store from a single-process file into
a shared resource: the daemon serves a job's partial records while the
job appends them, and two processes must never interleave writes.  These tests pin the two halves of that contract:

* **readers during writes** -- a reader scanning mid-append (or after a
  crash truncated the tail mid-record) sees every complete record and
  never a corrupt one;
* **the advisory writer lock** -- mutual exclusion across processes,
  holder-pid diagnostics, stale-lock breaking for dead holders, and the
  ``run_sweep_grid(store=...)`` integration.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from repro.analysis.sweep import SweepRecord, run_sweep_grid
from repro.runner import grid, resolve_algorithms
from repro.store import (
    ExperimentStore,
    StoreLockError,
    StoreWriterLock,
    iter_jsonl_entries,
)

_REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: A child process that appends ``count`` records to a store, pausing
#: ``pause`` seconds between appends so a parent can scan mid-write.
_WRITER_SCRIPT = """\
import sys
from repro.store import ExperimentStore
from repro.analysis.sweep import SweepRecord

path, count, pause = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
store = ExperimentStore(path)
import time
for index in range(count):
    record = SweepRecord(
        family=f"cycle[{index}]", num_nodes=10, algorithm="classical_exact",
        value=float(index), rounds=index, correct=True, diameter=index,
    )
    store.append_record(f"key-{index:04d}", index, record)
    time.sleep(pause)
print("done", flush=True)
"""


def _record(index: int) -> SweepRecord:
    return SweepRecord(
        family=f"cycle[{index}]", num_nodes=10, algorithm="classical_exact",
        value=float(index), rounds=index, correct=True, diameter=index,
    )


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class TestReaderDuringWrites:
    def test_reader_never_sees_corrupt_records(self, tmp_path):
        """Scan continuously while a subprocess writer appends."""
        path = str(tmp_path / "run.jsonl")
        proc = subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, path, "40", "0.005"],
            env=_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            seen = 0
            deadline = time.monotonic() + 30
            while proc.poll() is None and time.monotonic() < deadline:
                store = ExperimentStore(path)
                if store.exists():
                    records = store.load_records()
                    keys = store.completed()
                    # every scanned record is complete and well-formed
                    for index, record in enumerate(records):
                        assert record == _record(index)
                    assert len(keys) >= seen  # monotone durable progress
                    seen = max(seen, len(keys))
            assert proc.wait(timeout=30) == 0
        finally:
            proc.kill()
        assert len(ExperimentStore(path).load_records()) == 40

    def test_mid_record_truncation_drops_only_tail(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        store = ExperimentStore(path)
        for index in range(3):
            store.append_record(f"key-{index}", index, _record(index))
        # SIGKILL-style crash: the last line is cut mid-record
        full = open(path, "rb").read()
        cut = full.rfind(b'"kind"')  # inside the final record's JSON
        assert cut > 0
        with open(path, "wb") as handle:
            handle.write(full[:cut])

        survivors = ExperimentStore(path).load_records()
        assert survivors == [_record(0), _record(1)]
        assert set(ExperimentStore(path).completed()) == {"key-0", "key-1"}

        # the newline guard must keep the next append parseable: the
        # partial line is terminated first, then the new record lands
        store.append_record("key-9", 9, _record(9))
        records = ExperimentStore(path).load_records()
        assert records == [_record(0), _record(1), _record(9)]
        for entry in iter_jsonl_entries(path):
            json.dumps(entry)  # every surviving entry is valid JSON


class TestWriterLock:
    def test_mutual_exclusion_and_holder_diagnostics(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        with store.acquire_writer():
            with pytest.raises(StoreLockError) as info:
                store.acquire_writer().acquire()
            message = str(info.value)
            assert str(os.getpid()) in message  # names the holder pid
            assert ".lock" in message
        # released on exit: the next writer gets in
        with store.acquire_writer():
            pass

    def test_lock_file_removed_on_release(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        lock = store.acquire_writer()
        lock.acquire()
        assert os.path.exists(lock.lock_path)
        lock.release()
        assert not os.path.exists(lock.lock_path)

    def test_stale_lock_of_dead_holder_is_broken(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        lock = store.acquire_writer()
        # forge a lock held by a dead pid on this host
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True,
        )
        dead_pid = int(proc.stdout.strip())
        import platform
        with open(lock.lock_path, "w", encoding="utf-8") as handle:
            json.dump({"pid": dead_pid, "host": platform.node()}, handle)
        with store.acquire_writer():  # steals the stale lock
            pass

    def test_unreadable_lock_is_stale(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        lock = store.acquire_writer()
        with open(lock.lock_path, "w", encoding="utf-8") as handle:
            handle.write("not json{")
        with store.acquire_writer():
            pass

    def test_timeout_waits_for_release(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        holder = store.acquire_writer()
        holder.acquire()

        import threading
        released = []

        def release_soon():
            time.sleep(0.3)
            holder.release()
            released.append(True)

        thread = threading.Thread(target=release_soon)
        thread.start()
        with store.acquire_writer(timeout=5.0, poll=0.02):
            assert released  # only acquired after the holder let go
        thread.join()

    def test_exclusion_across_processes(self, tmp_path):
        """A second *process* cannot write while the lock is held."""
        store = ExperimentStore(tmp_path / "run.jsonl")
        script = (
            "import sys\n"
            "from repro.store import ExperimentStore, StoreLockError\n"
            "store = ExperimentStore(sys.argv[1])\n"
            "try:\n"
            "    store.acquire_writer().acquire()\n"
            "except StoreLockError:\n"
            "    sys.exit(42)\n"
            "sys.exit(0)\n"
        )
        with store.acquire_writer():
            proc = subprocess.run(
                [sys.executable, "-c", script, store.path],
                env=_env(), timeout=30,
            )
            assert proc.returncode == 42
        # after release the child acquires cleanly
        proc = subprocess.run(
            [sys.executable, "-c", script, store.path], env=_env(), timeout=30,
        )
        assert proc.returncode == 0


class TestSweepIntegration:
    def test_run_sweep_grid_takes_the_writer_lock(self, tmp_path):
        store = ExperimentStore(tmp_path / "run.jsonl")
        specs = grid(["cycle"], [10], seed=1)
        algorithms = resolve_algorithms(["classical_exact"])
        with store.acquire_writer():
            with pytest.raises(StoreLockError):
                run_sweep_grid(specs, algorithms, store=store)
        # lock released by the failed attempt's holder: sweep proceeds
        records = run_sweep_grid(specs, algorithms, store=store)
        assert len(records) == 1
        assert store.load_records() == records
