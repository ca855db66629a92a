"""Tests for the provenance-aware shard merge (``repro.store.merge``).

A distributed run's shards can arrive in every degenerate shape a fleet
of killable workers produces: empty files (registered but never leased),
duplicated task keys (a requeued shard recomputed elsewhere while the
dead worker's partial file survives), truncated tails (killed mid-append)
and stray files from *other* grids.  The merge must fold all of the
benign shapes into the exact serial record list -- byte-identical,
independent of shard order and hash randomisation -- and refuse the
corrupting ones loudly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import repro
from repro.analysis.sweep import run_sweep_grid
from repro.cli import main as cli_main
from repro.dispatch import DispatchCoordinator, RemoteDispatch
from repro.dispatch.worker import run_worker
from repro.runner import GraphSpec, resolve_algorithms
from repro.service import fault_model_from_flags
from repro.store import (
    ExperimentStore,
    ExperimentStoreError,
    merge_shards,
    render_records,
)

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

BASE_SEED = 11


def _grid():
    specs = tuple(GraphSpec("cycle", n, seed=1) for n in (10, 14))
    table = resolve_algorithms(["classical_exact", "two_approx"])
    return specs, table


@pytest.fixture(scope="module")
def shard_fixture(tmp_path_factory):
    """One real two-worker remote run: its shards and the serial truth."""
    root = tmp_path_factory.mktemp("dispatch-merge")
    shard_dir = root / "shards"
    specs, table = _grid()
    serial = run_sweep_grid(specs, table, base_seed=BASE_SEED)

    coordinator = DispatchCoordinator(shard_size=1)
    coordinator.start()
    host, port = coordinator.address
    threads = [
        threading.Thread(
            target=run_worker,
            args=(host, port, str(shard_dir)),
            kwargs=dict(worker_id=f"w{index + 1}", once=True,
                        connect_wait=15.0, heartbeat_interval=0.5),
            daemon=True,
        )
        for index in range(2)
    ]
    for thread in threads:
        thread.start()
    try:
        coordinator.wait_for_workers(2, timeout=30.0)
        remote = run_sweep_grid(
            specs, table, base_seed=BASE_SEED,
            runner=RemoteDispatch(coordinator=coordinator, workers=2),
        )
    finally:
        coordinator.stop()
    for thread in threads:
        thread.join(timeout=15.0)
    assert remote == serial
    shards = sorted(str(shard_dir / name) for name in os.listdir(shard_dir))
    assert len(shards) == 2
    return {"shards": shards, "serial": serial, "root": root}


def _serial_canon(fixture):
    return render_records(fixture["serial"], "jsonl")


class TestMergeHappyPath:
    def test_merge_matches_serial(self, shard_fixture, tmp_path):
        out = str(tmp_path / "merged.jsonl")
        merged = merge_shards(shard_fixture["shards"], out_path=out)
        assert render_records(merged, "jsonl") == _serial_canon(shard_fixture)
        # the written store round-trips to the same records, and its
        # header names the source shards
        store = ExperimentStore(out)
        assert render_records(store.load_records(), "jsonl") == \
            _serial_canon(shard_fixture)
        header = store.latest_header()
        assert sorted(header["merged_from"]) == sorted(
            os.path.basename(path) for path in shard_fixture["shards"]
        )

    def test_shard_order_is_irrelevant(self, shard_fixture):
        forward = merge_shards(shard_fixture["shards"])
        backward = merge_shards(list(reversed(shard_fixture["shards"])))
        assert forward == backward == shard_fixture["serial"]

    def test_existing_output_refused(self, shard_fixture, tmp_path):
        out = tmp_path / "merged.jsonl"
        out.write_text("occupied\n")
        with pytest.raises(ExperimentStoreError, match="already exists"):
            merge_shards(shard_fixture["shards"], out_path=str(out))


class TestMergeEdgeCases:
    def test_empty_shard_tolerated(self, shard_fixture, tmp_path):
        empty = tmp_path / "shard-empty-w9.jsonl"
        empty.write_bytes(b"")
        merged = merge_shards(shard_fixture["shards"] + [str(empty)])
        assert merged == shard_fixture["serial"]
        # a missing file behaves like an empty one (never-created shard)
        merged = merge_shards(
            shard_fixture["shards"] + [str(tmp_path / "never-written.jsonl")]
        )
        assert merged == shard_fixture["serial"]

    def test_all_empty_is_an_error(self, tmp_path):
        empty = tmp_path / "shard-a.jsonl"
        empty.write_bytes(b"")
        with pytest.raises(ExperimentStoreError, match="nothing to merge"):
            merge_shards([str(empty)])
        with pytest.raises(ExperimentStoreError, match="no shard paths"):
            merge_shards([])

    def test_duplicate_keys_first_complete_wins(self, shard_fixture, tmp_path):
        # A full copy of one shard: every one of its keys now appears
        # twice, as after a requeue race.  The records are deterministic
        # in their keys, so dedup must reproduce the serial list exactly.
        duplicate = tmp_path / "shard-dup.jsonl"
        shutil.copy(shard_fixture["shards"][0], duplicate)
        merged = merge_shards(shard_fixture["shards"] + [str(duplicate)])
        assert render_records(merged, "jsonl") == _serial_canon(shard_fixture)

    def test_truncated_tail_tolerated(self, shard_fixture, tmp_path):
        # Kill-mid-append: drop the footer and cut the final *record*
        # line in half.  The tolerant reader silently loses that cell;
        # pairing the mutilated shard with the intact ones restores
        # completeness.
        truncated = tmp_path / "shard-trunc.jsonl"
        with open(shard_fixture["shards"][0], "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert json.loads(lines[-1])["kind"] == "finish"
        body = lines[:-1]
        assert json.loads(body[-1])["kind"] == "record"
        body[-1] = body[-1][: len(body[-1]) // 2]
        truncated.write_text("".join(body))

        intact = merge_shards([shard_fixture["shards"][0]],
                              require_complete=False)
        cut = merge_shards([str(truncated)], require_complete=False)
        assert len(cut) == len(intact) - 1  # exactly the cut cell is lost

        merged = merge_shards([str(truncated)] + shard_fixture["shards"])
        assert render_records(merged, "jsonl") == _serial_canon(shard_fixture)

    def test_missing_cells_require_allow_partial(self, shard_fixture):
        # One shard alone covers only its own cells (shard_size=1 spread
        # work across both workers): completeness must be opt-out.
        one = [shard_fixture["shards"][0]]
        with pytest.raises(ExperimentStoreError, match="not contiguous"):
            merge_shards(one)
        partial = merge_shards(one, require_complete=False)
        assert 0 < len(partial) < len(shard_fixture["serial"])
        serial_texts = render_records(shard_fixture["serial"], "jsonl").splitlines()
        for line in render_records(partial, "jsonl").splitlines():
            assert line in serial_texts

    def test_records_without_header_refused(self, shard_fixture, tmp_path):
        headerless = tmp_path / "shard-headerless.jsonl"
        with open(shard_fixture["shards"][0], "r", encoding="utf-8") as handle:
            lines = [
                line for line in handle
                if json.loads(line).get("kind") == "record"
            ]
        headerless.write_text("".join(lines))
        with pytest.raises(ExperimentStoreError, match="no run header"):
            merge_shards([str(headerless)])

    def test_mismatched_signature_refused(self, shard_fixture, tmp_path):
        # The same grid under a different seed stream: different task
        # keys, different signature -- a silent mix would corrupt.
        specs, table = _grid()
        other_dir = tmp_path / "other"
        coordinator = DispatchCoordinator()
        coordinator.start()
        host, port = coordinator.address
        thread = threading.Thread(
            target=run_worker,
            args=(host, port, str(other_dir)),
            kwargs=dict(worker_id="w1", once=True, connect_wait=15.0,
                        heartbeat_interval=0.5),
            daemon=True,
        )
        thread.start()
        try:
            coordinator.wait_for_workers(1, timeout=30.0)
            run_sweep_grid(
                specs, table, base_seed=BASE_SEED + 1,
                runner=RemoteDispatch(coordinator=coordinator),
            )
        finally:
            coordinator.stop()
        thread.join(timeout=15.0)
        foreign = sorted(
            str(other_dir / name) for name in os.listdir(other_dir)
        )
        with pytest.raises(ExperimentStoreError, match="different grid"):
            merge_shards(shard_fixture["shards"] + foreign)


class TestMergeFaultModel:
    def test_merged_header_keeps_the_fault_model(self, tmp_path):
        """A merge of shards computed under a fault model stamps that
        model on the merged run header, not the null model."""
        specs, table = _grid()
        fault = fault_model_from_flags(loss=0.1)
        shard = str(tmp_path / "shard-lossy-w1.jsonl")
        run_sweep_grid(specs, table, base_seed=BASE_SEED,
                       store=ExperimentStore(shard), fault=fault)
        out = str(tmp_path / "merged.jsonl")
        merge_shards([shard], out_path=out)
        header = ExperimentStore(out).latest_header()
        assert header["fault_model"] == fault.describe()
        assert header["fault_model"] == \
            ExperimentStore(shard).latest_header()["fault_model"]

    def test_mismatched_fault_model_refused(self, shard_fixture, tmp_path):
        relabelled = tmp_path / "shard-relabelled-w9.jsonl"
        with open(shard_fixture["shards"][1], encoding="utf-8") as handle:
            entries = [json.loads(line) for line in handle]
        for entry in entries:
            if entry.get("kind") == "run":
                entry["fault_model"] = fault_model_from_flags(
                    loss=0.1
                ).describe()
        relabelled.write_text(
            "".join(json.dumps(entry) + "\n" for entry in entries)
        )
        with pytest.raises(ExperimentStoreError, match="fault model"):
            merge_shards([shard_fixture["shards"][0], str(relabelled)])


class TestHashSeedIndependence:
    def test_merged_bytes_stable_across_hash_seeds(self, shard_fixture):
        """PYTHONHASHSEED must not leak into merged ordering or content:
        ordering is by integer grid index and keys are CRC-derived."""
        script = (
            "import sys\n"
            "from repro.store import merge_shards, render_records\n"
            "records = merge_shards(sys.argv[1:])\n"
            "sys.stdout.write(render_records(records, 'jsonl'))\n"
        )
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                part for part in (SRC_ROOT, env.get("PYTHONPATH")) if part
            )
            env["PYTHONHASHSEED"] = hash_seed
            result = subprocess.run(
                [sys.executable, "-c", script] + shard_fixture["shards"],
                env=env, capture_output=True, check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].decode() == _serial_canon(shard_fixture)


class TestMergeCLI:
    def test_repro_merge_writes_canonical_store(self, shard_fixture, tmp_path,
                                                capsys):
        out = str(tmp_path / "merged.jsonl")
        code = cli_main(["merge", *shard_fixture["shards"], "--out", out])
        captured = capsys.readouterr()
        assert code == 0
        assert "merged from 2 shard(s)" in captured.err
        store = ExperimentStore(out)
        assert render_records(store.load_records(), "jsonl") == \
            _serial_canon(shard_fixture)

    def test_repro_merge_partial_needs_flag(self, shard_fixture, tmp_path,
                                            capsys):
        one = shard_fixture["shards"][0]
        assert cli_main(["merge", one]) == 2
        assert "--allow-partial" in capsys.readouterr().err
        assert cli_main(["merge", one, "--allow-partial"]) == 0

    def test_repro_merge_refuses_foreign_shards(self, shard_fixture, tmp_path,
                                                capsys):
        # a store written by a *serial* sweep is not a shard of this grid
        foreign = str(tmp_path / "foreign.jsonl")
        specs, table = _grid()
        run_sweep_grid(specs, table, base_seed=99,
                       store=ExperimentStore(foreign))
        code = cli_main(["merge", shard_fixture["shards"][0], foreign])
        assert code == 2
        assert "different grid" in capsys.readouterr().err
