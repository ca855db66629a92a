"""The speed harnesses' one entry (``benchmarks/_harness.py``) and floors.

Each ``benchmarks/bench_*.py`` speed harness gates its own headline when
it runs, as a script or under pytest.  These tests drive the shared entry
with a stub harness, and read the seven real harnesses' floors -- loading
each file by path, running nothing -- so no floor can drop silently.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)

#: Each harness's headline floor with ``--smoke``: its earlier smoke bar
#: or 75% of the last committed smoke baseline, whichever is higher.
SMOKE_FLOORS = {
    "bench_dispatch.py": 1.35,
    "bench_engine_overhead.py": 10.4325,
    "bench_faults.py": 3.0,
    "bench_graphcore.py": 17.4825,
    "bench_quantum.py": 2.9475,
    "bench_runner_scaling.py": 0.6,
    "bench_vector.py": 1.995,
}

#: Each harness's headline floor in full mode (``None``: the harness
#: gates on core-count-dependent bars in its ``check`` instead).
FULL_FLOORS = {
    "bench_dispatch.py": None,
    "bench_engine_overhead.py": 3.0,
    "bench_faults.py": 1.5,
    "bench_graphcore.py": 5.0,
    "bench_quantum.py": 5.0,
    "bench_runner_scaling.py": None,
    "bench_vector.py": 5.0,
}


def _read(filename):
    with open(os.path.join(BENCH_DIR, filename), encoding="utf-8") as handle:
        return handle.read()


@pytest.fixture
def load(monkeypatch):
    """Load a file of ``benchmarks/`` by path (it imports ``_harness``)."""
    monkeypatch.syspath_prepend(BENCH_DIR)

    def loader(filename):
        name = "_bench_" + os.path.splitext(filename)[0]
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(BENCH_DIR, filename)
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return loader


@pytest.fixture
def stub(load, tmp_path):
    """A stub harness whose headline is the ``--headline`` it is given."""
    harness = load("_harness.py")

    def run_benchmark(smoke=False, headline=4.0):
        return {"smoke": smoke, "headline_speedup": headline}

    def make(check=None):
        stub = harness.Harness(
            run_benchmark, str(tmp_path / "default.json"),
            smoke_floor=2.0, full_floor=5.0, check=check,
        )
        parser = stub.parser()
        parser.add_argument("--headline", type=float)
        return lambda *argv: stub.main(list(argv), parser=parser)

    return make


class TestHarnessEntry:
    def test_report_written_to_out(self, stub, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert stub()("--smoke", "--headline", "2.5", "--out", str(out)) == 0
        assert json.loads(out.read_text()) == {
            "smoke": True, "headline_speedup": 2.5,
        }
        assert f"written to {out}" in capsys.readouterr().out
        assert not (tmp_path / "default.json").exists()

    def test_exits_1_below_the_floor_and_0_at_it(self, stub, tmp_path, capsys):
        run, out = stub(), str(tmp_path / "r.json")
        assert run("--headline", "5.0", "--out", out) == 0
        assert run("--headline", "4.99", "--out", out) == 1
        assert "below the full floor 5.0x" in capsys.readouterr().err
        assert run("--smoke", "--headline", "2.0", "--out", out) == 0
        assert run("--smoke", "--headline", "1.99", "--out", out) == 1
        assert "below the smoke floor 2.0x" in capsys.readouterr().err

    def test_smoke_and_full_floors_are_separate(self, stub, tmp_path):
        run, out = stub(), str(tmp_path / "r.json")
        assert run("--smoke", "--headline", "3.0", "--out", out) == 0
        assert run("--headline", "3.0", "--out", out) == 1

    def test_a_failing_check_fails_both_modes(self, stub, tmp_path, capsys):
        run = stub(check=lambda report: ["records identical"])
        out = str(tmp_path / "r.json")
        assert run("--headline", "9.0", "--out", out) == 1
        assert run("--smoke", "--headline", "9.0", "--out", out) == 1
        assert "FAIL: records identical" in capsys.readouterr().err

    def test_gate_raises_on_what_main_fails(self, load, tmp_path):
        harness = load("_harness.py")
        gate = harness.Harness(
            lambda smoke=False: {}, str(tmp_path / "r.json"),
            smoke_floor=2.0, full_floor=None,
        ).gate
        gate({"smoke": False, "headline_speedup": 0.1})  # no full floor
        with pytest.raises(AssertionError, match="below the smoke floor"):
            gate({"smoke": True, "headline_speedup": 1.0})
        assert json.loads((tmp_path / "r.json").read_text())["smoke"] is True


class TestHarnessFloors:
    @pytest.mark.parametrize("filename", sorted(SMOKE_FLOORS))
    def test_floors_are_pinned(self, load, filename):
        module = load(filename)
        harness = module.HARNESS
        assert harness.run_benchmark is module.run_benchmark
        assert harness.smoke_floor == module.SMOKE_FLOOR
        assert harness.smoke_floor == pytest.approx(SMOKE_FLOORS[filename])
        assert harness.full_floor == FULL_FLOORS[filename]

    def test_every_speed_harness_is_pinned(self):
        speed = {
            name for name in os.listdir(BENCH_DIR)
            if name.startswith("bench_")
            and "HARNESS = Harness(" in _read(name)
        }
        assert speed == set(SMOKE_FLOORS)

    def test_dispatch_identity_gates_run_from_the_script_entry(self, load):
        dispatch = load("bench_dispatch.py")
        straggler = {
            "adaptive_identical": True, "merge_identical": True,
            "steals": 1, "speculative_leases": 0, "speedup": 2.0,
        }
        report = {
            "smoke": True, "cpu_count": 2, "headline_speedup": 1.5,
            "remote_identical": True, "merge_identical": True,
            "merged_store_identical": True, "shards": 2,
            "speedup": 0.8, "overhead_ratio": 2.0, "straggler": straggler,
        }
        assert dispatch.HARNESS.failures(report) == []
        broken = dict(report, remote_identical=False,
                      straggler=dict(straggler, merge_identical=False))
        assert dispatch.HARNESS.failures(broken) == [
            "remote export identical to serial",
            "straggler merge identical to serial",
        ]

    def test_runner_speed_gates_apply_in_full_mode_only(self, load):
        runner = load("bench_runner_scaling.py")
        report = {
            "smoke": True, "headline_speedup": 1.0,
            "grid": {"records_identical": True, "speedup": 1.0,
                     "ideal_speedup": 2},
            "hot_path": {"results_identical": True, "keying_speedup": 1.0},
        }
        assert runner.check(report) == []
        assert runner.check(dict(report, smoke=False)) == ["keying speedup >= 1.2x"]

