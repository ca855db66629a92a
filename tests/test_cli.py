"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import contextlib
import io
import json

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.store import ExperimentStore


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_diameter_defaults(self):
        args = build_parser().parse_args(["diameter"])
        assert args.family == "clique_chain"
        assert args.nodes == 24
        assert args.oracle_mode == "reference"

    def test_table1_requires_nodes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1"])

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["diameter", "--family", "bogus"])


def _subcommands(parser):
    """``{name: sub-parser}`` of ``parser``'s sub-commands (``{}``: none)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _every_command_argv():
    """Each command of the full parser, and each nested one, as an argv."""
    argvs = []
    for name, sub in _subcommands(build_parser()).items():
        argvs.append([name])
        argvs.extend([name, nested] for nested in _subcommands(sub))
    return argvs


def _parse_output(parser, argv):
    """What ``parser.parse_args(argv)`` prints, and how it exits."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            parser.parse_args(argv)
            status = None
        except SystemExit as stop:
            status = stop.code
    return stdout.getvalue(), stderr.getvalue(), status


class TestOneCommandParser:
    """``main`` builds only the sub-parser of the command it runs; nothing
    a user sees may differ from the full parser's."""

    def test_the_command_table_is_the_full_parsers_command_list(self):
        assert list(cli._COMMANDS) == list(_subcommands(build_parser()))

    def test_only_the_named_command_is_built(self):
        assert list(_subcommands(build_parser("export"))) == ["export"]

    @pytest.mark.parametrize("argv", _every_command_argv(), ids=" ".join)
    def test_help_prints_the_same_bytes(self, argv):
        full = _parse_output(build_parser(), argv + ["--help"])
        one = _parse_output(build_parser(argv[0]), argv + ["--help"])
        assert full[2] == 0 and full[0].startswith("usage: repro " + " ".join(argv))
        assert one == full

    @pytest.mark.parametrize("argv", [
        ["export"],
        ["export", "--store", "run.jsonl", "surplus"],
        ["export", "--store", "run.jsonl", "--format", "xml"],
        ["diameter", "--family", "bogus"],
        ["jobs"],
        ["jobs", "bogus"],
        ["worker", "join"],
        ["table1"],
    ])
    def test_usage_errors_print_the_same_bytes(self, argv):
        full = _parse_output(build_parser(), argv)
        assert full[2] == 2 and full[1].startswith("usage: repro")
        assert _parse_output(build_parser(argv[0]), argv) == full

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        listing = capsys.readouterr().out
        for name in cli._COMMANDS:
            assert f"    {name}" in listing


class TestCommands:
    def test_diameter_command_runs_and_agrees(self, capsys):
        exit_code = main(["diameter", "--family", "clique_chain", "--nodes", "12",
                          "--seed", "1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "classical exact" in output
        assert "quantum exact" in output
        assert "true diameter" in output

    def test_diameter_command_controlled_family(self, capsys):
        exit_code = main(["diameter", "--family", "controlled", "--nodes", "16",
                          "--diameter", "4", "--seed", "2"])
        assert exit_code == 0
        assert "true diameter=4" in capsys.readouterr().out

    def test_approx_command_classical_only(self, capsys):
        exit_code = main(["approx", "--family", "cycle", "--nodes", "14", "--seed", "3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "2-approximation" in output
        assert "3/2-approx" in output
        assert "Theorem 4" not in output

    def test_approx_command_with_quantum(self, capsys):
        exit_code = main(["approx", "--family", "star", "--nodes", "15",
                          "--quantum", "--seed", "4"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Theorem 4" in output

    def test_table1_command(self, capsys):
        exit_code = main(["table1", "--nodes", "10000", "--diameter", "20"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Exact computation" in output
        assert "3/2-approximation" in output

    def test_table1_default_diameter_and_memory(self, capsys):
        exit_code = main(["table1", "--nodes", "4096", "--memory", "8"])
        assert exit_code == 0
        assert "Theorem 1" in capsys.readouterr().out

    def test_sweep_command_serial(self, capsys):
        exit_code = main([
            "sweep", "--families", "cycle", "--sizes", "10,12",
            "--algorithms", "classical_exact,two_approx",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "cycle[10]" in output and "cycle[12]" in output
        assert "classical_exact" in output and "two_approx" in output

    def test_sweep_command_parallel_matches_serial(self, capsys):
        argv = ["sweep", "--families", "cycle,path", "--sizes", "10,12",
                "--algorithms", "classical_exact"]
        assert main(argv) == 0
        serial_output = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        parallel_output = capsys.readouterr().out
        assert serial_output == parallel_output

    def test_sweep_command_rejects_unknown_family(self, capsys):
        exit_code = main(["sweep", "--families", "bogus"])
        assert exit_code == 2
        assert "unknown family" in capsys.readouterr().err

    def test_sweep_command_controlled_requires_diameter(self, capsys):
        exit_code = main(["sweep", "--families", "controlled", "--sizes", "12"])
        assert exit_code == 2
        assert "--diameter" in capsys.readouterr().err
        assert main(["sweep", "--families", "controlled", "--sizes", "12",
                     "--diameter", "4", "--algorithms", "two_approx"]) == 0

    def test_sweep_command_rejects_unknown_algorithm(self, capsys):
        exit_code = main(["sweep", "--algorithms", "bogus"])
        assert exit_code == 2
        assert "unknown sweep algorithm" in capsys.readouterr().err

    def test_sweep_command_rejects_malformed_sizes(self, capsys):
        exit_code = main(["sweep", "--families", "cycle", "--sizes", "24,abc"])
        assert exit_code == 2
        assert "invalid literal" in capsys.readouterr().err

    def test_sweep_command_new_families_run(self, capsys):
        exit_code = main([
            "sweep", "--families", "ring_of_cliques,random_regular,preferential",
            "--sizes", "16", "--algorithms", "two_approx", "--seed", "1",
        ])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "ring_of_cliques" in output
        assert "random_regular" in output
        assert "preferential" in output

    def test_sweep_seed_streams_are_independent(self, capsys, monkeypatch):
        # Regression: --seed used to be passed verbatim as both the graph
        # construction seed and the algorithm base seed, correlating the
        # two randomness streams.  Execution flows through the shared
        # grid-request path, so the interception point lives there.
        import repro.service.gridspec as gridspec

        captured = {}

        def fake_run_sweep_grid(specs, algorithms, runner=None, base_seed=0,
                                store=None, resume=False, fault=None,
                                progress=None, should_stop=None):
            captured["graph_seed"] = specs[0].seed
            captured["base_seed"] = base_seed
            return []

        monkeypatch.setattr(gridspec, "run_sweep_grid", fake_run_sweep_grid)
        assert main(["sweep", "--families", "cycle", "--sizes", "10",
                     "--seed", "7"]) == 0
        assert captured["graph_seed"] != captured["base_seed"]
        assert captured["graph_seed"] != 7
        assert captured["base_seed"] != 7
        # ... and both streams derive deterministically from --seed.
        first = dict(captured)
        assert main(["sweep", "--families", "cycle", "--sizes", "10",
                     "--seed", "7"]) == 0
        assert captured == first


class TestStoreCommands:
    SWEEP = ["sweep", "--families", "cycle", "--sizes", "10,12",
             "--algorithms", "classical_exact,two_approx", "--seed", "3"]

    def test_sweep_resume_requires_out(self, capsys):
        exit_code = main(["sweep", "--resume"])
        assert exit_code == 2
        assert "--resume requires --out" in capsys.readouterr().err

    def test_sweep_out_persists_and_exports(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(self.SWEEP + ["--out", str(out)]) == 0
        table = capsys.readouterr().out
        store = ExperimentStore(out)
        assert len(store.load_records()) == 4
        assert store.latest_header()["algorithms"] == [
            "classical_exact", "two_approx",
        ]

        # table export reproduces the sweep's printed table
        assert main(["export", "--store", str(out)]) == 0
        assert capsys.readouterr().out == table

        # csv export to a file
        csv_path = tmp_path / "run.csv"
        assert main(["export", "--store", str(out), "--format", "csv",
                     "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0].startswith("family,algorithm")
        assert len(lines) == 5

        # json export parses
        assert main(["export", "--store", str(out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4

    def test_sweep_out_refuses_existing_store_without_resume(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(self.SWEEP + ["--out", str(out)]) == 0
        assert main(self.SWEEP + ["--out", str(out)]) == 2
        assert "already holds" in capsys.readouterr().err

    def test_sweep_resume_completes_and_matches(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(self.SWEEP + ["--out", str(out)]) == 0
        first = capsys.readouterr().out
        assert main(self.SWEEP + ["--out", str(out), "--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_export_missing_store(self, capsys, tmp_path):
        exit_code = main(["export", "--store", str(tmp_path / "nope.jsonl")])
        assert exit_code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_export_empty_store(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        exit_code = main(["export", "--store", str(empty)])
        assert exit_code == 2
        assert "no records" in capsys.readouterr().err


#: A stub harness: fast, deterministic, controlled via an env variable.
_STUB_HARNESS = """\
import os


def run_benchmark(smoke=False):
    return {"headline_speedup": float(os.environ.get("STUB_SPEEDUP", "4.0")),
            "smoke": smoke}
"""


class TestBenchCommand:
    def _bench_dir(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "bench_engine_overhead.py").write_text(_STUB_HARNESS)
        return bench_dir

    def test_missing_dir(self, capsys, tmp_path):
        exit_code = main(["bench", "--dir", str(tmp_path / "nope")])
        assert exit_code == 2
        assert "not found" in capsys.readouterr().err

    def test_update_then_compare_ok(self, capsys, tmp_path, monkeypatch):
        bench_dir = self._bench_dir(tmp_path)
        baselines = tmp_path / "BENCH_baselines.json"
        monkeypatch.setenv("STUB_SPEEDUP", "4.0")
        assert main(["bench", "--smoke", "--dir", str(bench_dir),
                     "--baselines", str(baselines), "--update"]) == 0
        capsys.readouterr()
        payload = json.loads(baselines.read_text())
        assert payload["smoke"]["engine"] == 4.0

        # within tolerance: 3.1 > 4.0 * 0.75
        monkeypatch.setenv("STUB_SPEEDUP", "3.1")
        assert main(["bench", "--smoke", "--dir", str(bench_dir),
                     "--baselines", str(baselines)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_regression_fails(self, capsys, tmp_path, monkeypatch):
        bench_dir = self._bench_dir(tmp_path)
        baselines = tmp_path / "BENCH_baselines.json"
        monkeypatch.setenv("STUB_SPEEDUP", "4.0")
        assert main(["bench", "--smoke", "--dir", str(bench_dir),
                     "--baselines", str(baselines), "--update"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("STUB_SPEEDUP", "2.9")  # < 4.0 * 0.75
        assert main(["bench", "--smoke", "--dir", str(bench_dir),
                     "--baselines", str(baselines)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSED" in captured.out
        assert "regressed" in captured.err

    def test_no_baseline_passes(self, capsys, tmp_path, monkeypatch):
        bench_dir = self._bench_dir(tmp_path)
        monkeypatch.setenv("STUB_SPEEDUP", "1.0")
        assert main(["bench", "--smoke", "--dir", str(bench_dir),
                     "--baselines", str(tmp_path / "none.json")]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_full_and_smoke_baselines_are_separate(self, tmp_path, monkeypatch):
        bench_dir = self._bench_dir(tmp_path)
        baselines = tmp_path / "BENCH_baselines.json"
        monkeypatch.setenv("STUB_SPEEDUP", "4.0")
        assert main(["bench", "--smoke", "--dir", str(bench_dir),
                     "--baselines", str(baselines), "--update"]) == 0
        monkeypatch.setenv("STUB_SPEEDUP", "9.0")
        assert main(["bench", "--dir", str(bench_dir),
                     "--baselines", str(baselines), "--update"]) == 0
        payload = json.loads(baselines.read_text())
        assert payload["smoke"]["engine"] == 4.0
        assert payload["full"]["engine"] == 9.0
