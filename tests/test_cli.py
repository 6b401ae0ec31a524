"""The command-line interface."""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_args(self):
        args = build_parser().parse_args(["figure", "fig7", "--fast"])
        assert args.name == "fig7"
        assert args.fast


class TestTable1:
    def test_prints_paper_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "high-epsilon" in out
        assert "100,000" in out
        assert "zero-epsilon" in out


class TestSweep:
    def test_runs_one_configuration(self, capsys):
        code = main(
            [
                "sweep",
                "--mpl",
                "2",
                "--level",
                "high",
                "--duration",
                "4000",
                "--warmup",
                "500",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput (tx/s)" in out

    def test_explicit_bounds(self, capsys):
        assert main(["sweep", "--mpl", "1", "--duration", "3000"]) == 0
        assert "aborts" in capsys.readouterr().out

    def test_profile_flag_prints_profile_and_counters(self, capsys):
        code = main(
            [
                "sweep",
                "--mpl",
                "1",
                "--duration",
                "2000",
                "--warmup",
                "200",
                "--profile",
                "--profile-top",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "perf counters:" in out
        assert "events dispatched" in out
        assert "throughput (tx/s)" in out


class TestBenchHotpath:
    def test_quick_mode_never_writes_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_hotpath.json"
        code = main(["bench-hotpath", "--quick", "--baseline", str(baseline)])
        assert code == 0
        assert not baseline.exists()
        out = capsys.readouterr().out
        assert "smoke_figure" in out

    def test_writes_then_compares_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_hotpath.json"
        assert main(
            ["bench-hotpath", "--repeats", "1", "--baseline", str(baseline)]
        ) == 0
        assert baseline.exists()
        capsys.readouterr()
        assert main(
            ["bench-hotpath", "--repeats", "1", "--baseline", str(baseline)]
        ) == 0
        out = capsys.readouterr().out
        assert "vs. baseline" in out
        assert "speedup" in out


    def test_calls_guard(self, tmp_path, capsys):
        baseline = tmp_path / "BENCH_hotpath.json"
        args = ["bench-hotpath", "--quick", "--calls-guard", "--baseline", str(baseline)]
        assert main(args) == 1
        assert "no baseline" in capsys.readouterr().out
        assert main(
            ["bench-hotpath", "--repeats", "1", "--baseline", str(baseline)]
        ) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "calls guard passed" in capsys.readouterr().out
        report = json.loads(baseline.read_text(encoding="utf-8"))
        report["smoke"]["calls_per_commit"] *= 0.9
        baseline.write_text(json.dumps(report), encoding="utf-8")
        assert main(args) == 1
        assert "calls-per-commit guard FAILED" in capsys.readouterr().out


class TestGenWorkload:
    def test_writes_trace(self, tmp_path, capsys):
        out_file = tmp_path / "load.trace"
        code = main(["gen-workload", str(out_file), "--count", "7"])
        assert code == 0
        assert "wrote 7 transactions" in capsys.readouterr().out
        from repro.workload.trace import read_trace

        assert len(read_trace(out_file)) == 7


class TestFigure:
    def test_unknown_figure(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_table1_style_figure_runs_fast(self, capsys):
        # The cheapest real figure at a tiny duration; still end-to-end.
        code = main(
            [
                "figure",
                "fig11",
                "--duration",
                "2500",
                "--reps",
                "1",
                "--no-chart",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "TEL=" in out


class TestServeAndRunTrace:
    def test_round_trip_over_tcp(self, tmp_path, capsys):
        from repro.engine.database import Database
        from repro.net.server import TransactionServer

        # Generate a small trace against the paper id space.
        trace = tmp_path / "load.trace"
        main(["gen-workload", str(trace), "--count", "3", "--seed", "2"])

        from repro.workload.generator import build_database
        from repro.workload.spec import PAPER_WORKLOAD

        server = TransactionServer(build_database(PAPER_WORKLOAD, seed=0))
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            code = main(
                [
                    "run-trace",
                    str(trace),
                    "--port",
                    str(server.port),
                ]
            )
        finally:
            server.shutdown()
            server.server_close()
        assert code == 0
        out = capsys.readouterr().out
        assert "committed 3 transactions" in out
